"""End-to-end command tests: exit codes, artifacts, determinism."""

import dataclasses
import os
import shutil
import struct

import numpy as np
import pytest

from measures import peak_mib
from styleinpaint.checkpoint import NSDM_MAGIC, PSRL_MAGIC, load_checkpoint, save_checkpoint
from styleinpaint.cli import run
from styleinpaint.config import DEFAULTS, build_config, load_config_file
from styleinpaint.dataset.io import (DatasetSample, dataset_read, dataset_write,
                                     read_ppm, write_ppm)
from styleinpaint.errors import DataError, NumericsError, UsageError


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = build_config()
        assert cfg == dict(DEFAULTS)

    def test_unknown_key(self):
        with pytest.raises(UsageError, match="unknown config key 'psrl.tao'"):
            build_config({"psrl.tao": "0.1"})

    def test_bad_type(self):
        with pytest.raises(UsageError, match="expected int"):
            build_config({"psrl.s1": "many"})

    def test_tau_positive(self):
        with pytest.raises(UsageError, match="tau"):
            build_config({"psrl.tau": "0"})

    def test_lambda_nonnegative(self):
        with pytest.raises(UsageError, match="nsd.lam"):
            build_config({"nsd.lam": "-0.5"})

    def test_seed_nonnegative(self, tmp_path, capsys):
        # a negative seed from --set or a config file is refused like
        # --seed -1, before any command starts
        with pytest.raises(UsageError, match="seed must be >= 0"):
            build_config({"seed": "-1"})
        assert run(["gen-dataset", "--out", str(tmp_path), "--set", "seed=-1"]) == 1
        assert "usage error: seed must be >= 0" in capsys.readouterr().err

    def test_size_multiple_of_four(self):
        with pytest.raises(UsageError, match="multiple of 4"):
            build_config({"dataset.size": "30"})

    def test_phase_b_needs_phase_a(self, capsys):
        # phase B alone would train nothing: the zero-initialized output head
        # is frozen, so every gradient is zero
        with pytest.raises(UsageError, match="nsd.phase_a > 0"):
            build_config({"nsd.phase_a": "0", "nsd.phase_b": "1"})
        assert build_config({"nsd.phase_a": "0", "nsd.phase_b": "0"})["nsd.phase_b"] == 0
        assert run(["train-nsd", "--set", "nsd.phase_a=0"]) == 1
        assert "nsd.phase_a > 0" in capsys.readouterr().err

    def test_phase_b_needs_style_weight(self, capsys):
        # phase B trains the style attention; at nsd.lam=0 it gets no
        # gradient, so the run must stop before phase A, not after it
        with pytest.raises(UsageError, match=r"nsd.phase_b > 0 needs nsd.lam > 0"):
            build_config({"nsd.lam": "0"})
        assert build_config({"nsd.lam": "0", "nsd.phase_b": "0"})["nsd.lam"] == 0
        assert run(["train-nsd", "--set", "nsd.lam=0"]) == 1
        assert "nsd.lam > 0" in capsys.readouterr().err

    def test_stats_tokens_need_projector(self, capsys):
        # raw statistics do not fit the style keys, so a run that attends to
        # style without the projector must stop before it trains or samples
        off = {"nsd.use_projector": "0", "nsd.phase_b": "0", "nsd.lam": "0",
               "sample.lam": "0", "eval.lam": "0"}
        assert build_config(off)["nsd.use_projector"] == 0
        assert build_config({**off, "nsd.lam": "1", "nsd.phase_b": "0"})["nsd.lam"] == 1
        for extra, fix in (({"nsd.lam": "0.5", "nsd.phase_b": "1"}, "nsd.phase_b"),
                           ({"sample.lam": "0.5"}, "sample.lam"),
                           ({"eval.lam": "0.5"}, "eval.lam")):
            with pytest.raises(UsageError, match=f"set {fix} to 0"):
                build_config({**off, **extra})
        with pytest.raises(UsageError, match="set nsd.phase_b, sample.lam, eval.lam to 0"):
            build_config({"nsd.use_projector": "0"})
        assert run(["train-nsd", "--set", "nsd.use_projector=0"]) == 1
        assert "nsd.use_projector=0" in capsys.readouterr().err

    def test_phase_b_needs_style_patches(self, capsys):
        # phase B embeds each image's style from nsd.k context patches; at
        # k=0 the run used to fail only after all of phase A had trained
        with pytest.raises(UsageError, match=r"nsd.phase_b > 0 needs nsd.k > 0"):
            build_config({"nsd.k": "0"})
        assert build_config({"nsd.k": "0", "nsd.phase_b": "0"})["nsd.k"] == 0
        assert run(["train-nsd", "--set", "nsd.k=0"]) == 1
        assert "nsd.k > 0" in capsys.readouterr().err

    def test_psrl_needs_patch_pairs(self, capsys):
        # every mode evaluates the same-image terms (L_xy is logged even when
        # it is not trained), and they need two patches per image
        for mode in ("progressive", "contrastive_only", "stats_only"):
            with pytest.raises(UsageError, match="psrl.n must be >= 2"):
                build_config({"psrl.n": "1", "psrl.mode": mode})
        assert build_config({"psrl.n": "2"})["psrl.n"] == 2
        assert run(["train-psrl", "--set", "psrl.n=0"]) == 1
        assert "psrl.n must be >= 2" in capsys.readouterr().err

    def test_psrl_batch_positive(self, tmp_path, capsys):
        # a step stacks psrl.batch images; at 0 train-psrl read the dataset
        # and then failed in numpy's stack
        with pytest.raises(UsageError, match=r"psrl.batch must be >= 1"):
            build_config({"psrl.batch": "0"})
        assert build_config({"psrl.batch": "0", "psrl.s1": "0",
                             "psrl.s2": "0"})["psrl.batch"] == 0
        assert run(["train-psrl", "--out", str(tmp_path), "--set", "psrl.batch=0"]) == 1
        assert "psrl.batch must be >= 1" in capsys.readouterr().err

    def test_nsd_batch_positive(self, tmp_path, capsys):
        # at nsd.batch=0 train-nsd read the dataset and the PSRL checkpoint
        # and then failed in numpy's stack
        with pytest.raises(UsageError, match=r"nsd.batch must be >= 1"):
            build_config({"nsd.batch": "0"})
        assert build_config({"nsd.batch": "0", "nsd.phase_a": "0",
                             "nsd.phase_b": "0"})["nsd.batch"] == 0
        assert run(["train-nsd", "--out", str(tmp_path), "--set", "nsd.batch=0"]) == 1
        assert "nsd.batch must be >= 1" in capsys.readouterr().err

    def test_viz_count_positive(self, tmp_path, capsys):
        # viz.count=0 projected no sample of a non-empty dataset and exited
        # 2 with a data error
        with pytest.raises(UsageError, match=r"viz.count must be >= 1"):
            build_config({"viz.count": "0"})
        assert build_config({"viz.count": "1"})["viz.count"] == 1
        assert run(["viz", "--out", str(tmp_path), "--set", "viz.count=0"]) == 1
        assert "viz.count must be >= 1" in capsys.readouterr().err

    def test_mask_fraction_range(self, capsys):
        # make_mask draws areas in [0.1, 0.5] and raised mid-generation
        for key, bad in (("dataset.mask_lo", "0.05"), ("dataset.mask_hi", "0.6")):
            with pytest.raises(UsageError, match=rf"{key} must lie in \[0.1, 0.5\]"):
                build_config({key: bad})
        cfg = build_config({"dataset.mask_lo": "0.1", "dataset.mask_hi": "0.5"})
        assert (cfg["dataset.mask_lo"], cfg["dataset.mask_hi"]) == (0.1, 0.5)
        assert run(["gen-dataset", "--set", "dataset.mask_lo=0.05"]) == 1
        assert "dataset.mask_lo must lie in" in capsys.readouterr().err

    def test_eval_needs_patches(self, capsys):
        # scoring embeds k patches per region whatever eval.lam is; at k=0
        # every task's row used to fail while eval exited 0
        for lam in ("1", "0"):
            with pytest.raises(UsageError, match="eval.k must be >= 1"):
                build_config({"eval.k": "0", "eval.lam": lam})
        assert build_config({"eval.k": "1"})["eval.k"] == 1
        assert run(["eval", "--set", "eval.k=0"]) == 1
        assert "eval.k must be >= 1" in capsys.readouterr().err

    def test_style_fill_needs_patches(self, capsys):
        # a fill at sample.lam > 0 embeds the context's style from k patches
        with pytest.raises(UsageError, match=r"sample.lam > 0 needs sample.k >= 1"):
            build_config({"sample.k": "0"})
        assert build_config({"sample.k": "0", "sample.lam": "0"})["sample.k"] == 0
        assert run(["inpaint", "scene.ppm", "8,8,24,24", "disc",
                    "--set", "sample.k=0"]) == 1
        assert "sample.k >= 1" in capsys.readouterr().err

    def test_viz_needs_patches(self, capsys):
        with pytest.raises(UsageError, match="viz.n must be >= 1"):
            build_config({"viz.n": "0"})
        assert build_config({"viz.n": "1"})["viz.n"] == 1
        assert run(["viz", "--set", "viz.n=0"]) == 1
        assert "viz.n must be >= 1" in capsys.readouterr().err

    def test_scenes_need_a_style(self, workspace, capsys):
        # scenes cycle through dataset.styles, so at 0 eval must stop before
        # it loads a model, not die in generate_dataset dividing by zero
        for count in ({}, {"dataset.count": "0"}, {"eval.count": "0"}):
            with pytest.raises(UsageError, match="dataset.styles must be >= 1"):
                build_config({"dataset.styles": "0", **count})
        none = {"dataset.styles": "0", "dataset.count": "0", "eval.count": "0"}
        assert build_config(none)["dataset.styles"] == 0
        assert run(["eval", "--out", workspace, "--set", "dataset.styles=0"]) == 1
        assert "dataset.styles must be >= 1" in capsys.readouterr().err

    def test_file_parsing_and_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\n"
                        "psrl.tau = 0.2  # trailing comment\n"
                        "\n"
                        "dataset.count=3\n")
        values = load_config_file(path)
        cfg = build_config(values, {"dataset.count": "2"})
        assert cfg["psrl.tau"] == 0.2
        assert cfg["dataset.count"] == 2  # override beats file

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("psrl.tau 0.2\n")
        with pytest.raises(UsageError, match="key=value"):
            load_config_file(path)


GEN = ["--set", "dataset.count=4", "--set", "dataset.styles=2"]
PSRL = ["--set", "psrl.s1=3", "--set", "psrl.s2=3", "--set", "psrl.batch=2",
        "--set", "psrl.n=4"]
NSD = ["--set", "nsd.T=10", "--set", "nsd.phase_a=2", "--set", "nsd.phase_b=2",
       "--set", "nsd.batch=1", "--set", "nsd.k=2"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset, style encoder, and denoiser trained once with smoke configs."""
    out = str(tmp_path_factory.mktemp("ws"))
    assert run(["gen-dataset", "--out", out, "--seed", "7"] + GEN) == 0
    assert run(["train-psrl", "--out", out, "--seed", "7"] + PSRL) == 0
    assert run(["train-nsd", "--out", out, "--seed", "7"] + NSD) == 0
    return out


class TestGenDataset:
    def test_writes_declared_count(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        assert run(["gen-dataset", "--out", out, "--seed", "1"] + GEN) == 0
        assert "wrote" in capsys.readouterr().out
        samples = dataset_read(f"{out}/dataset.s3im")
        assert len(samples) == 4
        manifest = (tmp_path / "d" / "dataset.s3im.manifest.txt").read_text()
        assert "count=4" in manifest

    def test_same_seed_bit_identical(self, tmp_path):
        outs = [str(tmp_path / n) for n in ("a", "b")]
        for out in outs:
            assert run(["gen-dataset", "--out", out, "--seed", "5"] + GEN) == 0
        blobs = [open(f"{o}/dataset.s3im", "rb").read() for o in outs]
        assert blobs[0] == blobs[1]

    def test_zero_count_valid(self, tmp_path):
        out = str(tmp_path / "e")
        assert run(["gen-dataset", "--out", out, "--set",
                    "dataset.count=0"]) == 0
        assert dataset_read(f"{out}/dataset.s3im") == []

    def test_config_file_used(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dataset.count=2\ndataset.styles=2\n")
        out = str(tmp_path / "f")
        assert run(["gen-dataset", "--config", str(cfgfile), "--out", out]) == 0
        assert len(dataset_read(f"{out}/dataset.s3im")) == 2


class TestDatasetFile:
    def test_declared_gigabyte_is_refused_unread(self, tmp_path, capsys):
        # one 1x1 sample whose pixels then declare [16384, 16384, 1] float32
        out = tmp_path / "d"
        out.mkdir()
        one = DatasetSample(np.zeros((1, 1, 3), np.float32), (0, 0, 1, 1), [0], 0, 0)
        dataset_write([one], out / "dataset.s3im")
        blob = (out / "dataset.s3im").read_bytes()
        (out / "dataset.s3im").write_bytes(
            blob[:-24] + struct.pack("<3I", 16384, 16384, 1) + blob[-12:])
        code, peak = peak_mib(run, ["train-psrl", "--out", str(out)] + PSRL)
        assert code == 2 and peak < 1.0
        assert capsys.readouterr().err.startswith("data error: truncated dataset")

    @pytest.mark.parametrize("field, value, says", [
        ("tokens", [0, 11], "outside the 11-word vocabulary"),
        ("mask_rect", (50, 50, 20, 20), "does not fit a 64x64 image")], ids=["token", "rect"])
    def test_bad_sample_stops_train_nsd_before_its_log(self, workspace, tmp_path, field,
                                                       value, says, capsys):
        # checked when the dataset is read, not at the first step that
        # uses the sample, which for a mask rect is after all of phase A
        out = tmp_path / "r"
        out.mkdir()
        shutil.copy(f"{workspace}/psrl.ckpt", out)
        samples = dataset_read(f"{workspace}/dataset.s3im")
        samples[2] = dataclasses.replace(samples[2], **{field: value})
        dataset_write(samples, out / "dataset.s3im")
        assert run(["train-nsd", "--out", str(out)] + NSD) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "sample 2" in err and says in err
        assert not (out / "nsd_log.csv").exists() and not (out / "nsd.ckpt").exists()


class TestTraining:
    def test_psrl_artifacts(self, workspace):
        log = open(f"{workspace}/psrl_log.csv").read().splitlines()
        assert log[0] == "step,stage,L_x,L_y,L_xy,total,pos_cos,neg_cos"
        assert len(log) == 7  # header + s1 + s2

    def test_nsd_artifacts(self, workspace):
        log = open(f"{workspace}/nsd_log.csv").read().splitlines()
        assert log[0] == "step,phase,loss"
        assert [r.split(",")[1] for r in log[1:]] == ["A", "A", "B", "B"]

    def test_psrl_rerun_bit_identical(self, tmp_path, workspace):
        out = str(tmp_path / "r")
        assert run(["gen-dataset", "--out", out, "--seed", "7"] + GEN) == 0
        assert run(["train-psrl", "--out", out, "--seed", "7"] + PSRL) == 0
        ours = open(f"{out}/psrl.ckpt", "rb").read()
        theirs = open(f"{workspace}/psrl.ckpt", "rb").read()
        assert ours == theirs

    @pytest.mark.parametrize("trainer,magic,short,echo", [
        ("psrl", PSRL_MAGIC, "psrl.s2=1", {"s2": 3}),
        ("nsd", NSDM_MAGIC, "nsd.phase_b=1", {"phase_b": 2})], ids=["psrl", "nsd"])
    def test_resume_keeps_log_history(self, tmp_path, workspace, trainer, magic,
                                      short, echo):
        # a run stopped early, its echo set to the full plan, then resumed,
        # writes the uninterrupted run's checkpoint and log
        out = tmp_path / "i"
        out.mkdir()
        for name in ("dataset.s3im", "psrl.ckpt"):
            shutil.copy(f"{workspace}/{name}", out)
        args = [f"train-{trainer}", "--out", str(out), "--seed", "7"] + PSRL + NSD
        assert run(args + ["--set", short]) == 0
        ckpt = out / f"{trainer}.ckpt"
        cfg, tensors = load_checkpoint(ckpt, magic)
        save_checkpoint(ckpt, magic, dict(cfg, **echo), tensors)
        assert run(args + ["--resume", str(ckpt)]) == 0
        for name in (f"{trainer}.ckpt", f"{trainer}_log.csv"):
            assert (out / name).read_bytes() == open(f"{workspace}/{name}", "rb").read(), name

    def test_mode_flag(self, tmp_path):
        out = str(tmp_path / "m")
        assert run(["gen-dataset", "--out", out, "--seed", "2"] + GEN) == 0
        assert run(["train-psrl", "--out", out, "--seed", "2",
                    "--set", "psrl.mode=contrastive_only"] + PSRL) == 0

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        assert run(["train-psrl", "--out", str(tmp_path / "nope")] + PSRL) == 2
        assert "missing dataset" in capsys.readouterr().err

    def test_nan_abort_exit_code(self, workspace, monkeypatch, capsys):
        import styleinpaint.cli as cli_mod

        def explode(*a, **kw):
            raise NumericsError("non-finite loss at step 0")

        monkeypatch.setattr(cli_mod, "train_nsd", explode)
        assert run(["train-nsd", "--out", workspace] + NSD) == 3
        assert "numerical abort" in capsys.readouterr().err


class TestInpaint:
    ARGS = ["--set", "sample.steps=2", "--set", "sample.k=2"]

    @pytest.fixture()
    def scene_ppm(self, workspace, tmp_path):
        sample = dataset_read(f"{workspace}/dataset.s3im")[0]
        path = tmp_path / "scene.ppm"
        write_ppm(sample.pixels, path)
        return str(path)

    def test_deterministic_output(self, workspace, scene_ppm, tmp_path):
        args = ["inpaint", scene_ppm, "8,8,24,24", "disc red stripes",
                "--out", workspace, "--seed", "3"] + self.ARGS
        blobs = []
        for name in ("x.ppm", "y.ppm"):
            assert run(args + ["--set", f"sample.file={tmp_path / name}"]) == 0
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_paste_background_preserves_unmasked(self, workspace, scene_ppm,
                                                 tmp_path):
        dest = tmp_path / "pasted.ppm"
        assert run(["inpaint", scene_ppm, "8,8,24,24", "disc red stripes",
                    "--out", workspace, "--set", "sample.paste_background=1",
                    "--set", f"sample.file={dest}"] + self.ARGS) == 0
        out = read_ppm(dest)
        ref = read_ppm(scene_ppm)
        keep = np.ones((64, 64), bool)
        keep[8:32, 8:32] = False
        assert np.array_equal(out[keep], ref[keep])

    def test_unknown_caption_word(self, workspace, scene_ppm, capsys):
        assert run(["inpaint", scene_ppm, "8,8,24,24", "disc red sparkle",
                    "--out", workspace] + self.ARGS) == 1
        assert "unknown caption word 'sparkle'" in capsys.readouterr().err

    def test_bad_mask_spec(self, workspace, scene_ppm, capsys):
        assert run(["inpaint", scene_ppm, "8x8", "disc red stripes",
                    "--out", workspace] + self.ARGS) == 1
        assert "x,y,w,h" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, scene_ppm, capsys):
        assert run(["inpaint", scene_ppm, "8,8,24,24", "disc red stripes",
                    "--out", str(tmp_path / "empty")] + self.ARGS) == 2
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [b"P6\n64 x\n255\n", b"P6\n64", b"P6\n# no newline"],
                             ids=["not_an_integer", "cut_short", "open_comment"])
    def test_malformed_ppm_header_is_data_error(self, workspace, tmp_path, header, capsys):
        # like an unsupported maxval, a header that cannot be parsed is a data error
        path = tmp_path / "bad.ppm"
        path.write_bytes(header)
        assert run(["inpaint", str(path), "8,8,24,24", "disc",
                    "--out", workspace] + self.ARGS) == 2
        assert "data error: malformed PPM header" in capsys.readouterr().err

    def test_missing_image(self, workspace, capsys):
        assert run(["inpaint", "/no/such.ppm", "8,8,24,24", "disc",
                    "--out", workspace] + self.ARGS) == 2


class TestEvalViz:
    EVAL = ["--set", "eval.count=1", "--set", "eval.k=2",
            "--set", "eval.steps=2"]

    def test_eval_report_and_rerun(self, workspace, tmp_path):
        blobs = []
        for sub in ("p", "q"):
            args = ["eval", "--out", workspace, "--seed", "9",
                    "--set", f"eval.report={tmp_path / sub}.csv",
                    "--set", f"eval.summary={tmp_path / sub}.txt"] + self.EVAL
            assert run(args) == 0
            blobs.append((tmp_path / f"{sub}.csv").read_bytes())
        assert blobs[0] == blobs[1]
        lines = blobs[0].decode().splitlines()
        assert lines[0] == "task_id,style_cos_self,style_cos_foreign,psnr_db,status"
        assert len(lines) == 2

    def test_eval_empty_set(self, workspace, tmp_path):
        args = ["eval", "--out", workspace,
                "--set", "eval.count=0",
                "--set", f"eval.report={tmp_path / 'z.csv'}",
                "--set", f"eval.summary={tmp_path / 'z.txt'}"]
        assert run(args) == 0
        assert (tmp_path / "z.csv").read_text().splitlines() == [
            "task_id,style_cos_self,style_cos_foreign,psnr_db,status"]

    def test_viz_row_count(self, workspace, tmp_path):
        args = ["viz", "--out", workspace, "--set", "viz.count=3",
                "--set", "viz.n=4", "--set", f"viz.file={tmp_path / 'v.csv'}"]
        assert run(args) == 0
        lines = (tmp_path / "v.csv").read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 1 + 3 * 4

    def test_viz_rerun_identical(self, workspace, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            assert run(["viz", "--out", workspace,
                        "--set", f"viz.file={tmp_path / name}"]) == 0
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]


class TestCheckpoint:
    def test_failed_save_keeps_previous_file(self, tmp_path):
        # a save that raises part-way, here on its second tensor, leaves the
        # previous checkpoint whole and no temp file behind
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, PSRL_MAGIC, {"step": 1}, {"a": np.ones(3), "b": np.zeros(2)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(path, PSRL_MAGIC, {"step": 2},
                            {"a": np.ones(3), "b": "not a tensor"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_params_only_skips_moments(self, tmp_path):
        # the moments sort between the parameter paths; params_only returns
        # every other tensor as the full read does, and no "opt." path
        path = tmp_path / "m.ckpt"
        rng = np.random.default_rng(0)
        tensors = {name: rng.standard_normal(shape).astype(np.float32)
                   for name, shape in (("enc/w", (2, 3)), ("opt.m.enc/w", (2, 3)),
                                       ("opt.v.enc/w", (2, 3)), ("proj/b", (4,)))}
        save_checkpoint(path, PSRL_MAGIC, {"step": 1}, tensors)
        cfg, full = load_checkpoint(path, PSRL_MAGIC)
        cfg_p, params = load_checkpoint(path, PSRL_MAGIC, params_only=True)
        assert cfg_p == cfg == {"step": 1}
        assert sorted(full) == sorted(tensors)
        assert sorted(params) == ["enc/w", "proj/b"]
        for name, arr in params.items():
            assert arr.dtype == np.float32 and np.array_equal(arr, tensors[name])

    @pytest.mark.parametrize("params_only", [False, True])
    @pytest.mark.parametrize("cut", [4, 100])
    def test_truncated_checkpoint_is_data_error(self, tmp_path, params_only, cut):
        # cut into the last tensor, a moment that params_only seeks past, or
        # through its 94 bytes into the data of the parameter before it
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, PSRL_MAGIC, {"step": 1},
                        {"a": np.ones(3), "opt.m.a": np.ones(20)})
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DataError, match="truncated checkpoint"):
            load_checkpoint(path, PSRL_MAGIC, params_only=params_only)

    @staticmethod
    def _tiny(path) -> bytes:
        # a PSRL checkpoint holding one float named 'a': its last 10 bytes
        # are the name, the ndim, the one dim and the data
        save_checkpoint(path, PSRL_MAGIC, {"seed": 0, "step": 0, "p": 16}, {"a": np.zeros(1)})
        return path.read_bytes()

    def test_declared_gigabyte_is_refused_unread(self, workspace, tmp_path, capsys):
        # 'a' declares 2**28 floats, 1 GiB, in a 70-byte file: the reader
        # refuses it before reading, in the library and in the CLI
        path = tmp_path / "huge.ckpt"
        blob = self._tiny(path)
        path.write_bytes(blob[:-8] + struct.pack("<I", 2 ** 28) + blob[-4:])
        for params_only in (False, True):
            err, peak = peak_mib(load_checkpoint, path, PSRL_MAGIC, params_only)
            assert isinstance(err, DataError) and "truncated checkpoint" in str(err)
            assert peak < 1.0
        code, peak = peak_mib(run, ["viz", "--out", workspace,
                                    "--set", f"psrl.checkpoint={path}",
                                    "--set", f"viz.file={tmp_path / 'v.csv'}"])
        assert code == 2 and peak < 1.0
        assert capsys.readouterr().err.startswith(f"data error: truncated checkpoint {path}")

    def test_non_utf8_tensor_name_is_data_error(self, workspace, tmp_path, capsys):
        path = tmp_path / "name.ckpt"
        blob = self._tiny(path)
        path.write_bytes(blob[:-10] + b"\xff" + blob[-9:])
        assert run(["viz", "--out", workspace, "--set", f"psrl.checkpoint={path}",
                    "--set", f"viz.file={tmp_path / 'v.csv'}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "not UTF-8" in err and str(path) in err

    def test_file_that_shrinks_while_read_is_data_error(self, tmp_path, monkeypatch):
        # the size is taken once, before the reads; an array whose data then
        # ends early is read into its buffer short, not returned part-filled
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, PSRL_MAGIC, {"step": 1}, {"a": np.ones(3), "b": np.ones(20)})
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-4])
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
        with pytest.raises(DataError, match="truncated checkpoint .*'b' data ends early"):
            load_checkpoint(path, PSRL_MAGIC)

    @pytest.mark.parametrize("params_only", [False, True])
    def test_trailing_bytes_are_data_error(self, tmp_path, params_only):
        path = tmp_path / "long.ckpt"
        path.write_bytes(self._tiny(path) + b"\0\0")
        with pytest.raises(DataError, match="2 bytes after the last array"):
            load_checkpoint(path, PSRL_MAGIC, params_only=params_only)

    @staticmethod
    def _corrupt_echo(path, blob: bytes) -> None:
        # swap the echo for raw bytes: magic, u32 length, echo, rest
        data = path.read_bytes()
        (jlen,) = struct.unpack("<I", data[8:12])
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + jlen:])

    @pytest.mark.parametrize("fault", ["echo_not_json", "echo_without_seed",
                                       "missing_tensor", "wrong_shape"])
    def test_malformed_checkpoint_is_data_error(self, workspace, tmp_path, fault, capsys):
        # a checkpoint the program cannot use is a data error naming the
        # checkpoint and the echo key or tensor at fault
        ckpt = tmp_path / "psrl.ckpt"
        cfg, tensors = load_checkpoint(f"{workspace}/psrl.ckpt", PSRL_MAGIC)
        conv = next(name for name in sorted(tensors)
                    if not name.startswith("opt.") and tensors[name].ndim == 4)
        if fault == "echo_without_seed":
            del cfg["seed"]
        elif fault == "missing_tensor":
            del tensors[conv]
        elif fault == "wrong_shape":
            tensors[conv] = tensors[conv][: tensors[conv].shape[0] // 2]
        save_checkpoint(ckpt, PSRL_MAGIC, cfg, tensors)
        if fault == "echo_not_json":
            self._corrupt_echo(ckpt, b"{'seed': 7}")
        assert run(["viz", "--out", workspace, "--set", f"psrl.checkpoint={ckpt}",
                    "--set", f"viz.file={tmp_path / 'v.csv'}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(ckpt) in err
        assert {"echo_not_json": "config echo", "echo_without_seed": "'seed'",
                "missing_tensor": conv, "wrong_shape": conv}[fault] in err
        if fault == "echo_without_seed":
            out = tmp_path / "r"
            out.mkdir()
            shutil.copy(f"{workspace}/dataset.s3im", out)
            assert run(["train-psrl", "--out", str(out), "--resume", str(ckpt)] + PSRL) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "'seed'" in err and str(ckpt) in err

    @pytest.mark.parametrize("name, key, value", [
        ("psrl.ckpt", "seed", "x"), ("psrl.ckpt", "p", 16.0), ("psrl.ckpt", "step", True),
        ("nsd.ckpt", "seed", "x"), ("nsd.ckpt", "kind", 1), ("nsd.ckpt", "T", "10")])
    def test_mistyped_echo_is_data_error(self, workspace, tmp_path, name, key, value, capsys):
        # an echoed value of the wrong type is a data error naming the
        # checkpoint and the key, in every command that reads it
        out = tmp_path / "r"
        out.mkdir()
        for artefact in ("dataset.s3im", "psrl.ckpt", "nsd.ckpt"):
            shutil.copy(f"{workspace}/{artefact}", out)
        ckpt = str(out / name)
        magic = PSRL_MAGIC if name == "psrl.ckpt" else NSDM_MAGIC
        cfg, tensors = load_checkpoint(ckpt, magic)
        cfg[key] = value
        save_checkpoint(ckpt, magic, cfg, tensors)
        resume = ["--resume", ckpt] + (PSRL if name == "psrl.ckpt" else NSD)
        commands = {"psrl.ckpt": [["viz"], ["train-nsd"] + NSD, ["train-psrl"] + resume],
                    "nsd.ckpt": [["eval"], ["train-nsd"] + resume]}[name]
        if key == "step":  # only a resumed run reads the step count
            commands = commands[-1:]
        for command in commands:
            assert run(command + ["--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("data error:") and ckpt in err and f"'{key}'" in err


class TestUsageErrors:
    def test_no_command(self):
        assert run([]) == 1

    def test_unknown_config_key_via_set(self, capsys):
        assert run(["gen-dataset", "--set", "dataset.sise=64"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_negative_seed(self):
        assert run(["gen-dataset", "--seed", "-1"]) == 1

    def test_steps_beyond_schedule(self, workspace, tmp_path):
        sample = dataset_read(f"{workspace}/dataset.s3im")[0]
        path = tmp_path / "s.ppm"
        write_ppm(sample.pixels, path)
        code = run(["inpaint", str(path), "8,8,24,24", "disc",
                    "--out", workspace, "--set", "sample.steps=999"])
        assert code == 1

    def test_eval_steps_beyond_schedule(self, workspace, tmp_path, capsys):
        # every task would fail alike, so eval stops before it samples or
        # writes a report
        report, summary = tmp_path / "r.csv", tmp_path / "s.txt"
        assert run(["eval", "--out", workspace, "--set", "eval.steps=50",
                    "--set", "eval.count=1", "--set", f"eval.report={report}",
                    "--set", f"eval.summary={summary}"]) == 1
        err = capsys.readouterr().err
        assert "eval.steps=50" in err and "T=10" in err
        assert not report.exists() and not summary.exists()
