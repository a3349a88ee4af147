"""Schedule, conditioning, denoiser, trainer, and sampler tests."""

import numpy as np
import pytest

import styleinpaint.diffusion.train as nsd_train
from configs import full_config
from measures import gradcheck, tape_mib
from oracles import attention_loops, forward_noise_loops
from styleinpaint.checkpoint import NSDM_MAGIC
from styleinpaint.dataset import generate_dataset
from styleinpaint.diffusion import (ConditioningBundle, Denoiser, InpaintTask,
                                    NSDModel, SemanticEncoder, build_schedule,
                                    dual_cross_attention, forward_noise,
                                    from_diffusion_space, sample_inpaint,
                                    to_diffusion_space, train_nsd, training_loss)
from styleinpaint.diffusion.sampler import ddpm_posterior
from styleinpaint.errors import NumericsError
from styleinpaint.nn import ParameterSet, Tensor
from styleinpaint.nn import functional as F
from styleinpaint.psrl.model import PSRLModel
from styleinpaint.rng import derive
from styleinpaint.training import run_steps


class TestSchedule:
    @pytest.mark.parametrize("kind", ["cosine", "linear"])
    def test_variance_preserving(self, kind):
        sch = build_schedule(100, kind)
        np.testing.assert_allclose(sch.alpha ** 2 + sch.sigma ** 2, 1.0, atol=1e-12)
        assert np.all(np.diff(sch.alpha) <= 0)
        assert sch.alpha[0] >= 0.999

    def test_cosine_strictly_decreasing(self):
        sch = build_schedule(100, "cosine")
        assert np.all(np.diff(sch.alpha) < 0)
        assert sch.alpha[0] == 1.0 and sch.sigma[0] == 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            build_schedule(10, "quadratic")
        with pytest.raises(ValueError, match="T >= 2"):
            build_schedule(1)

    def test_monte_carlo_variance(self):
        # x0 uniform on [-1,1] (variance 1/3), eps standard normal
        sch = build_schedule(100, "cosine")
        rng = np.random.default_rng(42)
        n = 10_000
        for t in (1, 50, 99):
            x0 = rng.uniform(-1.0, 1.0, size=n)
            eps = rng.standard_normal(n)
            x_t = sch.alpha[t] * x0 + sch.sigma[t] * eps
            expect = sch.alpha[t] ** 2 / 3.0 + sch.sigma[t] ** 2
            assert abs(x_t.var() - expect) / expect < 0.03

    def test_forward_noise_matches_scalar_loops(self):
        sch = build_schedule(50, "cosine")
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((3, 2, 4, 4))
        eps = rng.standard_normal((3, 2, 4, 4))
        t = np.array([0, 17, 49])
        got = forward_noise(x0, t, eps, sch)
        np.testing.assert_allclose(got, forward_noise_loops(x0, t, eps, sch.alpha, sch.sigma))
        one = forward_noise(x0, 17, eps, sch)
        np.testing.assert_allclose(one, forward_noise_loops(x0, 17, eps, sch.alpha, sch.sigma))

    def test_forward_noise_edge_cases(self):
        sch = build_schedule(100, "cosine")
        x0 = np.random.default_rng(1).standard_normal((2, 3, 4, 4))
        eps = np.random.default_rng(2).standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(forward_noise(x0, 0, eps, sch), x0)
        np.testing.assert_allclose(forward_noise(np.zeros_like(x0), 30, eps, sch),
                                   sch.sigma[30] * eps)
        with pytest.raises(ValueError, match="does not match"):
            forward_noise(x0, 5, eps[:1], sch)
        with pytest.raises(ValueError, match="outside"):
            forward_noise(x0, 100, eps, sch)

    def test_posterior_consistent_with_forward_marginal(self):
        # sampling x_t ~ q(x_t|x0) then x_s ~ q(x_s|x_t,x0) must land on the
        # forward marginal q(x_s|x0): mean alpha_s x0, variance sigma_s^2
        sch = build_schedule(100, "cosine")
        rng = np.random.default_rng(7)
        t, s, x0 = 80, 35, 0.4
        draws = 20_000
        x_t = sch.alpha[t] * x0 + sch.sigma[t] * rng.standard_normal(draws)
        mean, var = ddpm_posterior(x_t, np.full(draws, x0),
                                   float(sch.alpha[t] ** 2), float(sch.alpha[s] ** 2))
        x_s = mean + np.sqrt(var) * rng.standard_normal(draws)
        assert abs(x_s.mean() - sch.alpha[s] * x0) < 0.02
        assert abs(x_s.var() - sch.sigma[s] ** 2) / sch.sigma[s] ** 2 < 0.03


def _ca_weights(rng, c, dtype=np.float32):
    mk = lambda i, o: Tensor((rng.standard_normal((i, o)) / np.sqrt(i)).astype(dtype))
    return {"wq": mk(c, 64), "wk_sem": mk(64, 64), "wv_sem": mk(64, 64),
            "wk_sty": mk(64, 64), "wv_sty": mk(64, 64)}


class TestDualCrossAttention:
    def test_lambda_zero_bit_equals_semantic_path(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 5, 32)).astype(np.float32))
        sem = Tensor(rng.standard_normal((2, 3, 64)).astype(np.float32))
        sty = Tensor(rng.standard_normal((2, 4, 64)).astype(np.float32))
        w = _ca_weights(rng, 32)
        out = dual_cross_attention(x, ConditioningBundle(sem, sty, 0.0), **w)
        only = F.scaled_dot_attention(x @ w["wq"], sem @ w["wk_sem"], sem @ w["wv_sem"])
        np.testing.assert_array_equal(out.data, only.data)

    def test_identical_paths_at_lambda_one_double(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 6, 32)).astype(np.float32))
        sem = Tensor(rng.standard_normal((1, 3, 64)).astype(np.float32))
        w = _ca_weights(rng, 32)
        w["wk_sty"] = Tensor(w["wk_sem"].data.copy())
        w["wv_sty"] = Tensor(w["wv_sem"].data.copy())
        out = dual_cross_attention(x, ConditioningBundle(sem, sem, 1.0), **w)
        z_sem = dual_cross_attention(x, ConditioningBundle(sem, sem, 0.0), **w)
        np.testing.assert_array_equal(out.data, 2.0 * z_sem.data)

    def test_lambda_additivity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 5, 32)).astype(np.float32))
        sem = Tensor(rng.standard_normal((2, 3, 64)).astype(np.float32))
        sty = Tensor(rng.standard_normal((2, 4, 64)).astype(np.float32))
        w = _ca_weights(rng, 32)
        z = {lam: dual_cross_attention(x, ConditioningBundle(sem, sty, lam), **w).data
             for lam in (0.0, 1.0, 2.0)}
        np.testing.assert_allclose(z[2.0] - z[1.0], z[1.0] - z[0.0], atol=1e-5)

    def test_matches_attention_oracle(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 4, 16)))
        sem = Tensor(rng.standard_normal((2, 3, 64)))
        sty = Tensor(rng.standard_normal((2, 5, 64)))
        w = _ca_weights(rng, 16, dtype=np.float64)
        out = dual_cross_attention(x, ConditioningBundle(sem, sty, 0.7), **w)
        q = x.data @ w["wq"].data
        want = attention_loops(q, sem.data @ w["wk_sem"].data, sem.data @ w["wv_sem"].data) \
            + 0.7 * attention_loops(q, sty.data @ w["wk_sty"].data, sty.data @ w["wv_sty"].data)
        np.testing.assert_allclose(out.data, want, atol=1e-9)

    def test_token_dim_mismatch(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 4, 32)).astype(np.float32))
        bad = Tensor(rng.standard_normal((1, 3, 48)).astype(np.float32))
        w = _ca_weights(rng, 32)
        with pytest.raises(ValueError, match="token dim"):
            dual_cross_attention(x, ConditioningBundle(bad, None, 0.0), **w)

    def test_bundle_validation(self):
        sem = Tensor(np.zeros((1, 3, 64), np.float32))
        with pytest.raises(ValueError, match="lambda"):
            ConditioningBundle(sem, None, -0.5)
        with pytest.raises(ValueError, match="style tokens"):
            ConditioningBundle(sem, None, 1.0)


class TestSemanticEncoder:
    def test_shape_and_determinism(self):
        params = ParameterSet()
        enc = SemanticEncoder(params, derive(0, "init"))
        ids = np.array([[0, 3, 7], [1, 4, 8]])
        a, b = enc(ids), enc(ids)
        assert a.shape == (2, 3, 64)
        np.testing.assert_array_equal(a.data, b.data)

    def test_token_out_of_range(self):
        enc = SemanticEncoder(ParameterSet(), derive(0, "init"))
        with pytest.raises(ValueError, match="vocabulary"):
            enc(np.array([[0, 99, 1]]))


def _tiny_model(seed=7, T=20):
    return NSDModel(seed, T=T)


def _spice(model, rng):
    """Move the zero-initialized tails off zero so paths are exercised."""
    for path in model.params.paths():
        t = model.params[path]
        if not t.data.any():
            t.data[...] = (rng.standard_normal(t.data.shape) * 0.05).astype(t.data.dtype)


class TestDenoiser:
    def test_output_shape_matches_input(self):
        m = _tiny_model()
        for hw in (16, 32):
            x = np.random.default_rng(0).standard_normal((2, 3, hw, hw)).astype(np.float32)
            sem = m.encoder(np.array([[0, 3, 7], [1, 4, 8]]))
            out = m.denoiser.predict_noise(x, np.array([3, 9]), ConditioningBundle(sem, None, 0.0))
            assert out.shape == x.shape

    def test_zero_head_predicts_zero(self):
        m = _tiny_model()
        x = np.random.default_rng(1).standard_normal((1, 3, 16, 16)).astype(np.float32)
        sem = m.encoder(np.array([[0, 3, 7]]))
        out = m.denoiser.predict_noise(x, 5, ConditioningBundle(sem, None, 0.0))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_bit_identical_across_calls(self):
        m = _tiny_model()
        _spice(m, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        sem = m.encoder(np.array([[0, 3, 7], [2, 5, 9]]))
        sty = Tensor(rng.standard_normal((2, 5, 64)).astype(np.float32))
        bundle = ConditioningBundle(sem, sty, 1.0)
        a = m.denoiser.predict_noise(x, np.array([1, 7]), bundle)
        b = m.denoiser.predict_noise(x, np.array([1, 7]), bundle)
        np.testing.assert_array_equal(a.data, b.data)

    def test_finite_across_timesteps(self):
        m = _tiny_model()
        _spice(m, np.random.default_rng(4))
        x = np.random.default_rng(5).standard_normal((1, 3, 16, 16)).astype(np.float32)
        sem = m.encoder(np.array([[0, 3, 7]]))
        for t in (0, m.schedule.T // 2, m.schedule.T - 1):
            out = m.denoiser.predict_noise(x, t, ConditioningBundle(sem, None, 0.0))
            assert np.isfinite(out.data).all()

    def test_input_validation(self):
        m = _tiny_model()
        sem = m.encoder(np.array([[0, 3, 7]]))
        bundle = ConditioningBundle(sem, None, 0.0)
        x = np.zeros((1, 3, 16, 16), np.float32)
        with pytest.raises(ValueError, match="outside"):
            m.denoiser.predict_noise(x, m.schedule.T, bundle)
        with pytest.raises(ValueError, match="divisible"):
            m.denoiser.predict_noise(np.zeros((1, 3, 18, 18), np.float32), 1, bundle)

    def test_style_path_ignored_when_kv_zero(self):
        # zeroed style projections make the output independent of f_sty
        m = _tiny_model()
        _spice(m, np.random.default_rng(6))
        for blk in ("d1", "d2", "mid", "u1", "u2"):
            m.params[f"den/{blk}/ca/sty/wk"].data[...] = 0.0
            m.params[f"den/{blk}/ca/sty/wv"].data[...] = 0.0
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        sem = m.encoder(np.array([[0, 3, 7]]))
        outs = []
        for _ in range(2):
            sty = Tensor(rng.standard_normal((1, 4, 64)).astype(np.float32))
            outs.append(m.denoiser.predict_noise(x, 3, ConditioningBundle(sem, sty, 1.0)).data)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestTrainingLoss:
    def test_perfect_prediction_gives_zero(self):
        m = _tiny_model()
        rng = np.random.default_rng(0)
        images = rng.random((2, 16, 16, 3)).astype(np.float32)
        eps = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)

        class Oracle:
            def predict_noise(self, x_t, t, bundle, reference_features=None):
                return Tensor(eps)

        loss = training_loss(Oracle(), m.encoder, images, np.array([[0, 3, 7], [1, 4, 8]]),
                             m.schedule, t=np.array([3, 9]), eps=eps)
        assert loss.item() == 0.0

    def test_zero_prediction_gives_unit_loss(self):
        # fresh model predicts zero noise, so the loss is E[eps^2] ~= 1
        m = _tiny_model()
        rng = np.random.default_rng(1)
        images = rng.random((4, 16, 16, 3)).astype(np.float32)
        toks = np.tile(np.array([0, 3, 7]), (4, 1))
        draw = np.random.default_rng(2)
        t = draw.integers(0, m.schedule.T, size=4)
        eps = draw.standard_normal((4, 3, 16, 16)).astype(np.float32)
        loss = training_loss(m.denoiser, m.encoder, images, toks, m.schedule,
                             t=t, eps=eps)
        assert abs(loss.item() - 1.0) < 0.15

    def test_gradcheck_micro_batch(self):
        m = _tiny_model(seed=11, T=10)
        _spice(m, np.random.default_rng(3))
        for path in m.params.paths():
            t = m.params[path]
            t.data = t.data.astype(np.float64)
        rng = np.random.default_rng(4)
        images = rng.random((1, 16, 16, 3))
        toks = np.array([[0, 3, 7]])
        eps = rng.standard_normal((1, 3, 16, 16))
        sty = Tensor(rng.standard_normal((1, 3, 64)))
        masks = np.zeros((1, 16, 16), np.float32)
        masks[:, 4:10, 5:12] = 1.0

        def fn():
            return training_loss(m.denoiser, m.encoder, images, toks, m.schedule,
                                 lam=1.0, style_tokens=sty, refnet=m.refnet,
                                 masks=masks, t=np.array([4]), eps=eps)

        # one representative tensor per layer kind keeps this affordable;
        # the full parameter sweep lives in the acceptance suite
        picks = ["den/in/w", "den/time/w1", "den/d1/entry/w", "den/d1/temb/b",
                 "den/d1/res1/w", "den/d1/res2/w", "den/d1/sa/wq", "den/d1/sa/wo",
                 "den/d1/ca/wq", "den/d1/ca/wo", "den/d1/ca/sem/wk",
                 "den/d1/ca/sty/wv", "den/mid/res2/b", "den/u2/entry/w",
                 "den/out/w", "sem/table", "sem/sa/wv", "ref/in/w",
                 "ref/mid/res1/w", "ref/u1/sa/wk", "con/d1/w", "con/u2/b"]
        inputs = [m.params[p] for p in picks]
        worst = gradcheck(fn, inputs, tol=1e-3, max_coords=2,
                          rng=np.random.default_rng(5))
        assert worst <= 1e-3

    def test_phase_b_tape_holds_what_backward_reads(self):
        # phase B trains the reference path through the frozen denoiser,
        # whose activations its backward mostly does not read; a tape that
        # kept every operand held 223.4 MiB here
        assert tape_mib("B").held <= 0.6 * 223.4

    @pytest.mark.parametrize("phase", ["A", "B"])
    def test_tape_keeps_no_attention_softmax(self, phase):
        # each B=4 self-attention at 1024 tokens kept a 16 MiB softmax until
        # backward recomputed it: phase A held 89.7 MiB, phase B 127.2
        assert tape_mib(phase).held <= 65


def _smoke_dataset(size=64, count=8, styles=2, seed=21):
    return generate_dataset(seed=seed, count=count, n_styles=styles, size=size)


def _fast_psrl(seed=5):
    return PSRLModel(seed, patch_size=16)


class TestTrainNsd:
    def test_smoke_phases_and_log(self, tmp_path):
        samples = _smoke_dataset()
        cfg = full_config("nsd", T=20, phase_a=3, phase_b=3, batch=2, k=2)
        model, rows = train_nsd(samples, _fast_psrl(), cfg, seed=9,
                                checkpoint_path=tmp_path / "nsd.bin",
                                log_path=tmp_path / "nsd.csv")
        assert len(rows) == 6
        phases = [r.split(",")[1] for r in rows]
        assert phases == ["A"] * 3 + ["B"] * 3
        losses = [float(r.split(",")[2]) for r in rows]
        assert all(np.isfinite(losses))
        text = (tmp_path / "nsd.csv").read_text().splitlines()
        assert text[0] == "step,phase,loss"
        assert len(text) == 7

    def test_loss_decreases_phase_a(self):
        samples = _smoke_dataset(size=32, count=12, seed=22)
        cfg = full_config("nsd", T=50, phase_a=60, phase_b=0, batch=4)
        _, rows = train_nsd(samples, None, cfg, seed=13)
        losses = [float(r.split(",")[2]) for r in rows]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_phase_b_freezes_prior(self, tmp_path):
        samples = _smoke_dataset()
        cfg = full_config("nsd", T=20, phase_a=2, phase_b=0, batch=1, k=2)
        model_a, _ = train_nsd(samples, _fast_psrl(), cfg, seed=17,
                               checkpoint_path=tmp_path / "a.bin")
        cfg_b = dict(cfg, phase_b=2)
        model_b, _ = train_nsd(samples, _fast_psrl(), cfg_b, seed=17)
        changed = []
        for p in sorted(model_a.params.paths()):
            if not np.array_equal(model_a.params[p].data, model_b.params[p].data):
                changed.append(p)
        assert changed, "phase B trained nothing"
        allowed = model_a.phase_b_paths()
        assert all(p in allowed for p in changed)
        assert any(p.startswith("con/") for p in changed)
        assert any("/ca/sty/wv" in p for p in changed)

    def test_resume_is_bit_exact(self, tmp_path):
        samples = _smoke_dataset(count=6)
        cfg = full_config("nsd", T=20, phase_a=2, phase_b=2, batch=1, k=2)
        full, _ = train_nsd(samples, _fast_psrl(), cfg, seed=23)
        half_cfg = dict(cfg, phase_a=2, phase_b=1)
        ckpt = tmp_path / "half.bin"
        train_nsd(samples, _fast_psrl(), half_cfg, seed=23, checkpoint_path=ckpt)
        # hand the checkpoint a longer horizon, then resume from it
        from styleinpaint.checkpoint import NSDM_MAGIC, load_checkpoint, save_checkpoint
        rcfg, tensors = load_checkpoint(ckpt, NSDM_MAGIC)
        rcfg["phase_b"] = 2
        save_checkpoint(ckpt, NSDM_MAGIC, rcfg, tensors)
        resumed, _ = train_nsd(samples, _fast_psrl(), {}, seed=0, resume=ckpt)
        for p in sorted(full.params.paths()):
            np.testing.assert_array_equal(full.params[p].data, resumed.params[p].data,
                                          err_msg=p)

    def test_resume_hands_over_checkpoint(self):
        # run_steps consumes `resumed`: the parameters and the Adam moments
        # are the loaded arrays, so nothing is held twice
        params = ParameterSet()
        w = params.add("w", Tensor(np.zeros(3, np.float32)))
        loaded = {"w": np.array([1.0, -2.0, 3.0], np.float32),
                  "opt.m.w": np.full(3, 0.1, np.float32),
                  "opt.v.w": np.full(3, 0.2, np.float32)}
        resumed = dict(loaded)

        def step_fn(step):
            np.testing.assert_array_equal(w.data, [1.0, -2.0, 3.0])
            loss = (w * w).sum()
            return loss, lambda: f"{step}"

        rows = run_steps(params, {"lr": 1e-3, "opt_step": 5, "step": 2}, 0, 3,
                         step_fn, resumed, magic=NSDM_MAGIC, echo=(), header="step")
        assert rows == ["2"]
        assert resumed == {}
        assert w.data is loaded["w"]
        # Adam updated the loaded moments in place: 0.9 * 0.1 + 0.1 * 2w
        np.testing.assert_allclose(loaded["opt.m.w"], [0.29, -0.31, 0.69], rtol=1e-6)

    def test_nan_guard(self, monkeypatch):
        samples = _smoke_dataset(size=32, count=4, seed=24)

        def poisoned(*args, **kwargs):
            return Tensor(np.float32(np.nan))

        monkeypatch.setattr(nsd_train, "training_loss", poisoned)
        with pytest.raises(NumericsError, match="non-finite loss at step 0"):
            train_nsd(samples, None,
                      full_config("nsd", T=20, phase_a=2, phase_b=0, batch=1), seed=3)

    def test_empty_dataset_rejected(self):
        from styleinpaint.errors import DataError
        with pytest.raises(DataError, match="empty"):
            train_nsd([], None, {}, seed=0)

    def test_checkpoint_round_trip(self, tmp_path):
        samples = _smoke_dataset(size=32, count=4, seed=25)
        cfg = full_config("nsd", T=20, phase_a=2, phase_b=0, batch=1)
        model, _ = train_nsd(samples, None, cfg, seed=31,
                             checkpoint_path=tmp_path / "m.bin")
        loaded, rcfg = NSDModel.from_checkpoint(tmp_path / "m.bin")
        assert rcfg["T"] == 20 and rcfg["step"] == 2
        for p in sorted(model.params.paths()):
            np.testing.assert_array_equal(model.params[p].data, loaded.params[p].data)

    def test_loading_draws_no_init(self, tmp_path, monkeypatch):
        # a checkpoint supplies every parameter, so neither loading nor
        # resuming draws the initialisation it would overwrite
        samples = _smoke_dataset(size=32, count=4, seed=25)
        ckpt = tmp_path / "m.bin"
        model, _ = train_nsd(samples, None, full_config("nsd", T=20, phase_a=1, phase_b=0,
                                                        batch=1),
                             seed=31, checkpoint_path=ckpt)
        labels = []
        derive = nsd_train.derive
        monkeypatch.setattr(nsd_train, "derive",
                            lambda seed, *scope: labels.append(scope[0]) or derive(seed, *scope))
        loaded = [NSDModel.from_checkpoint(ckpt)[0],
                  train_nsd(samples, None, {}, seed=0, resume=ckpt)[0]]
        assert "nsd-init" not in labels
        for p in model.params.paths():
            for m in loaded:
                assert np.array_equal(model.params[p].data, m.params[p].data), p


class TestSampler:
    def _trained_stub(self, T=20):
        # an untrained model is fine: sampler contracts are about plumbing
        m = _tiny_model(seed=3, T=T)
        _spice(m, np.random.default_rng(8))
        return m

    def _task(self, size=32, seed=5):
        rng = np.random.default_rng(seed)
        image = rng.random((size, size, 3)).astype(np.float32)
        # corner mask leaves room for a 16x16 style patch in the context
        mask = np.zeros((size, size), np.float32)
        mask[2:10, 2:10] = 1.0
        return InpaintTask(image, mask, [0, 3, 7])

    def test_same_seed_identical(self):
        m = self._trained_stub()
        task = self._task()
        psrl = _fast_psrl()
        a = sample_inpaint(task, m, psrl, steps=5, seed=77, k=1)
        b = sample_inpaint(task, m, psrl, steps=5, seed=77, k=1)
        np.testing.assert_array_equal(a, b)
        c = sample_inpaint(task, m, psrl, steps=5, seed=78, k=1)
        assert not np.array_equal(a, c)

    def test_paste_background_bit_equal(self):
        m = self._trained_stub()
        task = self._task()
        out = sample_inpaint(task, m, _fast_psrl(), steps=4, seed=9, k=1,
                             paste_background=True)
        keep = task.mask == 0
        np.testing.assert_array_equal(out[keep], task.image[keep])
        assert not np.array_equal(out[~keep], task.image[~keep])

    def test_zero_steps_returns_composited_noise(self):
        m = self._trained_stub()
        task = self._task()
        out = sample_inpaint(task, m, _fast_psrl(), steps=0, seed=11, k=1,
                             paste_background=True)
        keep = task.mask == 0
        np.testing.assert_array_equal(out[keep], task.image[keep])
        raw = sample_inpaint(task, m, _fast_psrl(), steps=0, seed=11, k=1)
        x = derive(11, "sample-init").standard_normal((1, 3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(raw, from_diffusion_space(x)[0])

    def test_steps_validation(self):
        m = self._trained_stub(T=10)
        task = self._task()
        with pytest.raises(ValueError, match="denoising steps"):
            sample_inpaint(task, m, _fast_psrl(), steps=11, seed=0, k=1)
        with pytest.raises(ValueError, match=">= 0"):
            sample_inpaint(task, m, _fast_psrl(), steps=-1, seed=0, k=1)

    def test_single_step_runs(self):
        m = self._trained_stub()
        out = sample_inpaint(self._task(), m, _fast_psrl(), steps=1, seed=2, k=1)
        assert out.shape == (32, 32, 3)
        assert np.isfinite(out).all()
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestSpaceMaps:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        img = rng.random((2, 8, 8, 3)).astype(np.float32)
        x = to_diffusion_space(img)
        assert x.shape == (2, 3, 8, 8)
        assert x.min() >= -1.0 and x.max() <= 1.0
        np.testing.assert_allclose(from_diffusion_space(x), img, atol=1e-6)
