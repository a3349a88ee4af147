"""Command-line pipeline: dataset, training, inpainting, evaluation, figures.

Every command is a pure function of (config, input files, seed): rerunning
with the same inputs produces byte-identical outputs. Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import build_config, load_config_file, parse_assignment, subconfig
from .dataset import crop_patches, dataset_read, dataset_write, generate_dataset
from .dataset.io import read_ppm, write_ppm
from .dataset.scenes import TOKEN_OF, mask_from_rect
from .diffusion.sampler import InpaintTask, sample_inpaint
from .diffusion.train import NSDModel, train_nsd
from .errors import DataError, NumericsError, UsageError
from .evaluation import export_projection, run_benchmark, write_report
from .psrl.model import PSRLModel
from .psrl.train import train_psrl
from .rng import derive


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default calls sys.exit(2)
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="styleinpaint",
                     description="style-consistent text-guided inpainting "
                                 "on procedural texture scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--seed", type=int, help="global seed (overrides config)")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key; repeatable")
        return sp

    common(sub.add_parser("gen-dataset", help="render the texture-scene dataset"))

    tp = common(sub.add_parser("train-psrl", help="train the style encoder"))
    tp.add_argument("--resume", help="checkpoint to continue from")

    tn = common(sub.add_parser("train-nsd", help="train the denoiser"))
    tn.add_argument("--resume", help="checkpoint to continue from")

    ip = common(sub.add_parser("inpaint", help="fill a masked region"))
    ip.add_argument("image", help="input PPM image")
    ip.add_argument("mask", help="mask rectangle as x,y,w,h")
    ip.add_argument("caption", help="space-separated caption words")

    common(sub.add_parser("eval", help="score held-out inpainting tasks"))

    common(sub.add_parser("viz", help="export a 2-D projection of patch embeddings"))
    return parser


def _config_from_args(args) -> dict:
    file_values = load_config_file(args.config) if args.config else {}
    overrides = dict(parse_assignment(item) for item in args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    return build_config(file_values, overrides)


def _artifact(cfg: dict, name: str) -> str:
    os.makedirs(cfg["out"], exist_ok=True)
    return os.path.join(cfg["out"], name)


def _read_dataset(path) -> list:
    if not os.path.exists(path):
        raise DataError(f"missing dataset file {path}; run gen-dataset first")
    return dataset_read(path)


def _load_model(cls, path):
    """A PSRLModel or NSDModel restored from its checkpoint at `path`."""
    if not os.path.exists(path):
        raise DataError(f"missing checkpoint {path}")
    model, _ = cls.from_checkpoint(path)
    return model


def cmd_gen_dataset(cfg: dict) -> list[str]:
    samples = generate_dataset(cfg["seed"], cfg["dataset.count"],
                               cfg["dataset.styles"], cfg["dataset.size"],
                               cfg["dataset.mask_lo"], cfg["dataset.mask_hi"])
    data_path = _artifact(cfg, cfg["dataset.file"])
    dataset_write(samples, data_path)
    manifest_path = data_path + ".manifest.txt"
    per_style: dict[int, int] = {}
    for s in samples:
        per_style[s.style_id] = per_style.get(s.style_id, 0) + 1
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"count={len(samples)}\n")
        f.write(f"seed={cfg['seed']}\n")
        f.write(f"size={cfg['dataset.size']}\n")
        f.write(f"styles={len(per_style)}\n")
        for sid in sorted(per_style):
            f.write(f"style.{sid}={per_style[sid]}\n")
    return [data_path, manifest_path]


def cmd_train_psrl(cfg: dict, resume=None) -> list[str]:
    samples = _read_dataset(_artifact(cfg, cfg["dataset.file"]))
    ckpt = _artifact(cfg, cfg["psrl.checkpoint"])
    log = _artifact(cfg, cfg["psrl.log"])
    train_psrl(samples, subconfig(cfg, "psrl"), seed=cfg["seed"],
               checkpoint_path=ckpt, log_path=log, resume=resume)
    return [ckpt, log]


def cmd_train_nsd(cfg: dict, resume=None) -> list[str]:
    samples = _read_dataset(_artifact(cfg, cfg["dataset.file"]))
    psrl = _load_model(PSRLModel, _artifact(cfg, cfg["psrl.checkpoint"]))
    ckpt = _artifact(cfg, cfg["nsd.checkpoint"])
    log = _artifact(cfg, cfg["nsd.log"])
    train_nsd(samples, psrl, subconfig(cfg, "nsd"), seed=cfg["seed"],
              checkpoint_path=ckpt, log_path=log, resume=resume)
    return [ckpt, log]


def _caption_tokens(caption: str) -> list[int]:
    words = caption.split()
    if not words:
        raise UsageError("caption must contain at least one word")
    tokens = []
    for word in words:
        if word not in TOKEN_OF:
            raise UsageError(f"unknown caption word '{word}'; vocabulary: "
                             + " ".join(sorted(TOKEN_OF)))
        tokens.append(TOKEN_OF[word])
    return tokens


def _parse_rect(spec: str) -> tuple[int, int, int, int]:
    parts = spec.split(",")
    if len(parts) != 4:
        raise UsageError(f"mask must be x,y,w,h integers, got '{spec}'")
    try:
        x, y, w, h = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"mask must be x,y,w,h integers, got '{spec}'") from None
    return x, y, w, h


def cmd_inpaint(cfg: dict, image_path: str, mask_spec: str,
                caption: str) -> list[str]:
    if not os.path.exists(image_path):
        raise DataError(f"missing input image {image_path}")
    pixels = read_ppm(image_path)
    mask = mask_from_rect(pixels, _parse_rect(mask_spec)).mask
    tokens = _caption_tokens(caption)
    model = _load_model(NSDModel, _artifact(cfg, cfg["nsd.checkpoint"]))
    psrl = _load_model(PSRLModel, _artifact(cfg, cfg["psrl.checkpoint"]))
    out = sample_inpaint(InpaintTask(pixels, mask, tokens), model, psrl,
                         steps=cfg["sample.steps"], seed=cfg["seed"],
                         lam=cfg["sample.lam"], k=cfg["sample.k"],
                         use_projector=bool(cfg["nsd.use_projector"]),
                         paste_background=bool(cfg["sample.paste_background"]))
    out_path = _artifact(cfg, cfg["sample.file"])
    write_ppm(out, out_path)
    return [out_path]


def cmd_eval(cfg: dict) -> list[str]:
    model = _load_model(NSDModel, _artifact(cfg, cfg["nsd.checkpoint"]))
    if cfg["eval.count"] > 0 and cfg["eval.steps"] > model.schedule.T:
        # every task would fail alike, so stop before sampling any of them
        raise UsageError(f"eval.steps={cfg['eval.steps']} exceeds the checkpoint's "
                         f"T={model.schedule.T} denoising steps")
    psrl = _load_model(PSRLModel, _artifact(cfg, cfg["psrl.checkpoint"]))
    # Held-out tasks continue the training sequence past dataset.count, so
    # they are unseen images drawn from the same style population.
    n_train = cfg["dataset.count"]
    tasks = generate_dataset(cfg["seed"], n_train + cfg["eval.count"],
                             cfg["dataset.styles"], cfg["dataset.size"],
                             cfg["dataset.mask_lo"], cfg["dataset.mask_hi"])
    tasks = tasks[n_train:]
    report = run_benchmark(model, psrl, tasks, {
        "count": cfg["eval.count"], "k": cfg["eval.k"],
        "steps": cfg["eval.steps"], "lam": cfg["eval.lam"],
        "seed": cfg["seed"], "use_projector": cfg["nsd.use_projector"],
        "paste_background": cfg["eval.paste_background"],
    })
    report_path = _artifact(cfg, cfg["eval.report"])
    summary_path = _artifact(cfg, cfg["eval.summary"])
    write_report(report, report_path, summary_path)
    return [report_path, summary_path]


def cmd_viz(cfg: dict) -> list[str]:
    psrl = _load_model(PSRLModel, _artifact(cfg, cfg["psrl.checkpoint"]))
    samples = _read_dataset(_artifact(cfg, cfg["dataset.file"]))
    picked = samples[:cfg["viz.count"]]
    embs, labels = [], []
    for i, s in enumerate(picked):
        seed = int(derive(cfg["seed"], "viz", i).integers(2 ** 63))
        ps = crop_patches(s.pixels, cfg["viz.n"], psrl.patch_size, seed)
        embs.append(psrl.embed_patches(ps.patches))
        labels.extend([i] * cfg["viz.n"])
    if not embs:
        raise DataError("dataset has no samples to project")
    path = _artifact(cfg, cfg["viz.file"])
    export_projection(np.concatenate(embs), labels, path)
    return [path]


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        if args.command == "gen-dataset":
            written = cmd_gen_dataset(cfg)
        elif args.command == "train-psrl":
            written = cmd_train_psrl(cfg, resume=args.resume)
        elif args.command == "train-nsd":
            written = cmd_train_nsd(cfg, resume=args.resume)
        elif args.command == "inpaint":
            written = cmd_inpaint(cfg, args.image, args.mask, args.caption)
        elif args.command == "eval":
            written = cmd_eval(cfg)
        else:
            written = cmd_viz(cfg)
        for path in written:
            print(f"wrote {path}")
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"data error: missing file {e.filename}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
