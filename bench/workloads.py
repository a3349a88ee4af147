"""The three workloads: set-up, one round of work, and the round's checks.

Each workload drives the program through the public functions the CLI
uses, at smaller step, scene and task counts than the CLI defaults (the
per-step cost does not depend on those counts). A round is a fixed sequence
of calls, so every run attempts whole rounds and the share of failed
operations is the same in every run. Set-up renders the inputs from the
run's seed and writes and reads them back the way the CLI stages do.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from styleinpaint import evaluation
from styleinpaint.checkpoint import NSDM_MAGIC, load_checkpoint, save_checkpoint
from styleinpaint.config import DEFAULTS, build_config, subconfig
from styleinpaint.dataset import dataset_read, dataset_write, generate_dataset
from styleinpaint.dataset.scenes import mask_from_rect
from styleinpaint.diffusion.sampler import InpaintTask, sample_inpaint
from styleinpaint.diffusion.train import NSDModel, save_nsd_checkpoint, train_nsd
from styleinpaint.evaluation import run_benchmark
from styleinpaint.nn import AdamState
from styleinpaint.psrl.model import PSRLModel
from styleinpaint.psrl.train import save_psrl_checkpoint, train_psrl
from styleinpaint.rng import derive

import checks

# Config overrides per workload, on top of the CLI defaults. The defaults
# (train-nsd ~28 min, eval ~8 min on 2 cores) are too long to repeat.
SIZES = {
    "psrl-train": {"psrl.s1": 2, "psrl.s2": 4},
    # one step per phase keeps rounds short (about 4 s), so a run has many
    "nsd-train": {"nsd.phase_a": 1, "nsd.phase_b": 1},
    # 20 held-out tasks include tasks 16 and 18, whose masks are too small
    # to score; 2 sampler steps keep a round of 24 inpaintings near 9 s
    "inpaint-eval": {"eval.count": 20, "eval.steps": 2, "sample.steps": 2},
}
SINGLE_CALLS = 4  # single sample_inpaint calls per inpaint-eval round
# The held-out task list is the one `eval` builds at the default seed, so
# the tasks that fail (mask too small) are the same whatever --seed is.
EVAL_TASK_SEED = DEFAULTS["seed"]


@dataclass
class Round:
    units: int  # steps or inpainted images, all attempted
    failed: int
    unit_s: float  # timed wall time per unit
    call_s: list[float]  # wall times of single calls
    timed_s: float  # wall time of every timed call in the round
    problems: list[str] = field(default_factory=list)
    tasks: int = 0  # held-out tasks given to run_benchmark
    scored: int = 0  # of which scored


def _round_seed(seed: int, r: int) -> int:
    return int(derive(seed, "bench-round", r).integers(2 ** 31))


def _config(seed: int, out: str, name: str, sizes: dict | None) -> dict:
    return build_config(overrides={"seed": seed, "out": out,
                                   **(SIZES[name] if sizes is None else sizes)})


def _render(cfg: dict, seed: int, count: int) -> list:
    return generate_dataset(seed, count, cfg["dataset.styles"], cfg["dataset.size"],
                            cfg["dataset.mask_lo"], cfg["dataset.mask_hi"])


def _dataset_roundtrip(cfg: dict) -> list:
    path = os.path.join(cfg["out"], cfg["dataset.file"])
    dataset_write(_render(cfg, cfg["seed"], cfg["dataset.count"]), path)
    return dataset_read(path)


def _fresh_psrl(cfg: dict) -> PSRLModel:
    """A style encoder written and read back as `train-psrl` leaves it."""
    path = os.path.join(cfg["out"], cfg["psrl.checkpoint"])
    save_psrl_checkpoint(PSRLModel(cfg["seed"], patch_size=cfg["psrl.p"]), AdamState(),
                         {"seed": cfg["seed"], "step": 0, "p": cfg["psrl.p"]}, path)
    return PSRLModel.from_checkpoint(path)[0]


def _arrays(params) -> dict:
    return {name: t.data.copy() for name, t in params.items()}


# ------------------------------------------------------------- psrl-train


def psrl_setup(seed: int, out: str, sizes: dict | None = None) -> dict:
    cfg = _config(seed, out, "psrl-train", sizes)
    return {"cfg": cfg, "samples": _dataset_roundtrip(cfg)}


def psrl_round(state: dict, r: int, traced) -> Round:
    cfg = state["cfg"]
    pcfg = subconfig(cfg, "psrl")
    ckpt = os.path.join(cfg["out"], cfg["psrl.checkpoint"])
    log = os.path.join(cfg["out"], cfg["psrl.log"])
    steps = pcfg["s1"] + pcfg["s2"]
    with traced():
        t0 = time.perf_counter()
        model, rows = train_psrl(state["samples"], pcfg, seed=_round_seed(cfg["seed"], r),
                                 checkpoint_path=ckpt, log_path=log)
        dt = time.perf_counter() - t0
    problems = checks.check_psrl_log(rows, pcfg["s1"], pcfg["s2"], pcfg["mode"])
    problems += checks.check_same_params(
        _arrays(PSRLModel.from_checkpoint(ckpt)[0].params), _arrays(model.params),
        "psrl checkpoint reload")
    return Round(steps, 0, dt / steps, [dt], dt, problems)


# -------------------------------------------------------------- nsd-train


def nsd_setup(seed: int, out: str, sizes: dict | None = None) -> dict:
    cfg = _config(seed, out, "nsd-train", sizes)
    return {"cfg": cfg, "samples": _dataset_roundtrip(cfg), "psrl": _fresh_psrl(cfg)}


def nsd_round(state: dict, r: int, traced) -> Round:
    """Phase A from a fresh initialisation, then phase B resumed from phase
    A's checkpoint, as `train-nsd --resume` continues an interrupted run.
    Each phase's frozen parameters are checked against its starting point."""
    cfg = state["cfg"]
    ncfg = subconfig(cfg, "nsd")
    seed = _round_seed(cfg["seed"], r)
    ckpt = os.path.join(cfg["out"], cfg["nsd.checkpoint"])
    resume = ckpt + ".phase_a"
    log = os.path.join(cfg["out"], cfg["nsd.log"])
    with traced():
        t0 = time.perf_counter()
        model_a, rows_a = train_nsd(state["samples"], state["psrl"], dict(ncfg, phase_b=0),
                                    seed=seed, checkpoint_path=ckpt, log_path=log)
        a_s = time.perf_counter() - t0
    # the phase-A checkpoint, echoing the full run's phase-B length, is what
    # an interrupted train_nsd(phase_a, phase_b) would leave at the boundary
    echo, tensors = load_checkpoint(ckpt, NSDM_MAGIC)
    save_checkpoint(resume, NSDM_MAGIC, dict(echo, phase_b=ncfg["phase_b"]), tensors)
    with traced():
        t0 = time.perf_counter()
        model_b, rows_b = train_nsd(state["samples"], state["psrl"], ncfg, seed=seed,
                                    checkpoint_path=ckpt, log_path=log, resume=resume)
        b_s = time.perf_counter() - t0

    after_a = _arrays(model_a.params)
    problems = checks.check_nsd_log(rows_a, "A", ncfg["phase_a"])
    problems += checks.check_frozen(after_a, _arrays(NSDModel(seed, T=ncfg["T"],
                                                              kind=ncfg["kind"]).params),
                                    model_a.phase_a_paths(), "A")
    problems += checks.check_nsd_log(rows_b, "B", ncfg["phase_b"])
    problems += checks.check_frozen(_arrays(model_b.params), after_a,
                                    model_b.phase_b_paths(), "B")
    steps = ncfg["phase_a"] + ncfg["phase_b"]
    return Round(steps, 0, (a_s + b_s) / steps, [b_s], a_s + b_s, problems)


# ------------------------------------------------------------ inpaint-eval


def eval_setup(seed: int, out: str, sizes: dict | None = None) -> dict:
    """Held-out tasks as `eval` builds them, scenes for the single calls,
    and the two models written to checkpoints.

    The denoiser starts from its initialisation with every zero-initialised
    tensor (output head, connectors, residual and attention output
    projections, style values) drawn at random instead, a stand-in for a
    trained model in which every path contributes to the output.
    """
    cfg = _config(seed, out, "inpaint-eval", sizes)
    n = cfg["dataset.count"]
    heldout = _render(cfg, EVAL_TASK_SEED, n + cfg["eval.count"])[n:]
    singles = _render(cfg, seed, SINGLE_CALLS)
    model = NSDModel(seed, T=cfg["nsd.T"], kind=cfg["nsd.kind"])
    rng = derive(seed, "bench-weights")
    for _, t in model.params.items():
        if not t.data.any():
            t.data[...] = rng.standard_normal(t.data.shape) * 0.02
    save_nsd_checkpoint(model, AdamState(), {"seed": seed, "step": 0, "T": cfg["nsd.T"],
                                             "kind": cfg["nsd.kind"]},
                        os.path.join(out, cfg["nsd.checkpoint"]))
    _fresh_psrl(cfg)
    return {"cfg": cfg, "heldout": heldout, "singles": singles}


def _task(sample) -> InpaintTask:
    return InpaintTask(sample.pixels, mask_from_rect(sample.pixels, sample.mask_rect).mask,
                       sample.tokens)


def eval_round(state: dict, r: int, traced) -> Round:
    """Load both checkpoints as `eval` does, time single sample_inpaint
    calls, then run_benchmark over the held-out tasks."""
    cfg = state["cfg"]
    seed = _round_seed(cfg["seed"], r)
    tasks = state["heldout"]
    calls, call_s, singles = [], [], []
    with traced():
        model = NSDModel.from_checkpoint(os.path.join(cfg["out"], cfg["nsd.checkpoint"]))[0]
        psrl = PSRLModel.from_checkpoint(os.path.join(cfg["out"], cfg["psrl.checkpoint"]))[0]
        for j, sample in enumerate(state["singles"]):
            t0 = time.perf_counter()
            singles.append(sample_inpaint(
                _task(sample), model, psrl, steps=cfg["sample.steps"], seed=seed + j,
                lam=cfg["sample.lam"], k=cfg["sample.k"],
                use_projector=bool(cfg["nsd.use_projector"]),
                paste_background=bool(cfg["sample.paste_background"])))
            call_s.append(time.perf_counter() - t0)

        # keep every image run_benchmark inpaints, with the arguments it used
        inner = evaluation.sample_inpaint

        def keep(task, *args, **kwargs):
            out = inner(task, *args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        evaluation.sample_inpaint = keep
        try:
            t0 = time.perf_counter()
            report = run_benchmark(model, psrl, tasks, {
                "count": cfg["eval.count"], "k": cfg["eval.k"], "steps": cfg["eval.steps"],
                "lam": cfg["eval.lam"], "seed": seed,
                "use_projector": cfg["nsd.use_projector"],
                "paste_background": cfg["eval.paste_background"]})
            bench_s = time.perf_counter() - t0
        finally:
            evaluation.sample_inpaint = inner

    problems = []
    for j, (out, sample) in enumerate(zip(singles, state["singles"])):
        problems += checks.check_image(out, sample.pixels.shape, f"single call {j}")
    problems += checks.check_eval_rows(report.rows, tasks, [c[2] for c in calls])
    # batch independence: a task inpainted alone gives run_benchmark's image
    i = (7 * r) % len(calls)
    args, kwargs, inside = calls[i]
    if not np.array_equal(sample_inpaint(_task(tasks[i]), *args, **kwargs), inside):
        problems.append(f"task {i} inpainted alone differs from run_benchmark's image")

    failed = sum(row.status != "ok" for row in report.rows)
    n_tasks = len(report.rows)
    units = len(call_s) + n_tasks
    return Round(units, failed, bench_s / n_tasks, call_s,
                 sum(call_s) + bench_s, problems, tasks=n_tasks, scored=n_tasks - failed)


WORKLOADS = {
    "psrl-train": (psrl_setup, psrl_round),
    "nsd-train": (nsd_setup, nsd_round),
    "inpaint-eval": (eval_setup, eval_round),
}
