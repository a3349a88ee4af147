"""Benchmark of the styleinpaint pipeline: PSRL training, NSD training, and
inpainting with evaluation.

    python3 bench/run.py --workload psrl-train --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a source checkout. The program is imported from the
checkout's `src/`; without it the run exits with code 2 and prints no
result. A run sets up its inputs once untimed and five times timed, spread
over the run (median reported as setup_s), repeats whole rounds of its
workload until `--seconds` would be exceeded, and checks every round's
outputs. The last line of standard output is one JSON object: correct,
attempted, failed and metrics. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones from a traced run, in which rounds alternate between
untraced and traced so the tracing overhead is measured in the same run.
`--workload all` runs each workload in its own child process, one after
another. Artefacts (checkpoints, logs, spans, a run record with machine
info) go to `bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path("bench_out")
NAMES = ("psrl-train", "nsd-train", "inpaint-eval")
SETUPS = 5  # set-ups per run; setup_s is their median
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_threads() -> int:
    """Cap BLAS threads at the cores this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_program() -> None:
    """Import styleinpaint from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import styleinpaint
    except ImportError as e:
        print(f"bench: cannot import styleinpaint from {src}: {e}", file=sys.stderr)
        sys.exit(2)
    if Path(styleinpaint.__file__).resolve().parents[1] != src.resolve():
        print(f"bench: styleinpaint imported from {styleinpaint.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def machine_info(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 prints its config and returns nothing
        blas = {}
    return {"nproc": nproc, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, sizes: dict | None = None) -> dict:
    """Set up, measure whole rounds for `seconds`, check; returns the result
    object (correct, attempted, failed, metrics) plus run details."""
    from checks import check_kernel_call
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    setup, do_round = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()

    def timed_setup():
        tracer.phase = "setup"
        t0 = time.perf_counter()
        with tracer.installed() if trace else contextlib.nullcontext():
            fresh = setup(seed, str(out_dir), sizes)
        setup_times.append(time.perf_counter() - t0)
        tracer.phase = "measure"
        return fresh

    # The timed set-ups are spread over the run, one every seconds / SETUPS,
    # so that setup_s samples the machine as the rounds do.
    state = setup(seed, str(out_dir), sizes)  # warm-up: first calls pay one-off costs
    setup_times, rounds, durations = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        if len(setup_times) * seconds <= SETUPS * (time.perf_counter() - start) \
                and len(setup_times) < SETUPS:
            state = timed_setup()
        t0 = time.perf_counter()
        # only the program calls of odd rounds are traced, not the checks
        traced = tracer.installed if trace and r % 2 == 1 else contextlib.nullcontext
        rounds.append(do_round(state, r, traced))
        durations.append(time.perf_counter() - t0)
        gc.collect()  # free the round's graphs and models before the next
        r += 1
        elapsed = time.perf_counter() - start
        # a traced run needs at least one untraced and one traced round
        if (not trace or r >= 2) and elapsed + median(durations) > seconds:
            break
    while len(setup_times) < SETUPS:
        timed_setup()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for rd in rounds for p in rd.problems]
    if trace:
        for i, record in enumerate(tracer.kernel_calls.values()):
            problems += check_kernel_call(record, seed=i)
        # round 0 pays first-call costs, so it is left out of the untraced
        # baseline of the overhead when another untraced round exists
        plain = rounds[2::2] or rounds[:1]
        metrics = layer_metrics(tracer, rounds[1::2], plain, SETUPS)
        tracer.write(out_dir / "spans.csv")
    else:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "peak_mem_mib": (peak_mib, "MiB"),
            "unit_s": (median(rd.unit_s for rd in rounds), "s"),
            "call_s": (median(c for rd in rounds for c in rd.call_s), "s"),
        }
    return {
        "correct": not problems,
        "attempted": sum(rd.units for rd in rounds),
        "failed": sum(rd.failed for rd in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "rounds": len(rounds),
        "setup_times": setup_times,
        "round_unit_s": [rd.unit_s for rd in rounds],
        "round_call_s": [rd.call_s for rd in rounds],
    }


def _run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    nproc = _limit_threads()
    _import_program()
    if args.workload == "all":
        return _run_all(args)

    out_dir = OUT / args.workload
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_info(nproc))
    (out_dir / f"run_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
