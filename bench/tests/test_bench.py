"""Tests of the benchmark itself: every output check rejects a wrong answer,
every workload runs end to end at tiny sizes, and a traced run restores the
program it wrapped."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from styleinpaint.nn import Tensor  # noqa: E402
from styleinpaint.nn import functional as F  # noqa: E402
from styleinpaint.nn.tensor import _accum, _node  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _conv_record(pad_mode="zeros", stride=1, bias=True):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32) if bias else None
    params = {"stride": stride, "padding": 1, "pad_mode": pad_mode}
    out = F.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), **params)
    return {"op": "nn.conv2d", "params": params, "out": out.data, "inputs": [x, w, b]}


def _attention_record():
    rng = np.random.default_rng(2)
    q, k, v = (rng.standard_normal((2, 6, 4)).astype(np.float32) for _ in range(3))
    out = F.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    return {"op": "nn.attention", "params": {}, "out": out.data, "inputs": [q, k, v]}


def _grad_scaled(t: Tensor, factor: float) -> Tensor:
    """Identity in the forward pass, gradient scaled by `factor`."""
    return _node(t.data, (t,), lambda g: _accum(t, g * factor))


# ------------------------------------------------------------------ kernels


@pytest.mark.parametrize("pad_mode,stride,bias", [("zeros", 1, True), ("edge", 2, True),
                                                  ("zeros", 2, False)])
def test_conv2d_matches_reference(pad_mode, stride, bias):
    assert checks.check_kernel_call(_conv_record(pad_mode, stride, bias)) == []


def test_conv2d_check_rejects_perturbed_output():
    record = _conv_record()
    record["out"] = record["out"].copy()
    record["out"][0, 0, 0, 0] += 1e-2
    assert any("out" in p for p in checks.check_kernel_call(record))


def test_conv2d_check_rejects_wrong_weight_gradient(monkeypatch):
    conv = F.conv2d
    monkeypatch.setattr(F, "conv2d", lambda x, w, b=None, **kw: conv(x, _grad_scaled(w, 1.01), b, **kw))
    problems = checks.check_kernel_call(_conv_record())
    assert problems and all(" dW" in p for p in problems)


def test_attention_matches_reference():
    assert checks.check_kernel_call(_attention_record()) == []


def test_attention_check_rejects_perturbed_output():
    record = _attention_record()
    record["out"] = record["out"] * 1.001
    assert any("out" in p for p in checks.check_kernel_call(record))


def test_attention_check_rejects_wrong_key_gradient(monkeypatch):
    attend = F.scaled_dot_attention
    monkeypatch.setattr(F, "scaled_dot_attention",
                        lambda q, k, v: attend(q, _grad_scaled(k, 0.99), v))
    problems = checks.check_kernel_call(_attention_record())
    assert problems and all(" dK" in p for p in problems)


# ------------------------------------------------------------- psrl-train


PSRL_ROWS = ["0,1,0.500000,0.250000,2.000000,0.750000,0.9,0.1",
             "1,2,0.500000,0.250000,2.000000,2.750000,0.9,0.1"]


def test_psrl_log_accepts_consistent_rows():
    assert checks.check_psrl_log(PSRL_ROWS, 1, 1) == []


@pytest.mark.parametrize("rows", [
    ["0,1,0.500000,0.250000,2.000000,2.750000,0.9,0.1", PSRL_ROWS[1]],  # L_xy in stage 1
    [PSRL_ROWS[0], "1,2,0.500000,0.250000,2.000000,0.750000,0.9,0.1"],  # L_xy left out
    [PSRL_ROWS[0], "1,1,0.500000,0.250000,2.000000,0.750000,0.9,0.1"],  # no stage switch
    [PSRL_ROWS[0], "1,2,nan,0.250000,2.000000,2.750000,0.9,0.1"],  # non-finite
    PSRL_ROWS[:1],  # a step missing
])
def test_psrl_log_rejects(rows):
    assert checks.check_psrl_log(rows, 1, 1)


def test_same_params_rejects_changed_tensor():
    a = {"w": np.ones(3, np.float32)}
    b = {"w": np.array([1, 1, np.nextafter(np.float32(1), np.float32(2))], np.float32)}
    assert checks.check_same_params(a, dict(a), "x") == []
    assert checks.check_same_params(b, a, "x")


# -------------------------------------------------------------- nsd-train


def test_frozen_check():
    initial = {"frozen": np.zeros(2), "train": np.zeros(2)}
    moved = {"frozen": np.zeros(2), "train": np.ones(2)}
    assert checks.check_frozen(moved, initial, {"train"}, "A") == []
    changed = dict(moved, frozen=np.array([0.0, 1e-7]))
    assert any("frozen" in p for p in checks.check_frozen(changed, initial, {"train"}, "A"))
    assert any("moved no" in p for p in checks.check_frozen(initial, initial, {"train"}, "B"))


def test_nsd_log_rejects_non_finite_loss_and_wrong_phase():
    assert checks.check_nsd_log(["0,A,0.5", "1,A,0.4"], "A", 2) == []
    assert checks.check_nsd_log(["0,A,inf", "1,A,0.4"], "A", 2)
    assert checks.check_nsd_log(["0,B,0.5", "1,A,0.4"], "A", 2)


# ------------------------------------------------------------ inpaint-eval


def _eval_case():
    rng = np.random.default_rng(3)
    pixels = rng.random((32, 32, 3)).astype(np.float32)
    tasks = [SimpleNamespace(pixels=pixels, mask_rect=(2, 3, 20, 16)),
             SimpleNamespace(pixels=pixels, mask_rect=(2, 3, 30, 10))]
    outs = [np.clip(pixels + 0.1 * rng.standard_normal(pixels.shape), 0, 1),
            pixels.copy()]
    mask = np.zeros((32, 32))
    mask[3:19, 2:22] = 1
    keep = mask == 0
    mse = float(((outs[0].astype(np.float64) - pixels) ** 2)[keep].mean())
    rows = [SimpleNamespace(task_id=0, status="ok", psnr_db=-10 * math.log10(mse),
                            style_cos_self=0.9, style_cos_foreign=0.2),
            SimpleNamespace(task_id=1, status=checks.MASK_TOO_SMALL, psnr_db=None,
                            style_cos_self=None, style_cos_foreign=None)]
    return rows, tasks, outs


def test_eval_rows_accept_consistent_report():
    assert checks.check_eval_rows(*_eval_case()) == []


def test_eval_rows_reject_wrong_psnr():
    rows, tasks, outs = _eval_case()
    rows[0].psnr_db += 1e-3
    assert any("psnr" in p for p in checks.check_eval_rows(rows, tasks, outs))


def test_eval_rows_reject_cosine_out_of_range():
    rows, tasks, outs = _eval_case()
    rows[0].style_cos_foreign = -1.5
    assert any("outside [-1, 1]" in p for p in checks.check_eval_rows(rows, tasks, outs))


def test_eval_rows_reject_image_out_of_range():
    rows, tasks, outs = _eval_case()
    outs[1] = outs[1] + 0.5
    assert any("outside [0, 1]" in p for p in checks.check_eval_rows(rows, tasks, outs))


def test_eval_rows_reject_unscored_task_that_fits_a_patch():
    rows, tasks, outs = _eval_case()
    rows[0].status = "cannot place 4 disjoint patches"
    assert any("not scored" in p for p in checks.check_eval_rows(rows, tasks, outs))


def test_eval_rows_reject_small_mask_reported_as_scored():
    rows, tasks, outs = _eval_case()
    rows[1].status = "ok"
    assert any("expected 'mask too small" in p for p in checks.check_eval_rows(rows, tasks, outs))


# ------------------------------------------------------------ smoke runs


TINY = {
    "psrl-train": {"dataset.count": 4, "dataset.styles": 2, "dataset.size": 32,
                   "psrl.s1": 1, "psrl.s2": 1, "psrl.batch": 2, "psrl.n": 2},
    "nsd-train": {"dataset.count": 4, "dataset.styles": 2, "dataset.size": 32,
                  "nsd.phase_a": 1, "nsd.phase_b": 1, "nsd.batch": 1},
    # the first two tasks of the held-out list `eval` builds at its defaults
    "inpaint-eval": {"eval.count": 2, "eval.steps": 1, "sample.steps": 1},
}


def _names(kind: str) -> set:
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", run.NAMES)
def test_workload_smoke(name, tmp_path):
    result = run.run_workload(name, 3, 0.0, False, tmp_path, TINY[name])
    assert result["problems"] == []
    assert result["correct"] and result["rounds"] == 1
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0


def test_traced_run_reports_layers_and_restores_program(tmp_path):
    import styleinpaint.nn.functional as functional
    from styleinpaint.nn.tensor import Tensor as T

    conv, backward = functional.conv2d, T.__dict__["backward"]
    result = run.run_workload("psrl-train", 3, 0.0, True, tmp_path, TINY["psrl-train"])
    assert result["correct"] and result["rounds"] == 2, result["problems"]
    assert set(result["metrics"]) == _names("per_layer")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["nn.conv2d.calls"] == 4 and metrics["nn.conv2d.bwd_s"] > 0
    assert metrics["nn.attention.calls"] == 0
    assert functional.conv2d is conv and T.__dict__["backward"] is backward
    assert (tmp_path / "spans.csv").read_text().count("\n") > 1


def test_run_without_program_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "psrl-train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
