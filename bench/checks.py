"""Output checks, computed apart from the program.

Every check returns a list of problems (empty when the output is right), so
a run can report all of them and the tests can feed each check a wrong
answer. Nothing here compares against stored copies of earlier output:
kernels are checked against a float64 reference computed here (conv2d one
kernel tap at a time, attention with an explicit softmax), and the pipeline
stages against properties the method must have.
"""

from __future__ import annotations

import math

import numpy as np

STAGE_TOL = 2e-6  # four 6-decimal log fields, each rounded by at most 5e-7
KERNEL_RTOL = 1e-4  # float32 accumulation over up to a few thousand terms
MASK_TOO_SMALL = "mask too small for a 16-pixel patch"


# ------------------------------------------------------------------ kernels


def _pad_map(n: int, pad: int, mode: str) -> np.ndarray:
    """[n + 2 pad, n] matrix taking an unpadded axis to its padded copy."""
    m = np.zeros((n + 2 * pad, n))
    for i in range(n + 2 * pad):
        j = i - pad
        if mode == "edge":
            m[i, min(max(j, 0), n - 1)] = 1.0
        elif 0 <= j < n:
            m[i, j] = 1.0
    return m


def conv2d_reference(x, w, b, stride: int, padding: int, pad_mode: str, g):
    """Output and (dX, dW, db) of sum(out * g), one tap at a time in float64."""
    x, w, g = (np.asarray(a, np.float64) for a in (x, w, g))
    _, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    mr, mc = _pad_map(h, padding, pad_mode), _pad_map(wd, padding, pad_mode)
    xp = mr @ x @ mc.T
    ho, wo = g.shape[2], g.shape[3]
    g_last = g.transpose(0, 2, 3, 1)  # [B, Ho, Wo, Cout]
    out = np.zeros(g_last.shape)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for u in range(kh):
        for v in range(kw):
            rows = slice(u, u + stride * ho, stride)
            cols = slice(v, v + stride * wo, stride)
            win = xp[:, :, rows, cols].transpose(0, 2, 3, 1)  # [B, Ho, Wo, Cin]
            tap = w[:, :, u, v]  # [Cout, Cin]
            out += win @ tap.T
            dw[:, :, u, v] = g_last.reshape(-1, cout).T @ win.reshape(-1, win.shape[-1])
            dxp[:, :, rows, cols] += (g_last @ tap).transpose(0, 3, 1, 2)
    out = out.transpose(0, 3, 1, 2)
    db = None
    if b is not None:
        out += np.asarray(b, np.float64).reshape(1, cout, 1, 1)
        db = g.sum(axis=(0, 2, 3))
    return out, mr.T @ dxp @ mc, dw, db


def attention_reference(q, k, v, g):
    """softmax(q k^T / sqrt(d)) v and (dQ, dK, dV) of sum(out * g)."""
    q, k, v, g = (np.asarray(a, np.float64) for a in (q, k, v, g))
    scale = 1.0 / math.sqrt(q.shape[-1])
    s = q @ k.transpose(0, 2, 1) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    dp = g @ v.transpose(0, 2, 1)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    return (p @ v, ds @ k * scale, ds.transpose(0, 2, 1) @ q * scale,
            p.transpose(0, 2, 1) @ g)


def program_gradients(op, inputs: list, params: dict, g: np.ndarray) -> list:
    """Gradients of sum(op(inputs) * g) through the program's own tape."""
    from styleinpaint.nn import Tensor, mul, tsum

    tensors = [None if a is None else Tensor(a.copy(), requires_grad=True)
               for a in inputs]
    out = op(*tensors, **params)
    tsum(mul(out, Tensor(g.astype(out.data.dtype)))).backward()
    return [None if t is None else t.grad for t in tensors]


def compare(label: str, got, want, rtol: float = KERNEL_RTOL) -> list[str]:
    """Problem when got and want differ by more than rtol of want's scale."""
    if got is None and want is None:
        return []
    if got is None or want is None:
        return [f"{label}: one side missing"]
    got = np.asarray(got, np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, reference {want.shape}"]
    scale = max(float(np.abs(want).max()), 1e-12)
    err = float(np.abs(got - want).max())
    if not np.isfinite(err) or err > rtol * scale:
        return [f"{label}: max error {err:.3g} exceeds {rtol:g} x {scale:.3g}"]
    return []


def check_kernel_call(record: dict, seed: int = 0) -> list[str]:
    """A recorded first call of one kernel shape against the reference: the
    output it returned, then the gradients of a fresh call on its inputs."""
    from styleinpaint.nn import functional as F

    op_name, params, inputs = record["op"], record["params"], record["inputs"]
    g = np.random.default_rng(seed).standard_normal(record["out"].shape)
    shapes = "x".join(str(s) for s in inputs[0].shape)
    if op_name == "nn.conv2d":
        x, w, b = inputs
        ref = conv2d_reference(x, w, b, g=g, **params)
        grads = program_gradients(F.conv2d, [x, w, b], params, g)
        names = ("out", "dX", "dW", "db")
    else:
        ref = attention_reference(*inputs, g)
        grads = program_gradients(F.scaled_dot_attention, inputs, params, g)
        names = ("out", "dQ", "dK", "dV")
    got = [record["out"]] + grads
    problems = []
    for name, a, want in zip(names, got, ref):
        problems += compare(f"{op_name} {shapes} {params} {name}", a, want)
    return problems


# ------------------------------------------------------------- psrl-train


def check_psrl_log(rows: list[str], s1: int, s2: int, mode: str = "progressive") -> list[str]:
    """Log rows step,stage,L_x,L_y,L_xy,total,pos_cos,neg_cos of one run."""
    problems = []
    if len(rows) != s1 + s2:
        problems.append(f"psrl log has {len(rows)} rows, expected {s1 + s2}")
    for i, row in enumerate(rows):
        fields = row.split(",")
        step, stage = int(fields[0]), int(fields[1])
        lx, ly, lxy, total, pos, neg = (float(v) for v in fields[2:])
        if not all(math.isfinite(v) for v in (lx, ly, lxy, total, pos, neg)):
            problems.append(f"psrl step {step}: non-finite log row {row}")
            continue
        want_stage = 1 if (mode == "progressive" and i < s1) else 2
        if step != i or stage != want_stage:
            problems.append(f"psrl row {i}: step {step} stage {stage}, "
                            f"expected step {i} stage {want_stage}")
        want_total = lx + ly + (lxy if stage == 2 else 0.0)
        if abs(total - want_total) > STAGE_TOL:
            problems.append(f"psrl step {step}: total {total} != "
                            f"{'L_x+L_y+L_xy' if stage == 2 else 'L_x+L_y'} "
                            f"= {want_total}")
    return problems


def check_same_params(got: dict, want: dict, label: str) -> list[str]:
    """Every named array bit-identical."""
    problems = []
    if sorted(got) != sorted(want):
        return [f"{label}: parameter names differ"]
    for name in sorted(want):
        if not np.array_equal(got[name], want[name]):
            problems.append(f"{label}: {name} differs")
    return problems


# -------------------------------------------------------------- nsd-train


def check_nsd_log(rows: list[str], phase: str, steps: int) -> list[str]:
    problems = []
    if len(rows) != steps:
        problems.append(f"nsd log has {len(rows)} rows, expected {steps}")
    for row in rows:
        step, ph, loss = row.split(",")
        if ph != phase or not math.isfinite(float(loss)):
            problems.append(f"nsd step {step}: phase {ph} loss {loss}, "
                            f"expected phase {phase} and a finite loss")
    return problems


def check_frozen(trained: dict, initial: dict, trainable: set, phase: str) -> list[str]:
    """Parameters outside the phase's trainable set stay bit-identical to
    their initial values; at least one trainable parameter moves."""
    problems = []
    moved = False
    for name in sorted(initial):
        same = np.array_equal(trained[name], initial[name])
        if name in trainable:
            moved = moved or not same
        elif not same:
            problems.append(f"phase {phase} changed frozen parameter {name}")
    if not moved:
        problems.append(f"phase {phase} moved no trainable parameter")
    return problems


# ------------------------------------------------------------ inpaint-eval


def psnr(generated: np.ndarray, reference: np.ndarray, mask: np.ndarray,
         cap: float = 99.0) -> float:
    """10 log10(1 / MSE) over the pixels outside the mask, capped."""
    keep = np.asarray(mask) == 0
    diff = np.asarray(generated, np.float64)[keep] - np.asarray(reference, np.float64)[keep]
    mse = float(np.mean(diff * diff))
    return cap if mse == 0.0 else min(-10.0 * math.log10(mse), cap)


def check_image(image, shape: tuple, label: str) -> list[str]:
    image = np.asarray(image)
    if image.shape != shape:
        return [f"{label}: shape {image.shape}, expected {shape}"]
    if not np.all(np.isfinite(image)) or image.min() < 0.0 or image.max() > 1.0:
        return [f"{label}: pixels outside [0, 1]"]
    return []


def check_eval_rows(rows, tasks, outputs: list) -> list[str]:
    """run_benchmark rows against the tasks and the images it inpainted.

    A task is scored exactly when its mask rectangle can host a 16x16 window;
    the others must carry the mask-too-small status. Scored rows carry a PSNR
    equal to one recomputed from the output image, and cosines in [-1, 1].
    """
    problems = []
    if len(rows) != len(tasks) or len(outputs) != len(tasks):
        return [f"{len(rows)} rows and {len(outputs)} images for {len(tasks)} tasks"]
    for row, task, out in zip(rows, tasks, outputs):
        x, y, w, h = task.mask_rect
        problems += check_image(out, task.pixels.shape, f"task {row.task_id}")
        if min(w, h) < 16:
            if row.status != MASK_TOO_SMALL:
                problems.append(f"task {row.task_id}: {w}x{h} mask gave status "
                                f"'{row.status}', expected '{MASK_TOO_SMALL}'")
            continue
        if row.status != "ok":
            problems.append(f"task {row.task_id}: {w}x{h} mask not scored: {row.status}")
            continue
        mask = np.zeros(task.pixels.shape[:2])
        mask[y:y + h, x:x + w] = 1.0
        want = psnr(out, task.pixels, mask)
        if abs(row.psnr_db - want) > 1e-9 * max(1.0, abs(want)):
            problems.append(f"task {row.task_id}: psnr {row.psnr_db} != {want}")
        for name in ("style_cos_self", "style_cos_foreign"):
            c = getattr(row, name)
            if not -1.0 - 1e-5 <= c <= 1.0 + 1e-5:
                problems.append(f"task {row.task_id}: {name} {c} outside [-1, 1]")
    return problems
