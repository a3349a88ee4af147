"""Slow, obviously-correct reference implementations.

Everything here is written as plain loops over numpy scalars (or direct
transcriptions of textbook formulas) and is deliberately independent of the
package's vectorized code paths. Tests compare the fast implementations
against these. The exceptions are bit references, whose arithmetic the
package must repeat exactly: conv2d_bhw, conv2d's input-side lowering with
its pixel axis always in (b, yo, xo) order; and, built from tape nodes,
softmax and scaled_dot_attention_tape, the chain whose bits the fused
attention node must reproduce. pad2d is a node over the padding conv2d runs,
so its gradient can be checked on its own, and the single-pair losses
stats_loss and contrastive_loss are what the batched PSRL losses are
checked against. render_scene_by_region is the scene renderer as it was
before it became one pass: it evaluates the pattern over the whole canvas
once per region, at that region's phase, and keeps that region's pixels.
"""

from __future__ import annotations

import math

import numpy as np

from styleinpaint.dataset.scenes import SHAPES, SceneImage, _paint_shape, caption_of
from styleinpaint.dataset.styles import noise_lattice
from styleinpaint.nn import (Tensor, add, concat, div, logsumexp, matmul, mul,
                             reshape, sub, tsum)
from styleinpaint.nn import tensor as T
from styleinpaint.nn.tensor import _accum, _as_tensor, _node
from styleinpaint.psrl.losses import _safe_norm
from styleinpaint.psrl.model import StyleFeature
from styleinpaint.rng import derive


def conv2d_loops(x, w, b=None, stride=1, padding=1, pad_mode="zeros"):
    """Direct 6-loop cross-correlation. x:[B,Cin,H,W], w:[Cout,Cin,kh,kw]."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    B, Cin, H, W = x.shape
    Cout, _, kh, kw = w.shape
    if padding > 0:
        mode = "constant" if pad_mode == "zeros" else "edge"
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode=mode)
    Hp, Wp = x.shape[2], x.shape[3]
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    out = np.zeros((B, Cout, Ho, Wo))
    for n in range(B):
        for co in range(Cout):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for ci in range(Cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += x[n, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[n, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def conv2d_bhw(x, w, b, g, stride=1, padding=1, pad_mode="zeros"):
    """conv2d's input-side lowering (functional._im2col) with its pixel axis
    in (b, yo, xo) order at every shape: the output and, under the upstream
    gradient g, dW, db and dX. conv2d must give these bits in either pixel
    order."""
    Cout, Cin, kh, kw = w.shape
    B, _, H, W = x.shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    xp = T.pad_array(x, padding, pad_mode)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(Cin * kh * kw, B * Ho * Wo)
    wmat = w.reshape(Cout, Cin * kh * kw)
    out = (wmat @ cols).reshape(Cout, B, Ho, Wo).transpose(1, 0, 2, 3)
    out = np.ascontiguousarray(out + b.reshape(1, Cout, 1, 1))
    gm = g.transpose(1, 0, 2, 3).reshape(Cout, B * Ho * Wo)
    dw = (gm @ cols.T).reshape(w.shape)
    gcols = (wmat.T @ gm).reshape(Cin, kh, kw, B, Ho, Wo)
    dx = np.zeros((B, Cin, Hp, Wp), x.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + Ho * stride:stride, j:j + Wo * stride:stride] += \
                gcols[:, i, j].transpose(1, 0, 2, 3)
    return out, dw, g.sum(axis=(0, 2, 3)), T.unpad(dx, padding, pad_mode)


def linear_loops(x, w, b=None):
    """Row-by-row dot products. x:[N,din], w:[dout,din]."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    N, din = x.shape
    dout = w.shape[0]
    out = np.zeros((N, dout))
    for n in range(N):
        for o in range(dout):
            acc = 0.0
            for i in range(din):
                acc += x[n, i] * w[o, i]
            out[n, o] = acc + (b[o] if b is not None else 0.0)
    return out


def attention_loops(q, k, v):
    """Per-query softmax attention. q:[B,Lq,d], k,v:[B,Lk,d]."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    B, Lq, d = q.shape
    Lk = k.shape[1]
    out = np.zeros((B, Lq, d))
    for n in range(B):
        for i in range(Lq):
            scores = np.zeros(Lk)
            for j in range(Lk):
                scores[j] = sum(q[n, i, t] * k[n, j, t] for t in range(d)) / math.sqrt(d)
            m = scores.max()
            w = np.exp(scores - m)
            w /= w.sum()
            for t in range(d):
                out[n, i, t] = sum(w[j] * v[n, j, t] for j in range(Lk))
    return out


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtraction before exponentiation)."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, (g - dot) * out_data)

    return _node(out_data, (a,), backward)


def pad2d(a, p: int, mode: str = "zeros") -> Tensor:
    """Pad the two trailing (spatial) axes of a [..., H, W] tensor, as a tape
    node over conv2d's own padding (tensor.pad_array and tensor.unpad)."""
    a = _as_tensor(a)
    if p == 0:
        return a
    out_data = T.pad_array(a.data, p, mode)

    def backward(g):
        _accum(a, T.unpad(g, p, mode))

    return _node(out_data, (a,), backward)


def scaled_dot_attention_tape(q, k, v):
    """softmax(q k^T / sqrt(d)) v composed from generic tape nodes.

    The attention that `F.scaled_dot_attention` fuses into one node, kept as
    five nodes: the fused node must give this chain's bits, forward and
    backward.
    """
    if k.shape[1] == 0:
        raise ValueError("attention over an empty key sequence")
    d = q.shape[-1]
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(d))
    return T.matmul(softmax(scores, axis=-1), v)


def mean_std_loops(x, eps=1e-5):
    """Per-channel spatial mean and sqrt(population var + eps). x:[B,C,H,W]."""
    x = np.asarray(x, dtype=np.float64)
    B, C, H, W = x.shape
    mu = np.zeros((B, C))
    sigma = np.zeros((B, C))
    for n in range(B):
        for c in range(C):
            vals = [x[n, c, i, j] for i in range(H) for j in range(W)]
            m = sum(vals) / len(vals)
            var = sum((v - m) ** 2 for v in vals) / len(vals)
            mu[n, c] = m
            sigma[n, c] = math.sqrt(var + eps)
    return mu, sigma


def stats_loss(f_i: StyleFeature, f_j: StyleFeature) -> Tensor:
    """||mu_i - mu_j||_2 + ||sigma_i - sigma_j||_2 for one feature pair."""
    dmu = sub(f_i.mu, f_j.mu)
    dsg = sub(f_i.sigma, f_j.sigma)
    return add(_safe_norm(tsum(mul(dmu, dmu))), _safe_norm(tsum(mul(dsg, dsg))))


def contrastive_loss(anchor, positive, negatives, tau: float = 0.07) -> Tensor:
    """-log exp(a.p/tau) / (exp(a.p/tau) + sum_k exp(a.n_k/tau))."""
    anchor = anchor if isinstance(anchor, Tensor) else Tensor(anchor)
    positive = positive if isinstance(positive, Tensor) else Tensor(positive)
    negatives = negatives if isinstance(negatives, Tensor) else Tensor(np.asarray(negatives))
    if negatives.shape[0] == 0:
        raise ValueError("contrastive loss requires at least one negative")
    d = anchor.shape[0]
    ap = tsum(mul(anchor, positive))
    an = reshape(matmul(negatives, reshape(anchor, (d, 1))), (negatives.shape[0],))
    logits = div(concat([reshape(ap, (1,)), an], axis=0), tau)
    return sub(logsumexp(logits, axis=0), div(ap, tau))


def nce_term_loops(anchor, positive, negatives, tau=0.07):
    """One InfoNCE term: softmax cross-entropy with the positive in slot 0."""
    anchor = np.asarray(anchor, dtype=np.float64)
    sims = [float(anchor @ np.asarray(positive, dtype=np.float64)) / tau]
    for neg in negatives:
        sims.append(float(anchor @ np.asarray(neg, dtype=np.float64)) / tau)
    m = max(sims)
    return -(sims[0] - m - math.log(sum(math.exp(s - m) for s in sims)))


def lxy_loops(ex, ey, tau=0.07):
    """Style contrastive loss, fully enumerated.

    For each ordered same-set pair (i, j != i) the anchor is row i, the
    positive row j, and the negatives are every row of the other set;
    anchors run over both sets and the terms are averaged.
    """
    ex = np.asarray(ex, dtype=np.float64)
    ey = np.asarray(ey, dtype=np.float64)
    N = ex.shape[0]
    total = 0.0
    for a_set, n_set in ((ex, ey), (ey, ex)):
        for i in range(N):
            for j in range(N):
                if j != i:
                    total += nce_term_loops(a_set[i], a_set[j], list(n_set), tau)
    return total / (2 * N * (N - 1))


def stats_pair_loops(mu_i, sigma_i, mu_j, sigma_j):
    """Eq-style statistics distance: L2 of mean gap plus L2 of std gap."""
    dm = sum((float(a) - float(b)) ** 2 for a, b in zip(mu_i, mu_j))
    ds = sum((float(a) - float(b)) ** 2 for a, b in zip(sigma_i, sigma_j))
    return math.sqrt(dm) + math.sqrt(ds)


def adam_steps_loops(theta0, grads, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam trajectory: apply the published update rule verbatim."""
    theta = np.asarray(theta0, dtype=np.float64).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    return theta


def silhouette_loops(dist, labels):
    """Mean silhouette from a precomputed distance matrix, loops only."""
    dist = np.asarray(dist, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(labels)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue
        a = sum(dist[i, j] for j in own) / len(own)
        b = math.inf
        for lab in set(labels.tolist()) - {labels[i]}:
            other = [j for j in range(n) if labels[j] == lab]
            b = min(b, sum(dist[i, j] for j in other) / len(other))
        scores.append((b - a) / max(a, b))
    return sum(scores) / len(scores)


def psnr_loops(a, b, cap=99.0):
    """10 log10(1 / MSE) over all pixels of two [0,1] images."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return cap
    return min(10.0 * math.log10(1.0 / mse), cap)


def pca_loops(X, k=2):
    """Top-k PCA by power iteration with deflation (independent of any
    library eigensolver), sign fixed so the largest-|coordinate| entry of
    each component is positive."""
    X = np.asarray(X, dtype=np.float64)
    mu = X.mean(axis=0)
    Xc = X - mu
    cov = (Xc.T @ Xc) / (X.shape[0] - 1)
    comps = []
    work = cov.copy()
    for _ in range(k):
        v = np.ones(work.shape[0]) / math.sqrt(work.shape[0])
        for _it in range(10000):
            nxt = work @ v
            norm = math.sqrt(float(nxt @ nxt))
            if norm == 0.0:
                break
            nxt = nxt / norm
            if float(np.abs(nxt - v).max()) < 1e-14 or float(np.abs(nxt + v).max()) < 1e-14:
                v = nxt
                break
            v = nxt
        lam = float(v @ work @ v)
        work = work - lam * np.outer(v, v)
        comps.append(v)
    comps = np.array(comps)
    for r in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[r])))
        if comps[r, j] < 0:
            comps[r] = -comps[r]
    return Xc @ comps.T, comps


def forward_noise_loops(x0, t, eps, alpha, sigma):
    """Elementwise alpha_t * x0 + sigma_t * eps with per-sample t."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    t = np.atleast_1d(np.asarray(t))
    out = np.zeros_like(x0)
    flat_x = x0.reshape(x0.shape[0], -1)
    flat_e = eps.reshape(eps.shape[0], -1)
    flat_o = out.reshape(out.shape[0], -1)
    for n in range(x0.shape[0]):
        tn = int(t[0] if t.size == 1 else t[n])
        for i in range(flat_x.shape[1]):
            flat_o[n, i] = alpha[tn] * flat_x[n, i] + sigma[tn] * flat_e[n, i]
    return out


def greedy_scan_loop(positions, p, n):
    """Row-major first-fit packing; handles exact-fit rectangles."""
    accepted = []
    for r, c in positions:
        if all(abs(r - ar) >= p or abs(c - ac) >= p for ar, ac in accepted):
            accepted.append((int(r), int(c)))
            if len(accepted) == n:
                return np.array(accepted, dtype=np.int64)
    return None


def place_disjoint_loop(positions, p, n, rng, max_attempts=10000, stall=400):
    """Rejection sampling one attempt at a time, with a restart after `stall`
    rejections in a row and a first-fit fallback after `max_attempts`."""
    if len(positions) == 0:
        raise ValueError(f"cannot place {n} disjoint patches")
    accepted = []
    attempts = 0
    since_progress = 0
    while len(accepted) < n:
        if attempts >= max_attempts:
            fallback = greedy_scan_loop(positions, p, n)
            if fallback is None:
                raise ValueError(f"cannot place {n} disjoint patches")
            return fallback
        attempts += 1
        r, c = positions[int(rng.integers(0, len(positions)))]
        if all(abs(r - ar) >= p or abs(c - ac) >= p for ar, ac in accepted):
            accepted.append((int(r), int(c)))
            since_progress = 0
        else:
            since_progress += 1
            if since_progress >= stall:
                accepted.clear()
                since_progress = 0
    return np.array(accepted, dtype=np.int64)


def least_masked_windows_loop(allowed, shape, k, p):
    """k window top-lefts ranked by unmasked coverage, disjoint where possible."""
    h, w = shape
    counts = np.zeros((h - p + 1, w - p + 1), dtype=np.int64)
    for r in range(h - p + 1):
        for c in range(w - p + 1):
            counts[r, c] = p * p if allowed is None else allowed[r:r + p, c:c + p].sum()
    order = np.argsort(-counts, axis=None, kind="stable")
    rows, cols = np.unravel_index(order, counts.shape)
    picked = []
    for r, c in zip(rows, cols):
        if all(abs(r - a) >= p or abs(c - b) >= p for a, b in picked):
            picked.append((int(r), int(c)))
            if len(picked) == k:
                return picked
    for i in range(k - len(picked)):
        picked.append((int(rows[i % len(rows)]), int(cols[i % len(cols)])))
    return picked


def pattern_field(style, phase: tuple[float, float], h: int, w: int) -> np.ndarray:
    """Evaluate the style's pattern over an h x w canvas at a phase offset."""
    yy, xx = np.mgrid[0:h, 0:w]
    u = xx / h
    v = yy / h
    ct, st = np.cos(style.orientation), np.sin(style.orientation)
    ur = u * ct + v * st
    vr = -u * st + v * ct
    f = style.frequency
    px, py = phase
    a = ur * f + px
    b = vr * f + py
    pal = style.palette
    if style.family == "stripes":
        idx = np.floor(a * 3).astype(np.int64) % 3
        out = pal[idx]
    elif style.family == "checker":
        idx = (np.floor(a).astype(np.int64) + np.floor(b).astype(np.int64)) % 3
        out = pal[idx]
    elif style.family == "dots":
        ia = np.floor(a).astype(np.int64)
        ib = np.floor(b).astype(np.int64)
        fa = a - ia
        fb = b - ib
        inside = (fa - 0.5) ** 2 + (fb - 0.5) ** 2 < 0.33 ** 2
        idx = np.where(inside, 1 + (ia + ib) % 2, 0)
        out = pal[idx]
    elif style.family == "value-noise":
        lat = noise_lattice(style.style_id)
        L = lat.shape[0]
        ia = np.floor(a).astype(np.int64)
        ib = np.floor(b).astype(np.int64)
        fa = a - ia
        fb = b - ib
        # smoothstep-weighted bilinear blend on the periodic lattice
        sa = fa * fa * (3 - 2 * fa)
        sb = fb * fb * (3 - 2 * fb)
        g00 = lat[ib % L, ia % L]
        g01 = lat[ib % L, (ia + 1) % L]
        g10 = lat[(ib + 1) % L, ia % L]
        g11 = lat[(ib + 1) % L, (ia + 1) % L]
        n = (g00 * (1 - sa) + g01 * sa) * (1 - sb) + (g10 * (1 - sa) + g11 * sa) * sb
        # piecewise-linear ramp through the three palette colors
        lo = np.clip(n * 2.0, 0.0, 1.0)[..., None]
        hi = np.clip(n * 2.0 - 1.0, 0.0, 1.0)[..., None]
        out = np.where(n[..., None] < 0.5,
                       pal[0] * (1 - lo) + pal[1] * lo,
                       pal[1] * (1 - hi) + pal[2] * hi)
    else:
        raise ValueError(f"unknown pattern family '{style.family}'")
    return out.astype(np.float32)


def render_scene_by_region(style, layout_seed: int, size: int = 64) -> tuple:
    """render_scene with one full-canvas pattern_field per region; returns
    the scene and its [size, size] map of region ids."""
    rng = derive(layout_seed, "layout")
    h = w = size
    yy, xx = np.mgrid[0:h, 0:w]
    region_map = np.zeros((h, w), dtype=np.int8)
    layout = {0: {"shape": "background"}}
    n_shapes = int(rng.integers(1, 4))
    for rid in range(1, n_shapes + 1):
        kind = SHAPES[int(rng.integers(0, len(SHAPES)))]
        layout[rid] = _paint_shape(region_map, yy, xx, kind, rng, rid)
    pixels = np.zeros((h, w, 3), dtype=np.float32)
    for rid in range(n_shapes + 1):
        phase = tuple(rng.uniform(0.0, 1.0, 2))
        sel = region_map == rid
        if sel.any():
            pixels[sel] = pattern_field(style, phase, h, w)[sel]
    scene = SceneImage(pixels, style, layout, [])
    scene.caption_tokens = caption_of(scene)
    return scene, region_map
