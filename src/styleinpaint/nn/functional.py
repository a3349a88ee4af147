"""Layer-level operations: convolution, linear, attention, feature stats.

conv2d is the hot path. It lowers the padded input to channel-major im2col
columns, one GEMM per pass; see conv2d for the layout. The backward pass
rebuilds the columns from the saved padded input (cheaper than holding them)
for dW and scatters dX back through one add per kernel tap.

scaled_dot_attention is one tape node that keeps only the softmax P of its
scores, and gives the bits of the matmul/mul/softmax chain it replaces (that
chain is kept as a test oracle, tests/oracles.py).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor, _accum, _node


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1,
           padding: int = 1, pad_mode: str = "zeros") -> Tensor:
    """2-D convolution (cross-correlation) of [B,Cin,H,W] with [Cout,Cin,k,k].

    The columns are laid out channel-major, [Cin*kh*kw, B*Ho*Wo]: row
    (c, i, j) holds tap (i, j) of channel c at every output pixel. Building
    them copies one output row of Wo pixels at a time, read contiguously from
    the input at stride 1, where a row-major [B*Ho*Wo, Cin*kh*kw] im2col
    copies runs of kw pixels that lie H*W apart.
    The forward pass is wmat @ cols. The backward pass reuses the layout:
    dW = g @ cols^T on rebuilt columns, and dX = wmat^T @ g, whose
    [Cin, B, Ho, Wo] slab per tap is added back into the padded input.

    Every output element is the same dot product as with the row-major
    layout, summed over K in the same order, so
    OpenBLAS's blocked GEMM gives bit-identical results. Products small
    enough for its small-matrix kernels (about 1e6 multiply-adds or fewer)
    may differ from the row-major layout in the last bit.
    """
    xp = T.pad2d(x, padding, pad_mode) if padding > 0 else x
    B, Cin, Hp, Wp = xp.data.shape
    Cout, Cin_w, kh, kw = w.data.shape
    if Cin != Cin_w:
        raise ValueError(f"conv2d channel mismatch: input has {Cin}, weight expects {Cin_w}")
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1

    def im2col(xd: np.ndarray) -> np.ndarray:
        win = np.lib.stride_tricks.sliding_window_view(xd, (kh, kw), axis=(2, 3))
        win = win[:, :, ::stride, ::stride]  # [B, Cin, Ho, Wo, kh, kw]
        return win.transpose(1, 4, 5, 0, 2, 3).reshape(Cin * kh * kw, B * Ho * Wo)

    wmat = w.data.reshape(Cout, Cin * kh * kw)
    out_data = (wmat @ im2col(xp.data)).reshape(Cout, B, Ho, Wo).transpose(1, 0, 2, 3)
    if b is not None:
        out_data = out_data + b.data.reshape(1, Cout, 1, 1)
    out_data = np.ascontiguousarray(out_data)

    xp_data = xp.data
    parents = (xp, w) if b is None else (xp, w, b)

    def backward(g):
        gm = g.transpose(1, 0, 2, 3).reshape(Cout, B * Ho * Wo)
        if w.requires_grad:
            _accum(w, (gm @ im2col(xp_data).T).reshape(w.data.shape))
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))
        if xp.requires_grad:
            gcols = (wmat.T @ gm).reshape(Cin, kh, kw, B, Ho, Wo)
            gx = np.zeros_like(xp_data)
            for i in range(kh):
                for j in range(kw):
                    gx[:, :, i:i + Ho * stride:stride, j:j + Wo * stride:stride] += \
                        gcols[:, i, j].transpose(1, 0, 2, 3)
            _accum(xp, gx)

    return _node(out_data, parents, backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T + b for x of shape [..., in], w of shape [out, in]."""
    out = T.matmul(x, T.transpose(w, (1, 0)))
    if b is not None:
        out = T.add(out, b)
    return out


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Scale rows to unit L2 norm. Raises on an exactly-zero row."""
    sq = T.tsum(T.mul(x, x), axis=axis, keepdims=True)
    if np.any(sq.data <= 0):
        raise ValueError("degenerate zero embedding cannot be normalized")
    return T.div(x, T.sqrt(sq))


def channel_mean_std(x: Tensor) -> tuple[Tensor, Tensor]:
    """Per-channel spatial mean and std of [B,C,H,W]; population variance,
    stabilized as sqrt(var + 1e-5)."""
    mu = T.tmean(x, axis=(2, 3))
    mu_k = T.reshape(mu, (x.shape[0], x.shape[1], 1, 1))
    d = T.sub(x, mu_k)
    var = T.tmean(T.mul(d, d), axis=(2, 3))
    sigma = T.sqrt(T.add(var, 1e-5))
    return mu, sigma


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d)) v over [B, L, d] operands of one batch size,
    as one tape node.

    The forward pass turns the [B, Lq, Lk] scores into the softmax P in
    place, and the node keeps P and no other array of that size. The
    backward pass, with scale = 1/sqrt(d), is dv = P^T g, dP = g v^T,
    dS = (dP - rowsum(dP * P)) * P * scale, dq = dS k, dk = (q^T dS)^T.
    Every step repeats the arithmetic of the composed
    transpose/matmul/mul/softmax/matmul chain, in its order and on the same
    operand layouts, and v, q, k receive their gradients in that chain's
    order, so outputs and gradients are bit-identical to it.
    """
    if k.shape[1] == 0:
        raise ValueError("attention over an empty key sequence")
    p = q.data @ k.data.transpose(0, 2, 1)
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=p.dtype)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out_data = p @ v.data

    def backward(g):
        if v.requires_grad:
            _accum(v, np.swapaxes(p, -1, -2) @ g)
        if not (q.requires_grad or k.requires_grad):
            return
        gs = g @ np.swapaxes(v.data, -1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        if q.requires_grad:
            _accum(q, gs @ k.data)
        if k.requires_grad:
            _accum(k, (np.swapaxes(q.data, -1, -2) @ gs).transpose(0, 2, 1))

    return _node(out_data, (q, k, v), backward)


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Classic sin/cos position features for integer timesteps; [B, dim]."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(np.float32)


def flatten_tokens(x: Tensor) -> Tensor:
    """[B, C, H, W] -> [B, H*W, C] token sequence."""
    B, C, H, W = x.shape
    return T.transpose(T.reshape(x, (B, C, H * W)), (0, 2, 1))


def unflatten_tokens(x: Tensor, h: int, w: int) -> Tensor:
    """[B, H*W, C] -> [B, C, H, W]."""
    B, L, C = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1)), (B, C, h, w))
