"""Layer-level operations: convolution, linear, attention, feature stats.

conv2d is the hot path, one tape node over (x, w[, b]) that pads x as a
plain array and keeps no padded copy; backward pads x.data again. It lowers
a conv to one GEMM per pass in one of two ways, picked from the shapes:
- input side (_im2col): channel-major columns [Cin*k*k, B*Ho*Wo] of the
  padded input, out = W @ cols. Backward rebuilds the columns for dW
  (holding them at PSRL shapes lifted psrl-train's peak_mem_mib from 79 to
  97 MiB, +23% against the benchmark's 0.15 bound) and adds the dX slab of
  each kernel tap back into the padded layout. The pixel axis runs
  (b, yo, xo), or batch innermost, (yo, xo, b), when the batch is longer
  than an output row and x needs a gradient: copies then move runs of B
  values, not of Wo. dW always sums in (b, yo, xo) order, which keeps its
  bits; the output and dX are the same in either order.
- output side (_narrow, stride 1 with Cout < Cin): Y = Wk[k*k*Cout, Cin] @
  Xc[Cin, B*Hp*Wp] gives every tap's output at every padded pixel, and the
  output sums the k*k shifted slices of Y. Backward places g at each tap's
  offset in one zeroed Gs[k*k*Cout, B*Hp*Wp], for dW and dX alike. Y and Gs
  scale with Cout where the columns scale with Cin, so a narrowing conv
  holds no columns.
The dX of the padded layout returns to x through tensor.unpad, the gradient
of tensor.pad_array.

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
    """2-D convolution (cross-correlation) of [B,Cin,H,W] with [Cout,Cin,k,k],
    one tape node over (x, w[, b]). A stride-1 conv with Cout < Cin lowers
    on its output side (_narrow), every other conv on its input side
    (_im2col)."""
    Cin = x.data.shape[1]
    Cout, Cin_w = w.data.shape[:2]
    if Cin != Cin_w:
        raise ValueError(f"conv2d channel mismatch: input has {Cin}, weight expects {Cin_w}")
    if stride == 1 and Cout < Cin:
        out_cm, grads = _narrow(x, w, padding, pad_mode)  # [Cout, B, Ho, Wo]
    else:
        out_cm, grads = _im2col(x, w, stride, padding, pad_mode)
    out_data = out_cm.transpose(1, 0, 2, 3)
    if b is not None:
        out_data = out_data + b.data.reshape(1, Cout, 1, 1)
    out_data = np.ascontiguousarray(out_data)
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        dw, dx = grads(g.transpose(1, 0, 2, 3), w.requires_grad, x.requires_grad)
        if dw is not None:
            _accum(w, dw)
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))
        if dx is not None:
            _accum(x, T.unpad(dx, padding, pad_mode), owned=True)

    return _node(out_data, parents, backward)


def _im2col(x: Tensor, w: Tensor, stride: int, padding: int, pad_mode: str):
    """Input-side lowering. Row (c, i, j) of the columns holds tap (i, j) of
    channel c at every output pixel, so building them copies runs along the
    pixel axis, where a row-major [B*Ho*Wo, Cin*kh*kw] im2col copies runs of
    kw pixels that lie H*W apart. The count of runs, not the bytes moved,
    sets the cost of these copies, so the pixel order follows the shapes:
    - (b, yo, xo): a run is one output row of Wo pixels of the padded
      [B, Cin, Hp, Wp] input.
    - (yo, xo, b), batch innermost, when B > Wo and x needs a gradient: x
      is padded into [Cin, Hp, Wp, B], a run is B values (Wo*B at stride
      1), and the dX scatter adds each tap in runs as long. B > Wo is when
      these runs are the longer ones at every stride. The order costs
      transposes into it (x, and g for dX) and out of it (dX, and the
      output a channel at a time, so that each block stays in cache). The
      dX scatter's nine short-run passes repay them; the forward alone did
      not at the style encoder's first conv (3 -> 16 at 16x16, batch 128),
      whose input is the data and needs no gradient.

    Both orders give the same bits, small products aside (see below). Each
    output is the same dot product over K = (c, i, j) whatever the order of
    the pixel axis, and each padded pixel of dX adds its taps in row-major
    order starting from zero. dW sums over the pixel axis, so its order is
    not free: backward always rebuilds the (b, yo, xo) columns for it.
    Summed in (yo, xo, b) order, 94% of dW's entries changed, by up to
    3.4e-4 at the encoder's shapes.

    Backward rebuilds the columns rather than hold them. At NSD shapes they
    are a step's largest array; at PSRL shapes, holding them lifted
    psrl-train's peak_mem_mib from 79 to 97 MiB (+23%, over the benchmark's
    0.15 bound) for no faster step.

    Every output element is the same dot product as with the row-major
    layout, summed over K in the same order, so OpenBLAS's blocked GEMM
    gives bit-identical results. Products small enough for its small-matrix
    kernels (about 1e6 multiply-adds or fewer) may differ from the row-major
    layout, or between the two pixel orders, in the last bit.
    """
    Cout, Cin, kh, kw = w.data.shape
    B, _, H, W = x.data.shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    batch_inner = B > Wo and x.requires_grad

    def im2col(inner: bool) -> np.ndarray:  # batch innermost, or (b, yo, xo)
        if inner:  # a [B, Cin, Hp, Wp] view of [Cin, Hp, Wp, B] memory
            xp = (np.zeros if pad_mode == "zeros" else np.empty)((Cin, Hp, Wp, B), x.data.dtype)
            xp = T.pad_array(x.data, padding, pad_mode, out=xp.transpose(3, 0, 1, 2))
        else:
            xp = T.pad_array(x.data, padding, pad_mode)
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        win = win[:, :, ::stride, ::stride]  # [B, Cin, Ho, Wo, kh, kw]
        pixels = (2, 3, 0) if inner else (0, 2, 3)
        return win.transpose(1, 4, 5, *pixels).reshape(Cin * kh * kw, B * Ho * Wo)

    wmat = w.data.reshape(Cout, Cin * kh * kw)
    y = wmat @ im2col(batch_inner)
    if batch_inner:  # back to (b, yo, xo) a channel at a time, in cache
        y_t = y.reshape(Cout, Ho * Wo, B)
        y = np.empty((Cout, B, Ho * Wo), y.dtype)
        for c in range(Cout):
            y[c] = y_t[c].T
    out_cm = y.reshape(Cout, B, Ho, Wo)

    def grads(g_cm, need_w, need_x):
        gm = g_cm.reshape(Cout, B * Ho * Wo)
        dw = dx = None
        if need_w:
            dw = (gm @ im2col(False).T).reshape(w.data.shape)
        if need_x:
            if batch_inner:
                gm = gm.reshape(Cout, B, Ho * Wo).transpose(0, 2, 1).reshape(Cout, Ho * Wo * B)
                gcols = (wmat.T @ gm).reshape(Cin, kh, kw, Ho, Wo, B).transpose(0, 1, 2, 5, 3, 4)
            else:
                gcols = (wmat.T @ gm).reshape(Cin, kh, kw, B, Ho, Wo)
            # unpadded, dX keeps x's memory layout (x may be a transposed
            # view, as a block's unflattened tokens are); padded, the
            # columns' pixel order
            if padding == 0:
                dx = np.zeros_like(x.data)
            elif batch_inner:
                dx = np.zeros((Cin, Hp, Wp, B), x.data.dtype).transpose(3, 0, 1, 2)
            else:
                dx = np.zeros((B, Cin, Hp, Wp), x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    dx[:, :, i:i + Ho * stride:stride, j:j + Wo * stride:stride] += \
                        gcols[:, i, j].transpose(1, 0, 2, 3)
        return dw, dx

    return out_cm, grads


def _narrow(x: Tensor, w: Tensor, padding: int, pad_mode: str):
    """Output-side lowering of a stride-1 conv (kn2row, Vasudevan et al.,
    arXiv:1704.04428); see the module docstring. The rows of Wk are
    (i, j, co), so Y[i, j] is tap (i, j)'s [Cout, B, Hp, Wp] slab, and the
    taps add in row-major order. dX = Wk^T @ Gs lands in the padded layout,
    and the channel-major input Xc is rebuilt for dW = Gs @ Xc^T, not held.
    """
    Cout, Cin, kh, kw = w.data.shape
    B, _, H, W = x.data.shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    Ho, Wo = Hp - kh + 1, Wp - kw + 1

    def channel_major() -> np.ndarray:
        xc = np.ascontiguousarray(T.pad_array(x.data.transpose(1, 0, 2, 3), padding, pad_mode))
        return xc.reshape(Cin, -1)

    wk = w.data.transpose(2, 3, 0, 1).reshape(kh * kw * Cout, Cin)
    y = (wk @ channel_major()).reshape(kh, kw, Cout, B, Hp, Wp)
    out_cm = y[0, 0, :, :, :Ho, :Wo].copy()
    for i in range(kh):
        for j in range(kw):
            if i or j:
                out_cm += y[i, j, :, :, i:i + Ho, j:j + Wo]

    def grads(g_cm, need_w, need_x):
        gs = np.zeros((kh, kw, Cout, B, Hp, Wp), g_cm.dtype)
        for i in range(kh):
            for j in range(kw):
                gs[i, j, :, :, i:i + Ho, j:j + Wo] = g_cm
        gs = gs.reshape(kh * kw * Cout, B * Hp * Wp)
        dw = dx = None
        if need_w:
            dwk = (gs @ channel_major().T).reshape(kh, kw, Cout, Cin)
            dw = np.ascontiguousarray(dwk.transpose(2, 3, 0, 1))
        if need_x:
            dx = (wk.T @ gs).reshape(Cin, B, Hp, Wp).transpose(1, 0, 2, 3)
        return dw, dx

    return out_cm, grads


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
        # rowsum(dP * P) one batch slice at a time: the product is a
        # [Lq, Lk] temporary, not a second [B, Lq, Lk] one
        for gs_i, p_i in zip(gs, p):
            gs_i -= (gs_i * p_i).sum(axis=-1, keepdims=True)
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
