"""Reverse-mode autodiff over numpy arrays.

A small tape: every operation returns a fresh ``Tensor`` whose backward
closure scatters gradients into its parents. Training runs in float32;
float64 inputs are supported end to end so finite-difference checks can run
at full precision. All operations are pure functions of their inputs (no
global mutable state is read), which keeps replays deterministic.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """N-dimensional real array with an optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable input."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                # free intermediate grads and closures as we go
                if node is not self:
                    node.grad = None
                node._backward = None
                node._parents = ()

    def __repr__(self) -> str:
        return (f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, "
                f"requires_grad={self.requires_grad})")

    # operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def _toposort(root: Tensor) -> list:
    """Iterative post-order over the parent DAG (graphs can be deep)."""
    order: list = []
    seen: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap operands, casting bare scalars to the tensor operand's dtype so
    float32 graphs are not silently promoted to float64 (numpy 2 semantics)."""
    scalar_types = (int, float, np.integer, np.floating)
    if isinstance(a, Tensor) and isinstance(b, scalar_types):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and isinstance(a, scalar_types):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return _as_tensor(a), _as_tensor(b)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g into t.grad. An `owned` g is a fresh array that nothing else
    holds, so a first gradient of t's dtype is kept without a copy."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned and g.dtype == t.data.dtype else \
            np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------- arithmetic


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), backward)


def power(a, p: float) -> Tensor:
    a = _as_tensor(a)
    p = float(p)
    out_data = a.data ** p

    def backward(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    return _node(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * (0.5 / out_data))

    return _node(out_data, (a,), backward)


def relu(a) -> Tensor:
    """Elementwise max(0, x). The subgradient at exactly 0 is taken as 0."""
    a = _as_tensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, 0)

    def backward(g):
        _accum(a, g * mask)

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------- reductions


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    return _node(out_data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    denom = a.data.size / max(out_data.size, 1)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape) / denom)

    return _node(out_data, (a,), backward)


# ------------------------------------------------------------- shape algebra


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(out_data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    out_data = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        _accum(a, g.transpose(inv))

    return _node(out_data, (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]

    def backward(g):
        start = 0
        for t, n in zip(ts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + n)
            _accum(t, g[tuple(sl)])
            start += n

    return _node(out_data, ts, backward)


def getitem(a, idx) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)  # accumulate: idx may repeat (embedding lookups)
        _accum(a, full)

    return _node(out_data, (a,), backward)


def pad_array(a: np.ndarray, p: int, mode: str) -> np.ndarray:
    """Pad the two trailing (spatial) axes of a [..., H, W] array by p, as
    np.pad's "constant" or "edge" mode does at less cost per call; p = 0
    returns `a` itself."""
    if p == 0:
        return a
    if mode not in ("zeros", "edge"):
        raise ValueError(f"unknown pad mode '{mode}'")
    shape = a.shape[:-2] + (a.shape[-2] + 2 * p, a.shape[-1] + 2 * p)
    out = np.zeros(shape, a.dtype) if mode == "zeros" else np.empty(shape, a.dtype)
    out[..., p:-p, p:-p] = a
    if mode == "edge":
        out[..., :p, p:-p] = a[..., :1, :]
        out[..., -p:, p:-p] = a[..., -1:, :]
        out[..., :, :p] = out[..., :, p:p + 1]
        out[..., :, -p:] = out[..., :, -p - 1:-p]
    return out


def unpad(g: np.ndarray, p: int, mode: str) -> np.ndarray:
    """Gradient of pad_array: a fresh C-ordered [..., H, W] array from the
    padded gradient g (g itself when p = 0). In edge mode the padded strips
    fold back onto the border pixels they replicated."""
    if p == 0:
        return g
    core = np.array(g[..., p:-p, p:-p], order="C")
    if mode == "edge":
        core[..., 0, :] += g[..., :p, p:-p].sum(axis=-2)
        core[..., -1, :] += g[..., -p:, p:-p].sum(axis=-2)
        core[..., :, 0] += g[..., p:-p, :p].sum(axis=-1)
        core[..., :, -1] += g[..., p:-p, -p:].sum(axis=-1)
        core[..., 0, 0] += g[..., :p, :p].sum(axis=(-1, -2))
        core[..., 0, -1] += g[..., :p, -p:].sum(axis=(-1, -2))
        core[..., -1, 0] += g[..., -p:, :p].sum(axis=(-1, -2))
        core[..., -1, -1] += g[..., -p:, -p:].sum(axis=(-1, -2))
    return core


def upsample_nearest2x(a) -> Tensor:
    """Nearest-neighbor 2x upsampling of a [B, C, H, W] tensor."""
    a = _as_tensor(a)
    out_data = a.data.repeat(2, axis=2).repeat(2, axis=3)

    def backward(g):
        b, c, h2, w2 = g.shape
        _accum(a, g.reshape(b, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5)))

    return _node(out_data, (a,), backward)


# ------------------------------------------------------------ linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product supporting 2-D weights and batched 3-D operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), backward)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp; gradient is the softmax of the inputs."""
    a = _as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.log(s) + m
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(a, gg * (e / s))

    return _node(out_data, (a,), backward)


def logaddexp(a, b) -> Tensor:
    """Elementwise log(exp(a) + exp(b)), stable under broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    m = np.maximum(a.data, b.data)
    ea = np.exp(a.data - m)
    eb = np.exp(b.data - m)
    s = ea + eb
    out_data = np.log(s) + m

    def backward(g):
        _accum(a, _unbroadcast(g * ea / s, a.data.shape))
        _accum(b, _unbroadcast(g * eb / s, b.data.shape))

    return _node(out_data, (a, b), backward)
