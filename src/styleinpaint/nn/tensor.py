"""Reverse-mode autodiff over numpy arrays.

A small tape: every operation returns a fresh ``Tensor`` whose backward
closure scatters gradients into its parents. Training runs in float32;
float64 inputs are supported end to end so finite-difference checks can run
at full precision. All operations are pure functions of their inputs (no
global mutable state is read), which keeps replays deterministic.

An op states its forward value and its local derivative(s) da(g), db(g),
and `_unary(a, out, da)` or `_binary(a, b, out, da, db)` builds the node;
`_binary` skips an operand that needs no grad and sums a broadcast gradient
back to its operand's shape. Three ops build their own `_node`: `concat` has
any number of operands, and `functional.conv2d` and `scaled_dot_attention`
share intermediates between their operands' gradients.
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


def _binary(a: Tensor, b: Tensor, out_data: np.ndarray, da, db) -> Tensor:
    """The node of a two-operand op; da(g) and db(g) give each operand's
    gradient at the output's shape, called only if it requires grad."""
    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(da(g), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(db(g), b.data.shape))

    return _node(out_data, (a, b), backward)


def _unary(a: Tensor, out_data: np.ndarray, da) -> Tensor:
    """The node of a one-operand op; da(g) gives a's gradient at a's shape."""
    return _node(out_data, (a,), lambda g: _accum(a, da(g)))


# ---------------------------------------------------------------- arithmetic


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _binary(a, b, a.data / b.data, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data))


def power(a, p: float) -> Tensor:
    a = _as_tensor(a)
    p = float(p)
    return _unary(a, a.data ** p, lambda g: g * p * a.data ** (p - 1.0))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.sqrt(a.data)
    return _unary(a, out_data, lambda g: g * (0.5 / out_data))


def relu(a) -> Tensor:
    """Elementwise max(0, x). The subgradient at exactly 0 is taken as 0."""
    a = _as_tensor(a)
    mask = a.data > 0
    return _unary(a, np.where(mask, a.data, 0), lambda g: g * mask)


# ---------------------------------------------------------------- reductions


def _spread(g: np.ndarray, a: Tensor, axis, keepdims: bool) -> np.ndarray:
    """A reduction's gradient g, broadcast back over its input a's shape."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, a.data.shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    return _unary(a, a.data.sum(axis=axis, keepdims=keepdims),
                  lambda g: _spread(g, a, axis, keepdims))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    denom = a.data.size / max(out_data.size, 1)
    return _unary(a, out_data, lambda g: _spread(g, a, axis, keepdims) / denom)


# ------------------------------------------------------------- shape algebra


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    return _unary(a, a.data.reshape(shape), lambda g: g.reshape(a.data.shape))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _unary(a, a.data.transpose(axes), lambda g: g.transpose(inv))


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

    def da(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)  # accumulate: idx may repeat (embedding lookups)
        return full

    return _unary(a, a.data[idx], da)


def pad_array(a: np.ndarray, p: int, mode: str, out: np.ndarray | None = None) -> np.ndarray:
    """Pad the two trailing (spatial) axes of a [..., H, W] array by p, as
    np.pad's "constant" or "edge" mode does at less cost per call. Without
    `out`, p = 0 returns `a` itself. `out` is a [..., H+2p, W+2p] array of
    any memory layout to fill, zeroed if the mode is "zeros"."""
    if out is None:
        if p == 0:
            return a
        shape = a.shape[:-2] + (a.shape[-2] + 2 * p, a.shape[-1] + 2 * p)
        out = np.zeros(shape, a.dtype) if mode == "zeros" else np.empty(shape, a.dtype)
    if mode not in ("zeros", "edge"):
        raise ValueError(f"unknown pad mode '{mode}'")
    out[..., p:p + a.shape[-2], p:p + a.shape[-1]] = a
    if mode == "edge" and p:
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
    b, c, h, w = a.data.shape
    return _unary(a, a.data.repeat(2, axis=2).repeat(2, axis=3),
                  lambda g: g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)))


# ------------------------------------------------------------ linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product supporting 2-D weights and batched 3-D operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _binary(a, b, a.data @ b.data,
                   lambda g: g @ np.swapaxes(b.data, -1, -2),
                   lambda g: np.swapaxes(a.data, -1, -2) @ g)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp; gradient is the softmax of the inputs."""
    a = _as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.log(s) + m
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)
    return _unary(a, out_data, lambda g: _spread(g, a, axis, keepdims) * (e / s))


def logaddexp(a, b) -> Tensor:
    """Elementwise log(exp(a) + exp(b)), stable under broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    m = np.maximum(a.data, b.data)
    ea = np.exp(a.data - m)
    eb = np.exp(b.data - m)
    s = ea + eb
    return _binary(a, b, np.log(s) + m, lambda g: g * ea / s, lambda g: g * eb / s)
