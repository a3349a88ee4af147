"""Parameter registry and Adam.

Parameters live in an ordered mapping from slash-delimited path to Tensor.
Iteration order is sorted-by-path everywhere (checkpoints, optimizer state,
gradient checks) so serialized artifacts are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class ParameterSet:
    """Ordered named parameters with per-path trainability flags."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, path: str, tensor: Tensor) -> Tensor:
        if path in self._params:
            raise ValueError(f"duplicate parameter path '{path}'")
        tensor.requires_grad = True
        self._params[path] = tensor
        return tensor

    def __getitem__(self, path: str) -> Tensor:
        return self._params[path]

    def paths(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(p, self._params[p]) for p in self.paths()]

    def set_trainable(self, paths: set[str] | None) -> None:
        """Restrict grad tracking to the given paths (None = all trainable)."""
        for p, t in self._params.items():
            t.requires_grad = paths is None or p in paths


@dataclass
class AdamState:
    """First/second moment accumulators for one trainable subset."""

    lr: float = 1e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: ParameterSet, state: AdamState) -> None:
    """One bias-corrected Adam update over the trainable parameters.

    Every trainable parameter must carry a gradient; a missing one means the
    loss graph silently skipped it, which is a bug worth failing loudly on.
    Gradients are cleared after the update.
    """
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for path in params.paths():
        t = params[path]
        if not t.requires_grad:
            continue
        if t.grad is None:
            raise RuntimeError(f"no gradient for trainable parameter '{path}'")
        g = t.grad
        if path not in state.m:
            state.m[path] = np.zeros_like(t.data)
            state.v[path] = np.zeros_like(t.data)
        m = state.m[path]
        v = state.v[path]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        t.data -= (state.lr * mhat / (np.sqrt(vhat) + EPS)).astype(t.data.dtype)
        t.grad = None
