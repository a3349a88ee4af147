"""Deterministic RNG derivation.

Every stochastic step draws from a generator derived from (root seed, step
index, purpose label), so a run is reproducible regardless of batch order or
how many draws earlier steps consumed. String labels hash through sha256 to
keep the derivation stable across Python builds (``hash()`` is salted).
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_of(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive(seed: int, *scope: int | str) -> np.random.Generator:
    """Generator for a (seed, scope...) coordinate; ints pass through, strings hash."""
    entropy = [int(seed)] + [_key_of(s) if isinstance(s, str) else int(s) for s in scope]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class NoDraws:
    """Stands in for a model's init generator when a checkpoint supplies
    every parameter: `init_normal` draws nothing from it."""


def init_normal(rng: np.random.Generator | NoDraws, shape: tuple, std: float) -> np.ndarray:
    """float32 N(0, std^2) initial weights drawn from rng, or zeros, with no
    arithmetic, from NoDraws."""
    if isinstance(rng, NoDraws):
        return np.zeros(shape, np.float32)
    return (rng.standard_normal(shape) * std).astype(np.float32)
