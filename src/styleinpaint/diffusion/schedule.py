"""Variance-preserving noise schedules: x_t = alpha_t x_0 + sigma_t eps.

The cosine schedule evaluates the squared signal level as
f(t/T) / f(0) with f(u) = cos^2(((u + 0.008) / 1.008) * pi/2), which keeps
alpha_0 = 1 exactly and alpha_{T-1} small but nonzero. alpha^2 + sigma^2 = 1
at every step by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NoiseSchedule:
    T: int
    alpha: np.ndarray  # [T] signal coefficients, float64
    sigma: np.ndarray  # [T] noise coefficients, float64


def build_schedule(T: int, kind: str = "cosine") -> NoiseSchedule:
    if T < 2:
        raise ValueError(f"schedule needs T >= 2, got {T}")
    t = np.arange(T, dtype=np.float64)
    if kind == "cosine":
        def f(u):
            return np.cos(((u + 0.008) / 1.008) * (np.pi / 2)) ** 2
        alpha_sq = f(t / T) / f(0.0)
    elif kind == "linear":
        beta = np.linspace(1e-4, 0.02, T)
        alpha_sq = np.cumprod(1.0 - beta)
        # shift so t=0 carries no noise yet, matching x_0 = clean image
        alpha_sq = np.concatenate([[1.0], alpha_sq[:-1]])
    else:
        raise ValueError(f"unknown schedule kind '{kind}'")
    alpha = np.sqrt(alpha_sq)
    sigma = np.sqrt(1.0 - alpha_sq)
    return NoiseSchedule(T, alpha, sigma)


def forward_noise(x0: np.ndarray, t: int | np.ndarray, eps: np.ndarray,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Exact affine noising of x0 at timestep t: a scalar, or one per
    sample along x0's first axis. Either way alpha_t and sigma_t broadcast
    over the trailing axes as float64."""
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    if x0.shape != eps.shape:
        raise ValueError(f"noise shape {eps.shape} does not match image {x0.shape}")
    t_arr = np.asarray(t)
    if np.any(t_arr < 0) or np.any(t_arr >= schedule.T):
        raise ValueError(f"timestep {t} outside [0, {schedule.T})")
    shape = (-1,) + (1,) * (x0.ndim - 1)
    a = schedule.alpha[t_arr].reshape(shape)
    s = schedule.sigma[t_arr].reshape(shape)
    return (a * x0 + s * eps).astype(x0.dtype)
