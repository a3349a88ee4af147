"""Ancestral sampling for mask-conditioned inpainting.

Walks a (possibly subsampled) timestep grid from t = T-1 down to 0. Each step
predicts the noise with both conditioning paths active, forms a clamped clean
estimate, and draws the DDPM posterior sample for the next grid point; the
reference network re-reads (x_t, x_mask, x_m) at the current x_t every step.
With 0 steps the initial noise is returned as-is, composited per the paste
flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Tensor, no_grad
from ..psrl.model import PSRLModel, embed_style
from ..reference import build_ref_input
from ..rng import derive
from .model import ConditioningBundle
from .train import NSDModel, from_diffusion_space, to_diffusion_space


@dataclass
class InpaintTask:
    image: np.ndarray  # [H, W, 3] float32 in [0, 1]
    mask: np.ndarray  # [H, W], 1 = region to fill
    tokens: list  # caption token ids


def _timestep_grid(T: int, steps: int) -> np.ndarray:
    if steps == 1:
        return np.array([T - 1])
    ts = np.linspace(0, T - 1, steps).round().astype(int)
    return np.unique(ts)[::-1]


def ddpm_posterior(x_t, x0_hat, abar_t: float, abar_s: float):
    """Mean and variance of q(x_s | x_t, x0) for s < t, from the squared
    signal levels abar = alpha^2 at the two grid points."""
    step_alpha = abar_t / abar_s
    beta = 1.0 - step_alpha
    denom = 1.0 - abar_t
    mean = (np.sqrt(abar_s) * beta / denom) * x0_hat \
        + (np.sqrt(step_alpha) * (1.0 - abar_s) / denom) * x_t
    var = beta * (1.0 - abar_s) / denom
    return mean, var


def sample_inpaint(task: InpaintTask, model: NSDModel, psrl: PSRLModel,
                   steps: int, seed: int, lam: float = 1.0, k: int = 4,
                   use_projector: bool = True, paste_background: bool = False) -> np.ndarray:
    """Inpainted image in [0,1]; deterministic per seed."""
    T = model.schedule.T
    if steps > T:
        raise ValueError(f"cannot take {steps} denoising steps on a {T}-step schedule")
    if steps < 0:
        raise ValueError(f"denoising steps must be >= 0, got {steps}")
    mask = np.asarray(task.mask, np.float32)
    x0_ctx = to_diffusion_space(task.image)  # [1,3,H,W]
    m = mask[None, None]
    x_mask = x0_ctx * (1.0 - m)

    x = derive(seed, "sample-init").standard_normal(x0_ctx.shape).astype(np.float32)
    if steps > 0:
        sty = None
        if lam > 0:
            style_seed = int(derive(seed, "sample-style").integers(0, 2 ** 63))
            sty = embed_style(psrl, task.image, mask, k, style_seed,
                              use_projector=use_projector)[None]
        with no_grad():
            bundle = ConditioningBundle(model.encoder(np.asarray(task.tokens)[None]),
                                        None if sty is None else Tensor(sty), lam)
            ts = _timestep_grid(T, steps)
            alpha, sigma = model.schedule.alpha, model.schedule.sigma
            for i, tcur in enumerate(ts):
                refs = model.refnet.connected_features(
                    build_ref_input(x, x_mask, m), int(tcur))
                eps_hat = model.denoiser.predict_noise(x, int(tcur), bundle, refs).data
                a, s = alpha[tcur], sigma[tcur]
                x0_hat = np.clip((x - s * eps_hat) / a, -1.0, 1.0).astype(np.float32)
                if i == len(ts) - 1:
                    x = x0_hat
                    break
                tnext = ts[i + 1]
                mean, var = ddpm_posterior(x, x0_hat, float(a * a),
                                           float(alpha[tnext] ** 2))
                noise = derive(seed, "sample", i).standard_normal(x.shape)
                x = (mean + np.sqrt(var) * noise).astype(np.float32)

    out = from_diffusion_space(x)[0]
    if paste_background:
        out = np.where(mask[..., None] > 0, out, task.image.astype(np.float32))
    return out
