"""Statistics-alignment and style-contrastive losses.

L_x / L_y pull the second-order statistics of same-image patches together.
In a training batch each is the mean same-image pair distance divided by the
mean X-to-Y pair distance (floored at _SCALE_FLOOR), so the stage-1
objective is scale-invariant: shrinking every feature towards zero, down to
a dead encoder, no longer minimizes it, and the gradient through the divisor
keeps patches of different images apart. L_xy is a symmetric InfoNCE over
projector embeddings where the positive is another patch of the same image
and the negatives are the patches of its pair partner only, not of the rest
of the batch. The vectorized form evaluates every (anchor, positive) term
as logaddexp(pos/tau, rowLSE(neg/tau)) - pos/tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import (Tensor, add, div, logaddexp, logsumexp, matmul, mul, relu,
                  reshape, sub, tmean, transpose, tsum)
from .model import PSRLModel

_NORM_FLOOR = 1e-24
# lower bound on the X-to-Y distance that divides L_x / L_y; a fresh encoder
# puts that distance between 2 and 3 on the texture scenes
_SCALE_FLOOR = 1e-3


def _floored(x: Tensor, floor: float) -> Tensor:
    """max(x, floor), with zero gradient below the floor."""
    return relu(sub(x, floor)) + floor


def _safe_norm(sumsq: Tensor) -> Tensor:
    """sqrt with a floor so identical inputs give zero gradient, not NaN."""
    return _floored(sumsq, _NORM_FLOOR) ** 0.5


def _distances(a: Tensor, b: Tensor) -> Tensor:
    """||a_i - b_j|| for every row i of a and j of b; a and b are [..., N, C]
    and the result is [..., N, N]."""
    d = sub(reshape(a, a.shape[:-1] + (1, a.shape[-1])),
            reshape(b, b.shape[:-2] + (1,) + b.shape[-2:]))
    return _safe_norm(tsum(mul(d, d), axis=-1))


def _pairwise_stats_mean(mu: Tensor, sigma: Tensor) -> Tensor:
    """Mean ||mu_i - mu_j|| + ||sigma_i - sigma_j|| over unordered patch
    pairs (i, j); mu/sigma are [..., N, C]. The numerator of L_x and L_y."""
    n = mu.shape[-2]
    total = None
    for part in (mu, sigma):
        norms = _distances(part, part)  # [..., N, N]
        iu = np.triu(np.ones((n, n), dtype=np.float32), k=1)
        pairs = tsum(mul(norms, iu)) / (norms.size / (n * n) * n * (n - 1) / 2)
        total = pairs if total is None else add(total, pairs)
    return total


def _cross_stats_mean(mu_x: Tensor, sigma_x: Tensor, mu_y: Tensor,
                      sigma_y: Tensor) -> Tensor:
    """Mean ||mu_x - mu_y|| + ||sigma_x - sigma_y|| over every (X patch,
    Y patch) pair of each image pair; inputs are [B, N, C]."""
    total = None
    for px, py in ((mu_x, mu_y), (sigma_x, sigma_y)):
        part = tmean(_distances(px, py))  # over [B, N, N]
        total = part if total is None else add(total, part)
    return total


def _directed_nce(anchors: Tensor, mates: Tensor, negatives: Tensor, tau: float) -> Tensor:
    """Sum of InfoNCE terms over ordered same-set pairs (i, j != i).

    anchors/mates are the same [B, N, d] embedding set; negatives is the
    paired set, whose row b holds the negatives of anchors row b.
    """
    n = anchors.shape[1]
    pos = div(matmul(anchors, transpose(mates, (0, 2, 1))), tau)  # [B, N, N]
    sims = div(matmul(anchors, transpose(negatives, (0, 2, 1))), tau)
    lse = logsumexp(sims, axis=2, keepdims=True)  # [B, N, 1]
    terms = sub(logaddexp(pos, lse), pos)  # [B, N, N]
    off = 1.0 - np.eye(n, dtype=np.float32)
    return tsum(mul(terms, off))


def style_contrastive_loss(ex: Tensor, ey: Tensor, tau: float = 0.07) -> Tensor:
    """L_xy symmetrized over X and Y anchors, mean over all ordered pairs."""
    b, n, _ = ex.shape
    if n < 2:
        raise ValueError("style contrastive loss needs at least 2 patches per image")
    total = add(_directed_nce(ex, ex, ey, tau), _directed_nce(ey, ey, ex, tau))
    return div(total, 2.0 * b * n * (n - 1))


@dataclass
class PsrlLossOutput:
    total: Tensor
    l_x: Tensor
    l_y: Tensor
    l_xy: Tensor
    ex: Tensor  # [B, N, d] projector embeddings of X patches
    ey: Tensor
    zx: Tensor  # [B, N, 128] normalized raw statistics of X patches
    zy: Tensor


def psrl_batch_loss(model: PSRLModel, x_patches: np.ndarray, y_patches: np.ndarray,
                    tau: float, stage: int) -> PsrlLossOutput:
    """Combined loss over a batch of image pairs.

    x_patches/y_patches: [B, N, P, P, 3]. L_x / L_y are the same-image
    pair distances of X and Y divided by their mean X-to-Y pair distance.
    Stage 1 totals L_x + L_y; stage 2 adds L_xy. L_xy is always evaluated so
    the log can track it either way.
    """
    if x_patches.shape != y_patches.shape:
        raise ValueError(f"patch set shapes differ: {x_patches.shape} vs {y_patches.shape}")
    b, n, p = x_patches.shape[:3]
    both = np.concatenate([x_patches, y_patches]).reshape(2 * b * n, p, p, 3)
    feat = model.encode(both)
    mu = reshape(feat.mu, (2 * b, n, feat.mu.shape[1]))
    sigma = reshape(feat.sigma, (2 * b, n, feat.sigma.shape[1]))
    cross = _cross_stats_mean(mu[:b], sigma[:b], mu[b:], sigma[b:])
    scale = _floored(cross, _SCALE_FLOOR)
    l_x = div(_pairwise_stats_mean(mu[:b], sigma[:b]), scale)
    l_y = div(_pairwise_stats_mean(mu[b:], sigma[b:]), scale)
    emb = model.project(feat)
    ex = reshape(emb, (2 * b, n, emb.shape[1]))[:b]
    ey = reshape(emb, (2 * b, n, emb.shape[1]))[b:]
    l_xy = style_contrastive_loss(ex, ey, tau)
    zs = model.stats_vector(feat)
    zx = reshape(zs, (2 * b, n, zs.shape[1]))[:b]
    zy = reshape(zs, (2 * b, n, zs.shape[1]))[b:]
    total = add(l_x, l_y)
    if stage >= 2:
        total = add(total, l_xy)
    return PsrlLossOutput(total, l_x, l_y, l_xy, ex, ey, zx, zy)
