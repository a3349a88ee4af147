"""Reference network and the zero-initialized connectors that inject it.

The reference net is a cross-attention-free mirror of the denoiser that reads
a 7-channel stack (noisy image, masked clean image, mask) and produces one
feature map per denoiser block. Each map passes through a 1x1 conv whose
weights start at exactly zero, so a fresh reference path leaves the denoiser's
predictions bit-identical; training moves the connectors off zero and the
injected features take over background control.
"""

from __future__ import annotations

import numpy as np

from .diffusion.model import BLOCKS, Denoiser
from .nn import ParameterSet, Tensor
from .nn import functional as F


class ZeroConnector:
    """Per-site 1x1 conv, weights and bias initialized to exactly zero."""

    def __init__(self, params: ParameterSet, prefix: str, channels: int):
        self.w = params.add(f"{prefix}/w",
                            Tensor(np.zeros((channels, channels, 1, 1), np.float32)))
        self.b = params.add(f"{prefix}/b", Tensor(np.zeros(channels, np.float32)))

    def __call__(self, feat: Tensor) -> Tensor:
        return F.conv2d(feat, self.w, self.b, padding=0)


class ReferenceNet:
    """Denoiser-shaped feature extractor over (x_t, x_mask, x_m)."""

    def __init__(self, params: ParameterSet, rng, T: int):
        self.net = Denoiser(params, rng, T, in_channels=7, prefix="ref",
                            cross_attention=False, head=False)
        self.connectors = [ZeroConnector(params, f"con/{name}", getattr(self.net, name).cout)
                           for name in BLOCKS]

    def features(self, ref_input, t) -> list[Tensor]:
        """One feature map per injection site, in denoiser block order, for
        a [B,7,H,W] array from build_ref_input."""
        x = Tensor(np.asarray(ref_input, np.float32))
        return self.net.backbone(x, self.net._check_t(t), None, None)

    def connected_features(self, ref_input, t) -> list[Tensor]:
        """Connector outputs ready to add inside the denoiser blocks."""
        feats = self.features(ref_input, t)
        return [con(f) for con, f in zip(self.connectors, feats)]


def build_ref_input(x_t: np.ndarray, x_mask: np.ndarray, x_m: np.ndarray) -> np.ndarray:
    """Stack (x_t, x_mask, x_m) into [B,7,H,W]. Both images are [B,3,H,W];
    the mask is [B,1,H,W] or [B,H,W], at the image's size."""
    x_t = np.asarray(x_t, np.float32)
    x_mask = np.asarray(x_mask, np.float32)
    x_m = np.asarray(x_m, np.float32)
    if x_m.ndim == 3:
        x_m = x_m[:, None]
    if x_mask.shape != x_t.shape or x_m.shape[2:] != x_t.shape[2:]:
        raise ValueError(f"reference input shapes disagree: x_t {x_t.shape}, "
                         f"x_mask {x_mask.shape}, x_m {x_m.shape}")
    return np.concatenate([x_t, x_mask, x_m], axis=1)
