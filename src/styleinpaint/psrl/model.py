"""Style encoder, projector, and style-token extraction.

The encoder maps a patch to a 64-channel feature map; its per-channel mean
and std are the second-order style statistics. The projector turns the
pooled [mu; sigma] vector into a unit-norm 64-d style embedding. Edge
padding in the convs keeps constant inputs constant, so a flat gray patch
yields sigma = sqrt(1e-5) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..checkpoint import PSRL_MAGIC, load_checkpoint, restore
from ..dataset.scenes import crop_patches, first_fit, window_counts
from ..nn import ParameterSet, Tensor, concat, no_grad, relu
from ..nn import functional as F
from ..rng import NoDraws, derive, init_normal

FEAT_DIM = 64
EMBED_DIM = 64
MIN_INPUT = 16


@dataclass
class StyleFeature:
    mu: Tensor  # [B, 64]
    sigma: Tensor  # [B, 64]


def he_conv(rng, cout: int, cin: int, k: int) -> np.ndarray:
    std = np.sqrt(2.0 / (cin * k * k))
    return init_normal(rng, (cout, cin, k, k), std)


def he_linear(rng, dout: int, din: int) -> np.ndarray:
    std = np.sqrt(2.0 / din)
    return init_normal(rng, (dout, din), std)


class StyleEncoder:
    """4 conv blocks, 3 -> 16 -> 32 -> 64 -> 64, stride 2 on blocks 2 and 4."""

    CHANNELS = (3, 16, 32, 64, 64)
    STRIDES = (1, 2, 1, 2)

    def __init__(self, params: ParameterSet, rng: np.random.Generator):
        self.blocks = []
        for i, stride in enumerate(self.STRIDES):
            cin, cout = self.CHANNELS[i], self.CHANNELS[i + 1]
            w = params.add(f"enc/b{i}/w", Tensor(he_conv(rng, cout, cin, 3)))
            b = params.add(f"enc/b{i}/b", Tensor(np.zeros(cout, np.float32)))
            self.blocks.append((w, b, stride))

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for w, b, stride in self.blocks:
            h = relu(F.conv2d(h, w, b, stride=stride, padding=1, pad_mode="edge"))
        return h


class Projector:
    """Two affine layers 128 -> 128 -> 64 with a ReLU between."""

    def __init__(self, params: ParameterSet, rng: np.random.Generator):
        self.w1 = params.add("proj/w1", Tensor(he_linear(rng, 128, 2 * FEAT_DIM)))
        self.b1 = params.add("proj/b1", Tensor(np.zeros(128, np.float32)))
        self.w2 = params.add("proj/w2", Tensor(he_linear(rng, EMBED_DIM, 128)))
        self.b2 = params.add("proj/b2", Tensor(np.zeros(EMBED_DIM, np.float32)))

    def forward(self, pooled: Tensor) -> Tensor:
        h = relu(F.linear(pooled, self.w1, self.b1))
        return F.linear(h, self.w2, self.b2)


class PSRLModel:
    """Style encoder and projector. A seed of None draws no init: every
    parameter is zero until a checkpoint is restored into it."""

    def __init__(self, seed: int | None, patch_size: int = 16):
        self.patch_size = int(patch_size)
        self.params = ParameterSet()
        rng = NoDraws() if seed is None else derive(seed, "psrl-init")
        self.encoder = StyleEncoder(self.params, rng)
        self.projector = Projector(self.params, rng)

    def encoder_paths(self) -> set[str]:
        return {p for p in self.params.paths() if p.startswith("enc/")}

    def projector_paths(self) -> set[str]:
        return {p for p in self.params.paths() if p.startswith("proj/")}

    def encode(self, patches) -> StyleFeature:
        """Patches as [B, P, P, 3] arrays in [0,1] or a [B, 3, P, P] Tensor."""
        if isinstance(patches, Tensor):
            x = patches
        else:
            arr = np.asarray(patches)
            if arr.ndim == 3:
                arr = arr[None]
            x = Tensor(np.ascontiguousarray(arr.transpose(0, 3, 1, 2)))
        if x.shape[2] < MIN_INPUT or x.shape[3] < MIN_INPUT:
            raise ValueError(f"patch {x.shape[2]}x{x.shape[3]} below the "
                             f"{MIN_INPUT}-pixel receptive minimum")
        fmap = self.encoder.forward(x)
        mu, sigma = F.channel_mean_std(fmap)
        return StyleFeature(mu, sigma)

    def project(self, feature: StyleFeature) -> Tensor:
        """Unit-norm style embedding rows from pooled [mu; sigma]."""
        pooled = concat([feature.mu, feature.sigma], axis=1)
        return F.l2_normalize(self.projector.forward(pooled), axis=1)

    def stats_vector(self, feature: StyleFeature) -> Tensor:
        """Normalized raw [mu; sigma]; the projector-free representation."""
        return F.l2_normalize(concat([feature.mu, feature.sigma], axis=1), axis=1)

    def embed_patches(self, patches, use_projector: bool = True) -> np.ndarray:
        with no_grad():
            feat = self.encode(patches)
            emb = self.project(feat) if use_projector else self.stats_vector(feat)
        return emb.data

    @classmethod
    def from_checkpoint(cls, path) -> tuple["PSRLModel", dict]:
        config, tensors = load_checkpoint(path, PSRL_MAGIC, params_only=True)
        config["seed"]  # no init is drawn, but reading the seed checks the echo
        model = cls(None, patch_size=config.get("p", 16))
        restore(tensors, model.params, f"checkpoint {path}")
        return model, config


def _least_masked_windows(allowed: np.ndarray, k: int, p: int) -> list[tuple[int, int]]:
    """k window top-lefts ranked by unmasked coverage, disjoint where possible."""
    counts = window_counts(allowed, p)
    order = np.argsort(-counts, axis=None, kind="stable")
    ranked = np.stack(np.unravel_index(order, counts.shape), axis=1)
    picked = first_fit(ranked, p, k)
    # tiny context: reuse the cleanest windows to fill the remaining slots
    picked += [i % len(ranked) for i in range(k - len(picked))]
    return [(int(r), int(c)) for r, c in ranked[picked]]


def embed_style(model: PSRLModel, pixels: np.ndarray, mask: np.ndarray,
                k: int, rng_seed: int, use_projector: bool = True) -> np.ndarray:
    """k patch embeddings from the unmasked region plus their re-normalized
    mean as token 0; deterministic per seed. Returns [k+1, d]. `mask` is
    [H, W] with 1 marking the region to fill; an all-zero mask leaves the
    whole image as context.

    Prefers pairwise-disjoint, fully unmasked patches. When the mask is too
    tight for that, falls back to the least-masked windows of the background
    composite (masked pixels zeroed), so any visible context still yields
    style tokens.
    """
    pix = np.asarray(pixels, dtype=np.float32)
    p = model.patch_size
    if pix.shape[0] < p or pix.shape[1] < p:
        raise ValueError(f"image {pix.shape[0]}x{pix.shape[1]} below the "
                         f"{p}-pixel patch size")
    allowed = mask == 0
    try:
        patches = crop_patches(pix, k, p, rng_seed, allowed=allowed).patches
    except ValueError:
        coords = _least_masked_windows(allowed, k, p)
        source = pix * (1.0 - mask[..., None])
        patches = np.stack([source[r:r + p, c:c + p] for r, c in coords])
        patches = patches.astype(np.float32)
    emb = model.embed_patches(patches, use_projector=use_projector)
    pooled = emb.mean(axis=0)
    norm = np.linalg.norm(pooled)
    if norm == 0:
        raise ValueError("degenerate zero embedding cannot be normalized")
    return np.concatenate([(pooled / norm)[None], emb], axis=0)
