"""Denoising U-Net with dual parallel cross-attention conditioning.

Topology: input conv, two stride-2 down blocks (64 -> 128 channels), a mid
block, and two up blocks with skip connections back to matching resolutions.
Every block applies, in order: entry conv, timestep-embedding add, a residual
conv pair, an optional reference-feature injection, self-attention, and the
dual cross-attention sublayer. The two cross-attention paths share the query
and output projections but keep independent key/value projections; their
outputs fuse as z_sem + lambda * z_sty, and lambda = 0 skips the style path
entirely so the semantic-only output is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.scenes import VOCAB
from ..nn import ParameterSet, Tensor, concat, getitem, relu, reshape, upsample_nearest2x
from ..nn import functional as F
from ..psrl.model import he_conv, he_linear

ATTN_DIM = 64  # single-head attention width, shared by every attention sublayer
TIME_DIM = 128
BLOCKS = ("d1", "d2", "mid", "u1", "u2")


@dataclass
class ConditioningBundle:
    """Semantic tokens, optional style tokens, and the fusion weight."""

    sem: Tensor  # [B, L_sem, 64]
    sty: Tensor | None  # [B, L_sty, 64]
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"fusion weight lambda must be >= 0, got {self.lam}")
        if self.lam > 0 and self.sty is None:
            raise ValueError("style tokens required when lambda > 0")


def _xavier(rng, dout: int, din: int) -> np.ndarray:
    std = np.sqrt(1.0 / din)
    return (rng.standard_normal((din, dout)) * std).astype(np.float32)


def _unit_conv(rng, cout: int, cin: int, k: int) -> np.ndarray:
    """Gain-1 conv init: inputs here are not rectified, so He would double
    the variance at every stage and compound through the depth."""
    std = np.sqrt(1.0 / (cin * k * k))
    return (rng.standard_normal((cout, cin, k, k)) * std).astype(np.float32)


def _zero_lin(dout: int, din: int) -> np.ndarray:
    return np.zeros((din, dout), np.float32)


def dual_cross_attention(x_tokens: Tensor, bundle: ConditioningBundle,
                         wq: Tensor, wk_sem: Tensor, wv_sem: Tensor,
                         wk_sty: Tensor, wv_sty: Tensor) -> Tensor:
    """Shared-query attention over semantic and style tokens, fused as
    z_sem + lambda * z_sty; lambda = 0 returns the semantic path untouched."""
    if bundle.sem.shape[-1] != wk_sem.shape[0]:
        raise ValueError(f"semantic token dim {bundle.sem.shape[-1]} does not "
                         f"match key projection dim {wk_sem.shape[0]}")
    q = x_tokens @ wq
    z_sem = F.scaled_dot_attention(q, bundle.sem @ wk_sem, bundle.sem @ wv_sem)
    if bundle.lam == 0.0:
        return z_sem
    if bundle.sty.shape[-1] != wk_sty.shape[0]:
        raise ValueError(f"style token dim {bundle.sty.shape[-1]} does not "
                         f"match key projection dim {wk_sty.shape[0]}")
    z_sty = F.scaled_dot_attention(q, bundle.sty @ wk_sty, bundle.sty @ wv_sty)
    return z_sem + bundle.lam * z_sty


class SemanticEncoder:
    """Token embedding table plus one self-attention block over the caption."""

    def __init__(self, params: ParameterSet, rng):
        scale = 1.0 / np.sqrt(ATTN_DIM)
        table = (rng.standard_normal((len(VOCAB), ATTN_DIM)) * scale).astype(np.float32)
        self.table = params.add("sem/table", Tensor(table))
        self.wq = params.add("sem/sa/wq", Tensor(_xavier(rng, ATTN_DIM, ATTN_DIM)))
        self.wk = params.add("sem/sa/wk", Tensor(_xavier(rng, ATTN_DIM, ATTN_DIM)))
        self.wv = params.add("sem/sa/wv", Tensor(_xavier(rng, ATTN_DIM, ATTN_DIM)))
        self.wo = params.add("sem/sa/wo", Tensor(_xavier(rng, ATTN_DIM, ATTN_DIM)))

    def __call__(self, token_ids: np.ndarray) -> Tensor:
        ids = np.asarray(token_ids)
        if ids.ndim == 1:
            ids = ids[None]
        if ids.min() < 0 or ids.max() >= len(VOCAB):
            raise ValueError(f"token id outside the {len(VOCAB)}-word vocabulary")
        emb = getitem(self.table, ids)  # [B, L, ATTN_DIM]
        attn = F.scaled_dot_attention(emb @ self.wq, emb @ self.wk, emb @ self.wv)
        return emb + attn @ self.wo


class _Block:
    """One U-Net stage: entry conv, time add, residual convs, attention pair."""

    def __init__(self, params: ParameterSet, rng, prefix: str, cin: int,
                 cout: int, stride: int, cross_attention: bool):
        self.stride = stride
        self.cout = cout
        self.cross_attention = cross_attention
        p = params.add
        # each branch's final projection starts at zero: blocks begin as the
        # entry conv plus time shift and the branches fade in during training,
        # which keeps activations bounded without normalization layers
        self.entry_w = p(f"{prefix}/entry/w", Tensor(_unit_conv(rng, cout, cin, 3)))
        self.entry_b = p(f"{prefix}/entry/b", Tensor(np.zeros(cout, np.float32)))
        self.temb_w = p(f"{prefix}/temb/w", Tensor(he_linear(rng, cout, TIME_DIM)))
        self.temb_b = p(f"{prefix}/temb/b", Tensor(np.zeros(cout, np.float32)))
        self.res1_w = p(f"{prefix}/res1/w", Tensor(he_conv(rng, cout, cout, 3)))
        self.res1_b = p(f"{prefix}/res1/b", Tensor(np.zeros(cout, np.float32)))
        self.res2_w = p(f"{prefix}/res2/w", Tensor(np.zeros((cout, cout, 3, 3), np.float32)))
        self.res2_b = p(f"{prefix}/res2/b", Tensor(np.zeros(cout, np.float32)))
        self.sa_wq = p(f"{prefix}/sa/wq", Tensor(_xavier(rng, ATTN_DIM, cout)))
        self.sa_wk = p(f"{prefix}/sa/wk", Tensor(_xavier(rng, ATTN_DIM, cout)))
        self.sa_wv = p(f"{prefix}/sa/wv", Tensor(_xavier(rng, ATTN_DIM, cout)))
        self.sa_wo = p(f"{prefix}/sa/wo", Tensor(_zero_lin(cout, ATTN_DIM)))
        if cross_attention:
            self.ca_wq = p(f"{prefix}/ca/wq", Tensor(_xavier(rng, ATTN_DIM, cout)))
            self.ca_wo = p(f"{prefix}/ca/wo", Tensor(_zero_lin(cout, ATTN_DIM)))
            self.ca_sem_wk = p(f"{prefix}/ca/sem/wk", Tensor(_xavier(rng, ATTN_DIM, ATTN_DIM)))
            self.ca_sem_wv = p(f"{prefix}/ca/sem/wv", Tensor(_xavier(rng, ATTN_DIM, ATTN_DIM)))
            self.ca_sty_wk = p(f"{prefix}/ca/sty/wk", Tensor(_xavier(rng, ATTN_DIM, ATTN_DIM)))
            # style path starts inert: zero values make phase B an exact
            # continuation of the semantic-only model it fine-tunes
            self.ca_sty_wv = p(f"{prefix}/ca/sty/wv",
                               Tensor(np.zeros((ATTN_DIM, ATTN_DIM), np.float32)))

    def __call__(self, x: Tensor, temb: Tensor, bundle: ConditioningBundle | None,
                 injection: Tensor | None) -> Tensor:
        h = F.conv2d(x, self.entry_w, self.entry_b, stride=self.stride)
        tvec = F.linear(temb, self.temb_w, self.temb_b)
        h = h + reshape(tvec, (tvec.shape[0], self.cout, 1, 1))
        r = F.conv2d(relu(h), self.res1_w, self.res1_b)
        r = F.conv2d(relu(r), self.res2_w, self.res2_b)
        h = h + r
        if injection is not None:
            if injection.shape != h.shape:
                raise ValueError(f"injected features {injection.shape} do not "
                                 f"match block features {h.shape}")
            h = h + injection
        tokens = F.flatten_tokens(h)
        sa = F.scaled_dot_attention(tokens @ self.sa_wq, tokens @ self.sa_wk,
                                    tokens @ self.sa_wv)
        tokens = tokens + sa @ self.sa_wo
        if self.cross_attention and bundle is not None:
            fused = dual_cross_attention(tokens, bundle, self.ca_wq,
                                         self.ca_sem_wk, self.ca_sem_wv,
                                         self.ca_sty_wk, self.ca_sty_wv)
            tokens = tokens + fused @ self.ca_wo
        return F.unflatten_tokens(tokens, h.shape[2], h.shape[3])


class Denoiser:
    """Noise-prediction U-Net; reference features inject per block when given."""

    BASE = 64
    WIDE = 128

    def __init__(self, params: ParameterSet, rng, T: int, in_channels: int = 3,
                 prefix: str = "den", cross_attention: bool = True,
                 head: bool = True):
        self.T = int(T)
        p = params.add
        self.in_w = p(f"{prefix}/in/w", Tensor(_unit_conv(rng, self.BASE, in_channels, 3)))
        self.in_b = p(f"{prefix}/in/b", Tensor(np.zeros(self.BASE, np.float32)))
        self.time_w1 = p(f"{prefix}/time/w1", Tensor(he_linear(rng, TIME_DIM, ATTN_DIM)))
        self.time_b1 = p(f"{prefix}/time/b1", Tensor(np.zeros(TIME_DIM, np.float32)))
        self.time_w2 = p(f"{prefix}/time/w2", Tensor(he_linear(rng, TIME_DIM, TIME_DIM)))
        self.time_b2 = p(f"{prefix}/time/b2", Tensor(np.zeros(TIME_DIM, np.float32)))
        B, W = self.BASE, self.WIDE
        ca = cross_attention
        self.d1 = _Block(params, rng, f"{prefix}/d1", B, W, 2, ca)
        self.d2 = _Block(params, rng, f"{prefix}/d2", W, W, 2, ca)
        self.mid = _Block(params, rng, f"{prefix}/mid", W, W, 1, ca)
        self.u1 = _Block(params, rng, f"{prefix}/u1", 2 * W, W, 1, ca)
        self.u2 = _Block(params, rng, f"{prefix}/u2", W + W, B, 1, ca)
        if head:
            # zero-init output head: the net predicts zero noise until trained
            self.out_w = p(f"{prefix}/out/w", Tensor(np.zeros((3, self.BASE, 3, 3), np.float32)))
            self.out_b = p(f"{prefix}/out/b", Tensor(np.zeros(3, np.float32)))

    def time_embedding(self, t: np.ndarray) -> Tensor:
        base = Tensor(F.sinusoidal_embedding(t, ATTN_DIM))
        h = relu(F.linear(base, self.time_w1, self.time_b1))
        return F.linear(h, self.time_w2, self.time_b2)

    def _check_t(self, t) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.int64))
        if t_arr.min() < 0 or t_arr.max() >= self.T:
            raise ValueError(f"timestep {t} outside [0, {self.T})")
        return t_arr

    def backbone(self, x: Tensor, t_arr: np.ndarray,
                 bundle: ConditioningBundle | None,
                 reference_features: list | None) -> list[Tensor]:
        """Run all five blocks, each given its reference feature when there
        are any; returns the block outputs. Both lists are in BLOCKS order."""
        refs = reference_features or [None] * len(BLOCKS)
        temb = self.time_embedding(t_arr)
        h0 = F.conv2d(x, self.in_w, self.in_b)
        d1 = self.d1(h0, temb, bundle, refs[0])
        d2 = self.d2(d1, temb, bundle, refs[1])
        mid = self.mid(d2, temb, bundle, refs[2])
        u1 = self.u1(concat([mid, d2], axis=1), temb, bundle, refs[3])
        u2 = self.u2(concat([upsample_nearest2x(u1), d1], axis=1), temb, bundle, refs[4])
        return [d1, d2, mid, u1, u2]

    def predict_noise(self, x_t, t, bundle: ConditioningBundle,
                      reference_features: list | None = None) -> Tensor:
        """Predicted noise for x_t at timestep(s) t; reference_features, when
        given, are the per-block connector outputs (one per block, in order
        d1, d2, mid, u1, u2, shaped like that block's features). x_t is a
        [B,C,H,W] array."""
        x = Tensor(np.asarray(x_t, np.float32))
        if x.data.ndim != 4 or x.shape[2] % 4 or x.shape[3] % 4:
            raise ValueError(f"input {x.shape} must be [B,C,H,W] with H, W "
                             f"divisible by 4")
        t_arr = self._check_t(t)
        if reference_features is not None and len(reference_features) != len(BLOCKS):
            raise ValueError(f"expected {len(BLOCKS)} reference features, "
                             f"got {len(reference_features)}")
        u2 = self.backbone(x, t_arr, bundle, reference_features)[-1]
        return F.conv2d(upsample_nearest2x(u2), self.out_w, self.out_b)
