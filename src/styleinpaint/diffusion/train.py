"""Two-phase training of the conditioned denoiser.

Phase A trains the denoiser and semantic encoder with the style path off
(lambda = 0), building the generative prior. Phase B freezes that prior and
trains only the style cross-attention key/value projections, the reference
network, and its zero connectors at lambda = 1, so background and style
control attach without disturbing what phase A learned. Every step derives
its randomness from (seed, step), making interrupted runs resume exactly.
"""

from __future__ import annotations

import numpy as np

from ..checkpoint import NSDM_MAGIC, load_checkpoint, restore
from ..dataset.io import DatasetSample
from ..dataset.scenes import mask_from_rect
from ..errors import DataError
from ..nn import AdamState, ParameterSet, Tensor
from ..psrl.model import PSRLModel, embed_style
from ..reference import ReferenceNet, build_ref_input
from ..rng import derive
from ..training import run_steps, save_training_checkpoint
from .model import ConditioningBundle, Denoiser, SemanticEncoder
from .schedule import build_schedule, forward_noise

LOG_HEADER = "step,phase,loss"
# config keys the checkpoint echoes, besides seed, step and opt_step
ECHO_KEYS = ("T", "kind", "phase_a", "phase_b", "lr", "batch", "lam", "k",
             "use_projector")


class NSDModel:
    """Denoiser, semantic encoder, and reference path in one parameter set."""

    def __init__(self, seed: int, T: int = 100, kind: str = "cosine"):
        self.params = ParameterSet()
        rng = derive(seed, "nsd-init")
        self.denoiser = Denoiser(self.params, rng, T)
        self.encoder = SemanticEncoder(self.params, rng)
        self.refnet = ReferenceNet(self.params, rng, T)
        self.schedule = build_schedule(T, kind)

    def phase_a_paths(self) -> set[str]:
        """Everything the prior needs: denoiser + semantic encoder, minus the
        style key/value projections that stay inert while lambda = 0."""
        return {p for p in self.params.paths()
                if (p.startswith("den/") or p.startswith("sem/"))
                and "/ca/sty/" not in p}

    def phase_b_paths(self) -> set[str]:
        return {p for p in self.params.paths()
                if "/ca/sty/" in p or p.startswith("ref/") or p.startswith("con/")}

    @classmethod
    def from_checkpoint(cls, path) -> tuple["NSDModel", dict]:
        config, tensors = load_checkpoint(path, NSDM_MAGIC, params_only=True)
        model = cls(config["seed"], T=config["T"], kind=config["kind"])
        restore(tensors, model.params, f"checkpoint {path}")
        return model, config


def to_diffusion_space(images: np.ndarray) -> np.ndarray:
    """[B,H,W,3] pixels in [0,1] -> [B,3,H,W] float32 in [-1,1]."""
    arr = np.asarray(images, np.float32)
    if arr.ndim == 3:
        arr = arr[None]
    return np.ascontiguousarray(arr.transpose(0, 3, 1, 2)) * 2.0 - 1.0


def from_diffusion_space(x: np.ndarray) -> np.ndarray:
    """[B,3,H,W] in [-1,1] -> [B,H,W,3] pixels clipped to [0,1]."""
    arr = (np.asarray(x, np.float32).transpose(0, 2, 3, 1) + 1.0) / 2.0
    return np.clip(arr, 0.0, 1.0)


def training_loss(denoiser, encoder, images, token_ids, schedule, *, t, eps,
                  lam: float = 0.0, style_tokens=None, refnet=None,
                  masks=None) -> Tensor:
    """Full-image MSE between true and predicted noise, for the caller's
    per-sample timesteps t and [B,3,H,W] noise eps."""
    x0 = to_diffusion_space(images)
    x_t = forward_noise(x0, t, eps, schedule)
    sty = None
    if style_tokens is not None:
        sty = style_tokens if isinstance(style_tokens, Tensor) \
            else Tensor(np.asarray(style_tokens, np.float32))
    bundle = ConditioningBundle(encoder(token_ids), sty, lam)
    refs = None
    if refnet is not None:
        if masks is None:
            raise ValueError("reference-path training needs per-sample masks")
        m = np.asarray(masks, np.float32)[:, None]  # [B,1,H,W]
        refs = refnet.connected_features(build_ref_input(x_t, x0 * (1.0 - m), m), t)
    eps_hat = denoiser.predict_noise(x_t, t, bundle, refs)
    diff = eps_hat - Tensor(np.asarray(eps, np.float32))
    return (diff * diff).mean()


def train_nsd(samples: list[DatasetSample], psrl: PSRLModel, config: dict,
              seed: int, checkpoint_path=None, log_path=None, resume=None):
    """Returns (model, log_rows). `config` is a full `nsd` subconfig; on
    resume the checkpoint's echo replaces it. Writes checkpoint/log when
    paths are given."""
    if not samples:
        raise DataError("cannot train on an empty dataset")
    resumed = None
    if resume is not None:
        config, resumed = load_checkpoint(resume, NSDM_MAGIC)
        seed = config["seed"]
    T, phase_a, batch, k = config["T"], config["phase_a"], config["batch"], config["k"]
    lam = config["lam"]
    use_projector = bool(config["use_projector"])

    model = NSDModel(seed, T=T, kind=config["kind"])
    a_paths = model.phase_a_paths()
    b_paths = model.phase_b_paths()
    n = len(samples)

    def step_fn(step: int):
        in_phase_a = step < phase_a
        model.params.set_trainable(a_paths if in_phase_a else b_paths)
        rng = derive(seed, "nsd-step", step)
        idx = rng.integers(0, n, size=batch)
        t = rng.integers(0, T, size=batch)
        picked = [samples[int(i)] for i in idx]
        images = np.stack([s.pixels for s in picked])
        tokens = np.array([s.tokens for s in picked])
        eps = rng.standard_normal((batch, 3) + images.shape[1:3]).astype(np.float32)

        if in_phase_a:
            loss = training_loss(model.denoiser, model.encoder, images, tokens,
                                 model.schedule, lam=0.0, t=t, eps=eps)
        else:
            seeds = [int(rng.integers(0, 2 ** 63)) for _ in range(batch)]
            masks = np.stack([mask_from_rect(s.pixels, s.mask_rect).mask
                              for s in picked])
            sty = np.stack([embed_style(psrl, s.pixels, mask, k, ss,
                                        use_projector=use_projector)
                            for s, mask, ss in zip(picked, masks, seeds)])
            loss = training_loss(model.denoiser, model.encoder, images, tokens,
                                 model.schedule, lam=lam, style_tokens=sty,
                                 refnet=model.refnet, masks=masks, t=t, eps=eps)
        return loss, lambda: f"{step},{'A' if in_phase_a else 'B'},{loss.item():.6f}"

    rows = run_steps(model.params, config, seed, phase_a + config["phase_b"], step_fn,
                     resumed, magic=NSDM_MAGIC, echo=ECHO_KEYS, header=LOG_HEADER,
                     checkpoint_path=checkpoint_path, log_path=log_path)
    return model, rows


def save_nsd_checkpoint(model: NSDModel, opt: AdamState, config: dict, path) -> None:
    save_training_checkpoint(path, NSDM_MAGIC, model.params, opt, config)
