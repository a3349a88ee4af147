"""Two-stage progressive training of the style encoder and projector.

Stage 1 trains the encoder alone on statistics alignment (L_x + L_y, each a
same-image statistics distance divided by the X-to-Y distance of the batch,
so a shrinking or dead encoder cannot minimize it); stage 2 turns on the
contrastive term and trains encoder and projector jointly. The
`contrastive_only` mode is stage 2 from the first step, trained on L_xy
alone; `stats_only` never leaves stage 1 and so never trains the projector.
Each step pairs every X image with a Y image of another style, whose
patches are its negatives. Patches and pairings derive from (seed, step),
so interrupted runs resume exactly. A step whose loss is non-finite, or
whose final-block activations are all zero across the batch (a collapsed
encoder), raises NumericsError.
"""

from __future__ import annotations

import numpy as np

from ..checkpoint import PSRL_MAGIC, load_checkpoint
from ..dataset.io import DatasetSample
from ..dataset.scenes import crop_patches
from ..errors import DataError, NumericsError, UsageError
from ..nn import AdamState, no_grad
from ..rng import derive
from ..training import run_steps, save_training_checkpoint
from .losses import psrl_batch_loss
from .model import FEAT_DIM, PSRLModel

LOG_HEADER = "step,stage,L_x,L_y,L_xy,total,pos_cos,neg_cos"
MODES = ("progressive", "contrastive_only", "stats_only")
# config keys the checkpoint echoes, besides seed, step and opt_step
ECHO_KEYS = ("s1", "s2", "mode", "n", "p", "tau", "lr", "batch")
# options that older checkpoints echo, at the one value training still has
REMOVED_KEYS = {"pairing": "distinct_style", "in_batch_negatives": 0,
                "freeze_encoder_stage2": 0}


def _pair_indices(samples, batch: int, rng) -> list[tuple[int, int]]:
    """Image pairs for one step; the two images of a pair differ in style."""
    pairs = []
    n = len(samples)
    for _ in range(batch):
        for _attempt in range(1000):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            if samples[i].style_id != samples[j].style_id:
                break
        else:
            raise DataError("dataset lacks two distinct styles for pairing")
        pairs.append((i, j))
    return pairs


def _cosine_summary(pos_sets: list[np.ndarray], neg_a: np.ndarray, neg_b: np.ndarray) -> tuple[float, float]:
    """Mean same-image (off-diagonal) and cross-image cosines."""
    pos_vals = []
    for e in pos_sets:
        b, n, _ = e.shape
        g = e @ e.transpose(0, 2, 1)
        off = ~np.eye(n, dtype=bool)
        pos_vals.append(g[:, off].mean())
    neg = (neg_a @ neg_b.transpose(0, 2, 1)).mean()
    return float(np.mean(pos_vals)), float(neg)


def train_psrl(samples: list[DatasetSample], config: dict, seed: int,
               checkpoint_path=None, log_path=None, resume=None):
    """Returns (model, log_rows). `config` is a full `psrl` subconfig; on
    resume the checkpoint's echo replaces it, so the resumed trajectory is
    the one the interrupted run would have taken. Writes checkpoint/log when
    paths are given."""
    if len({s.style_id for s in samples}) < 2:
        raise DataError("training needs at least 2 styles in the dataset")
    resumed = None
    if resume is not None:
        config, resumed = load_checkpoint(resume, PSRL_MAGIC)
        for key, kept in REMOVED_KEYS.items():
            if config.get(key, kept) != kept:
                raise UsageError(f"checkpoint {resume} sets psrl.{key}={config[key]!r}, "
                                 f"a removed option; only {kept!r} can be resumed")
        seed = config["seed"]
    mode = config["mode"]
    if mode not in MODES:
        raise ValueError(f"unknown psrl mode '{mode}'")
    n, p, tau, s1 = config["n"], config["p"], config["tau"], config["s1"]
    batch = config["batch"]

    model = PSRLModel(seed, patch_size=p)
    enc_paths = model.encoder_paths()
    proj_paths = model.projector_paths()

    def step_fn(step: int):
        stage = 1 if mode == "stats_only" or (mode == "progressive" and step < s1) else 2
        model.params.set_trainable(enc_paths if stage == 1 else enc_paths | proj_paths)

        rng = derive(seed, "psrl-step", step)
        pairs = _pair_indices(samples, batch, rng)
        xs, ys = [], []
        for i, j in pairs:
            sx = int(rng.integers(0, 2 ** 63))
            sy = int(rng.integers(0, 2 ** 63))
            xs.append(crop_patches(samples[i].pixels, n, p, sx).patches)
            ys.append(crop_patches(samples[j].pixels, n, p, sy).patches)
        out = psrl_batch_loss(model, np.stack(xs), np.stack(ys), tau, stage)
        loss = out.l_xy if mode == "contrastive_only" else out.total

        def row() -> str:
            # z rows are [mu; sigma] scaled to unit norm, so their mu halves
            # are all zero exactly when every final-block ReLU output is zero
            if not (out.zx.data[..., :FEAT_DIM].any()
                    or out.zy.data[..., :FEAT_DIM].any()):
                raise NumericsError(f"style encoder collapsed at step {step}: every "
                                    "final-block activation is zero")
            a, b = (out.zx, out.zy) if stage == 1 else (out.ex, out.ey)
            pos_cos, neg_cos = _cosine_summary([a.data, b.data], a.data, b.data)
            return (f"{step},{stage},{out.l_x.item():.6f},{out.l_y.item():.6f},"
                    f"{out.l_xy.item():.6f},{loss.item():.6f},"
                    f"{pos_cos:.6f},{neg_cos:.6f}")
        return loss, row

    rows = run_steps(model.params, config, seed, s1 + config["s2"], step_fn, resumed,
                     magic=PSRL_MAGIC, echo=ECHO_KEYS, header=LOG_HEADER,
                     checkpoint_path=checkpoint_path, log_path=log_path)
    return model, rows


def save_psrl_checkpoint(model: PSRLModel, opt: AdamState, config: dict, path) -> None:
    save_training_checkpoint(path, PSRL_MAGIC, model.params, opt, config)


def held_out_margin(model: PSRLModel, samples: list[DatasetSample], n: int, p: int,
                    seed: int, use_projector: bool = True) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Intra-image vs inter-image mean cosine on held-out patches.

    Returns (intra, inter, embeddings, image_labels); the margin intra-inter
    is the headline separation number. With use_projector the patches are
    scored through the projector head, which means something only for modes
    that train it (`progressive`, `contrastive_only`); `stats_only` leaves
    the projector at its random initialisation. use_projector=False scores
    the normalized encoder statistics, which every mode trains.
    """
    embs, labels = [], []
    for idx, s in enumerate(samples):
        ps = crop_patches(s.pixels, n, p, derive(seed, "heldout", idx).integers(2 ** 63))
        with no_grad():
            embs.append(model.embed_patches(ps.patches, use_projector=use_projector))
        labels.extend([idx] * n)
    e = np.concatenate(embs)
    labels = np.array(labels)
    g = e @ e.T
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(len(labels), dtype=bool)
    intra = float(g[same & off].mean())
    inter = float(g[~same].mean())
    return intra, inter, e, labels
