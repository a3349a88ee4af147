"""Measures that only the tests take of the package's outputs.

- `gradcheck`: central finite-difference gradient checking of tape graphs.
- `clustering_stats`: silhouette and intra/inter-label cosines of a set of
  embeddings.
- `held_out_margin`: intra- vs inter-image cosine of a PSRL encoder's
  embeddings on held-out patches.
- `tape_mib`: memory the autodiff tape holds after one NSD training forward,
  and the peak during its backward.
- `peak_mib`: the tracemalloc peak of one call, such as a read of a file.
"""

from __future__ import annotations

import tracemalloc
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from styleinpaint.dataset.io import DatasetSample
from styleinpaint.dataset.scenes import VOCAB, crop_patches
from styleinpaint.errors import DataError
from styleinpaint.diffusion.train import NSDModel, training_loss
from styleinpaint.nn import Tensor, no_grad
from styleinpaint.psrl.model import PSRLModel
from styleinpaint.rng import derive


def gradcheck(fn: Callable[[], Tensor], inputs: Sequence[Tensor], h: float = 1e-5,
              tol: float = 1e-4, max_coords: int | None = None,
              rng: np.random.Generator | None = None) -> float:
    """Check d fn / d inputs; returns the worst relative error seen.

    Compares analytic gradients against (f(x+h) - f(x-h)) / 2h using the
    relative error |a - n| / max(|a|, |n|, 1e-3). For large parameter sets
    `max_coords` checks a random subset of coordinates per tensor.
    ``fn`` must rebuild its graph from the current ``inputs`` data on every
    call. Inputs should be float64 for the h=1e-5 default to be meaningful.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    out = fn()
    out.backward()
    analytic = []
    for t in inputs:
        if t.grad is None:
            raise RuntimeError("input received no gradient; graph is disconnected")
        analytic.append(t.grad.copy())
        t.grad = None

    worst = 0.0
    for t, a in zip(inputs, analytic):
        n = t.data.size
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = np.arange(n)
        flat = t.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            ana = float(a.reshape(-1)[c])
            # retry with smaller steps if h straddles a ReLU kink; the FD
            # estimate is only an oracle where f is locally smooth
            rel = np.inf
            for step in (h, h / 10.0, h / 100.0):
                flat[c] = orig + step
                fp = float(fn().data)
                flat[c] = orig - step
                fm = float(fn().data)
                flat[c] = orig
                num = (fp - fm) / (2.0 * step)
                rel = abs(ana - num) / max(abs(ana), abs(num), 1e-3)
                if rel <= tol:
                    break
            worst = max(worst, rel)
            if rel > tol:
                raise AssertionError(
                    f"gradcheck failed at coord {c} of shape {t.data.shape}: "
                    f"analytic={ana:.6e} numeric={num:.6e} rel={rel:.3e}")
    return worst


def clustering_stats(embeddings: np.ndarray, labels) -> tuple[float, float, float]:
    """(silhouette on cosine distance, intra-label mean cos, inter mean cos)."""
    e = np.asarray(embeddings, np.float64)
    labels = np.asarray(labels)
    norms = np.linalg.norm(e, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("degenerate zero embedding cannot be normalized")
    e = e / norms
    uniq, counts = np.unique(labels, return_counts=True)
    if len(uniq) < 2:
        raise ValueError("clustering stats need at least 2 distinct labels")
    if np.allclose(e, e[0], atol=1e-12):
        raise ValueError("all embeddings identical; silhouette is undefined")
    singles = int((counts == 1).sum())
    if singles:
        # singleton clusters still count as neighbours for b, but their lone
        # member has no within-cluster distance and drops out of the mean
        warnings.warn(f"{singles} singleton label(s) excluded from the "
                      f"silhouette mean", stacklevel=2)

    gram = e @ e.T
    dist = 1.0 - gram
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(len(labels), dtype=bool)
    intra = float(gram[same & off].mean()) if (same & off).any() else float("nan")
    inter = float(gram[~same].mean())

    onehot = (labels[:, None] == uniq[None, :]).astype(np.float64)
    sums = dist @ onehot  # [n, C] summed distance to each cluster
    counts_f = counts.astype(np.float64)
    own_idx = np.searchsorted(uniq, labels)
    n = len(labels)
    scored = counts_f[own_idx] > 1
    if not scored.any():
        raise ValueError("every label is a singleton; silhouette is undefined")
    a = sums[np.arange(n), own_idx] / np.maximum(counts_f[own_idx] - 1.0, 1.0)
    means = sums / counts_f[None, :]
    means[np.arange(n), own_idx] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    if np.any(denom[scored] <= 0.0):
        raise ValueError("coincident clusters make the silhouette undefined")
    sil = float(((b - a) / denom)[scored].mean())
    return sil, intra, inter


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


class TapeMiB(NamedTuple):
    held: float  # after the forward
    backward_peak: float  # during backward(), above the pre-forward level


def tape_mib(phase: str, seed: int = 0) -> TapeMiB:
    """MiB that tracemalloc sees held by the loss of one NSD
    `training_loss` forward, and the tape behind it, at the default batch
    of 4 and 64x64 images, and the peak during that loss's `backward()`
    above the level before the forward. Every parameter is moved off its
    initialisation, so no zero-initialised path is inert, and `phase` ("A"
    or "B") picks the parameters that train and the inputs of that phase.
    Fresh processes agree to within a few hundred bytes; one that has
    already run other code may count some tens of KiB less or more."""
    model = NSDModel(seed)
    rng = derive(seed, "tape-mib")
    for _, t in model.params.items():
        t.data += (0.02 * rng.standard_normal(t.shape)).astype(np.float32)
    model.params.set_trainable(model.phase_a_paths() if phase == "A" else model.phase_b_paths())
    images = rng.random((4, 64, 64, 3)).astype(np.float32)
    tokens = rng.integers(0, len(VOCAB), size=(4, 3))
    t = rng.integers(0, model.schedule.T, size=4)
    eps = rng.standard_normal((4, 3, 64, 64)).astype(np.float32)
    extra = {}
    if phase == "B":
        masks = np.zeros((4, 64, 64), np.float32)
        masks[:, 16:48, 8:40] = 1.0
        extra = dict(lam=1.0, style_tokens=rng.standard_normal((4, 5, 64)).astype(np.float32),
                     refnet=model.refnet, masks=masks)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = training_loss(model.denoiser, model.encoder, images, tokens, model.schedule,
                             t=t, eps=eps, **extra)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return TapeMiB(held / 2 ** 20, peak / 2 ** 20)


def peak_mib(fn: Callable, *args) -> tuple:
    """`fn(*args)`'s result, or the DataError it raises, and the tracemalloc
    peak in MiB above the level before the call, while it runs."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            result = fn(*args)
        except DataError as e:
            result = e
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak / 2 ** 20
