"""Style-consistency scoring, PSNR, clustering stats, and benchmark sweeps.

The style-cosine protocol (`style_cosines`) embeds k patches from inside the
mask and k from the surrounding context with the trained style encoder and
averages all pairwise cosines; a generated region that keeps the scene's
style scores close to the intra-image baseline, a foreign fill scores well
below it, as do the in-mask patches against a foreign-style scene.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset.io import DatasetSample
from .dataset.scenes import crop_patches, mask_from_rect, valid_topleft
from .diffusion.sampler import InpaintTask, sample_inpaint
from .psrl.model import PSRLModel
from .rng import derive


@dataclass
class TaskRecord:
    task_id: int
    style_cos_self: float | None
    style_cos_foreign: float | None
    psnr_db: float | None
    status: str = "ok"


@dataclass
class EvalReport:
    rows: list[TaskRecord]
    aggregates: dict


def _region_embeddings(image: np.ndarray, allowed: np.ndarray, k: int, seed: int,
                       encoder: PSRLModel, disjoint: bool,
                       use_projector: bool = True) -> np.ndarray:
    """k patch embeddings from the allowed region; overlap permitted only
    when disjoint is off (small regions cannot host k disjoint patches)."""
    p = encoder.patch_size
    if disjoint:
        ps = crop_patches(image, k, p, seed, allowed=allowed)
        patches = ps.patches
    else:
        spots = valid_topleft(allowed, p)
        if len(spots) == 0:
            raise ValueError(f"mask too small for a {p}-pixel patch")
        rng = derive(seed, "region-patches")
        picks = rng.choice(len(spots), size=k, replace=len(spots) < k)
        patches = np.stack([image[y:y + p, x:x + p] for y, x in spots[picks]])
    return encoder.embed_patches(patches, use_projector=use_projector)


def style_cosines(image: np.ndarray, mask: np.ndarray, foreign: DatasetSample | None,
                  encoder: PSRLModel, k: int, rng: np.random.Generator,
                  use_projector: bool = True) -> tuple[float, float]:
    """Mean pairwise cosines of k in-mask patch embeddings of `image`
    against k context patches of `image` and of `foreign`: (self, foreign).
    One draw from `rng` seeds each region, embedded in that order."""
    def embed(pixels, allowed, disjoint):
        return _region_embeddings(pixels, allowed, k, int(rng.integers(2 ** 63)), encoder,
                                  disjoint=disjoint, use_projector=use_projector)

    inside = embed(image, mask == 1, False)
    own_ctx = embed(image, mask == 0, True)
    if foreign is None:
        raise ValueError("no foreign-style sample available")
    fmask = mask_from_rect(foreign.pixels, foreign.mask_rect).mask
    foreign_ctx = embed(foreign.pixels, fmask == 0, True)
    return style_cosine_between(inside, own_ctx), style_cosine_between(inside, foreign_ctx)


def style_cosine_between(in_patches: np.ndarray, context: np.ndarray) -> float:
    """Mean pairwise cosine between two embedding sets (order-invariant)."""
    return float((in_patches @ context.T).mean())


def psnr_unmasked(generated: np.ndarray, reference: np.ndarray,
                  mask: np.ndarray) -> float:
    """10 log10(1/MSE) on [0,1] pixels outside the mask, capped at 99 dB,
    the value for MSE = 0."""
    generated = np.asarray(generated, np.float64)
    reference = np.asarray(reference, np.float64)
    if generated.shape != reference.shape:
        raise ValueError(f"image shapes differ: {generated.shape} vs {reference.shape}")
    keep = np.asarray(mask) == 0
    if not keep.any():
        raise ValueError("empty unmasked region")
    mse = float(((generated - reference) ** 2)[keep].mean())
    if mse == 0.0:
        return 99.0
    return min(10.0 * math.log10(1.0 / mse), 99.0)


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


def export_projection(embeddings: np.ndarray, labels, path) -> np.ndarray:
    """Deterministic 2-D PCA projection written as `x,y,label` CSV rows."""
    e = np.asarray(embeddings, np.float64)
    if e.ndim != 2 or e.shape[0] < 2:
        raise ValueError("projection needs at least 2 samples")
    if e.shape[1] < 2:
        raise ValueError("projection needs embeddings of dimension >= 2")
    centered = e - e.mean(axis=0)
    cov = (centered.T @ centered) / (e.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    comps = evecs[:, np.argsort(evals)[::-1][:2]].T
    for r in range(2):
        j = int(np.argmax(np.abs(comps[r])))
        if comps[r, j] < 0:
            comps[r] = -comps[r]
    proj = centered @ comps.T
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("x,y,label\n")
        for (x, y), lab in zip(proj, labels):
            f.write(f"{float(x)!r},{float(y)!r},{lab}\n")
    return proj


def _foreign_sample(samples: list[DatasetSample], i: int) -> DatasetSample | None:
    for step in range(1, len(samples)):
        j = (i + step) % len(samples)
        if samples[j].style_id != samples[i].style_id:
            return samples[j]
    return None


def run_benchmark(model, psrl: PSRLModel, dataset: list[DatasetSample],
                  config: dict) -> EvalReport:
    """Inpaint and score each task; per-task failures become report rows.

    `config` holds the `eval` keys count, k, steps, lam and paste_background,
    plus the run's seed and `nsd.use_projector`, as the `eval` command
    passes them."""
    samples = list(dataset)
    count = min(config["count"], len(samples))
    k, steps, lam, seed = config["k"], config["steps"], config["lam"], config["seed"]
    use_projector = bool(config["use_projector"])
    paste = bool(config["paste_background"])

    rows: list[TaskRecord] = []
    for i in range(count):
        s = samples[i]
        try:
            spec = mask_from_rect(s.pixels, s.mask_rect)
            task = InpaintTask(s.pixels, spec.mask, s.tokens)
            out = sample_inpaint(task, model, psrl, steps,
                                 int(derive(seed, "eval-task", i).integers(2 ** 63)),
                                 lam=lam, k=k, use_projector=use_projector,
                                 paste_background=paste)
            psnr = psnr_unmasked(out, s.pixels, spec.mask)
            composite = np.where(spec.mask[..., None] > 0, out, s.pixels)
            cos_self, cos_foreign = style_cosines(
                composite, spec.mask, _foreign_sample(samples, i), psrl, k,
                derive(seed, "eval-embed", i), use_projector)
            rows.append(TaskRecord(i, cos_self, cos_foreign, psnr))
        except Exception as e:  # a bad task must not abort the sweep
            reason = " ".join(str(e).split()).replace(",", ";")
            rows.append(TaskRecord(i, None, None, None, status=reason or type(e).__name__))

    ok = [r for r in rows if r.status == "ok"]
    aggregates = {"tasks": len(rows), "ok": len(ok)}
    if ok:
        aggregates["mean_style_cos_self"] = float(np.mean([r.style_cos_self for r in ok]))
        aggregates["mean_style_cos_foreign"] = float(np.mean([r.style_cos_foreign for r in ok]))
        aggregates["mean_psnr_db"] = float(np.mean([r.psnr_db for r in ok]))
        aggregates["win_rate"] = float(np.mean([r.style_cos_self > r.style_cos_foreign
                                                for r in ok]))
    return EvalReport(rows, aggregates)


REPORT_HEADER = "task_id,style_cos_self,style_cos_foreign,psnr_db,status"


def write_report(report: EvalReport, csv_path, summary_path) -> None:
    """The per-task rows as CSV and the aggregates as sorted key=value lines."""
    def fmt(v):
        return "" if v is None else f"{v:.6f}"

    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(REPORT_HEADER + "\n")
        for r in report.rows:
            f.write(f"{r.task_id},{fmt(r.style_cos_self)},{fmt(r.style_cos_foreign)},"
                    f"{fmt(r.psnr_db)},{r.status}\n")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as f:
        for key in sorted(report.aggregates):
            f.write(f"{key}={report.aggregates[key]}\n")
