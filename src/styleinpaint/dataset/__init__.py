"""Procedural texture scenes: styles, rendering, masks, patches, persistence."""

from __future__ import annotations

from ..rng import derive
from .io import DatasetSample, dataset_read, dataset_write, read_ppm, write_ppm
from .scenes import (MaskSpec, PatchSet, SceneImage, VOCAB, caption_of,
                     crop_patches, make_mask, mask_from_rect, place_disjoint,
                     render_scene, valid_topleft)
from .styles import FAMILIES, StyleParams, style_from_id


def generate_dataset(seed: int, count: int, n_styles: int, size: int = 64,
                     mask_lo: float = 0.15, mask_hi: float = 0.35) -> list[DatasetSample]:
    """Render `count` scenes cycling through n_styles distinct styles.

    Each sample is reproducible from its stored (style_id, render_seed) pair
    alone; the mask rectangle and caption derive from the same seed.
    """
    style_rng = derive(seed, "dataset-styles")
    style_ids = style_rng.permutation(65536)[:n_styles]
    styles = [style_from_id(int(s)) for s in style_ids[:count]]

    def build(i: int) -> DatasetSample:
        srng = derive(seed, "scene", i)
        render_seed = int(srng.integers(0, 2 ** 63))
        style = styles[i % n_styles]
        scene = render_scene(style, render_seed, size=size)
        fraction = float(derive(render_seed, "mask-fraction").uniform(mask_lo, mask_hi))
        mask = make_mask(scene, fraction, render_seed)
        return DatasetSample(scene.pixels, mask.rect, scene.caption_tokens,
                             style.style_id, render_seed)

    return [build(i) for i in range(count)]
