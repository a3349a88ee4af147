"""Scene rendering, captions, masks, and patch placement.

A scene is a 64x64 image whose regions (background plus 1-3 shapes) are all
filled with the same style's pattern, each region at its own phase offset.
Semantics (shapes) vary within a scene; style does not.

`render_scene` draws from the scene's layout generator in a fixed order: the
shape count, each shape's kind and geometry, then one phase pair per region,
hidden regions included. It evaluates the pattern in one pass over one pixel
grid, each pixel at its region's phase, which per pixel is the arithmetic of
filling each region separately (tests/oracles.py keeps that renderer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import derive
from .styles import StyleParams, noise_lattice

SHAPES = ("disc", "rect", "triangle")

# caption vocabulary: shape word, dominant-color word, pattern-family word
VOCAB = ("disc", "rect", "triangle",
         "red", "green", "blue", "gray",
         "stripes", "checker", "dots", "noise")
TOKEN_OF = {w: i for i, w in enumerate(VOCAB)}
_FAMILY_WORD = {"stripes": "stripes", "checker": "checker",
                "dots": "dots", "value-noise": "noise"}


@dataclass
class SceneImage:
    pixels: np.ndarray  # [H, W, 3] float32 in [0, 1]
    style: StyleParams
    region_layout: dict
    caption_tokens: list


@dataclass
class PatchSet:
    patches: np.ndarray  # [N, P, P, 3] float32
    coordinates: np.ndarray  # [N, 2] top-left (row, col)


@dataclass
class MaskSpec:
    mask: np.ndarray  # [H, W] float32, 1 = region to generate
    rect: tuple  # (x, y, w, h) with x = column, y = row


def _pattern(style: StyleParams, u: np.ndarray, v: np.ndarray, px: np.ndarray,
             py: np.ndarray) -> np.ndarray:
    """The style's pattern at canvas coordinates (u, v), each pixel at its
    own phase (px, py); every argument is an [H, W] float64 array."""
    ct, st = np.cos(style.orientation), np.sin(style.orientation)
    f = style.frequency
    a = (u * ct + v * st) * f + px
    b = (-u * st + v * ct) * f + py
    pal = style.palette
    if style.family == "stripes":
        idx = np.floor(a * 3).astype(np.int64) % 3
    elif style.family == "checker":
        idx = (np.floor(a).astype(np.int64) + np.floor(b).astype(np.int64)) % 3
    elif style.family == "dots":
        ia = np.floor(a).astype(np.int64)
        ib = np.floor(b).astype(np.int64)
        fa = a - ia
        fb = b - ib
        inside = (fa - 0.5) ** 2 + (fb - 0.5) ** 2 < 0.33 ** 2
        idx = np.where(inside, 1 + (ia + ib) % 2, 0)
    elif style.family == "value-noise":
        lat = noise_lattice(style.style_id)
        L = lat.shape[0]
        ia = np.floor(a).astype(np.int64)
        ib = np.floor(b).astype(np.int64)
        fa = a - ia
        fb = b - ib
        # smoothstep-weighted bilinear blend on the periodic lattice
        sa = fa * fa * (3 - 2 * fa)
        sb = fb * fb * (3 - 2 * fb)
        a0, a1, b0, b1 = ia % L, (ia + 1) % L, ib % L, (ib + 1) % L
        n = (lat[b0, a0] * (1 - sa) + lat[b0, a1] * sa) * (1 - sb) + \
            (lat[b1, a0] * (1 - sa) + lat[b1, a1] * sa) * sb
        # piecewise-linear ramp through the three palette colors
        lo = np.clip(n * 2.0, 0.0, 1.0)[..., None]
        hi = np.clip(n * 2.0 - 1.0, 0.0, 1.0)[..., None]
        return np.where(n[..., None] < 0.5,
                        pal[0] * (1 - lo) + pal[1] * lo,
                        pal[1] * (1 - hi) + pal[2] * hi).astype(np.float32)
    else:
        raise ValueError(f"unknown pattern family '{style.family}'")
    return pal.astype(np.float32)[idx]


def _paint_shape(region_map: np.ndarray, yy: np.ndarray, xx: np.ndarray, kind: str,
                 rng: np.random.Generator, region_id: int) -> dict:
    """Draw a shape of `kind` from rng and give the pixels it covers on the
    (yy, xx) grid `region_id`; returns its description."""
    h, w = region_map.shape
    if kind == "disc":
        cx = rng.uniform(0.25 * w, 0.75 * w)
        cy = rng.uniform(0.25 * h, 0.75 * h)
        r = rng.uniform(0.12 * h, 0.28 * h)
        inside = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        desc = {"shape": "disc", "center": (cx, cy), "radius": r}
    elif kind == "rect":
        rw = rng.uniform(0.2 * w, 0.45 * w)
        rh = rng.uniform(0.2 * h, 0.45 * h)
        x0 = rng.uniform(0.05 * w, 0.9 * w - rw)
        y0 = rng.uniform(0.05 * h, 0.9 * h - rh)
        inside = (xx >= x0) & (xx < x0 + rw) & (yy >= y0) & (yy < y0 + rh)
        desc = {"shape": "rect", "origin": (x0, y0), "size": (rw, rh)}
    elif kind == "triangle":
        while True:
            pts = rng.uniform(0.08 * w, 0.92 * w, (3, 2))
            (x1, y1), (x2, y2), (x3, y3) = pts
            area2 = abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
            if area2 >= 0.08 * h * w:
                break
        def side(ax, ay, bx, by):
            return (bx - ax) * (yy - ay) - (by - ay) * (xx - ax)
        d1 = side(x1, y1, x2, y2)
        d2 = side(x2, y2, x3, y3)
        d3 = side(x3, y3, x1, y1)
        inside = ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))
        desc = {"shape": "triangle", "vertices": pts.tolist()}
    else:
        raise ValueError(f"unknown shape '{kind}'")
    region_map[inside] = region_id
    return desc


def render_scene(style: StyleParams, layout_seed: int, size: int = 64) -> SceneImage:
    """Compose background + shapes, every region filled with the same style.

    The layout generator draws the shape count, then each shape's kind and
    geometry in painting order (a later shape covers an earlier one), then
    one phase pair uniform(0, 1, 2) per region, background first, also for
    a region that later shapes hide completely. The pattern is evaluated
    once, over the pixel grid the shapes were painted on, each pixel at its
    region's phase: per pixel that is the arithmetic of filling each region
    on its own, so the bytes are the same too.
    """
    rng = derive(layout_seed, "layout")
    h = w = size
    yy, xx = np.mgrid[0:h, 0:w]
    region_map = np.zeros((h, w), dtype=np.int8)
    layout = {0: {"shape": "background"}}
    n_shapes = int(rng.integers(1, 4))
    for rid in range(1, n_shapes + 1):
        kind = SHAPES[int(rng.integers(0, len(SHAPES)))]
        layout[rid] = _paint_shape(region_map, yy, xx, kind, rng, rid)
    phases = np.stack([rng.uniform(0.0, 1.0, 2) for _ in range(n_shapes + 1)])
    pixels = _pattern(style, xx / h, yy / h, phases[region_map, 0], phases[region_map, 1])
    scene = SceneImage(pixels, style, layout, [])
    scene.caption_tokens = caption_of(scene)
    return scene


def caption_of(scene: SceneImage) -> list[int]:
    """Template caption: first shape word, dominant palette color, family."""
    shape_word = scene.region_layout[1]["shape"]
    mean = scene.style.palette.mean(axis=0)
    if mean.max() - mean.min() < 0.1:
        color_word = "gray"
    else:
        color_word = ("red", "green", "blue")[int(np.argmax(mean))]
    family_word = _FAMILY_WORD[scene.style.family]
    return [TOKEN_OF[shape_word], TOKEN_OF[color_word], TOKEN_OF[family_word]]


def make_mask(scene: SceneImage, fraction: float, rng_seed: int) -> MaskSpec:
    """Interior rectangle covering the requested area within 2%."""
    h, w = scene.pixels.shape[:2]
    if not 0.1 <= fraction <= 0.5:
        raise ValueError(f"mask fraction {fraction} outside [0.1, 0.5]")
    rng = derive(rng_seed, "mask")
    target = fraction * h * w
    tol = 0.02 * target
    for _ in range(1000):
        mw = int(rng.integers(8, w - 1))
        mh = int(round(target / mw))
        if mh < 8 or mh > h - 2 or abs(mw * mh - target) > tol:
            continue
        x = int(rng.integers(1, w - mw))  # keep a 1px border on every side
        y = int(rng.integers(1, h - mh))
        mask = np.zeros((h, w), dtype=np.float32)
        mask[y:y + mh, x:x + mw] = 1.0
        return MaskSpec(mask, (x, y, mw, mh))
    raise ValueError(f"could not realize mask fraction {fraction}")


def mask_from_rect(pixels: np.ndarray, rect: tuple) -> MaskSpec:
    x, y, mw, mh = rect
    h, w = pixels.shape[:2]
    if not (0 <= x and 0 <= y and x + mw <= w and y + mh <= h and mw > 0 and mh > 0):
        raise ValueError(f"mask rect {rect} does not fit a {h}x{w} image")
    mask = np.zeros((h, w), dtype=np.float32)
    mask[y:y + mh, x:x + mw] = 1.0
    return MaskSpec(mask, (int(x), int(y), int(mw), int(mh)))


def window_counts(allowed: np.ndarray, p: int) -> np.ndarray:
    """Allowed-pixel count of every p x p window, via a 2-D prefix sum."""
    a = allowed.astype(np.int64)
    h, w = a.shape
    if h < p or w < p:
        return np.zeros((0, 0), dtype=np.int64)
    s = np.zeros((h + 1, w + 1), dtype=np.int64)
    s[1:, 1:] = a.cumsum(0).cumsum(1)
    return s[p:, p:] - s[:-p, p:] - s[p:, :-p] + s[:-p, :-p]


def valid_topleft(allowed: np.ndarray, p: int) -> np.ndarray:
    """Top-left coordinates (row, col) whose p x p window is fully allowed.

    Uses a 2-D prefix sum so tightly constrained regions are sampled exactly
    instead of by rejection.
    """
    win = window_counts(allowed, p)
    rows, cols = np.nonzero(win == p * p)
    return np.stack([rows, cols], axis=1)


def _disjoint_from(rows: np.ndarray, cols: np.ndarray, i: int, p: int) -> np.ndarray:
    """Mask of the p x p windows at (rows, cols) that do not overlap window i."""
    return (np.abs(rows - rows[i]) >= p) | (np.abs(cols - cols[i]) >= p)


def first_fit(positions: np.ndarray, p: int, n: int) -> list[int]:
    """Indices of up to n windows kept by walking `positions` in order and
    keeping each one that overlaps none kept before (the first still free)."""
    rows, cols = np.ascontiguousarray(positions.T)
    free = np.ones(len(positions), dtype=bool)
    picked: list[int] = []
    while len(picked) < n and free.any():
        picked.append(int(np.argmax(free)))
        free &= _disjoint_from(rows, cols, picked[-1], p)
    return picked


def place_disjoint(positions: np.ndarray, p: int, n: int, rng: np.random.Generator,
                   max_attempts: int = 10000, stall: int = 400) -> np.ndarray:
    """Pick n pairwise-disjoint p x p windows from candidate top-lefts.

    Attempt t takes the t-th draw of `rng.integers(0, len(positions))`, a fixed
    stream, and accepts it if a `free` mask over `positions` still marks it; an
    accept clears the windows it overlaps. `stall` rejections in a row clear the
    accepted set, which un-jams dense configurations; after `max_attempts` (e.g.
    4 patches exactly filling a window) `first_fit` decides, or the call raises.
    Draws come `stall` at a time, so the output equals the one-at-a-time
    reference loop's (tests/oracles.py) for every seed; `rng` may end further on.
    """
    rows, cols = np.ascontiguousarray(positions.T)
    free = np.ones(len(positions), dtype=bool)
    draws, picked, attempts = np.empty(0, dtype=np.int64), [], 0
    while len(picked) < n and attempts < max_attempts and len(positions):
        window = min(stall, max_attempts - attempts)
        if len(draws) < window:
            draws = np.concatenate([draws, rng.integers(0, len(positions), size=stall)])
        hit = free[draws[:window]]
        j = int(np.argmax(hit))
        if hit[j]:
            picked.append(int(draws[j]))
            free &= _disjoint_from(rows, cols, picked[-1], p)
            window = j + 1
        else:  # `stall` rejections in a row, or the last attempts: restart
            picked.clear()
            free[:] = True
        attempts += window
        draws = draws[window:]
    if len(picked) < n:
        picked = first_fit(positions, p, n)
    if len(picked) < n:
        raise ValueError(f"cannot place {n} disjoint patches")
    return positions[picked].astype(np.int64)


def crop_patches(pixels: np.ndarray, n: int, p: int, rng_seed: int,
                 allowed: np.ndarray | None = None) -> PatchSet:
    """n pairwise-disjoint p x p crops of [H, W, 3] pixels, optionally
    restricted to an allowed pixel region (every crop pixel must be allowed);
    placed per seed by `place_disjoint`."""
    h, w = pixels.shape[:2]
    if n * p * p > h * w:
        raise ValueError(f"cannot place {n} disjoint patches")
    if allowed is None:
        positions = np.argwhere(np.ones((h - p + 1, w - p + 1), dtype=bool))
    else:
        positions = valid_topleft(allowed, p)
    rng = derive(rng_seed, "crop")
    coords = place_disjoint(positions, p, n, rng)
    patches = np.stack([pixels[r:r + p, c:c + p] for r, c in coords])
    return PatchSet(patches.astype(np.float32), coords)
