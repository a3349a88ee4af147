"""Style parameterization: palette, pattern family, frequency, orientation.

A style is fully determined by its integer ``style_id``. The palette is a
quantized, injective function of the id: each of the 9 RGB coordinates sits
on the grid {0.05, 0.35, 0.65, 0.95} (spacing 0.3), and distinct ids within
one pattern family map to distinct grid points. That gives the negative-pair
guarantee by construction: two styles with different ids differ in family or
have palette L2 distance >= 0.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import derive

FAMILIES = ("stripes", "checker", "dots", "value-noise")
N_STYLE_IDS = 65536
_GRID = np.array([0.05, 0.35, 0.65, 0.95])
_CODE_BITS = 18  # 9 palette coordinates x 2 bits each


@dataclass(frozen=True)
class StyleParams:
    palette: np.ndarray  # [3, 3] RGB rows in [0, 1]
    family: str
    frequency: float  # cycles per image, in [2, 16]
    orientation: float  # radians
    style_id: int


def _palette_code(u: int) -> int:
    """Bijective scramble of u in [0, 2^18); affine and xorshift rounds."""
    mask = (1 << _CODE_BITS) - 1
    c = (u * 0x15A4F + 0x0D31) & mask
    c ^= c >> 9
    c = (c * 0x2C6A5 + 0x531) & mask
    c ^= c >> 7
    return c & mask


def style_from_id(style_id: int) -> StyleParams:
    """Deterministic id -> parameters mapping; same id, same style."""
    if not 0 <= style_id < N_STYLE_IDS:
        raise ValueError(f"style_id {style_id} outside [0, {N_STYLE_IDS})")
    family = FAMILIES[style_id % 4]
    code = _palette_code(style_id // 4)
    digits = [(code >> (2 * k)) & 3 for k in range(9)]
    palette = _GRID[np.array(digits)].reshape(3, 3)
    rng = derive(style_id, "style-params")
    frequency = float(rng.uniform(2.0, 16.0))
    orientation = float(rng.uniform(0.0, np.pi))
    return StyleParams(palette, family, frequency, orientation, style_id)


def noise_lattice(style_id: int) -> np.ndarray:
    """Periodic 16x16 value grid driving the value-noise family."""
    return derive(style_id, "noise-lattice").uniform(0.0, 1.0, (16, 16))
