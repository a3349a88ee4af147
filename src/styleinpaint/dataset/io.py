"""On-disk formats: the dataset container and PPM image export.

Dataset layout (all little-endian): 8-byte magic "S3IMTOY1", u32 sample
count, then per sample: u16 H, u16 W, H*W*3 float32 pixels, 4x u16 mask rect
(x, y, w, h), u8 token count + that many u8 tokens, u16 style_id, u64 render
seed. Fixed endianness keeps files platform-independent.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import DataError

MAGIC = b"S3IMTOY1"


@dataclass
class DatasetSample:
    pixels: np.ndarray  # [H, W, 3] float32 in [0, 1]
    mask_rect: tuple  # (x, y, w, h)
    tokens: list
    style_id: int
    render_seed: int


def dataset_write(samples: list[DatasetSample], path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(samples)))
        for s in samples:
            h, w = s.pixels.shape[:2]
            f.write(struct.pack("<HH", h, w))
            f.write(np.ascontiguousarray(s.pixels, dtype="<f4").tobytes())
            f.write(struct.pack("<4H", *s.mask_rect))
            f.write(struct.pack("<B", len(s.tokens)))
            f.write(bytes(s.tokens))
            f.write(struct.pack("<HQ", s.style_id, s.render_seed))


class _Reader:
    def __init__(self, f):
        self.f = f

    def take(self, n: int) -> bytes:
        buf = self.f.read(n)
        if len(buf) != n:
            raise DataError("truncated payload")
        return buf

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def dataset_read(path) -> list[DatasetSample]:
    with open(path, "rb") as f:
        r = _Reader(f)
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            if magic[:7] == MAGIC[:7]:
                raise DataError(f"version mismatch: got {magic!r}, expected {MAGIC!r}")
            raise DataError("malformed header")
        (count,) = r.unpack("<I")
        samples = []
        for _ in range(count):
            h, w = r.unpack("<HH")
            pixels = np.frombuffer(r.take(h * w * 3 * 4), dtype="<f4").reshape(h, w, 3)
            rect = r.unpack("<4H")
            (n_tok,) = r.unpack("<B")
            tokens = list(r.take(n_tok))
            style_id, render_seed = r.unpack("<HQ")
            samples.append(DatasetSample(pixels.copy(), rect, tokens, style_id, render_seed))
        if f.read(1):
            raise DataError("trailing bytes after declared sample count")
    return samples


def write_ppm(pixels: np.ndarray, path) -> None:
    """Binary PPM (P6, maxval 255) from a [H, W, 3] image in [0, 1]."""
    h, w = pixels.shape[:2]
    data = np.clip(np.rint(np.asarray(pixels) * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


# "P6"; width, height and maxval, each after whitespace or comments; one whitespace byte
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_ppm(path) -> np.ndarray:
    """Parse a binary PPM back into a [H, W, 3] float32 image in [0, 1]."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(b"P6"):
        raise DataError("not a P6 PPM file")
    header = _PPM_HEADER.match(blob)
    if header is None:
        raise DataError("malformed PPM header")
    pos = header.end()
    w, h, maxval = (int(f) for f in header.groups())
    if maxval != 255:
        raise DataError(f"unsupported PPM maxval {maxval}")
    raw = blob[pos:pos + h * w * 3]
    if len(raw) != h * w * 3:
        raise DataError("truncated payload")
    return (np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3) / 255.0).astype(np.float32)
