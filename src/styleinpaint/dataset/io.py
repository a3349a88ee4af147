"""On-disk formats: the dataset file and PPM image export.

The dataset is a `checkpoint.py` container under the magic `S3IMTOY2`. Its
JSON header's "samples" list holds each sample's `mask_rect`, `tokens`,
`style_id` and `render_seed`, and sample i's [H, W, 3] pixels are the array
`pixels.<i>`. Reading checks each sample as strictly as a checkpoint's echo
is checked: a field of the wrong type, a token outside `VOCAB`, a mask rect
that does not fit its image, or pixels that are missing or not [H, W, 3] is
a DataError naming the dataset and the sample.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..checkpoint import DATASET_MAGIC, _read_container, _write_container
from ..errors import DataError
from .scenes import VOCAB, mask_from_rect


@dataclass
class DatasetSample:
    pixels: np.ndarray  # [H, W, 3] float32 in [0, 1]
    mask_rect: tuple  # (x, y, w, h)
    tokens: list
    style_id: int
    render_seed: int


def _ints(value) -> bool:
    return type(value) is list and all(type(v) is int for v in value)


# each sample field of the header: what its value must be, and the test of it
_FIELDS = {"mask_rect": ("4 ints", lambda v: _ints(v) and len(v) == 4),
           "tokens": ("a list of ints", _ints),
           "style_id": ("an int", lambda v: type(v) is int),
           "render_seed": ("an int", lambda v: type(v) is int)}


def dataset_write(samples: list[DatasetSample], path) -> None:
    header = {"samples": [{"mask_rect": list(s.mask_rect), "tokens": list(s.tokens),
                           "style_id": s.style_id, "render_seed": s.render_seed}
                          for s in samples]}
    _write_container(path, DATASET_MAGIC, header,
                     {f"pixels.{i}": s.pixels for i, s in enumerate(samples)})


def _sample(where: str, fields, pixels) -> DatasetSample:
    if type(fields) is not dict:
        raise DataError(f"{where} is {fields!r}, expected an object")
    for key, (expected, ok) in _FIELDS.items():
        if not ok(fields.get(key)):
            raise DataError(f"{where} has '{key}' {fields.get(key)!r}, expected {expected}")
    if pixels is None or pixels.ndim != 3 or pixels.shape[2] != 3:
        got = "missing" if pixels is None else f"of shape {pixels.shape}"
        raise DataError(f"{where}: pixels {got}, expected [H, W, 3]")
    tokens = fields["tokens"]
    if not all(0 <= t < len(VOCAB) for t in tokens):
        raise DataError(f"{where}: tokens {tokens} outside the {len(VOCAB)}-word vocabulary")
    rect = tuple(fields["mask_rect"])
    try:
        mask_from_rect(pixels, rect)
    except ValueError as e:
        raise DataError(f"{where}: {e}") from None
    return DatasetSample(pixels, rect, tokens, fields["style_id"], fields["render_seed"])


def dataset_read(path) -> list[DatasetSample]:
    header, arrays = _read_container(path, DATASET_MAGIC)
    samples = header.get("samples")
    if type(samples) is not list:
        raise DataError(f"dataset {path}: header has no sample list")
    if len(arrays) != len(samples):
        raise DataError(f"dataset {path}: {len(arrays)} arrays for {len(samples)} samples")
    return [_sample(f"dataset {path}: sample {i}", fields, arrays.get(f"pixels.{i}"))
            for i, fields in enumerate(samples)]


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
