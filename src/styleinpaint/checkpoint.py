"""The binary container of the program's files: checkpoints and the dataset.

Layout (little-endian): 8-byte magic, u32 JSON length + UTF-8 JSON header
with sorted keys, u32 array count, then per array: u16 name length + UTF-8
name, u8 ndim, u32 per dim, float32 data. Arrays are written in sorted name
order so identical content always produces identical bytes. A write goes
through `<path>.tmp` and a rename, so one that fails part-way leaves any
previous file at `path` whole.

The magic says what a file holds:
- `PSRL0001` and `NSDM0001`, a style-encoder or denoiser checkpoint. Its
  header is the config echo: the trainer's echoed keys, `seed`, `step` and
  `opt_step`. Its arrays are the parameters by path, and the Adam moments
  under an "opt.m."/"opt.v." prefix, which makes resume exact.
- `S3IMTOY2`, the dataset (`dataset/io.py` maps its samples to and from
  the container). Its header's "samples" list holds each sample's
  `mask_rect`, `tokens`, `style_id` and `render_seed`; its arrays are the
  samples' [H, W, 3] pixels.

Reading checks the file against itself before it trusts it, and each
failure is a DataError naming the file: a foreign magic or another version
of the same one, a header that is not a UTF-8 JSON object, an array name
that is not UTF-8, any declared length (header, name, shape or data) larger
than the bytes left in the file, and bytes after the last array. The
length check comes before the read, so a small file cannot make the reader
allocate more than the file's size.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .config import DEFAULTS
from .errors import DataError

PSRL_MAGIC = b"PSRL0001"
NSDM_MAGIC = b"NSDM0001"
DATASET_MAGIC = b"S3IMTOY2"
# the config prefix of the keys each kind of checkpoint echoes
ECHO_PREFIX = {PSRL_MAGIC: "psrl.", NSDM_MAGIC: "nsd."}
# per magic: what errors call the file and its header, and the command that writes it
_KINDS = {PSRL_MAGIC: ("checkpoint", "config echo", "train-psrl"),
          NSDM_MAGIC: ("checkpoint", "config echo", "train-nsd"),
          DATASET_MAGIC: ("dataset", "header", "gen-dataset")}


def _write_container(path, magic: bytes, header: dict, arrays: dict) -> None:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(magic)
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name], dtype="<f4")
                enc = name.encode("utf-8")
                f.write(struct.pack("<H", len(enc)))
                f.write(enc)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(arr)  # the array's own buffer, not a bytes copy
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_container(path, magic: bytes, skip: str | None = None) -> tuple[dict, dict]:
    """The header and the arrays by name of the container at `path`. Arrays
    whose name starts with `skip` are seeked past, not read, and left out."""
    kind, header_name, writer = _KINDS[magic]
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size
        got = f.read(len(magic))
        left -= len(got)
        if got != magic:
            stem = magic.rstrip(b"0123456789")
            if got.startswith(stem):
                raise DataError(f"{kind} {path}: version mismatch, got {got!r}, "
                                f"expected {magic!r}; re-run {writer}")
            raise DataError(f"malformed {kind} header: {path} does not start with {magic!r}")

        def claim(n: int, what: str) -> int:
            nonlocal left
            if n > left:
                raise DataError(f"truncated {kind} {path}: {what} needs {n} bytes, "
                                f"{left} left")
            left -= n
            return n

        def unpack(fmt: str, what: str) -> tuple:
            return struct.unpack(fmt, f.read(claim(struct.calcsize(fmt), what)))

        (jlen,) = unpack("<I", "header length")
        try:
            header = json.loads(f.read(claim(jlen, header_name)).decode("utf-8"))
        except ValueError:
            header = None
        if not isinstance(header, dict):
            raise DataError(f"{kind} {path}: malformed {header_name}")
        (count,) = unpack("<I", "array count")
        arrays = {}
        for _ in range(count):
            (nlen,) = unpack("<H", "array name length")
            raw = f.read(claim(nlen, "array name"))
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{kind} {path}: array name {raw!r} is not UTF-8") from None
            (ndim,) = unpack("<B", f"array '{name}'")
            shape = unpack(f"<{ndim}I", f"array '{name}' shape")
            nbytes = claim(4 * math.prod(shape), f"array '{name}' data")
            if skip is not None and name.startswith(skip):
                f.seek(nbytes, os.SEEK_CUR)
                continue
            arr = np.empty(shape, dtype="<f4")
            if f.readinto(arr) != nbytes:
                raise DataError(f"truncated {kind} {path}: array '{name}' data ends early")
            arrays[name] = arr
        if left:
            raise DataError(f"{kind} {path}: {left} bytes after the last array")
    return header, arrays


def save_checkpoint(path, magic: bytes, config: dict, tensors: dict) -> None:
    """Write `config` as the echo and `tensors` as the arrays, through a
    temp file, so a save that fails or is killed part-way leaves any
    previous checkpoint at `path` whole."""
    _write_container(path, magic, config, tensors)


class _Echo(dict):
    """A checkpoint's config echo. Reading a key it lacks, or a value that
    is not of the key's type, is a DataError naming the checkpoint and the
    key. An echoed config key has its `DEFAULTS` type under the trainer's
    prefix, and `seed` and the step counts are ints; an int serves where a
    float is expected. Other keys are read unchecked."""

    def __init__(self, path, values: dict, prefix: str):
        super().__init__(values)
        self.path = path
        self.prefix = prefix

    def __missing__(self, key):
        raise DataError(f"checkpoint {self.path} echoes no '{key}'")

    def __getitem__(self, key):
        value = super().__getitem__(key)
        kind = int if key in ("seed", "step", "opt_step") else \
            type(DEFAULTS.get(self.prefix + key, value))
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise DataError(f"checkpoint {self.path} echoes '{key}' as {value!r}, "
                            f"expected {kind.__name__}")
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


def load_checkpoint(path, magic: bytes, params_only: bool = False) -> tuple[dict, dict]:
    """The config echo and the tensors by path. With `params_only` the
    optimizer moments (the "opt." paths) are seeked past, not read, and
    left out of the tensors. A file the container's checks reject, or a key
    read from the echo that it lacks or that has a value of the wrong type,
    is a DataError."""
    config, tensors = _read_container(path, magic, skip="opt." if params_only else None)
    return _Echo(path, config, ECHO_PREFIX[magic]), tensors


def restore(tensors: dict, params, source: str, opt=None) -> None:
    """Make a loaded checkpoint's tensors the arrays of `params`, and with
    `opt` the "opt.m."/"opt.v." arrays its Adam moments, popping each from
    `tensors`; the arrays are adopted, not copied. A missing or misshapen
    tensor is a DataError naming `source` and it."""
    def take(name, shape):
        arr = tensors.pop(name, None)
        if arr is None or arr.shape != shape:
            got = "missing" if arr is None else f"of shape {arr.shape}"
            raise DataError(f"{source}: tensor '{name}' {got}, expected shape {shape}")
        return arr

    for name, t in params.items():
        t.data = take(name, t.shape)
        if opt is not None:
            opt.m[name] = take("opt.m." + name, t.shape)
            opt.v[name] = take("opt.v." + name, t.shape)
