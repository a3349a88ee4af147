"""Binary checkpoint container shared by the style and diffusion trainers.

Layout (little-endian): 8-byte magic, u32 JSON length + UTF-8 config echo
with sorted keys, u32 tensor count, then per tensor: u16 path length + UTF-8
path, u8 ndim, u32 per dim, float32 data. Tensors are written in sorted path
order so identical state always produces identical bytes. Optimizer moments
ride along under an "opt." path prefix, which makes resume exact.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .config import DEFAULTS
from .errors import DataError

PSRL_MAGIC = b"PSRL0001"
NSDM_MAGIC = b"NSDM0001"
# the config prefix of the keys each kind of checkpoint echoes
ECHO_PREFIX = {PSRL_MAGIC: "psrl.", NSDM_MAGIC: "nsd."}


def save_checkpoint(path, magic: bytes, config: dict, tensors: dict) -> None:
    """Write through `<path>.tmp` and rename it onto `path`, so a save that
    fails or is killed part-way leaves any previous checkpoint there whole."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(magic)
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<I", len(tensors)))
            for name in sorted(tensors):
                arr = np.ascontiguousarray(tensors[name], dtype="<f4")
                enc = name.encode("utf-8")
                f.write(struct.pack("<H", len(enc)))
                f.write(enc)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
    left out of the tensors. An echo that is not a JSON object, or a key
    read from it that it lacks or that has a value of the wrong type, is a
    DataError."""
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        got = f.read(len(magic))
        if got != magic:
            if got[:4] == magic[:4]:
                raise DataError(f"checkpoint version mismatch: got {got!r}, expected {magic!r}")
            raise DataError(f"malformed checkpoint header: expected magic {magic!r}")

        def take(n):
            buf = f.read(n)
            if len(buf) != n:
                raise DataError("truncated checkpoint")
            return buf

        (jlen,) = struct.unpack("<I", take(4))
        try:
            config = json.loads(take(jlen).decode("utf-8"))
        except ValueError:
            config = None
        if not isinstance(config, dict):
            raise DataError(f"checkpoint {path}: malformed config echo")
        (count,) = struct.unpack("<I", take(4))
        tensors = {}
        for _ in range(count):
            (plen,) = struct.unpack("<H", take(2))
            name = take(plen).decode("utf-8")
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            size = int(np.prod(shape)) if ndim else 1
            if params_only and name.startswith("opt."):
                if f.seek(4 * size, os.SEEK_CUR) > file_size:
                    raise DataError("truncated checkpoint")
                continue
            data = np.frombuffer(take(4 * size), dtype="<f4").reshape(shape)
            tensors[name] = data.copy()
    return _Echo(path, config, ECHO_PREFIX[magic]), tensors


def restore(tensors: dict, params, source: str, opt=None) -> None:
    """Copy a loaded checkpoint's tensors into `params`, and with `opt` make
    the "opt.m."/"opt.v." arrays its Adam moments, popping each from `tensors`;
    a missing or misshapen tensor is a DataError naming `source` and it."""
    def take(name, shape):
        arr = tensors.pop(name, None)
        if arr is None or arr.shape != shape:
            got = "missing" if arr is None else f"of shape {arr.shape}"
            raise DataError(f"{source}: tensor '{name}' {got}, expected shape {shape}")
        return arr

    for name, t in params.items():
        t.data[...] = take(name, t.shape)
        if opt is not None:
            opt.m[name] = take("opt.m." + name, t.shape)
            opt.v[name] = take("opt.v." + name, t.shape)
