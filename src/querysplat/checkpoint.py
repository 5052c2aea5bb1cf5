"""Flat binary parameter checkpoints.

Layout: the 8 ASCII magic bytes ``SQSCKPT1`` followed by zero or more
records until end-of-file. Each record is

    uint32 LE   name length in bytes
    bytes       UTF-8 parameter name
    uint32 LE   rank
    uint32 LE   per-axis sizes (rank of them)
    float64 LE  row-major array data

Records are written in sorted name order so identical parameter states
serialize to identical bytes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct

import numpy as np

from .images import _read_exact

__all__ = ["MAGIC", "CheckpointError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"SQSCKPT1"


class CheckpointError(Exception):
    """Raised for malformed or truncated checkpoint files."""


def save_checkpoint(path: str, state: dict[str, np.ndarray]) -> None:
    """Write a name→array mapping to ``path``, atomically.

    The bytes go to a temporary file next to ``path`` that then replaces it,
    so an interrupted or failed write leaves any previous checkpoint intact.
    """
    buf = io.BytesIO()
    buf.write(MAGIC)
    for name in sorted(state):
        arr = np.asarray(state[name], dtype=np.float64)
        name_bytes = name.encode("utf-8")
        buf.write(struct.pack("<I", len(name_bytes)))
        buf.write(name_bytes)
        buf.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(np.ascontiguousarray(arr).astype("<f8").tobytes())
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    state: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        def read(n, what):
            return _read_exact(f, n, what, CheckpointError)

        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}; expected {MAGIC!r}")
        while True:
            head = f.read(4)
            if len(head) == 0:
                break  # clean EOF between records
            if len(head) != 4:
                raise CheckpointError("truncated checkpoint: partial name length")
            (name_len,) = struct.unpack("<I", head)
            try:
                name = read(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"parameter name is not UTF-8: {e}") from e
            (rank,) = struct.unpack("<I", read(4, "rank"))
            shape = tuple(
                struct.unpack("<I", read(4, f"shape[{i}] of '{name}'"))[0]
                for i in range(rank)
            )
            raw = read(math.prod(shape) * 8, f"data of '{name}'")
            arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if name in state:
                raise CheckpointError(f"duplicate parameter '{name}' in checkpoint")
            state[name] = arr
    return state
