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
import math
import os
import struct

import numpy as np

from .images import _check_remaining

__all__ = ["MAGIC", "CheckpointError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"SQSCKPT1"


class CheckpointError(Exception):
    """Raised for malformed or truncated checkpoint files."""


def save_checkpoint(path: str, state: dict[str, np.ndarray]) -> None:
    """Write a name→array mapping to ``path``, atomically.

    Each record's header is written and then the array's own buffer, so an
    array that already is C-ordered little-endian float64 is not copied.
    The bytes go to a temporary file next to ``path`` that then replaces it,
    so an interrupted or failed write leaves any previous checkpoint intact.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            for name in sorted(state):
                # np.ascontiguousarray would make a 0-d array 1-d.
                arr = np.asarray(state[name], dtype="<f8", order="C")
                name_bytes = name.encode("utf-8")
                f.write(struct.pack(
                    f"<I{len(name_bytes)}sI{arr.ndim}I",
                    len(name_bytes), name_bytes, arr.ndim, *arr.shape,
                ))
                f.write(arr)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path: str, skip: str | tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Each record's data is read straight into its own fresh, writeable,
    C-ordered float64 array; no two arrays share memory. A declared size
    larger than the rest of the file is refused before it is read. Records
    whose name starts with ``skip`` (a prefix or a tuple of them) are sought
    past unread, after the same checks. Every record returned must be
    finite; a NaN or an infinity is refused with the record's name.
    """
    state: dict[str, np.ndarray] = {}
    skipped: set[str] = set()
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def check(n, what):
            _check_remaining(f, n, what, CheckpointError, size)

        def read(n, what):
            check(n, what)
            return f.read(n)

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
            if name in state or name in skipped:
                raise CheckpointError(f"duplicate parameter '{name}' in checkpoint")
            (rank,) = struct.unpack("<I", read(4, "rank"))
            shape = struct.unpack(f"<{rank}I", read(4 * rank, f"shape of '{name}'"))
            what = f"data of '{name}'"
            nbytes = math.prod(shape) * 8
            check(nbytes, what)
            if name.startswith(skip):
                f.seek(nbytes, os.SEEK_CUR)
                skipped.add(name)
                continue
            arr = np.empty(shape, dtype="<f8")
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"truncated file: {what} ended early")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"non-finite value in '{name}'")
            state[name] = arr.astype(np.float64, copy=False)
    return state
