"""Image and mask file I/O.

Three tiny binary formats, each fully specified here:

* **PPM (P6)** for RGB renders: ASCII header ``P6\\n<width> <height>\\n255\\n``
  followed by ``height * width * 3`` bytes of 8-bit RGB, row-major, top row
  first. Values are quantized from floats in [0, 1] by round-to-nearest.
* **PFM (Pf)** for depth maps: ASCII header ``Pf\\n<width> <height>\\n-1.0\\n``
  followed by ``height * width`` IEEE-754 float32 values. The scale line's
  sign encodes endianness (negative = little-endian, which is what we write);
  rows are stored bottom-up per the PFM convention.
* **Mask container** for validity masks: magic ``SQSMSK1`` + version byte
  ``0x01`` + uint32 little-endian height and width + ``height * width`` bytes,
  one per pixel (0 or 1), row-major, top row first.

Readers validate headers and sizes and raise ``ImageFormatError`` naming the
missing or malformed piece.
"""

from __future__ import annotations

import os

import numpy as np

MASK_MAGIC = b"SQSMSK1"
MASK_VERSION = 1


class ImageFormatError(ValueError):
    """Raised when an image file is malformed or truncated."""


def _read_exact(f, n, what, error=ImageFormatError):
    """Exactly n bytes of the open binary file f, or raise error.

    A declared size that is negative or larger than the rest of the file is
    refused before any read, so a forged header cannot ask for a huge buffer.
    The scene and checkpoint readers pass their own error class.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if not 0 <= n <= left:
        raise error(f"truncated file: {what} needs {n} bytes, {left} remain")
    return f.read(n)


def _read_token(f, what):
    """Read one whitespace-delimited ASCII token, skipping '#' comments."""
    token = b""
    while True:
        ch = f.read(1)
        if not ch:
            if token:
                return token
            raise ImageFormatError(f"truncated header: missing {what}")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = f.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def _parse_int(token, what):
    try:
        value = int(token)
    except ValueError:
        raise ImageFormatError(f"malformed {what}: {token!r}") from None
    if value <= 0:
        raise ImageFormatError(f"{what} must be positive, got {value}")
    return value


def write_ppm(path, rgb):
    """Write an H x W x 3 float array in [0, 1] as a binary P6 PPM."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"rgb must have shape (H, W, 3), got {rgb.shape}")
    quantized = np.rint(np.clip(rgb, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(quantized.tobytes())


def read_ppm(path):
    """Read a binary P6 PPM into an H x W x 3 float64 array in [0, 1]."""
    with open(path, "rb") as f:
        magic = _read_token(f, "PPM magic")
        if magic != b"P6":
            raise ImageFormatError(f"not a P6 PPM: magic {magic!r}")
        width = _parse_int(_read_token(f, "PPM width"), "PPM width")
        height = _parse_int(_read_token(f, "PPM height"), "PPM height")
        maxval = _parse_int(_read_token(f, "PPM maxval"), "PPM maxval")
        if maxval != 255:
            raise ImageFormatError(f"unsupported PPM maxval {maxval} (want 255)")
        raw = _read_exact(f, height * width * 3, "PPM pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return pixels.astype(np.float64) / 255.0


def write_pfm(path, depth):
    """Write an H x W float array as a grayscale little-endian PFM."""
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise ValueError(f"depth must have shape (H, W), got {depth.shape}")
    height, width = depth.shape
    data = depth[::-1].astype("<f4")  # bottom-up row order
    with open(path, "wb") as f:
        f.write(f"Pf\n{width} {height}\n-1.0\n".encode("ascii"))
        f.write(np.ascontiguousarray(data).tobytes())


def read_pfm(path):
    """Read a grayscale PFM into an H x W float64 array."""
    with open(path, "rb") as f:
        magic = _read_token(f, "PFM magic")
        if magic == b"PF":
            raise ImageFormatError("color PFM (PF) not supported, want grayscale Pf")
        if magic != b"Pf":
            raise ImageFormatError(f"not a PFM: magic {magic!r}")
        width = _parse_int(_read_token(f, "PFM width"), "PFM width")
        height = _parse_int(_read_token(f, "PFM height"), "PFM height")
        scale_token = _read_token(f, "PFM scale")
        try:
            scale = float(scale_token)
        except ValueError:
            raise ImageFormatError(f"malformed PFM scale: {scale_token!r}") from None
        if scale == 0.0:
            raise ImageFormatError("PFM scale must be nonzero")
        dtype = "<f4" if scale < 0.0 else ">f4"
        raw = _read_exact(f, height * width * 4, "PFM pixel data")
    data = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    # A signalling NaN in the file would warn in the cast; it reads as NaN.
    with np.errstate(invalid="ignore"):
        return data[::-1].astype(np.float64)  # back to top-down


def write_mask(path, mask):
    """Write an H x W boolean array as an SQSMSK1 container."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"mask must have shape (H, W), got {mask.shape}")
    mask = mask.astype(bool)
    height, width = mask.shape
    with open(path, "wb") as f:
        f.write(MASK_MAGIC)
        f.write(bytes([MASK_VERSION]))
        f.write(np.uint32(height).tobytes())
        f.write(np.uint32(width).tobytes())
        f.write(mask.astype(np.uint8).tobytes())


def read_mask(path):
    """Read an SQSMSK1 container into an H x W boolean array."""
    with open(path, "rb") as f:
        magic = _read_exact(f, len(MASK_MAGIC), "mask magic")
        if magic != MASK_MAGIC:
            raise ImageFormatError(f"not a mask file: magic {magic!r}")
        version = _read_exact(f, 1, "mask version")[0]
        if version != MASK_VERSION:
            raise ImageFormatError(f"unsupported mask version {version}")
        height = int(np.frombuffer(_read_exact(f, 4, "mask height"), np.uint32)[0])
        width = int(np.frombuffer(_read_exact(f, 4, "mask width"), np.uint32)[0])
        if height == 0 or width == 0:
            raise ImageFormatError("mask dimensions must be positive")
        raw = _read_exact(f, height * width, "mask data")
    values = np.frombuffer(raw, dtype=np.uint8)
    bad = values > 1
    if bad.any():
        pos = int(np.argmax(bad))
        raise ImageFormatError(f"mask byte at pixel {pos} is {values[pos]}, want 0 or 1")
    return values.reshape(height, width).astype(bool)
