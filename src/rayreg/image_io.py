"""Image interchange: CSV of reals, raw RRM1 binary, and P5 PGM masks.

Formats are chosen for zero-dependency, bit-exact round trips:

* CSV: one image row per line, comma-separated ``repr`` floats (shortest
  exact decimal for float64).
* RRM1: 4-byte magic ``RRM1``, two little-endian uint32 (rows, cols),
  then rows*cols little-endian float64, row-major.
* PGM: binary P5, maxval 255, anomaly pixels written as 255.
* Mask CSV: one mask row per line, ``0``/``1`` separated by commas.
"""

from __future__ import annotations

import io
import os
import re
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "read_image",
    "read_image_csv",
    "write_image_csv",
    "read_image_rrm",
    "write_image_rrm",
    "write_mask_pgm",
    "read_mask_pgm",
    "write_mask_csv",
]

_MAGIC = b"RRM1"

# Netpbm P5 header: magic, width, height and maxval, separated by whitespace
# and ``#`` comments (which run to the end of the line), then exactly one
# whitespace byte before the raster.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")
_PGM_MAX_DIM = 2**31 - 1  # Netpbm's limit on a width or height


def _check_2d(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    return arr


def write_image_csv(arr, path) -> None:
    arr = _check_2d(arr)
    with open(path, "w", encoding="ascii") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_image_csv(path, digest=None) -> np.ndarray:
    """Read the file's bytes once; ``digest``, a hashlib object, is updated
    with them before they are parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if digest is not None:
        digest.update(data)
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    rows = []
    # Universal newlines, as a text-mode open of the file would read it.
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty image")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"{path}: line {lineno} has {len(row)} values, expected {width}")
    return np.asarray(rows, dtype=np.float64)


def write_image_rrm(arr, path) -> None:
    arr = _check_2d(arr)
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_image_rrm(path, digest=None) -> np.ndarray:
    """Read the pixels straight into the returned array, with no copy of the
    file; ``digest``, a hashlib object, is updated with the header and then
    the pixel bytes, which together are the whole file."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12 or header[:4] != _MAGIC:
            raise ValueError(f"{path}: not an RRM1 image (bad magic)")
        rows, cols = struct.unpack("<II", header[4:12])
        size = os.fstat(fh.fileno()).st_size
        expected = 12 + rows * cols * 8
        if size == expected:
            pixels = np.empty((rows, cols), dtype="<f8")
            size = 12 + fh.readinto(pixels)
    if size != expected:
        raise ValueError(f"{path}: truncated RRM1 image ({size} bytes, expected {expected})")
    if digest is not None:
        digest.update(header)
        digest.update(pixels)
    return pixels


def read_image(path, digest=None) -> np.ndarray:
    """Dispatch on extension: ``.csv`` text, anything else RRM1 binary.

    The file is read once.  When ``digest`` (a hashlib object) is given, it
    is updated with exactly the bytes read, in file order, so it hashes
    what was parsed even if the file changes afterwards.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"image file not found: {path}")
    if path.suffix.lower() == ".csv":
        return read_image_csv(path, digest)
    return read_image_rrm(path, digest)


def _mask_bytes(mask) -> np.ndarray:
    """A 2-D mask as one byte per pixel, 1 where it is nonzero and 0 elsewhere."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    return mask.astype(bool, copy=False).view(np.uint8)


def write_mask_pgm(mask, path) -> None:
    """Nonzero pixels as 255, the rest as 0: one pass, negating the bool
    mask's bytes (1 wraps to 255) into a C-ordered raster."""
    payload = np.negative(_mask_bytes(mask), order="C")
    rows, cols = payload.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(payload)


def read_mask_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: not a binary P5 PGM")
    # A number of more than ten digits exceeds every field's limit, and
    # int() refuses one of thousands.
    cols, rows, maxval = (int(tok) if len(tok) <= 10 else -1 for tok in header.groups())
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255")
    if not (0 <= cols <= _PGM_MAX_DIM and 0 <= rows <= _PGM_MAX_DIM):
        raise ValueError(f"{path}: PGM dimensions exceed {_PGM_MAX_DIM}")
    size = rows * cols
    have = len(data) - header.end()
    if have < size:
        raise ValueError(f"{path}: truncated PGM ({have} pixel bytes, expected {size})")
    pixels = np.frombuffer(data, dtype=np.uint8, count=size, offset=header.end())
    return pixels.reshape(rows, cols) > 0


def write_mask_csv(mask, path) -> None:
    """Nonzero pixels as ``1``, the rest as ``0``, built in one pass: each
    pixel is the little-endian uint16 ``0x2C30 + m``, the bytes ``"0,"`` or
    ``"1,"``, and each row's last comma then becomes a newline."""
    buf = np.add(_mask_bytes(mask), np.uint16(0x2C30), dtype="<u2", order="C")
    buf.view(np.uint8)[:, -1] = ord("\n")
    Path(path).write_bytes(buf)
