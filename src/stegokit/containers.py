"""On-disk formats: the JCG coefficient container and binary PGM covers.
All multi-byte fields are little-endian."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .codec import BLOCK, DctGrid, to_blocks

JCG_MAGIC = b"JCG1"
JCG_HEADER = 12 + 128  # magic, width, height, quant table


def write_jcg(path, grid: DctGrid) -> None:
    """magic, u32 width, u32 height, 64 x u16 quant table, then i16
    coefficients as a raster of 8x8 blocks (blocks row-major, coefficients
    within each block row-major)."""
    blocks = to_blocks(grid.coeffs)
    payload = np.ascontiguousarray(blocks, dtype="<i2").tobytes()
    with open(path, "wb") as fh:
        fh.write(JCG_MAGIC)
        fh.write(struct.pack("<II", grid.width, grid.height))
        fh.write(grid.quant_table.astype("<u2").tobytes())
        fh.write(payload)


def read_jcg(path) -> DctGrid:
    """Inverse of write_jcg. The file must be exactly as long as its header
    says; any other content raises ValueError naming the file."""
    data = Path(path).read_bytes()
    if data[:4] != JCG_MAGIC:
        raise ValueError(f"{path}: not a JCG1 container")
    if len(data) < 12:
        raise ValueError(f"{path}: truncated header ({len(data)} bytes)")
    width, height = struct.unpack_from("<II", data, 4)
    if width % BLOCK or height % BLOCK:
        raise ValueError(f"{path}: dimensions must be multiples of {BLOCK}")
    expected = JCG_HEADER + 2 * width * height
    if len(data) != expected:
        raise ValueError(
            f"{path}: {len(data)} bytes, a {width}x{height} grid needs {expected}"
        )
    qt = np.frombuffer(data, dtype="<u2", count=64, offset=12).reshape(BLOCK, BLOCK)
    coeffs = np.frombuffer(data, dtype="<i2", count=width * height, offset=JCG_HEADER)
    blocks = coeffs.reshape(height // BLOCK, width // BLOCK, BLOCK, BLOCK)
    plane = blocks.transpose(0, 2, 1, 3).reshape(height, width)
    return DctGrid(coeffs=plane, quant_table=qt.astype(np.uint16))


def write_pgm(path, pixels: np.ndarray) -> None:
    """Binary 8-bit PGM (P5)."""
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise ValueError("PGM plane must be 2-D")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("pixel values must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_pgm(path) -> np.ndarray:
    """8-bit binary PGM. Raises ValueError naming the file and the field
    unless the header holds three integers (positive width and height,
    maxval 255) and exactly width*height pixel bytes follow it."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5)")
    # Header: three whitespace-separated tokens after P5, '#' starts a comment.
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    values = []
    for field, token in zip(("width", "height", "maxval"), tokens):
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"{path}: {field}: expected an integer, got {token!r}") from None
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = values
    for field, size in (("width", w), ("height", h)):
        if size < 1:
            raise ValueError(f"{path}: {field}: must be positive, got {size}")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if len(data) - pos != w * h:
        raise ValueError(
            f"{path}: pixels: expected {w * h} bytes for {w}x{h}, found {max(len(data) - pos, 0)}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, offset=pos)
    return pixels.reshape(h, w).copy()
