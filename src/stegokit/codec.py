"""Blockwise 8x8 DCT codec: quality-scaled quantization tables, decompression
to real-valued spatial planes, and linear mapping of coefficient-domain noise
into the spatial domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK = 8

# Standard IJG luminance base table (quality 50).
BASE_LUMA_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: row k holds the k-th basis vector."""
    k = np.arange(n)[:, None].astype(np.float64)
    m = np.arange(n)[None, :].astype(np.float64)
    a = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * m + 1) / (2 * n))
    a[0, :] = np.sqrt(1.0 / n)
    return a


_A8 = dct_matrix(BLOCK)


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DctGrid:
    """Quantized DCT coefficient plane plus its 8x8 quantization table.

    ``coeffs`` keeps coefficients at their plane positions, i.e. element
    (8i+u, 8j+v) is mode (u, v) of block (i, j).
    """

    coeffs: np.ndarray
    quant_table: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs)
        if coeffs.ndim != 2:
            raise ValueError("coeffs must be a 2-D plane")
        h, w = coeffs.shape
        if h % BLOCK or w % BLOCK:
            raise ValueError(f"dimensions must be multiples of {BLOCK}, got {h}x{w}")
        if coeffs.dtype != np.int16:
            if coeffs.min(initial=0) < -32768 or coeffs.max(initial=0) > 32767:
                raise ValueError("coefficients exceed signed 16-bit range")
        qt = np.asarray(self.quant_table)
        if qt.shape != (BLOCK, BLOCK):
            raise ValueError("quant_table must be 8x8")
        if qt.min() < 1 or qt.max() > 255:
            raise ValueError("quant_table entries must lie in [1, 255]")
        object.__setattr__(self, "coeffs", _frozen(coeffs, np.int16))
        object.__setattr__(self, "quant_table", _frozen(qt, np.uint16))


@dataclass(frozen=True)
class ImagePlane:
    """Real-valued spatial plane; values are neither rounded nor clamped."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D plane")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", _frozen(values, np.float64))


@dataclass(frozen=True)
class StegoNoiseGrid:
    """Coefficient-domain +-1 noise plane, same layout as DctGrid.coeffs."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs)
        if coeffs.ndim != 2:
            raise ValueError("coeffs must be a 2-D plane")
        h, w = coeffs.shape
        if h % BLOCK or w % BLOCK:
            raise ValueError(f"dimensions must be multiples of {BLOCK}, got {h}x{w}")
        if coeffs.size and np.abs(coeffs).max() > 1:
            raise ValueError("noise entries must lie in {-1, 0, +1}")
        object.__setattr__(self, "coeffs", _frozen(coeffs, np.int16))


def quant_table_for_quality(qf: int) -> np.ndarray:
    """Scale the base luminance table by the conventional IJG quality rule."""
    if not 1 <= int(qf) <= 100 or int(qf) != qf:
        raise ValueError(f"quality factor must be an integer in [1, 100], got {qf!r}")
    qf = int(qf)
    s = 5000 // qf if qf < 50 else 200 - 2 * qf
    table = (BASE_LUMA_TABLE * s + 50) // 100
    return np.clip(table, 1, 255).astype(np.uint16)


def to_blocks(plane: np.ndarray) -> np.ndarray:
    """(H, W) -> (H/8, W/8, 8, 8) view-order copy of 8x8 blocks."""
    h, w = plane.shape
    return plane.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK).transpose(0, 2, 1, 3)

def from_blocks(blocks: np.ndarray) -> np.ndarray:
    """(H/8, W/8, 8, 8) -> (H, W)."""
    bh, bw = blocks.shape[:2]
    return blocks.transpose(0, 2, 1, 3).reshape(bh * BLOCK, bw * BLOCK)


def dequantize(grid: DctGrid) -> np.ndarray:
    """Element-wise multiply coefficients by the quantization table."""
    blocks = to_blocks(grid.coeffs.astype(np.float64))
    return from_blocks(blocks * grid.quant_table.astype(np.float64))


def idct_blocks(coeff_plane: np.ndarray) -> np.ndarray:
    """Per-block orthonormal 2-D inverse DCT of a real coefficient plane."""
    blocks = to_blocks(np.asarray(coeff_plane, dtype=np.float64))
    spatial = _A8.T @ blocks @ _A8
    return from_blocks(spatial)


def decompress(grid: DctGrid) -> ImagePlane:
    """Dequantize, invert the blockwise DCT, and apply the +128 level shift.

    Output stays real-valued: no rounding and no clamping to [0, 255].
    """
    return ImagePlane(idct_blocks(dequantize(grid)) + 128.0)


def forward_dct_blocks(plane: ImagePlane) -> np.ndarray:
    """Level shift by -128 and apply the per-block orthonormal 2-D DCT.

    Returns the real (unquantized) coefficient plane.
    """
    h, w = plane.values.shape
    if h % BLOCK or w % BLOCK:
        raise ValueError(f"dimensions must be multiples of {BLOCK}, got {h}x{w}")
    blocks = to_blocks(plane.values - 128.0)
    return from_blocks(_A8 @ blocks @ _A8.T)


def noise_to_spatial(noise: StegoNoiseGrid, quant_table: np.ndarray) -> ImagePlane:
    """Map coefficient noise to the spatial domain: IDCT of the dequantized
    noise, with no level shift (the noise is differential)."""
    qt = np.asarray(quant_table, dtype=np.float64)
    if qt.shape != (BLOCK, BLOCK):
        raise ValueError("quant_table must be 8x8")
    blocks = to_blocks(noise.coeffs.astype(np.float64)) * qt
    return ImagePlane(idct_blocks(from_blocks(blocks)))
