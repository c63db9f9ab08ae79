"""Hand-crafted residual front end: DCT kernel banks, image-to-residual
convolution, and the quantize-and-truncate map. Nothing here is trainable."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import dct_matrix

SUPPORTED_KERNEL_SIZES = (3, 5, 8)


@dataclass(frozen=True)
class QtSpec:
    """Threshold/quantization pair: round(z / q) clipped to [-T, T]."""

    T: int
    q: float

    def __post_init__(self):
        if int(self.T) != self.T or self.T < 1:
            raise ValueError(f"threshold must be a positive integer, got {self.T!r}")
        if not 0 < self.q < np.inf:
            raise ValueError(f"quantization step must be positive and finite, got {self.q!r}")
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "q", float(self.q))

    def label(self) -> str:
        q = self.q
        return f"{self.T}:{int(q) if q == int(q) else q}"


#: Quantize-and-truncate combinations used by the default pipeline.
DEFAULT_QT_SPECS = (QtSpec(4, 1), QtSpec(4, 2), QtSpec(4, 4))


@dataclass(frozen=True)
class KernelBank:
    """k*k unit-Frobenius-norm convolution kernels; kernel a*k + b is pattern (a, b)."""

    size: int
    kernels: np.ndarray  # (size*size, size, size)

    def __post_init__(self):
        k = self.size
        kernels = np.asarray(self.kernels, dtype=np.float64)
        if kernels.shape != (k * k, k, k):
            raise ValueError(f"expected {k * k} kernels of size {k}x{k}")
        norms = np.sqrt((kernels**2).sum(axis=(1, 2)))
        if np.abs(norms - 1.0).max() > 1e-10:
            raise ValueError("kernels must have unit Frobenius norm")
        kernels = kernels.copy()
        kernels.setflags(write=False)
        object.__setattr__(self, "kernels", kernels)


def dct_basis(k: int) -> KernelBank:
    """Orthonormal k x k DCT basis patterns, (k, l) lexicographic: pattern
    (a, b) is the outer product of rows a and b of codec.dct_matrix(k)."""
    if k not in SUPPORTED_KERNEL_SIZES:
        raise ValueError(f"kernel size must be one of {SUPPORTED_KERNEL_SIZES}, got {k}")
    rows = dct_matrix(k)
    kernels = np.einsum("km,ln->klmn", rows, rows).reshape(k * k, k, k)
    return KernelBank(size=k, kernels=kernels)


def convolve_batch(padded: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Cross-correlate a batch of padded planes with every kernel in the bank.

    padded: (n, H+k-1, W+k-1) real, already same-padded; returns the
    (n, H, W, k*k) channels-last responses at stride 1, from one GEMM.
    """
    padded = np.asarray(padded)
    n, hp, wp = padded.shape
    k = bank.size
    h, w = hp - k + 1, wp - k + 1
    sn, sh, sw = padded.strides
    patches = np.lib.stride_tricks.as_strided(
        padded, shape=(n, h, w, k, k), strides=(sn, sh, sw, sh, sw), writeable=False
    )
    kmat = bank.kernels.reshape(k * k, k * k).astype(padded.dtype, copy=False)
    return (patches.reshape(n * h * w, k * k) @ kmat.T).reshape(n, h, w, k * k)


def quantize_truncate(values: np.ndarray, spec: QtSpec) -> np.ndarray:
    """Element-wise round(z / q) clipped to [-T, T].

    Computes and returns in the input's float dtype (float64 for non-float
    input). Rounding is half-away-from-zero, preserving the map's odd
    symmetry.
    """
    z = np.asarray(values)
    if z.dtype.kind != "f":
        z = z.astype(np.float64)
    out = np.divide(z, z.dtype.type(spec.q), out=np.empty_like(z))
    np.add(out, np.copysign(out.dtype.type(0.5), out), out=out)
    np.trunc(out, out=out)
    np.clip(out, -spec.T, spec.T, out=out)
    return out


def front_stage_batch(planes: np.ndarray, bank: KernelBank, specs) -> list:
    """Convolve in float32, then quantize/truncate per spec (spec-major).

    planes: (n, H, W); returns per spec an (n, k*k, H, W) channels-last view
    in the smallest signed int holding +-T, built ops.CHUNK_ROWS pixels at a
    time over ops._chunks' bounds, so no full-size float array is made."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("at least one QtSpec required")
    planes = np.asarray(planes, dtype=np.float32)
    n, h, w = planes.shape
    k = bank.size
    if h < k or w < k:
        raise ValueError(f"plane {h}x{w} is smaller than the {k}x{k} kernels")
    lo = (k - 1) // 2  # same padding: k - 1 - lo after, 4 for k = 8
    padded = np.pad(planes, ((0, 0), (lo, k - 1 - lo), (lo, k - 1 - lo)))
    # -T-1 fits a signed type exactly when all of [-T, T] does.
    groups = [np.empty((n * h * w, k * k), np.min_scalar_type(-spec.T - 1)) for spec in specs]
    for rows, slab in ops._chunks(n, h, w, k, 1):
        residuals = convolve_batch(padded[slab], bank).reshape(-1, k * k)
        for spec, group in zip(specs, groups):
            group[rows] = quantize_truncate(residuals, spec)
    return [group.reshape(n, h, w, k * k).transpose(0, 3, 1, 2) for group in groups]


def parse_qt_specs(text: str):
    """Parse "4:1,4:2,4:4" into QtSpec tuples."""
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        t_str, _, q_str = part.partition(":")
        if not q_str:
            raise ValueError(f"bad Q&T spec {part!r}, expected T:q")
        specs.append(QtSpec(int(t_str), float(q_str)))
    if not specs:
        raise ValueError("empty Q&T spec list")
    return tuple(specs)


# Imported last: micronet's model module reads DEFAULT_QT_SPECS from here.
from .micronet import ops  # noqa: E402
