"""Hand-crafted residual front end: DCT kernel banks, image-to-residual
convolution, and the quantize-and-truncate map. Nothing here is trainable."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPPORTED_KERNEL_SIZES = (3, 5, 8)


@dataclass(frozen=True)
class QtSpec:
    """Threshold/quantization pair: round(z / q) clipped to [-T, T]."""

    T: int
    q: float

    def __post_init__(self):
        if int(self.T) != self.T or self.T < 1:
            raise ValueError(f"threshold must be a positive integer, got {self.T!r}")
        if not self.q > 0:
            raise ValueError(f"quantization step must be positive, got {self.q!r}")
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "q", float(self.q))

    def label(self) -> str:
        q = self.q
        return f"{self.T}:{int(q) if q == int(q) else q}"


#: Quantize-and-truncate combinations used by the default pipeline.
DEFAULT_QT_SPECS = (QtSpec(4, 1), QtSpec(4, 2), QtSpec(4, 4))


@dataclass(frozen=True)
class KernelBank:
    """k*k unit-Frobenius-norm convolution kernels with their (k, l) labels."""

    size: int
    kernels: np.ndarray  # (size*size, size, size)
    labels: tuple

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
        object.__setattr__(self, "labels", tuple(self.labels))


def dct_basis(k: int) -> KernelBank:
    """Orthonormal k x k DCT basis patterns, (k, l) lexicographic.

    Size 8 uses the w_0 = 1/sqrt(2), w_k = 1 weights with divisor 4; sizes 3
    and 5 use w_0 = 1, w_k = sqrt(2) with divisor k. Both conventions yield
    the same orthonormal separable cosine family.
    """
    if k not in SUPPORTED_KERNEL_SIZES:
        raise ValueError(f"kernel size must be one of {SUPPORTED_KERNEL_SIZES}, got {k}")
    idx = np.arange(k).astype(np.float64)
    if k == 8:
        w = np.ones(k)
        w[0] = 1.0 / np.sqrt(2.0)
        rows = (w[:, None] / 2.0) * np.cos(np.pi * idx[:, None] * (2 * idx[None, :] + 1) / (2 * k))
    else:
        w = np.full(k, np.sqrt(2.0))
        w[0] = 1.0
        rows = (w[:, None] / np.sqrt(k)) * np.cos(
            np.pi * idx[:, None] * (2 * idx[None, :] + 1) / (2 * k)
        )
    kernels = np.einsum("km,ln->klmn", rows, rows).reshape(k * k, k, k)
    labels = tuple((a, b) for a in range(k) for b in range(k))
    return KernelBank(size=k, kernels=kernels, labels=labels)


def _pad_amounts(k: int) -> tuple[int, int]:
    """Same-padding split: symmetric for odd k; 3 left/top, 4 right/bottom for k=8."""
    if k % 2:
        return (k - 1) // 2, (k - 1) // 2
    return k // 2 - 1, k // 2


def convolve_batch(planes: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Cross-correlate a batch of planes with every kernel in the bank.

    planes: (n, H, W) real; returns (n, k*k, H, W) with same-padding, stride 1.
    """
    planes = np.asarray(planes)
    n, h, w = planes.shape
    k = bank.size
    if h < k or w < k:
        raise ValueError(f"plane {h}x{w} is smaller than the {k}x{k} kernels")
    lo, hi = _pad_amounts(k)
    padded = np.pad(planes, ((0, 0), (lo, hi), (lo, hi)))
    sn, sh, sw = padded.strides
    patches = np.lib.stride_tricks.as_strided(
        padded, shape=(n, h, w, k, k), strides=(sn, sh, sw, sh, sw), writeable=False
    )
    kmat = bank.kernels.reshape(k * k, k * k).astype(planes.dtype, copy=False)
    # Per-image GEMM keeps the (n, k*k, H, W) result C-contiguous without a
    # transpose pass.
    out = np.empty((n, k * k, h, w), dtype=planes.dtype)
    for i in range(n):
        cols = patches[i].reshape(h * w, k * k)
        out[i] = (kmat @ cols.T).reshape(k * k, h, w)
    return out


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


def front_stage_batch(planes: np.ndarray, bank: KernelBank, specs, dtype=np.float32) -> list:
    """Convolve once, then quantize/truncate per spec (spec-major ordering).

    planes: (n, H, W); returns one (n, k*k, H, W) array per spec in ``dtype``,
    ready to feed the learnable stage.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("at least one QtSpec required")
    residuals = convolve_batch(np.asarray(planes, dtype=dtype), bank)
    return [quantize_truncate(residuals, spec) for spec in specs]


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
