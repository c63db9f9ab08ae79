"""Empirical verifiers for the two non-learnability arguments: cover-vs-noise
magnitude ratios, coefficient/spatial energy conservation, content-vs-noise
gradient dominance, and the quantize-truncate gradient-nullity scan."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import ImagePlane, StegoNoiseGrid, dequantize, noise_to_spatial
from .residual import QtSpec, quantize_truncate

#: Unit-width bins over [1, 512); bin 0 catches ratios below 1 and the last
#: bin is the overflow. Read-only, shared by every RatioHistogram.
BIN_EDGES = np.concatenate([[0.0], np.arange(1.0, 513.0), [np.inf]])
BIN_EDGES.setflags(write=False)


@dataclass(frozen=True)
class RatioHistogram:
    edges: np.ndarray
    freqs: np.ndarray  # normalized to sum 1
    mean: float  # mean of the accumulated ratio values
    count: int


def ratio_histogram(cover: ImagePlane, noise: ImagePlane) -> RatioHistogram:
    """Distribution of |cover| / round(|noise|) over positions whose rounded
    noise magnitude is at least 1."""
    if cover.values.shape != noise.values.shape:
        raise ValueError("cover and noise shapes differ")
    mag = np.abs(noise.values)
    rounded = np.floor(mag + 0.5)
    keep = rounded >= 1.0
    if not keep.any():
        raise ValueError("empty histogram: no positions with nonzero rounded noise")
    ratios = np.abs(cover.values[keep]) / rounded[keep]
    counts, _ = np.histogram(ratios, bins=BIN_EDGES)
    return RatioHistogram(
        edges=BIN_EDGES,
        freqs=counts / counts.sum(),
        mean=float(ratios.mean()),
        count=int(ratios.size),
    )


def average_ratio_histograms(histograms) -> RatioHistogram:
    """Per-image frequency distributions averaged with equal weight; the mean
    is the equal-weight mean of the per-image means."""
    histograms = list(histograms)
    if not histograms:
        raise ValueError("no histograms to average")
    freqs = np.mean([h.freqs for h in histograms], axis=0)
    return RatioHistogram(
        edges=BIN_EDGES,
        freqs=freqs,
        mean=float(np.mean([h.mean for h in histograms])),
        count=int(sum(h.count for h in histograms)),
    )


@dataclass(frozen=True)
class EnergyAudit:
    spatial_energy: float
    coeff_energy: float
    relative_gap: float


def energy_audit(noise: StegoNoiseGrid, quant_table) -> EnergyAudit:
    """Frobenius energy on both sides of the coefficient-to-spatial map."""
    spatial = noise_to_spatial(noise, quant_table).values
    spatial_energy = float((spatial**2).sum())
    coeff_energy = float((dequantize(noise.coeffs, quant_table) ** 2).sum())
    if coeff_energy == 0.0:
        return EnergyAudit(spatial_energy, coeff_energy, 0.0)
    gap = abs(spatial_energy - coeff_energy) / coeff_energy
    return EnergyAudit(spatial_energy, coeff_energy, gap)


@dataclass(frozen=True)
class DominanceReport:
    median_ratio: float
    content_median: float
    n_patches: int
    n_excluded: int


def _corr_valid(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    k = kernel.shape[0]
    h, w = plane.shape
    sh, sw = plane.strides
    patches = np.lib.stride_tricks.as_strided(
        plane, shape=(h - k + 1, w - k + 1, k, k), strides=(sh, sw, sh, sw), writeable=False
    )
    return patches.reshape(-1, k * k) @ kernel.reshape(-1)


def gradient_dominance(cover: ImagePlane, noise: ImagePlane, kernel: np.ndarray) -> DominanceReport:
    """Per receptive field, |sum(W*cover)| versus |sum(W*noise)|.

    Patches are taken fully inside the plane; those with zero noise response
    are excluded from the ratio statistics.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape[0] != kernel.shape[1]:
        raise ValueError("kernel must be square")
    if kernel.shape[0] > min(cover.values.shape):
        raise ValueError("kernel larger than plane")
    content = np.abs(_corr_valid(cover.values, kernel))
    noise_term = np.abs(_corr_valid(noise.values, kernel))
    keep = noise_term > 0
    excluded = int(keep.size - keep.sum())
    if not keep.any():
        return DominanceReport(np.inf, float(np.median(content)), 0, excluded)
    return DominanceReport(
        median_ratio=float(np.median(content[keep] / noise_term[keep])),
        content_median=float(np.median(content[keep])),
        n_patches=int(keep.sum()),
        n_excluded=excluded,
    )


def qt_discontinuities(spec: QtSpec) -> np.ndarray:
    """Jump locations of the quantize-truncate staircase: q*(k - 0.5) for
    k = -T+1 .. T."""
    ks = np.arange(-spec.T + 1, spec.T + 1, dtype=np.float64)
    return spec.q * (ks - 0.5)


def qt_finite_difference(z, spec: QtSpec, h: float) -> np.ndarray:
    """Central finite difference of quantize_truncate at z."""
    z = np.asarray(z, dtype=np.float64)
    hi = quantize_truncate(z + h, spec).astype(np.float64)
    lo = quantize_truncate(z - h, spec).astype(np.float64)
    return (hi - lo) / (2.0 * h)


def qt_gradient_scan(
    spec: QtSpec, n_points: int = 100_000, h: float = 1e-4, seed: int = 0
) -> float:
    """Fraction of nonzero central finite differences of quantize_truncate
    over uniform samples of [-(T+2)q, (T+2)q], excluding points within 10h of
    a discontinuity."""
    if h <= 0:
        raise ValueError("h must be positive")
    rng = np.random.default_rng(seed)
    limit = (spec.T + 2) * spec.q
    jumps = qt_discontinuities(spec)
    samples = np.empty(0)
    while samples.size < n_points:
        z = rng.uniform(-limit, limit, size=2 * (n_points - samples.size) + 16)
        ok = np.abs(z[:, None] - jumps[None, :]).min(axis=1) > 10.0 * h
        samples = np.concatenate([samples, z[ok]])
    samples = samples[:n_points]
    fd = qt_finite_difference(samples, spec, h)
    return float(np.count_nonzero(fd) / n_points)
