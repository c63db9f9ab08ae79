import numpy as np
import pytest

from stegokit import codec, propositions, stego_sim
from stegokit.propositions import (
    average_ratio_histograms,
    energy_audit,
    gradient_dominance,
    qt_discontinuities,
    qt_finite_difference,
    qt_gradient_scan,
    ratio_histogram,
)
from stegokit.residual import DEFAULT_QT_SPECS, QtSpec


class TestRatioHistogram:
    def test_constant_example(self):
        cover = codec.ImagePlane(np.full((8, 8), 120.0))
        noise = codec.ImagePlane(np.full((8, 8), 1.4))
        hist = ratio_histogram(cover, noise)
        assert np.isclose(hist.mean, 120.0)
        assert hist.count == 64
        assert np.isclose(hist.freqs.sum(), 1.0)
        # single occupied bin at [120, 121)
        occupied = np.flatnonzero(hist.freqs)
        assert occupied.size == 1
        assert hist.edges[occupied[0]] == 120.0

    def test_subunit_noise_rounds_to_empty(self):
        cover = codec.ImagePlane(np.full((8, 8), 100.0))
        noise = codec.ImagePlane(np.full((8, 8), 0.4))
        with pytest.raises(ValueError, match="empty histogram"):
            ratio_histogram(cover, noise)

    def test_scale_covariance(self):
        rng = np.random.default_rng(0)
        cover_vals = rng.uniform(0, 255, (16, 16))
        noise = codec.ImagePlane(rng.normal(0, 2.0, (16, 16)))
        base = ratio_histogram(codec.ImagePlane(cover_vals), noise)
        scaled = ratio_histogram(codec.ImagePlane(3.0 * cover_vals), noise)
        assert np.isclose(scaled.mean, 3.0 * base.mean)

    def test_rounding_excludes_half_open(self):
        cover = codec.ImagePlane(np.full((8, 8), 10.0))
        # |n|=0.5 rounds (half away from zero) to 1 -> included
        noise = codec.ImagePlane(np.full((8, 8), 0.5))
        hist = ratio_histogram(cover, noise)
        assert hist.count == 64
        assert np.isclose(hist.mean, 10.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ratio_histogram(
                codec.ImagePlane(np.zeros((8, 8))), codec.ImagePlane(np.zeros((16, 8)))
            )

    def test_average_of_histograms(self):
        cover_a = codec.ImagePlane(np.full((8, 8), 10.0))
        cover_b = codec.ImagePlane(np.full((8, 8), 30.0))
        noise = codec.ImagePlane(np.full((8, 8), 1.0))
        avg = average_ratio_histograms(
            [ratio_histogram(cover_a, noise), ratio_histogram(cover_b, noise)]
        )
        assert np.isclose(avg.mean, 20.0)
        assert np.isclose(avg.freqs.sum(), 1.0)
        assert avg.count == 128


class TestEnergyAudit:
    def test_zero_noise(self):
        audit = energy_audit(
            codec.StegoNoiseGrid(np.zeros((8, 8), np.int16)),
            codec.quant_table_for_quality(75),
        )
        assert audit == propositions.EnergyAudit(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("pos", [(0, 0), (3, 5), (7, 7)])
    def test_single_unit_noise_energy_is_q_squared(self, pos):
        coeffs = np.zeros((8, 8), np.int16)
        coeffs[pos] = -1
        qt = codec.quant_table_for_quality(75)
        audit = energy_audit(codec.StegoNoiseGrid(coeffs), qt)
        q = float(qt[pos])
        assert np.isclose(audit.coeff_energy, q * q)
        assert np.isclose(audit.spatial_energy, q * q)
        assert audit.relative_gap < 1e-9

    def test_random_sweep(self):
        rng = np.random.default_rng(1)
        qt = codec.quant_table_for_quality(75)
        for _ in range(200):
            coeffs = rng.integers(-1, 2, size=(16, 16)).astype(np.int16)
            audit = energy_audit(codec.StegoNoiseGrid(coeffs), qt)
            assert audit.relative_gap < 1e-9


class TestGradientDominance:
    def unit_kernel(self, seed=0, k=5):
        kern = np.random.default_rng(seed).normal(size=(k, k))
        return kern / np.sqrt((kern**2).sum())

    def test_zero_noise_excluded_everywhere(self):
        rng = np.random.default_rng(2)
        cover = codec.ImagePlane(rng.uniform(0, 255, (16, 16)))
        noise = codec.ImagePlane(np.zeros((16, 16)))
        report = gradient_dominance(cover, noise, self.unit_kernel())
        assert report.n_patches == 0
        assert report.median_ratio == np.inf
        assert report.n_excluded == 12 * 12

    def test_zero_mean_kernel_kills_constant_content(self):
        kern = self.unit_kernel(seed=3)
        kern -= kern.mean()
        kern /= np.sqrt((kern**2).sum())
        cover = codec.ImagePlane(np.full((16, 16), 77.0))
        rng = np.random.default_rng(3)
        noise = codec.ImagePlane(rng.normal(0, 1.0, (16, 16)))
        report = gradient_dominance(cover, noise, kern)
        assert report.content_median < 1e-9

    def test_content_dominates_on_textures(self):
        pix = stego_sim.synthetic_cover(64, np.random.default_rng(4))
        grid = stego_sim.prepare_cover(pix, 75)
        _, noise_grid = stego_sim.embed(grid, stego_sim.EmbedSpec(rate=0.2, seed=4))
        cover_plane = codec.decompress(grid)
        noise_plane = codec.noise_to_spatial(noise_grid, grid.quant_table)
        report = gradient_dominance(cover_plane, noise_plane, self.unit_kernel(seed=5))
        assert report.median_ratio > 1.0
        assert report.n_patches > 0

    def test_kernel_larger_than_plane_rejected(self):
        with pytest.raises(ValueError):
            gradient_dominance(
                codec.ImagePlane(np.zeros((4, 4))),
                codec.ImagePlane(np.zeros((4, 4))),
                np.ones((5, 5)),
            )


class TestQtGradientScan:
    def test_discontinuity_locations(self):
        spec = QtSpec(4, 2)
        jumps = qt_discontinuities(spec)
        assert jumps.min() == -7.0 and jumps.max() == 7.0
        assert len(jumps) == 8

    @pytest.mark.parametrize("spec", DEFAULT_QT_SPECS)
    def test_fraction_zero_off_discontinuities(self, spec):
        assert qt_gradient_scan(spec, n_points=20_000, h=1e-4, seed=0) == 0.0

    def test_straddling_point_shows_delta_spike(self):
        # step of height 1 seen through a 2h window: (1 - 0)/0.2 = 5
        fd = qt_finite_difference(np.array([0.5]), QtSpec(4, 1), h=0.1)
        assert np.isclose(fd[0], 5.0)
        assert np.isclose(fd[0], 1.0 / (2 * 0.1))

    def test_saturated_region_has_zero_gradient(self):
        spec = QtSpec(4, 1)
        z = np.linspace(4.6, 10.0, 100)
        assert np.abs(qt_finite_difference(z, spec, 1e-3)).max() == 0.0

    def test_bad_h_rejected(self):
        with pytest.raises(ValueError):
            qt_gradient_scan(QtSpec(4, 1), n_points=10, h=0.0)
