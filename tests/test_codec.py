import numpy as np
import pytest
from scipy.fft import dctn, idctn

from stegokit import codec


def random_grid(rng, blocks_h=2, blocks_w=3, qf=75):
    coeffs = rng.integers(-40, 41, size=(8 * blocks_h, 8 * blocks_w)).astype(np.int16)
    return codec.DctGrid(coeffs=coeffs, quant_table=codec.quant_table_for_quality(qf))


class TestQuantTable:
    def test_quality_50_is_base_table(self):
        assert np.array_equal(codec.quant_table_for_quality(50), codec.BASE_LUMA_TABLE)

    def test_quality_75_first_entry(self):
        # floor((16*50 + 50)/100) = 8
        assert codec.quant_table_for_quality(75)[0, 0] == 8

    def test_quality_100_all_ones(self):
        assert (codec.quant_table_for_quality(100) == 1).all()

    def test_low_quality_clamped_to_255(self):
        assert codec.quant_table_for_quality(1).max() == 255

    @pytest.mark.parametrize("qf", [0, 101, -5, 2.5])
    def test_out_of_range_rejected(self, qf):
        with pytest.raises(ValueError):
            codec.quant_table_for_quality(qf)

    def test_ijg_rule_against_direct_formula(self):
        for qf in (1, 10, 49, 50, 51, 75, 90, 99, 100):
            s = 5000 // qf if qf < 50 else 200 - 2 * qf
            expect = np.clip((codec.BASE_LUMA_TABLE * s + 50) // 100, 1, 255)
            assert np.array_equal(codec.quant_table_for_quality(qf), expect)


class TestDctMatrix:
    def test_orthonormal(self):
        a = codec.dct_matrix(8)
        assert np.abs(a @ a.T - np.eye(8)).max() < 1e-12

    def test_basis_blocks_gram_is_identity(self):
        # all 64 outer-product basis blocks, pairwise inner products
        a = codec.dct_matrix(8)
        basis = np.einsum("km,ln->klmn", a, a).reshape(64, 64)
        gram = basis @ basis.T
        assert np.abs(gram - np.eye(64)).max() < 1e-10

    def test_matches_scipy_orthonormal_dct(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(8, 8))
        ours = codec.dct_matrix(8) @ block @ codec.dct_matrix(8).T
        assert np.allclose(ours, dctn(block, norm="ortho"), atol=1e-12)


class TestDecompress:
    def test_all_zero_coeffs_give_constant_128(self):
        grid = codec.DctGrid(
            coeffs=np.zeros((16, 16), np.int16),
            quant_table=codec.quant_table_for_quality(75),
        )
        assert np.allclose(codec.decompress(grid).values, 128.0)

    def test_dc_only_block(self):
        # coeff(0,0)=8 with q=16: DC basis value 1/8, so 128 + 8*16/8 = 144
        coeffs = np.zeros((8, 8), np.int16)
        coeffs[0, 0] = 8
        grid = codec.DctGrid(coeffs=coeffs, quant_table=np.full((8, 8), 16, np.uint16))
        assert np.allclose(codec.decompress(grid).values, 144.0)

    def test_roundtrip_recovers_dequantized_coefficients(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng)
        plane = codec.decompress(grid)
        recovered = codec.forward_dct_blocks(plane)
        assert np.allclose(recovered, codec.dequantize(grid.coeffs, grid.quant_table), atol=1e-9)

    def test_dequantize_multiplies_each_block_by_the_table(self):
        grid = random_grid(np.random.default_rng(6))
        blocks = codec.to_blocks(grid.coeffs.astype(np.float64)) * grid.quant_table
        deq = codec.dequantize(grid.coeffs, grid.quant_table)
        assert deq.dtype == np.float64
        assert np.array_equal(deq, codec.from_blocks(blocks))
        with pytest.raises(ValueError, match="8x8"):
            codec.dequantize(grid.coeffs, grid.quant_table[:4, :4])

    def test_matches_scipy_blockwise_idct(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng)
        deq = codec.dequantize(grid.coeffs, grid.quant_table)
        expect = np.zeros_like(deq)
        for i in range(0, deq.shape[0], 8):
            for j in range(0, deq.shape[1], 8):
                expect[i : i + 8, j : j + 8] = idctn(deq[i : i + 8, j : j + 8], norm="ortho")
        assert np.allclose(codec.decompress(grid).values, expect + 128.0, atol=1e-9)


class TestForwardDct:
    def test_constant_128_gives_zero_coefficients(self):
        plane = codec.ImagePlane(np.full((16, 24), 128.0))
        assert np.abs(codec.forward_dct_blocks(plane)).max() < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 255, size=(24, 16))
        plane = codec.ImagePlane(values)
        coeffs = codec.forward_dct_blocks(plane)
        pix_energy = ((values - 128.0) ** 2).sum()
        coeff_energy = (coeffs**2).sum()
        assert abs(pix_energy - coeff_energy) <= 1e-9 * coeff_energy

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            codec.forward_dct_blocks(codec.ImagePlane(np.zeros((12, 16))))


class TestNoiseToSpatial:
    def test_zero_noise_gives_zero_plane(self):
        noise = codec.StegoNoiseGrid(np.zeros((16, 16), np.int16))
        out = codec.noise_to_spatial(noise, codec.quant_table_for_quality(75))
        assert np.abs(out.values).max() == 0.0

    def test_energy_conservation_random_sweep(self):
        rng = np.random.default_rng(4)
        qt = codec.quant_table_for_quality(75).astype(np.float64)
        for _ in range(50):
            coeffs = rng.integers(-1, 2, size=(16, 16)).astype(np.int16)
            noise = codec.StegoNoiseGrid(coeffs)
            spatial = codec.noise_to_spatial(noise, qt).values
            blocks = codec.to_blocks(coeffs.astype(np.float64)) * qt
            coeff_energy = (blocks**2).sum()
            assert abs((spatial**2).sum() - coeff_energy) <= 1e-9 * max(coeff_energy, 1.0)

    def test_single_dc_unit_noise_spreads_uniformly(self):
        # +1 at block position (0,0) with q=16: every pixel gets 16/8 = 2
        coeffs = np.zeros((8, 8), np.int16)
        coeffs[0, 0] = 1
        out = codec.noise_to_spatial(
            codec.StegoNoiseGrid(coeffs), np.full((8, 8), 16, np.uint16)
        )
        assert np.allclose(out.values, 2.0)
        assert abs((out.values**2).sum() - 256.0) < 1e-9

    def test_linearity_of_decompression(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng)
        noise_coeffs = rng.integers(-1, 2, size=grid.coeffs.shape).astype(np.int16)
        noise = codec.StegoNoiseGrid(noise_coeffs)
        stego = codec.DctGrid(
            coeffs=grid.coeffs + noise_coeffs, quant_table=grid.quant_table
        )
        lhs = codec.decompress(stego).values
        rhs = codec.decompress(grid).values + codec.noise_to_spatial(
            noise, grid.quant_table
        ).values
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        noise = codec.StegoNoiseGrid(np.zeros((8, 8), np.int16))
        with pytest.raises(ValueError):
            codec.noise_to_spatial(noise, np.ones((4, 4)))


class TestInvariants:
    def test_grid_dimensions_must_be_multiples_of_8(self):
        with pytest.raises(ValueError):
            codec.DctGrid(coeffs=np.zeros((10, 16), np.int16), quant_table=np.ones((8, 8)))

    def test_quant_table_range_enforced(self):
        with pytest.raises(ValueError):
            codec.DctGrid(coeffs=np.zeros((8, 8), np.int16), quant_table=np.zeros((8, 8)))
        with pytest.raises(ValueError):
            codec.DctGrid(
                coeffs=np.zeros((8, 8), np.int16), quant_table=np.full((8, 8), 300)
            )

    def test_coefficients_must_fit_int16(self):
        with pytest.raises(ValueError):
            codec.DctGrid(
                coeffs=np.full((8, 8), 40000, np.int64), quant_table=np.ones((8, 8))
            )

    def test_plane_values_must_be_finite(self):
        values = np.zeros((8, 8))
        values[0, 0] = np.inf
        with pytest.raises(ValueError):
            codec.ImagePlane(values)

    def test_noise_entries_limited_to_unit_magnitude(self):
        with pytest.raises(ValueError):
            codec.StegoNoiseGrid(np.full((8, 8), 2, np.int16))

    def test_values_frozen_after_construction(self):
        plane = codec.ImagePlane(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            plane.values[0, 0] = 1.0
