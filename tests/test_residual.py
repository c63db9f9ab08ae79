import numpy as np
import pytest

from stegokit import residual
from stegokit.codec import dct_matrix
from stegokit.micronet import HybridConfig, build_hybrid_model, ops
from stegokit.residual import (
    DEFAULT_QT_SPECS,
    KernelBank,
    QtSpec,
    convolve_batch,
    dct_basis,
    front_stage_batch,
    parse_qt_specs,
    quantize_truncate,
)


def naive_same_padding_corr(plane, kernel):
    """Independent nested-loop reference for same-padded cross-correlation."""
    k = kernel.shape[0]
    lo = (k - 1) // 2 if k % 2 else k // 2 - 1
    h, w = plane.shape
    out = np.zeros_like(plane, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for u in range(k):
                for v in range(k):
                    r, c = i + u - lo, j + v - lo
                    if 0 <= r < h and 0 <= c < w:
                        acc += kernel[u, v] * plane[r, c]
            out[i, j] = acc
    return out


def same_pad(planes, k):
    """(n, H, W) -> (n, H+k-1, W+k-1), zero-padded as naive_same_padding_corr
    reads it: (k-1)/2 on each side for odd k, 3 before and 4 after for k=8."""
    lo = (k - 1) // 2 if k % 2 else k // 2 - 1
    return np.pad(planes, ((0, 0), (lo, k - 1 - lo), (lo, k - 1 - lo)))


def convolve_one(plane, bank):
    """Residual maps (k*k, H, W) of one plane, through the batched path."""
    padded = same_pad(np.asarray(plane)[None], bank.size)
    return convolve_batch(padded, bank)[0].transpose(2, 0, 1)


def staircase_oracle(z, spec):
    """Literal interval-membership staircase; half-open ends mirror the
    half-away-from-zero rounding."""
    y = np.asarray(z, dtype=np.float64) / spec.q
    out = np.zeros(y.shape, dtype=np.int64)
    T = spec.T
    for k in range(-T, T + 1):
        if k == -T:
            member = y <= -T + 0.5
        elif k < 0:
            member = (y > k - 0.5) & (y <= k + 0.5)
        elif k == 0:
            member = (y > -0.5) & (y < 0.5)
        elif k < T:
            member = (y >= k - 0.5) & (y < k + 0.5)
        else:
            member = y >= T - 0.5
        out[member] = k
    return out


class TestDctBasis:
    def test_dc_kernel_is_constant(self):
        assert np.allclose(dct_basis(5).kernels[0], 1.0 / 5.0)
        assert np.allclose(dct_basis(8).kernels[0], 1.0 / 8.0)
        assert np.allclose(dct_basis(3).kernels[0], 1.0 / 3.0)

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_gram_matrix_is_identity(self, k):
        bank = dct_basis(k)
        flat = bank.kernels.reshape(k * k, k * k)
        assert np.abs(flat @ flat.T - np.eye(k * k)).max() < 1e-10

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_bank_counts_and_labels(self, k):
        # Kernel a*k + b is pattern (a, b): DC first, rows of the DCT along a.
        bank = dct_basis(k)
        assert bank.kernels.shape == (k * k, k, k)
        rows = dct_matrix(k)
        assert np.array_equal(bank.kernels[1], np.outer(rows[0], rows[1]))
        assert np.array_equal(bank.kernels[k], np.outer(rows[1], rows[0]))
        assert np.array_equal(bank.kernels[-1], np.outer(rows[k - 1], rows[k - 1]))

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_patterns_are_outer_products_of_the_codec_dct(self, k):
        # One DCT-II for the codec's blocks and the front end's kernels.
        rows = dct_matrix(k)
        bank = dct_basis(k)
        for a in range(k):
            for b in range(k):
                assert np.array_equal(bank.kernels[a * k + b], np.outer(rows[a], rows[b])), (a, b)

    @pytest.mark.parametrize("k", [2, 4, 7, 16])
    def test_unsupported_size_rejected(self, k):
        with pytest.raises(ValueError):
            dct_basis(k)

    def test_non_unit_norm_kernels_rejected(self):
        with pytest.raises(ValueError):
            KernelBank(size=3, kernels=np.ones((9, 3, 3)))


class TestConvolveResiduals:
    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        plane = rng.normal(size=(16, 16))
        bank = dct_basis(5)
        maps = convolve_one(plane, bank)
        for idx in (0, 7, 24):
            expect = naive_same_padding_corr(plane, bank.kernels[idx])
            assert np.abs(maps[idx] - expect).max() < 1e-10

    def test_matches_naive_reference_even_kernel(self):
        rng = np.random.default_rng(1)
        plane = rng.normal(size=(16, 16))
        bank = dct_basis(8)
        maps = convolve_one(plane, bank)
        for idx in (0, 13, 63):
            expect = naive_same_padding_corr(plane, bank.kernels[idx])
            assert np.abs(maps[idx] - expect).max() < 1e-10

    def test_impulse_reveals_flipped_kernel(self):
        plane = np.zeros((11, 11))
        plane[5, 5] = 1.0
        bank = dct_basis(5)
        maps = convolve_one(plane, bank)
        for idx in (3, 12):
            window = maps[idx, 3:8, 3:8]
            assert np.allclose(window, np.flip(bank.kernels[idx]), atol=1e-12)

    def test_constant_plane_zero_mean_kernels_interior(self):
        maps = convolve_one(np.full((12, 12), 100.0), dct_basis(5))
        interior = maps[1:, 2:-2, 2:-2]  # all non-DC kernels
        assert np.abs(interior).max() < 1e-9

    def test_output_dimensions_match_input(self):
        for k in (3, 5, 8):
            maps = convolve_one(np.zeros((24, 16)), dct_basis(k))
            assert maps.shape == (k * k, 24, 16)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 10))
        y = rng.normal(size=(10, 10))
        bank = dct_basis(3)
        lhs = convolve_one(2.0 * x + 3.0 * y, bank)
        rhs = 2.0 * convolve_one(x, bank) + 3.0 * convolve_one(y, bank)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_plane_smaller_than_kernel_rejected(self):
        with pytest.raises(ValueError, match="smaller than the 5x5 kernels"):
            front_stage_batch(np.zeros((1, 4, 4)), dct_basis(5), DEFAULT_QT_SPECS)
        with pytest.raises(ValueError):
            convolve_batch(np.zeros((1, 3, 8)), dct_basis(5))  # a slab, not padded enough


class TestQuantizeTruncate:
    def test_spec_examples(self):
        assert quantize_truncate(np.array([3.7]), QtSpec(4, 2))[0] == 2
        assert quantize_truncate(np.array([100.0]), QtSpec(4, 1))[0] == 4
        assert quantize_truncate(np.array([-100.0]), QtSpec(4, 1))[0] == -4

    def test_half_away_from_zero(self):
        spec = QtSpec(4, 1)
        z = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5])
        assert np.array_equal(quantize_truncate(z, spec), [1, -1, 2, -2, 3, -3])

    def test_staircase_oracle_agreement(self):
        for q in (1.0, 2.0, 4.0, 1.5):
            spec = QtSpec(4, q)
            z = np.linspace(-10, 10, 40001)
            assert np.array_equal(
                quantize_truncate(z, spec).astype(np.int64), staircase_oracle(z, spec)
            )

    def test_odd_symmetry(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-12, 12, size=5000)
        z = z[np.abs(np.abs(z * 2) - np.round(np.abs(z * 2))) > 1e-9]  # off boundaries
        for spec in DEFAULT_QT_SPECS:
            assert np.array_equal(
                quantize_truncate(-z, spec), -quantize_truncate(z, spec)
            )

    def test_monotonic(self):
        z = np.sort(np.random.default_rng(4).uniform(-15, 15, size=3000))
        for spec in DEFAULT_QT_SPECS:
            out = quantize_truncate(z, spec).astype(np.int64)
            assert (np.diff(out) >= 0).all()

    def test_idempotent_with_unit_step(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-20, 20, size=1000)
        spec = QtSpec(4, 2)
        once = quantize_truncate(z, spec)
        again = quantize_truncate(once.astype(np.float64), QtSpec(4, 1))
        assert np.array_equal(once, again)

    def test_f32_and_f64_inputs_agree(self):
        rng = np.random.default_rng(6)
        z = (rng.normal(size=(3, 4, 8, 8)) * 6).astype(np.float32)
        for spec in DEFAULT_QT_SPECS + (QtSpec(4, 1.5),):
            single = quantize_truncate(z, spec)
            double = quantize_truncate(z.astype(np.float64), spec)
            assert single.dtype == np.float32 and double.dtype == np.float64
            assert np.array_equal(single, double)

    def test_non_float_input_computed_in_f64(self):
        out = quantize_truncate(np.array([3, -3, 9], dtype=np.int16), QtSpec(4, 2))
        assert out.dtype == np.float64
        assert np.array_equal(out, [2, -2, 4])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            QtSpec(0, 1)
        with pytest.raises(ValueError):
            QtSpec(4, 0)
        with pytest.raises(ValueError):
            QtSpec(4, -1.0)


class TestFrontStage:
    def test_default_config_shapes_and_range(self):
        rng = np.random.default_rng(7)
        planes = rng.uniform(0, 255, size=(1, 256, 256))
        groups = front_stage_batch(planes, dct_basis(5), DEFAULT_QT_SPECS)
        assert len(groups) == 3
        for group in groups:
            assert group.shape == (1, 25, 256, 256)
            assert group.dtype == np.int8
            assert group.min() >= -4 and group.max() <= 4

    def test_constant_plane_dc_saturates_interior(self):
        planes = np.full((1, 32, 32), 128.0)
        groups = front_stage_batch(planes, dct_basis(5), DEFAULT_QT_SPECS)
        for spec, group in zip(DEFAULT_QT_SPECS, groups):
            # DC kernel responds with 5*128/q, clipped to T=4
            expect = min(round(5 * 128.0 / spec.q), 4)
            assert (group[0, 0, 2:-2, 2:-2] == expect).all()
            assert np.abs(group[0, 1:, 2:-2, 2:-2]).max() == 0

    def test_single_spec_gives_single_group(self):
        groups = front_stage_batch(np.zeros((1, 16, 16)), dct_basis(5), [QtSpec(4, 2)])
        assert len(groups) == 1

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            front_stage_batch(np.zeros((1, 16, 16)), dct_basis(5), [])

    def test_batch_variant_matches_per_plane(self):
        # Each plane of an f32 batch against that plane alone in f64.
        rng = np.random.default_rng(8)
        planes = rng.uniform(0, 255, size=(3, 24, 24)).astype(np.float32)
        bank = dct_basis(5)
        batched = front_stage_batch(planes, bank, DEFAULT_QT_SPECS)
        for i in range(3):
            residuals = convolve_batch(same_pad(planes[i : i + 1].astype(np.float64), 5), bank)
            for g, spec in enumerate(DEFAULT_QT_SPECS):
                alone = quantize_truncate(residuals, spec)[0].transpose(2, 0, 1)
                assert np.abs(batched[g][i] - alone).max() <= 1.0  # boundary-only slack
                agree = (batched[g][i] == alone).mean()
                assert agree > 0.999

    def test_spec_major_ordering(self):
        rng = np.random.default_rng(9)
        planes = rng.uniform(0, 255, size=(2, 16, 16))
        bank = dct_basis(5)
        specs = (QtSpec(4, 1), QtSpec(4, 2))
        groups = front_stage_batch(planes, bank, specs)
        residuals = convolve_batch(same_pad(planes.astype(np.float32), 5), bank)
        for spec, group in zip(specs, groups):
            expect = quantize_truncate(residuals, spec).transpose(0, 3, 1, 2)
            assert np.array_equal(group, expect)


class TestChunkedFrontStage:
    """front_stage_batch walks the planes in chunks of about ops.CHUNK_ROWS
    pixels; its groups must not depend on where the chunks fall."""

    # (planes shape, CHUNK_ROWS, chunks): groups of two whole 12x12 images,
    # or bands of three 16-pixel rows; either way the last chunk is short.
    CASES = {"image-groups": ((5, 12, 12), 288, 3), "row-bands": ((2, 20, 16), 48, 14)}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_matches_unchunked_reference(self, k, case, monkeypatch):
        shape, chunk_rows, chunks = self.CASES[case]
        planes = np.random.default_rng(10).uniform(0, 255, size=shape).astype(np.float32)
        bank = dct_basis(k)
        specs = DEFAULT_QT_SPECS + (QtSpec(4, 1.5), QtSpec(200, 0.3))
        residuals = convolve_batch(same_pad(planes, k), bank)  # the whole batch at once
        calls = []

        def spy(padded, bank):
            calls.append(padded.shape)
            return convolve_batch(padded, bank)

        monkeypatch.setattr(ops, "CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(residual, "convolve_batch", spy)
        groups = front_stage_batch(planes, bank, specs)
        assert len(calls) == chunks and calls[-1] != calls[0]  # several, with a short tail
        for spec, group in zip(specs, groups):
            expect = quantize_truncate(residuals, spec).transpose(0, 3, 1, 2)
            assert np.array_equal(group, expect), spec

    @pytest.mark.parametrize("T, dtype", [(127, np.int8), (128, np.int16)])
    def test_group_dtype_is_the_smallest_that_holds_T(self, T, dtype):
        planes = np.random.default_rng(11).uniform(0, 255, size=(2, 16, 16))
        (group,) = front_stage_batch(planes, dct_basis(5), [QtSpec(T, 0.05)])
        assert group.dtype == dtype
        assert group.min() == -T and group.max() == T

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_int_groups_give_the_float_groups_logits_and_gradients(self, dtype):
        planes = np.random.default_rng(12).uniform(0, 255, size=(4, 16, 16))
        groups = front_stage_batch(planes, dct_basis(5), DEFAULT_QT_SPECS)
        cfg = HybridConfig(input_size=16, widths=(4, 8, 16), head_widths=(16, 8, 4))
        results = []
        for feed in (groups, [np.ascontiguousarray(g, dtype=dtype) for g in groups]):
            model = build_hybrid_model(cfg, seed=13, dtype=dtype)
            logits = model.forward(feed, training=True)
            model.backward(np.ones_like(logits))
            grads = [getattr(layer, "g" + attr) for _, layer, attr, _ in model.named_params()]
            results.append((logits, grads))
        (logits_int, grads_int), (logits_float, grads_float) = results
        assert logits_int.dtype == dtype
        assert np.array_equal(logits_int, logits_float)
        for a, b in zip(grads_int, grads_float):
            assert np.array_equal(a, b)


class TestParseQtSpecs:
    def test_default_string(self):
        assert parse_qt_specs("4:1,4:2,4:4") == DEFAULT_QT_SPECS

    def test_fractional_step(self):
        assert parse_qt_specs("4:1.5") == (QtSpec(4, 1.5),)

    @pytest.mark.parametrize("bad", ["", "4", "4:", ":2", "4:0", "0:1"])
    def test_bad_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_qt_specs(bad)
