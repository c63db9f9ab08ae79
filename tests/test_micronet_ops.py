import numpy as np
import pytest

from stegokit.micronet import ops
from stegokit.micronet.layers import BatchNorm2d, Conv2d


def naive_conv2d(x, w, b, stride, pad):
    """Six-loop reference implementation."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    acc = b[o]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[o, ci, u, v] * xp[ni, ci, i * stride + u, j * stride + v]
                    out[ni, o, i, j] = acc
    return out


def loop_avgpool(x, window):
    """Non-overlapping average pool as a sum of one strided slice per offset."""
    n, c, h, w = x.shape
    oh, ow = h // window, w // window
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for u in range(window):
        for v in range(window):
            out += x[:, :, u : u + window * oh : window, v : v + window * ow : window]
    return out / (window * window)


def loop_avgpool_backward(grad_out, x_shape, window, stride=None, pad=0):
    """Each output gradient's share added over its window, one strided slice
    per window offset, on the padded input; the padding is then cut off."""
    stride = window if stride is None else stride
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape
    gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=grad_out.dtype)
    for u in range(window):
        for v in range(window):
            gx[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride] += (
                grad_out / (window * window)
            )
    return gx[:, :, pad : pad + h, pad : pad + w]


def channels_last_copy(a):
    """The values of the (N, C, H, W) array ``a`` in (N, H, W, C) memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def is_channels_last(a):
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def rel_close(analytic, numeric, tol=1e-6, zero_floor=1e-7):
    """Relative agreement with an absolute guard for true-zero gradients."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (np.abs(analytic - numeric) <= tol * scale) | (scale <= zero_floor)
    return bool(ok.all())


def numeric_grad(fn, arr, h=1e-6):
    """Central finite differences of a scalar-valued fn w.r.t. every entry."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        step = h * max(1.0, abs(orig))
        flat[i] = orig + step
        hi = fn()
        flat[i] = orig - step
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


class TestConvForward:
    def test_all_ones_3x3(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        b = np.array([0.5])
        out = ops.conv2d_forward(x, w, b, stride=1, pad=0)
        assert out.shape == (1, 1, 1, 1)
        assert np.isclose(out[0, 0, 0, 0], 9.5)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 6, 6))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = ops.conv2d_forward(x, w, np.zeros(1), stride=1, pad=1)
        assert np.allclose(out, x, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 2), (2, 1)])
    def test_matches_naive_reference(self, stride, pad):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 7, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        ours = ops.conv2d_forward(x, w, b, stride, pad)
        assert np.abs(ours - naive_conv2d(x, w, b, stride, pad)).max() < 1e-10

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ops.conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            ops.conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))


class TestConvBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = ops.conv2d_forward(x, w, np.zeros(3), 1, 1)
        gx, gw, gb = ops.conv2d_backward(x, w, np.zeros_like(out), 1, 1)
        assert np.abs(gx).max() == 0 and np.abs(gw).max() == 0 and np.abs(gb).max() == 0

    def test_single_pixel_grad_out_isolates_input_patch(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 1, 5, 5))
        w = rng.normal(size=(1, 1, 3, 3))
        grad_out = np.zeros((1, 1, 3, 3))
        grad_out[0, 0, 1, 1] = 1.0  # output pixel at (1,1), stride 1, pad 0
        _, gw, gb = ops.conv2d_backward(x, w, grad_out, 1, 0)
        assert np.allclose(gw[0, 0], x[0, 0, 1:4, 1:4])
        assert np.isclose(gb[0], 1.0)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_finite_difference_agreement(self, stride, pad):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        proj = rng.normal(size=ops.conv2d_forward(x, w, b, stride, pad).shape)

        def loss():
            return float((ops.conv2d_forward(x, w, b, stride, pad) * proj).sum())

        out = ops.conv2d_forward(x, w, b, stride, pad)
        gx, gw, gb = ops.conv2d_backward(x, w, proj.copy(), stride, pad)
        # conv is linear in x, w and b, so a central difference has no
        # truncation error and a larger step only shrinks its roundoff.
        assert rel_close(gx, numeric_grad(loss, x, h=1e-4))
        assert rel_close(gw, numeric_grad(loss, w, h=1e-4))
        assert rel_close(gb, numeric_grad(loss, b, h=1e-4))

    def test_im2col_col2im_are_adjoint(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 6, 6))
        for kernel, stride, pad in ((3, 2, 1), (3, 1, 0)):
            xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
            cols, oh, ow = ops.im2col(xp, kernel, stride)
            g = rng.normal(size=cols.shape)
            back = ops.col2im(g, xp.shape, kernel, stride, oh, ow)
            assert back.shape == xp.shape
            assert np.isclose((cols * g).sum(), (xp * back).sum(), atol=1e-10)

    def test_im2col_columns_are_u_v_c(self):
        rng = np.random.default_rng(18)
        xp = rng.normal(size=(2, 5, 5, 3))
        cols, oh, ow = ops.im2col(xp, 3, 2)
        patches = cols.reshape(2, oh, ow, 3, 3, 3)
        for u in range(3):
            for v in range(3):
                assert np.array_equal(
                    patches[:, :, :, u, v, :], xp[:, u : u + 2 * oh : 2, v : v + 2 * ow : 2]
                )

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_channels_last_strided_input_gives_same_result(self, stride, pad):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        x_cl = channels_last_copy(x)
        assert not x_cl.flags.c_contiguous
        out = ops.conv2d_forward(x, w, b, stride, pad)
        out_cl = ops.conv2d_forward(x_cl, w, b, stride, pad)
        assert np.array_equal(out, out_cl)
        assert is_channels_last(out) and is_channels_last(out_cl)
        g = np.ascontiguousarray(rng.normal(size=out.shape))
        g_cl = channels_last_copy(g)
        expect = ops.conv2d_backward(x, w, g, stride, pad)
        got = ops.conv2d_backward(x_cl, w, g_cl, stride, pad)
        for e, a in zip(expect, got):
            assert np.array_equal(e, a)
        # grad_x is channels-last: contiguous, or a crop of a padded slab.
        assert got[0].strides[1] == got[0].itemsize
        assert is_channels_last(got[0]) or pad
        gx, gw, gb = ops.conv2d_backward(x_cl, w, g_cl, stride, pad, input_grad=False)
        assert gx is None
        assert np.array_equal(gw, expect[1]) and np.array_equal(gb, expect[2])


# (branch, stride, pad) -> CHUNK_ROWS that splits a (5, 2, 8, 8) input convolved
# by a 3x3 kernel into several chunks with a short last one: two whole images
# per chunk (5 = 2 + 2 + 1), or bands of oh // 2 + 1 output rows of one image.
CHUNKED_CASES = [
    (branch, stride, pad)
    for branch in ("images", "rows")
    for stride, pad in ((1, 0), (1, 1), (2, 1), (2, 2))
]


def chunk_rows_for(branch, oh, ow):
    return 2 * oh * ow + 1 if branch == "images" else (oh // 2 + 1) * ow


def chunked_case(branch, stride, pad, dtype=np.float64):
    rng = np.random.default_rng(20)
    x = rng.normal(size=(5, 2, 8, 8)).astype(dtype)
    w = rng.normal(size=(3, 2, 3, 3)).astype(dtype)
    b = rng.normal(size=3).astype(dtype)
    oh = ops.conv_out_size(8, 3, stride, pad)
    return x, w, b, chunk_rows_for(branch, oh, oh)


@pytest.mark.parametrize("branch,stride,pad", CHUNKED_CASES)
class TestChunkedConv:
    """Inputs whose patch matrix spans several CHUNK_ROWS chunks."""

    def test_chunks_cover_the_patch_matrix(self, branch, stride, pad, monkeypatch):
        x, w, b, chunk_rows = chunked_case(branch, stride, pad)
        monkeypatch.setattr(ops, "CHUNK_ROWS", chunk_rows)
        seen = []
        real_im2col = ops.im2col

        def spy(xs, kernel, s):
            cols, oh, ow = real_im2col(xs, kernel, s)
            seen.append((xs.shape[0], oh, cols.shape[0]))
            return cols, oh, ow

        monkeypatch.setattr(ops, "im2col", spy)
        out = ops.conv2d_forward(x, w, b, stride, pad)
        n, _, oh, ow = out.shape
        assert sum(rows for _, _, rows in seen) == n * oh * ow
        assert len(seen) > 2 and all(rows <= chunk_rows for _, _, rows in seen)
        assert seen[-1][2] < seen[0][2]  # a short tail chunk
        if branch == "images":
            assert [imgs for imgs, _, _ in seen] == [2, 2, 1]
        else:
            assert all(imgs == 1 for imgs, _, _ in seen)
            assert seen[0][1] == oh // 2 + 1 and seen[1][1] == oh - seen[0][1]

    def test_forward_matches_naive_reference(self, branch, stride, pad, monkeypatch):
        x, w, b, chunk_rows = chunked_case(branch, stride, pad)
        monkeypatch.setattr(ops, "CHUNK_ROWS", chunk_rows)
        ours = ops.conv2d_forward(x, w, b, stride, pad)
        assert np.abs(ours - naive_conv2d(x, w, b, stride, pad)).max() < 1e-10

    def test_finite_difference_agreement(self, branch, stride, pad, monkeypatch):
        x, w, b, chunk_rows = chunked_case(branch, stride, pad)
        monkeypatch.setattr(ops, "CHUNK_ROWS", chunk_rows)
        proj = np.random.default_rng(21).normal(
            size=ops.conv2d_forward(x, w, b, stride, pad).shape
        )

        def loss():
            return float((ops.conv2d_forward(x, w, b, stride, pad) * proj).sum())

        gx, gw, gb = ops.conv2d_backward(x, w, proj.copy(), stride, pad)
        assert rel_close(gx, numeric_grad(loss, x, h=1e-4))
        assert rel_close(gw, numeric_grad(loss, w, h=1e-4))
        assert rel_close(gb, numeric_grad(loss, b, h=1e-4))

    def test_matches_single_chunk_in_f32(self, branch, stride, pad, monkeypatch):
        x, w, b, chunk_rows = chunked_case(branch, stride, pad, np.float32)
        g = np.random.default_rng(22).normal(
            size=ops.conv2d_forward(x, w, b, stride, pad).shape
        ).astype(np.float32)
        monkeypatch.setattr(ops, "CHUNK_ROWS", 1 << 30)
        whole = (ops.conv2d_forward(x, w, b, stride, pad),) + ops.conv2d_backward(
            x, w, g, stride, pad
        )
        monkeypatch.setattr(ops, "CHUNK_ROWS", chunk_rows)
        chunked = (ops.conv2d_forward(x, w, b, stride, pad),) + ops.conv2d_backward(
            x, w, g, stride, pad
        )
        # forward rows are independent of the chunking; the gradients only
        # sum their chunk shares in another order
        assert np.array_equal(whole[0], chunked[0])
        for e, a in zip(whole[1:], chunked[1:]):
            assert a.dtype == np.float32
            np.testing.assert_allclose(a, e, rtol=1e-5, atol=1e-5 * np.abs(e).max())


class TestConvLayer:
    def held_arrays(self, layer):
        """Arrays on the layer other than its parameters and their gradients."""
        params = set(layer.param_names()) | {"gw", "gb"}
        return {
            name: value
            for name, value in vars(layer).items()
            if isinstance(value, np.ndarray) and name not in params
        }

    def test_training_caches_only_the_input(self, monkeypatch):
        # 5x5 kernel, 4 channels, stride 2: the whole patch matrix is 6.25 times x
        monkeypatch.setattr(ops, "CHUNK_ROWS", 64)
        x = np.random.default_rng(23).normal(size=(3, 4, 12, 12)).astype(np.float32)
        layer = Conv2d(4, 6, 5, stride=2, pad=2)
        out = layer.forward(x, training=True)
        held = self.held_arrays(layer)
        assert held and all(a.nbytes <= x.nbytes for a in held.values())
        g = np.random.default_rng(24).normal(size=out.shape).astype(np.float32)
        grad_x = layer.backward(g)
        expect = ops.conv2d_backward(x, layer.w, g, 2, 2)
        for e, a in zip(expect, (grad_x, layer.gw, layer.gb)):
            assert np.array_equal(e, a)
        assert self.held_arrays(layer) == {}

    def test_eval_caches_nothing(self):
        x = np.random.default_rng(25).normal(size=(2, 4, 12, 12)).astype(np.float32)
        layer = Conv2d(4, 6, 5, stride=2, pad=2)
        layer.forward(x, training=True)
        layer.forward(x)
        assert self.held_arrays(layer) == {}


class TestBatchNorm:
    def test_layer_with_zero_momentum_takes_the_batch_statistics(self):
        # perfbench calibrates a checkpoint's running statistics this way.
        x = np.random.default_rng(26).normal(1.0, 2.0, size=(4, 3, 5, 6)).astype(np.float32)
        layer = BatchNorm2d(3)
        layer.momentum = 0.0
        layer.forward(x, training=True)
        x64 = x.astype(np.float64)
        assert np.allclose(layer.running_mean, x64.mean(axis=(0, 2, 3)), rtol=1e-6, atol=1e-6)
        assert np.allclose(layer.running_var, x64.var(axis=(0, 2, 3)), rtol=1e-6, atol=1e-6)

    def test_normalizes_small_channel(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1)
        gamma, beta = np.ones(1), np.zeros(1)
        rm, rv = np.zeros(1), np.ones(1)
        out, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv, training=True)
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-3  # epsilon effect

    def test_affine_parameters(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 2, 4, 4))
        gamma = np.array([2.0, 2.0])
        beta = np.array([5.0, 5.0])
        out, _ = ops.batchnorm_forward(x, gamma, beta, np.zeros(2), np.ones(2), True)
        for c in range(2):
            assert abs(out[:, c].mean() - 5.0) < 1e-10
            assert abs(out[:, c].std() - 2.0) < 1e-2

    def test_train_mode_statistics_random_batches(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.normal(3.0, 2.5, size=(6, 3, 5, 5))
            out, _ = ops.batchnorm_forward(
                x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), True
            )
            means = out.mean(axis=(0, 2, 3))
            var = out.var(axis=(0, 2, 3))
            assert np.abs(means).max() < 1e-7
            assert np.abs(var - 1.0).max() < 1e-3

    def test_running_stats_momentum(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 1, 3, 3))
        rm, rv = np.zeros(1), np.ones(1)
        ops.batchnorm_forward(x, np.ones(1), np.zeros(1), rm, rv, True)
        assert np.isclose(rm[0], 0.1 * x.mean())
        assert np.isclose(rv[0], 0.9 + 0.1 * x.var())

    def test_eval_mode_uses_running_stats(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 2, 3, 3))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        out, cache = ops.batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv, False)
        assert cache is None
        expect = (x - rm[None, :, None, None]) / np.sqrt(rv + ops.BN_EPS)[None, :, None, None]
        assert np.allclose(out, expect)
        # eval does not touch running stats
        assert rm[0] == 1.0 and rv[0] == 4.0

    def test_eval_batch_composition_independent(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 2, 3, 3))
        rm, rv = np.array([0.3, -0.2]), np.array([1.5, 0.7])
        full, _ = ops.batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv, False)
        solo, _ = ops.batchnorm_forward(x[2:3], np.ones(2), np.zeros(2), rm, rv, False)
        assert np.allclose(full[2], solo[0])

    def test_batch_of_one_rejected_in_train_mode(self):
        with pytest.raises(ValueError):
            ops.batchnorm_forward(
                np.zeros((1, 2, 3, 3)), np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), True
            )

    def test_backward_grad_beta_sums_grad_out(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 2, 3, 3))
        _, cache = ops.batchnorm_forward(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), True)
        g = rng.normal(size=x.shape)
        _, _, gbeta = ops.batchnorm_backward(cache, g)
        assert np.allclose(gbeta, g.sum(axis=(0, 2, 3)))

    def test_backward_constant_grad_gives_zero_sum_grad_x(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 2, 3, 3))
        _, cache = ops.batchnorm_forward(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), True)
        gx, _, _ = ops.batchnorm_backward(cache, np.ones_like(x))
        assert np.abs(gx.sum(axis=(0, 2, 3))).max() < 1e-10

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 2, 4, 4))
        gamma = rng.normal(1.0, 0.1, size=2)
        beta = rng.normal(size=2)
        proj = rng.normal(size=x.shape)

        def loss():
            out, _ = ops.batchnorm_forward(
                x, gamma, beta, np.zeros(2), np.ones(2), True
            )
            return float((out * proj).sum())

        _, cache = ops.batchnorm_forward(x, gamma, beta, np.zeros(2), np.ones(2), True)
        gx, ggamma, gbeta = ops.batchnorm_backward(cache, proj.copy())
        assert rel_close(gx, numeric_grad(loss, x), tol=1e-6)
        assert rel_close(ggamma, numeric_grad(loss, gamma), tol=1e-6)
        assert rel_close(gbeta, numeric_grad(loss, beta), tol=1e-6)


    def test_statistics_and_parameter_gradients_match_f64(self):
        # 64x64 planes: one running f32 sum over all N*H*W rows of a channel
        # is off by about 1e-5 relative here.
        rng = np.random.default_rng(14)
        n, c, h, w = 64, 16, 64, 64
        offset = rng.uniform(0.5, 2.0, c).astype(np.float32)
        rows = rng.standard_normal((n, h, w, c), dtype=np.float32) + offset
        x = rows.transpose(0, 3, 1, 2)
        g = (0.3 * rows + 0.5 * rng.standard_normal(rows.shape, dtype=np.float32)).transpose(
            0, 3, 1, 2
        )
        rm, rv = np.zeros(c, np.float32), np.zeros(c, np.float32)
        gamma, beta = np.ones(c, np.float32), np.zeros(c, np.float32)
        _, cache = ops.batchnorm_forward(x, gamma, beta, rm, rv, True, momentum=0.0)
        x64 = x.astype(np.float64)
        assert np.abs(rm / x64.mean(axis=(0, 2, 3)) - 1).max() <= 1e-6
        assert np.abs(rv / x64.var(axis=(0, 2, 3)) - 1).max() <= 1e-6
        x_hat = cache[0].astype(np.float64).reshape(n, h, w, c).transpose(0, 3, 1, 2)
        _, ggamma, gbeta = ops.batchnorm_backward(cache, g)
        g64 = g.astype(np.float64)
        assert np.abs(gbeta / g64.sum(axis=(0, 2, 3)) - 1).max() <= 1e-6
        assert np.abs(ggamma / (g64 * x_hat).sum(axis=(0, 2, 3)) - 1).max() <= 1e-6


class TestLayout:
    """Every op keeps channels-last memory, and its values do not depend on
    the input's layout."""

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm(self, training):
        rng = np.random.default_rng(15)
        x = rng.normal(1.0, 2.0, size=(4, 3, 5, 6)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        gamma, beta = rng.normal(1.0, 0.1, 3), rng.normal(size=3)
        results = []
        for xi, gi in ((x, g), (channels_last_copy(x), channels_last_copy(g))):
            rm, rv = np.full(3, 0.5, np.float32), np.full(3, 2.0, np.float32)
            out, cache = ops.batchnorm_forward(xi, gamma, beta, rm, rv, training)
            results.append([out, rm, rv])
            if training:
                results[-1] += ops.batchnorm_backward(cache, gi)
        # Only the order of the per-channel sums depends on the layout.
        for a, b in zip(*results):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-5)
        assert is_channels_last(results[1][0])
        if training:
            assert is_channels_last(results[1][3])

    def test_relu(self):
        x = np.random.default_rng(16).normal(size=(2, 3, 4, 5))
        x_cl = channels_last_copy(x)
        assert np.array_equal(ops.relu(x), ops.relu(x_cl))
        assert is_channels_last(ops.relu(x_cl))
        g_cl = channels_last_copy(np.cos(x))
        assert np.array_equal(ops.relu_backward(x, np.cos(x)), ops.relu_backward(x_cl > 0, g_cl))
        assert is_channels_last(ops.relu_backward(x_cl > 0, g_cl))

    @pytest.mark.parametrize("window,stride,pad", [(2, 2, 0), (3, 2, 1)])
    def test_avgpool(self, window, stride, pad):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        out = ops.avgpool(x, window, stride, pad)
        out_cl = ops.avgpool(channels_last_copy(x), window, stride, pad)
        assert np.allclose(out, out_cl, rtol=1e-6, atol=0)
        assert is_channels_last(out_cl)
        g = rng.normal(size=out.shape).astype(np.float32)
        gx = ops.avgpool_backward(g, x.shape, window, stride, pad)
        gx_cl = ops.avgpool_backward(channels_last_copy(g), x.shape, window, stride, pad)
        assert np.array_equal(gx, gx_cl)
        assert gx_cl.strides[1] == gx_cl.itemsize
        assert is_channels_last(gx_cl) or pad


class TestSmallOps:
    def test_relu_values_and_gate(self):
        x = np.array([-3.0, 0.0, 3.0])
        assert np.array_equal(ops.relu(x), [0.0, 0.0, 3.0])
        g = np.array([1.0, 1.0, 1.0])
        assert np.array_equal(ops.relu_backward(x, g), [0.0, 0.0, 1.0])

    def test_avgpool_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = ops.avgpool(x, 2)
        assert out.shape == (1, 1, 1, 1)
        assert np.isclose(out[0, 0, 0, 0], 2.5)
        back = ops.avgpool_backward(np.ones((1, 1, 1, 1)), x.shape, 2)
        assert np.allclose(back, 0.25)

    def test_avgpool_strided_padded_finite_difference(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 2, 6, 6))
        proj = rng.normal(size=ops.avgpool(x, 3, 2, 1).shape)

        def loss():
            return float((ops.avgpool(x, 3, 2, 1) * proj).sum())

        gx = ops.avgpool_backward(proj, x.shape, 3, 2, 1)
        assert rel_close(gx, numeric_grad(loss, x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape,window",
        [((2, 3, 8, 8), 8), ((2, 3, 8, 8), 4), ((2, 3, 9, 9), 4)],
        ids=["global", "2x2-out", "not-divisible"],
    )
    def test_avgpool_tiling_matches_offset_loop(self, shape, window, dtype):
        rng = np.random.default_rng(20)
        x = rng.normal(size=shape).astype(dtype)
        out = ops.avgpool(x, window)
        expect = loop_avgpool(x, window)
        assert out.dtype == dtype and out.shape == expect.shape
        tol = 1e-6 if dtype == np.float32 else 1e-13
        assert np.allclose(out, expect, rtol=tol, atol=tol)
        g = rng.normal(size=out.shape).astype(dtype)
        back = ops.avgpool_backward(g, x.shape, window)
        assert back.dtype == dtype
        assert np.array_equal(back, loop_avgpool_backward(g, x.shape, window))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape,window,stride,pad",
        [((2, 3, 16, 16), 3, 2, 1), ((2, 3, 9, 9), 3, 2, 1), ((2, 5, 10, 10), 4, 3, 0),
         ((1, 2, 11, 7), 3, 1, 1)],
        ids=["type2-pool", "type2-pool-odd", "stride-not-window", "stride-1-padded"],
    )
    def test_overlapping_padded_backward_matches_offset_loop(
        self, shape, window, stride, pad, dtype
    ):
        rng = np.random.default_rng(21)
        x = rng.normal(size=shape).astype(dtype)
        g = rng.normal(size=ops.avgpool(x, window, stride, pad).shape).astype(dtype)
        back = ops.avgpool_backward(g, x.shape, window, stride, pad)
        assert back.dtype == dtype and back.shape == x.shape
        assert np.array_equal(back, loop_avgpool_backward(g, x.shape, window, stride, pad))

    def test_fc_forward_backward(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        proj = rng.normal(size=(4, 3))

        def loss():
            return float((ops.fc(x, w, b) * proj).sum())

        gx, gw, gb = ops.fc_backward(x, w, proj)
        assert rel_close(gx, numeric_grad(loss, x))
        assert rel_close(gw, numeric_grad(loss, w))
        assert rel_close(gb, numeric_grad(loss, b))

    def test_fc_shape_mismatch(self):
        with pytest.raises(ValueError):
            ops.fc(np.zeros((2, 4)), np.zeros((5, 3)), np.zeros(3))


class TestSoftmaxXent:
    def test_uniform_logits_loss_ln2(self):
        loss, _ = ops.softmax_xent(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert np.isclose(loss, np.log(2.0))

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(16)
        probs = ops.softmax(rng.normal(size=(5, 2)) * 10)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(4, 2))
        labels = np.array([0, 1, 1, 0])

        def loss():
            return ops.softmax_xent(logits.copy(), labels)[0]

        _, grad = ops.softmax_xent(logits.copy(), labels)
        assert rel_close(grad, numeric_grad(loss, logits), tol=1e-6)

    def test_extreme_logits_stable(self):
        loss, grad = ops.softmax_xent(np.array([[1000.0, -1000.0]]), np.array([0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ops.softmax_xent(np.zeros((0, 2)), np.zeros(0, np.int64))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            ops.softmax_xent(np.zeros((2, 2)), np.array([0, 2]))
