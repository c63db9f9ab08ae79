"""Forward/backward primitives on (batch, channels, height, width) arrays.

Everything is plain numpy. Convolution goes through one strided
patch-extraction helper (im2col) so the heavy lifting is GEMMs. It walks
the output in chunks of about CHUNK_ROWS patch-matrix rows, building each
chunk's patches and consuming them at once, so the whole patch matrix
(k*k times the input) never exists; backward rebuilds the patches from the
input, which is all a conv layer keeps for it. Average pooling sums shifted
strided slices, or reshapes and takes the mean where the windows tile the
input exactly.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
#: Patch-matrix rows built at a time by the convolutions (about 5 MB of f32
#: at the first conv's 625 columns), so a chunk's patches stay in cache.
CHUNK_ROWS = 2048


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"kernel {kernel} stride {stride} pad {pad} does not fit input of size {size}"
        )
    return out


def _padded_channels_last(x: np.ndarray, pad: int) -> np.ndarray:
    """(N, C, H, W) -> (N, H+2p, W+2p, C); a view of ``x`` when pad is 0."""
    x = x.transpose(0, 2, 3, 1)
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int) -> tuple[np.ndarray, int, int]:
    """(N, C, H, W) -> ((N*OH*OW, k*k*C) patch matrix, OH, OW).

    Columns are in (u, v, c) order: column ``(u*k + v)*C + c`` of row
    ``(n*OH + i)*OW + j`` holds ``x[n, c, i*s + u - pad, j*s + v - pad]``.
    The patches are read from a channels-last view of ``x``, so each kernel
    row is one contiguous run of ``k*C`` values; the padding copy, where
    there is one, also does the layout change.
    """
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    x = _padded_channels_last(x, pad)
    sn, sh, sw, sc = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kernel, kernel, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    return patches.reshape(n * oh * ow, kernel * kernel * c), oh, ow


def col2im(
    cols: np.ndarray, x_shape: tuple, kernel: int, stride: int, pad: int, oh: int, ow: int
) -> np.ndarray:
    """Scatter-add patch-matrix gradients back onto the input, adjoint of im2col.

    Returns an (N, C, H, W)-shaped view of a channels-last buffer.
    """
    n, c, h, w = x_shape
    grads = cols.reshape(n, oh, ow, kernel, kernel, c)
    gx = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    for u in range(kernel):
        for v in range(kernel):
            gx[:, u : u + stride * oh : stride, v : v + stride * ow : stride] += grads[
                :, :, :, u, v
            ]
    return gx[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)


def _weight_matrix(w: np.ndarray) -> np.ndarray:
    """(O, C, k, k) weights -> (O, k*k*C), matching im2col's (u, v, c) columns."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def _chunks(n: int, oh: int, ow: int, kernel: int, stride: int):
    """Split the conv's N*OH*OW patch-matrix rows into runs of about CHUNK_ROWS.

    Yields ``(rows, slab)``: the chunk's slice of the patch-matrix rows and
    the index of the padded channels-last input it reads. Where one image
    has at most CHUNK_ROWS rows, a chunk is a group of whole images;
    otherwise it is a band of output rows of one image.
    """
    if oh * ow <= CHUNK_ROWS:
        step = CHUNK_ROWS // (oh * ow)
        bounds = ((n0, min(n, n0 + step), 0, oh) for n0 in range(0, n, step))
    else:
        band = max(1, CHUNK_ROWS // ow)
        bounds = (
            (n0, n0 + 1, i0, min(oh, i0 + band)) for n0 in range(n) for i0 in range(0, oh, band)
        )
    for n0, n1, i0, i1 in bounds:
        rows = slice((n0 * oh + i0) * ow, ((n1 - 1) * oh + i1) * ow)
        yield rows, (slice(n0, n1), slice(i0 * stride, (i1 - 1) * stride + kernel))


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """out(n,o,i,j) = sum_c,u,v w(o,c,u,v) * x(n,c,i*s+u-pad,j*s+v-pad) + b(o).

    ``x`` is padded and made channels-last once; each chunk of about
    CHUNK_ROWS output pixels then gets its patches from im2col and one GEMM
    into its rows of a channels-last output, so the patch matrix is never
    built whole. The result does not depend on where chunks fall.
    """
    _conv_check(x, w)
    kernel = w.shape[2]
    n = x.shape[0]
    oh = conv_out_size(x.shape[2], kernel, stride, pad)
    ow = conv_out_size(x.shape[3], kernel, stride, pad)
    xp = _padded_channels_last(x, pad)
    wt = _weight_matrix(w).T
    out = np.empty((n, oh, ow, w.shape[0]), dtype=np.result_type(x.dtype, w.dtype))
    rows_out = out.reshape(n * oh * ow, -1)
    for rows, slab in _chunks(n, oh, ow, kernel, stride):
        cols, _, _ = im2col(xp[slab].transpose(0, 3, 1, 2), kernel, stride, 0)
        np.matmul(cols, wt, out=rows_out[rows])
    if b is not None:
        out += b
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _conv_check(x: np.ndarray, w: np.ndarray) -> None:
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError("conv2d expects 4-D input and weights")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[1]}, weights {w.shape[1]}")
    if w.shape[2] != w.shape[3]:
        raise ValueError("only square kernels supported")


def conv2d_backward(
    x: np.ndarray,
    w: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of conv2d_forward: (grad_x, grad_w, grad_b).

    Walks conv2d_forward's chunks, rebuilding each chunk's patches from
    ``x`` (columns in im2col's (u, v, c) order) and adding its share to
    grad_w and, through col2im, to a padded channels-last grad_x. With
    ``input_grad=False`` grad_x is None and its col2im is skipped.
    """
    _conv_check(x, w)
    kernel = w.shape[2]
    n, oc, oh, ow = grad_out.shape
    if (oh, ow) != tuple(conv_out_size(s, kernel, stride, pad) for s in x.shape[2:]):
        raise ValueError("grad_out shape inconsistent with forward output")
    xp = _padded_channels_last(x, pad)
    wm = _weight_matrix(w)
    gom = grad_out.transpose(0, 2, 3, 1).reshape(-1, oc)
    grad_w = np.zeros((oc, wm.shape[1]), dtype=np.result_type(grad_out.dtype, x.dtype))
    if input_grad:
        grad_xp = np.zeros(xp.shape, dtype=np.result_type(grad_out.dtype, w.dtype))
    for rows, slab in _chunks(n, oh, ow, kernel, stride):
        xs = xp[slab].transpose(0, 3, 1, 2)
        cols, chunk_oh, _ = im2col(xs, kernel, stride, 0)
        grad_w += gom[rows].T @ cols
        if input_grad:
            grad_cols = gom[rows] @ wm
            grad_xp[slab] += col2im(
                grad_cols, xs.shape, kernel, stride, 0, chunk_oh, ow
            ).transpose(0, 2, 3, 1)
    grad_x = None
    if input_grad:
        h, wd = x.shape[2:]
        grad_x = grad_xp[:, pad : pad + h, pad : pad + wd].transpose(0, 3, 1, 2)
    grad_w = grad_w.reshape(oc, kernel, kernel, -1).transpose(0, 3, 1, 2)
    return grad_x, np.ascontiguousarray(grad_w), gom.sum(axis=0)


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = BN_MOMENTUM,
    eps: float = BN_EPS,
):
    """Per-channel batch normalization.

    Train mode normalizes by batch statistics and updates the running stats
    in place; eval mode uses the running stats. Returns (out, cache) where
    cache is None in eval mode.
    """
    if x.ndim != 4:
        raise ValueError("batchnorm expects a 4-D tensor")
    if training:
        if x.shape[0] < 2:
            raise ValueError("train-mode batchnorm requires batch size >= 2")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
        out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
        return out, (x_hat, inv_std, gamma)
    inv_std = 1.0 / np.sqrt(running_var + eps)
    scale = gamma * inv_std
    shift = beta - running_mean * scale
    return x * scale[None, :, None, None] + shift[None, :, None, None], None


def batchnorm_backward(cache, grad_out: np.ndarray):
    """Train-mode gradients: (grad_x, grad_gamma, grad_beta), including the
    dependence of the batch mean/variance on x."""
    x_hat, inv_std, gamma = cache
    n, _, h, w = grad_out.shape
    m = n * h * w
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    grad_gamma = (grad_out * x_hat).sum(axis=(0, 2, 3))
    coeff = (gamma * inv_std / m)[None, :, None, None]
    grad_x = coeff * (
        m * grad_out
        - grad_beta[None, :, None, None]
        - x_hat * grad_gamma[None, :, None, None]
    )
    return grad_x, grad_gamma, grad_beta


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out where x > 0, else 0. Reads x only through x > 0, so the
    boolean mask x > 0 may be passed in place of x."""
    return grad_out * (x > 0)


def _pool_tiles(h: int, w: int, window: int, stride: int, pad: int) -> bool:
    """True when the windows tile the input exactly: no overlap, gap or pad."""
    return stride == window and pad == 0 and h % window == 0 and w % window == 0


def avgpool(x: np.ndarray, window: int, stride: int | None = None, pad: int = 0) -> np.ndarray:
    """Mean over window*window patches; zero padding counts toward the mean."""
    stride = window if stride is None else stride
    n, c, h, w = x.shape
    oh = conv_out_size(h, window, stride, pad)
    ow = conv_out_size(w, window, stride, pad)
    if _pool_tiles(h, w, window, stride, pad):
        return x.reshape(n, c, oh, window, ow, window).mean(axis=(3, 5))
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for u in range(window):
        for v in range(window):
            out += x[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]
    return out / (window * window)


def avgpool_backward(
    grad_out: np.ndarray, x_shape: tuple, window: int, stride: int | None = None, pad: int = 0
) -> np.ndarray:
    """Spread each output gradient uniformly over its window."""
    stride = window if stride is None else stride
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape
    share = grad_out / (window * window)
    if _pool_tiles(h, w, window, stride, pad):
        tiled = np.broadcast_to(share[:, :, :, None, :, None], (n, c, oh, window, ow, window))
        return tiled.reshape(x_shape)
    gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=grad_out.dtype)
    for u in range(window):
        for v in range(window):
            gx[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride] += share
    if pad:
        gx = gx[:, :, pad : pad + h, pad : pad + w]
    return gx


def fc(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"fc shape mismatch: input {x.shape}, weights {w.shape}")
    return x @ w + b


def fc_backward(x: np.ndarray, w: np.ndarray, grad_out: np.ndarray):
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    grad_x = grad_out @ w.T
    return grad_x, grad_w, grad_b


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("labels out of range")
    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad
