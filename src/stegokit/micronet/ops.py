"""Forward/backward primitives on (batch, channels, height, width) arrays.

Everything is plain numpy. Shapes are NCHW, memory is channels-last: conv,
batch norm, ReLU and average pooling accept any strides and, for
channels-last input, return (N, C, H, W) views of (N, H, W, C) memory.
Convolution pads and views its input channels-last once; im2col reads patches
from it so the heavy lifting is GEMMs, and col2im is its adjoint. Both walk
chunks of about CHUNK_ROWS patch-matrix rows, so the whole patch matrix (k*k
times the input) never exists; backward rebuilds the patches from the input,
which is all a conv layer keeps for it.
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


def im2col(xp: np.ndarray, kernel: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Padded channels-last (N, Hp, Wp, C) -> ((N*OH*OW, k*k*C) patch matrix, OH, OW).

    Columns are in (u, v, c) order: column ``(u*k + v)*C + c`` of row
    ``(n*OH + i)*OW + j`` holds ``xp[n, i*s + u, j*s + v, c]``, so each
    kernel row is one contiguous run of ``k*C`` values of ``xp``.
    """
    n, hp, wp, c = xp.shape
    oh = conv_out_size(hp, kernel, stride, 0)
    ow = conv_out_size(wp, kernel, stride, 0)
    sn, sh, sw, sc = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, oh, ow, kernel, kernel, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    return patches.reshape(n * oh * ow, kernel * kernel * c), oh, ow


def col2im(
    cols: np.ndarray, xp_shape: tuple, kernel: int, stride: int, oh: int, ow: int
) -> np.ndarray:
    """Scatter-add patch-matrix gradients back onto a (N, Hp, Wp, C) slab of
    shape ``xp_shape``: the adjoint of im2col."""
    n, _, _, c = xp_shape
    grads = cols.reshape(n, oh, ow, kernel, kernel, c)
    gx = np.zeros(xp_shape, dtype=cols.dtype)
    for u in range(kernel):
        for v in range(kernel):
            gx[:, u : u + stride * oh : stride, v : v + stride * ow : stride] += grads[..., u, v, :]
    return gx


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
    built whole. The (N, O, OH, OW) view returned does not depend on chunks.
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
        cols, _, _ = im2col(xp[slab], kernel, stride)
        np.matmul(cols, wt, out=rows_out[rows])
    if b is not None:
        out += b
    return out.transpose(0, 3, 1, 2)


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
        xs = xp[slab]
        cols, chunk_oh, _ = im2col(xs, kernel, stride)
        grad_w += gom[rows].T @ cols
        if input_grad:
            grad_xp[slab] += col2im(gom[rows] @ wm, xs.shape, kernel, stride, chunk_oh, ow)
    grad_x = None
    if input_grad:
        h, wd = x.shape[2:]
        grad_x = grad_xp[:, pad : pad + h, pad : pad + wd].transpose(0, 3, 1, 2)
    grad_w = grad_w.reshape(oc, kernel, kernel, -1).transpose(0, 3, 1, 2)
    return grad_x, np.ascontiguousarray(grad_w), gom.sum(axis=0)


# One running f32 sum over all N*H*W values of a channel loses about 1e-5
# relative at 64x64 planes; summing each image first, then the N partial
# sums, keeps it near 3e-7.
def _channel_sum(*factors: np.ndarray) -> np.ndarray:
    """Per-channel sum of the product of channels-last (N, H, W, C) factors."""
    subscripts = ",".join(["nhwc"] * len(factors)) + "->nc"
    return np.einsum(subscripts, *factors).sum(axis=0)


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
    cache is None in eval mode, else (x_hat as (N, H, W, C), inv_std, gamma).
    """
    if x.ndim != 4:
        raise ValueError("batchnorm expects a 4-D tensor")
    xl = x.transpose(0, 2, 3, 1)
    if training:
        if x.shape[0] < 2:
            raise ValueError("train-mode batchnorm requires batch size >= 2")
        m = x.size // x.shape[1]
        mean = _channel_sum(xl) / m
        x_hat = xl - mean
        var = _channel_sum(x_hat, x_hat) / m
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat *= inv_std
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
        out = x_hat * gamma
        out += beta
        return out.transpose(0, 3, 1, 2), (x_hat, inv_std, gamma)
    inv_std = 1.0 / np.sqrt(running_var + eps)
    scale = gamma * inv_std
    out = xl * scale
    out += beta - running_mean * scale
    return out.transpose(0, 3, 1, 2), None


def batchnorm_backward(cache, grad_out: np.ndarray):
    """Train-mode gradients: (grad_x, grad_gamma, grad_beta), including the
    dependence of the batch mean/variance on x. Consumes the cache."""
    x_hat, inv_std, gamma = cache
    m = x_hat.size // x_hat.shape[-1]
    g = grad_out.transpose(0, 2, 3, 1)
    grad_beta = _channel_sum(g)
    grad_gamma = _channel_sum(g, x_hat)
    # gamma * inv_std * ((g - grad_beta / m) - x_hat * grad_gamma / m). g and
    # its mean nearly cancel where a channel's gradient is almost uniform, so
    # they are subtracted first; x_hat is scaled in place.
    grad_x = g - grad_beta / m
    x_hat *= grad_gamma / m
    grad_x -= x_hat
    grad_x *= gamma * inv_std
    return grad_x.transpose(0, 3, 1, 2), grad_gamma, grad_beta


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
    x = _padded_channels_last(x, pad)
    # Windows that tile x exactly take one reshape and mean; others are summed
    # from one shifted strided slice per window offset.
    if _pool_tiles(h, w, window, stride, pad):
        return x.reshape(n, oh, window, ow, window, c).mean(axis=(2, 4)).transpose(0, 3, 1, 2)
    out = np.zeros((n, oh, ow, c), dtype=x.dtype)
    for u in range(window):
        for v in range(window):
            out += x[:, u : u + stride * oh : stride, v : v + stride * ow : stride]
    return out.transpose(0, 3, 1, 2) / (window * window)


def avgpool_backward(
    grad_out: np.ndarray, x_shape: tuple, window: int, stride: int | None = None, pad: int = 0
) -> np.ndarray:
    """Spread each output gradient uniformly over its window."""
    stride = window if stride is None else stride
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape
    share = grad_out.transpose(0, 2, 3, 1) / (window * window)
    if _pool_tiles(h, w, window, stride, pad):
        tiled = np.broadcast_to(share[:, :, None, :, None], (n, oh, window, ow, window, c))
        return tiled.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    gx = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=grad_out.dtype)
    for u in range(window):
        for v in range(window):
            gx[:, u : u + stride * oh : stride, v : v + stride * ow : stride] += share
    return gx[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)


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
