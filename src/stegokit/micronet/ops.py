"""Forward/backward primitives on (batch, channels, height, width) arrays.

Everything is plain numpy. Convolution goes through one strided
patch-extraction helper (im2col) so the heavy lifting is a single GEMM per
call; average pooling sums shifted strided slices, or reshapes and takes the
mean where the windows tile the input exactly.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"kernel {kernel} stride {stride} pad {pad} does not fit input of size {size}"
        )
    return out


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
    x = x.transpose(0, 2, 3, 1)
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
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


def conv2d_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    return_cols: bool = False,
):
    """out(n,o,i,j) = sum_c,u,v w(o,c,u,v) * x(n,c,i*s+u-pad,j*s+v-pad) + b(o).

    With ``return_cols`` it returns ``(out, cols)``, the im2col patch matrix
    that conv2d_backward can reuse.
    """
    _conv_check(x.shape, w)
    cols, oh, ow = im2col(x, w.shape[2], stride, pad)
    out = cols @ _weight_matrix(w).T
    if b is not None:
        out += b
    out = np.ascontiguousarray(out.reshape(x.shape[0], oh, ow, -1).transpose(0, 3, 1, 2))
    return (out, cols) if return_cols else out


def _conv_check(x_shape: tuple, w: np.ndarray) -> None:
    if len(x_shape) != 4 or w.ndim != 4:
        raise ValueError("conv2d expects 4-D input and weights")
    if x_shape[1] != w.shape[1]:
        raise ValueError(f"channel mismatch: input {x_shape[1]}, weights {w.shape[1]}")
    if w.shape[2] != w.shape[3]:
        raise ValueError("only square kernels supported")


def conv2d_backward(
    x: np.ndarray | tuple,
    w: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    cols: np.ndarray | None = None,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of conv2d_forward: (grad_x, grad_w, grad_b).

    ``cols`` may pass the forward pass's patch matrix, whose columns are in
    im2col's (u, v, c) order, to skip recomputing it; ``x`` is then read
    only for its shape and may be given as the shape tuple. With
    ``input_grad=False`` grad_x is None and its col2im is skipped.
    """
    x_shape = x if isinstance(x, tuple) else x.shape
    _conv_check(x_shape, w)
    kernel = w.shape[2]
    n, oc, oh, ow = grad_out.shape
    if cols is None:
        cols, oh2, ow2 = im2col(x, kernel, stride, pad)
        if (oh2, ow2) != (oh, ow):
            raise ValueError("grad_out shape inconsistent with forward output")
    gom = grad_out.transpose(0, 2, 3, 1).reshape(-1, oc)
    grad_w = (gom.T @ cols).reshape(oc, kernel, kernel, -1).transpose(0, 3, 1, 2)
    grad_b = gom.sum(axis=0)
    grad_x = None
    if input_grad:
        grad_cols = gom @ _weight_matrix(w)
        grad_x = col2im(grad_cols, x_shape, kernel, stride, pad, oh, ow)
    return grad_x, np.ascontiguousarray(grad_w), grad_b


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
