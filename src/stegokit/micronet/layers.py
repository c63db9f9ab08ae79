"""Layer classes wrapping the functional ops: parameters, the gradients
backward sets (``gw`` for ``w``) and the forward caches live on the layer."""

from __future__ import annotations

import numpy as np

from . import ops


class Layer:
    """Base: parameter-free, shape-preserved unless overridden."""

    #: parameter attribute names subject to L2 weight decay
    decayed = ()

    def param_names(self):
        return ()

    def state_names(self):
        """Non-trainable arrays that still belong in a checkpoint."""
        return ()

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, training=False):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError


class Conv2d(Layer):
    decayed = ("w",)

    def __init__(
        self, in_ch, out_ch, kernel, stride=1, pad=0, rng=None, dtype=np.float32,
        input_grad=True,
    ):
        self.stride = stride
        self.pad = pad
        # Layers fed directly by the fixed front end skip the (large) input
        # gradient; nothing upstream is trainable.
        self.input_grad = input_grad
        scale = np.sqrt(2.0 / (in_ch * kernel * kernel))
        rng = rng or np.random.default_rng(0)
        self.w = rng.normal(0.0, scale, (out_ch, in_ch, kernel, kernel)).astype(dtype, copy=False)
        self.b = np.zeros(out_ch, dtype=dtype)

    def param_names(self):
        return ("w", "b")

    def out_shape(self, in_shape):
        n, _, h, w = in_shape
        k = self.w.shape[2]
        return (
            n,
            self.w.shape[0],
            ops.conv_out_size(h, k, self.stride, self.pad),
            ops.conv_out_size(w, k, self.stride, self.pad),
        )

    # Backward rebuilds the patches chunk by chunk from x, so training caches
    # x itself rather than the patch matrix, k*k times its size.
    def forward(self, x, training=False):
        self._x = x if training else None
        return ops.conv2d_forward(x, self.w, self.b, self.stride, self.pad)

    def backward(self, grad_out):
        grad_x, self.gw, self.gb = ops.conv2d_backward(
            self._x, self.w, grad_out, self.stride, self.pad, input_grad=self.input_grad
        )
        self._x = None
        return grad_x


class BatchNorm2d(Layer):
    def __init__(self, channels, dtype=np.float32):
        # Weight of the old running stats per train-mode forward; 0 makes
        # them the latest batch's.
        self.momentum = ops.BN_MOMENTUM
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def param_names(self):
        return ("gamma", "beta")

    def state_names(self):
        return ("running_mean", "running_var")

    def forward(self, x, training=False):
        out, self._cache = ops.batchnorm_forward(
            x, self.gamma, self.beta, self.running_mean, self.running_var, training, self.momentum
        )
        return out

    def backward(self, grad_out):
        grad_x, self.ggamma, self.gbeta = ops.batchnorm_backward(self._cache, grad_out)
        self._cache = None
        return grad_x


class ReLU(Layer):
    # Backward needs x only through x > 0, so training caches that 1-byte mask
    # instead of x.
    def forward(self, x, training=False):
        self._mask = x > 0 if training else None
        return ops.relu(x)

    def backward(self, grad_out):
        grad_x = ops.relu_backward(self._mask, grad_out)
        self._mask = None
        return grad_x


class AvgPool2d(Layer):
    def __init__(self, window, stride=None, pad=0):
        self.window = window
        self.stride = window if stride is None else stride
        self.pad = pad

    def out_shape(self, in_shape):
        n, c, h, w = in_shape
        return (
            n,
            c,
            ops.conv_out_size(h, self.window, self.stride, self.pad),
            ops.conv_out_size(w, self.window, self.stride, self.pad),
        )

    def forward(self, x, training=False):
        self._x_shape = x.shape
        return ops.avgpool(x, self.window, self.stride, self.pad)

    def backward(self, grad_out):
        return ops.avgpool_backward(grad_out, self._x_shape, self.window, self.stride, self.pad)


class Flatten(Layer):
    def out_shape(self, in_shape):
        return (in_shape[0], int(np.prod(in_shape[1:])))

    def forward(self, x, training=False):
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._x_shape)


class Dense(Layer):
    decayed = ("w",)

    def __init__(self, in_features, out_features, rng=None, dtype=np.float32):
        scale = np.sqrt(2.0 / in_features)
        rng = rng or np.random.default_rng(0)
        self.w = rng.normal(0.0, scale, (in_features, out_features)).astype(dtype, copy=False)
        self.b = np.zeros(out_features, dtype=dtype)

    def param_names(self):
        return ("w", "b")

    def out_shape(self, in_shape):
        return (in_shape[0], self.w.shape[1])

    def forward(self, x, training=False):
        self._x = x if training else None
        return ops.fc(x, self.w, self.b)

    def backward(self, grad_out):
        grad_x, self.gw, self.gb = ops.fc_backward(self._x, self.w, grad_out)
        self._x = None
        return grad_x


class Sequential:
    """Ordered (name, layer) pipeline with symmetric forward/backward."""

    def __init__(self, named_layers):
        self.named_layers = list(named_layers)

    def forward(self, x, training=False):
        for _, layer in self.named_layers:
            x = layer.forward(x, training)
        return x

    def backward(self, grad_out):
        for _, layer in reversed(self.named_layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def out_shape(self, in_shape):
        for _, layer in self.named_layers:
            in_shape = layer.out_shape(in_shape)
        return in_shape
