"""Work counts computed from layer shapes, not measured: forward FLOPs per
image and im2col patch-matrix bytes per batch, for each conv and fc layer,
summed over the Q&T groups. They repeat exactly from run to run."""

from __future__ import annotations

import numpy as np

CONV_LAYERS = ("b1.conv", "b2.conv", "b3.conv")
FC_LAYERS = ("fc0", "fc1", "fc2", "logits")


def layer_counts(model, batch: int) -> dict:
    """{layer: {"gflop": forward GFLOP per image, "im2col_mb": MB per batch}}."""
    from stegokit.micronet.layers import Conv2d, Dense

    cfg = model.config
    counts = {name: {"gflop": 0.0, "im2col_mb": 0.0} for name in CONV_LAYERS + FC_LAYERS}
    for net in model.subnets:
        shape = (1, cfg.kernel_size**2, cfg.input_size, cfg.input_size)
        for name, layer in net.named_layers:
            out = layer.out_shape(shape)
            if isinstance(layer, Conv2d):
                oc, ic, k, _ = layer.w.shape
                patch = out[2] * out[3] * ic * k * k
                counts[name]["gflop"] += 2.0 * oc * patch / 1e9
                counts[name]["im2col_mb"] += batch * patch * layer.w.itemsize / 1e6
            shape = out
    for name, layer in model.head.named_layers:
        if isinstance(layer, Dense):
            counts[name]["gflop"] += 2.0 * np.prod(layer.w.shape) / 1e9
    return counts
