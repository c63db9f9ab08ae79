"""Subnet and hybrid-model assembly.

Two subnet variants share the three-conv skeleton and end in a 512-D feature
vector (at default widths): type1 keeps full resolution cheap via stride-2
convs, a 1x1 top conv, and one big average pool; type2 interleaves 3x3 convs
with progressive average pools.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from ..residual import DEFAULT_QT_SPECS, SUPPORTED_KERNEL_SIZES, parse_qt_specs
from .layers import AvgPool2d, BatchNorm2d, Conv2d, Dense, Flatten, ReLU, Sequential

HEAD_WIDTHS = (800, 400, 200)
#: Conv widths of each subnet variant at width scale 1.
BASE_WIDTHS = {"type1": (16, 64, 512), "type2": (16, 32, 128)}
#: Kernel sizes of each subnet variant's three convs.
CONV_KERNELS = {"type1": (5, 3, 1), "type2": (5, 3, 3)}
N_CLASSES = 2
#: Largest input side, stride and layer width a config may name: far beyond
#: what this code trains, and a bound on what a checkpoint header can claim.
MAX_SIZE = 8192
#: Most Q&T groups a config may name. The checkpoint loader builds one subnet
#: per group, each with up to 15 * MAX_SIZE per-channel values, before it
#: checks the header's claim against the file size.
MAX_GROUPS = 16


class ConfigError(ValueError):
    """Model configuration is malformed or its layer stack cannot be realized."""


@dataclass(frozen=True)
class HybridConfig:
    """Everything needed to rebuild a model skeleton from a checkpoint."""

    variant: str = "type1"
    kernel_size: int = 5
    qt_labels: tuple = tuple(spec.label() for spec in DEFAULT_QT_SPECS)
    input_size: int = 256
    widths: tuple = BASE_WIDTHS["type1"]
    head_widths: tuple = HEAD_WIDTHS
    use_bn: bool = True
    first_stride: int = 2

    def __post_init__(self):
        if self.variant not in BASE_WIDTHS:
            raise ConfigError(f"unknown subnet variant {self.variant!r}")
        if len(self.widths) != 3:
            raise ConfigError("exactly three conv widths required")
        for name in ("kernel_size", "input_size", "first_stride", "widths", "head_widths"):
            value = getattr(self, name)
            # type(): a JSON true is a bool, which isinstance(..., int) accepts.
            if not all(type(v) is int and 1 <= v <= MAX_SIZE
                       for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{name} must be integers in [1, {MAX_SIZE}], got {value!r}")
        if type(self.use_bn) is not bool:
            raise ConfigError(f"use_bn must be true or false, got {self.use_bn!r}")
        if self.kernel_size not in SUPPORTED_KERNEL_SIZES:
            raise ConfigError(f"kernel_size {self.kernel_size} is not in {SUPPORTED_KERNEL_SIZES}")
        try:
            labels = tuple(spec.label() for spec in parse_qt_specs(",".join(self.qt_labels)))
        except (TypeError, ValueError):
            labels = None  # not strings, or not T:q
        if labels != tuple(self.qt_labels):
            raise ConfigError(f'qt_labels must be "T:q" labels, got {self.qt_labels!r}')
        if len(labels) > MAX_GROUPS:
            raise ConfigError(f"qt_labels names {len(labels)} groups, at most {MAX_GROUPS}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(d: dict) -> "HybridConfig":
        """Inverse of to_json_dict: every field is required and no other key
        is accepted."""
        names = [f.name for f in fields(HybridConfig)]
        missing = [name for name in names if name not in d]
        unknown = sorted(set(d) - set(names))
        if missing:
            raise ConfigError(f"missing fields {missing}")
        if unknown:
            raise ConfigError(f"unknown fields {unknown}")
        d = dict(d)
        for key in ("qt_labels", "widths", "head_widths"):
            d[key] = tuple(d[key])
        return HybridConfig(**d)


def scaled_config(
    variant: str = "type1", width_scale: float = 1.0, first_stride: int = 2, **other
) -> HybridConfig:
    """HybridConfig whose conv and head widths are the variant's base widths
    times width_scale, rounded, with at least 1 channel per conv and 2 units
    per head layer. type2's first conv always has stride 1.

    ``other`` sets the remaining HybridConfig fields.
    """
    # An unknown variant gets no widths here; HybridConfig rejects it.
    base = BASE_WIDTHS.get(variant, ())
    return HybridConfig(
        variant=variant,
        widths=tuple(max(1, round(w * width_scale)) for w in base),
        head_widths=tuple(max(2, round(w * width_scale)) for w in HEAD_WIDTHS),
        first_stride=first_stride if variant == "type1" else 1,
        **other,
    )


def _conv_block(name, in_ch, out_ch, kernel, stride, pad, use_bn, rng, dtype, input_grad=True):
    conv = Conv2d(in_ch, out_ch, kernel, stride, pad, rng, dtype, input_grad=input_grad)
    layers = [(f"{name}.conv", conv)]
    if use_bn:
        layers.append((f"{name}.bn", BatchNorm2d(out_ch, dtype)))
    layers.append((f"{name}.relu", ReLU()))
    return layers


def build_subnet(config: HybridConfig, rng=None, dtype=np.float32) -> Sequential:
    """Assemble one subnet for config's variant, widths and input size.

    It ends in a flat feature vector: type1 pools to 1x1 (widths[2]
    features), type2 to 2x2 (4 * widths[2]).
    """
    rng = rng or np.random.default_rng(0)
    c = config.kernel_size**2
    in_shape = (1, c, config.input_size, config.input_size)
    w1, w2, w3 = config.widths
    k1, k2, k3 = CONV_KERNELS[config.variant]
    bn = config.use_bn
    layers = _conv_block("b1", c, w1, k1, config.first_stride, 2, bn, rng, dtype, input_grad=False)
    if config.variant == "type1":
        layers += _conv_block("b2", w1, w2, k2, 2, 1, bn, rng, dtype)
        layers += _conv_block("b3", w2, w3, k3, 2, 0, bn, rng, dtype)
        spatial = Sequential(layers).out_shape(in_shape)[2]
        layers.append(("pool", AvgPool2d(spatial)))
    else:
        layers.append(("pool1", AvgPool2d(3, stride=2, pad=1)))
        layers += _conv_block("b2", w1, w2, k2, 1, 1, bn, rng, dtype)
        layers.append(("pool2", AvgPool2d(3, stride=2, pad=1)))
        layers += _conv_block("b3", w2, w3, k3, 2, 1, bn, rng, dtype)
        spatial = Sequential(layers).out_shape(in_shape)[2]
        if spatial % 2:
            raise ConfigError(f"type2 spatial size {spatial} not reducible to 2x2")
        layers.append(("pool3", AvgPool2d(spatial // 2)))
    layers.append(("flatten", Flatten()))
    return Sequential(layers)


class HybridModel:
    """Per-group subnets feeding a shared fully-connected head.

    Group order is fixed by config.qt_labels and serialized with checkpoints.
    """

    def __init__(self, config: HybridConfig, seed: int = 0, dtype=np.float32):
        self._build(config, seed, np.random.default_rng([seed, 0]), dtype)

    # The layers draw their initialization from rng.normal(loc, scale, size).
    def _build(self, config: HybridConfig, seed: int, rng, dtype) -> None:
        self.config = config
        self.seed = seed
        self.subnets = [build_subnet(config, rng, dtype) for _ in config.qt_labels]
        in_shape = (1, config.kernel_size**2, config.input_size, config.input_size)
        head_layers = []
        width_in = len(self.subnets) * self.subnets[0].out_shape(in_shape)[1]
        for i, width in enumerate(config.head_widths):
            head_layers.append((f"fc{i}", Dense(width_in, width, rng, dtype)))
            head_layers.append((f"relu{i}", ReLU()))
            width_in = width
        head_layers.append(("logits", Dense(width_in, N_CLASSES, rng, dtype)))
        self.head = Sequential(head_layers)

    # -- passes ---------------------------------------------------------------
    def forward(self, groups, training: bool = False) -> np.ndarray:
        """groups: one (N, k*k, H, W) array per Q&T group -> logits (N, 2).
        Eval mode (BN reads, and keeps, its running stats) unless ``training``."""
        if len(groups) != len(self.subnets):
            raise ValueError(
                f"model expects {len(self.subnets)} residual groups, got {len(groups)}"
            )
        feats = [net.forward(g, training) for net, g in zip(self.subnets, groups)]
        return self.head.forward(np.concatenate(feats, axis=1), training)

    def backward(self, grad_logits: np.ndarray) -> None:
        grad_feat = self.head.backward(grad_logits)
        splits = np.split(grad_feat, len(self.subnets), axis=1)
        for net, g in zip(self.subnets, splits):
            net.backward(np.ascontiguousarray(g))

    def predict(self, groups) -> np.ndarray:
        return np.argmax(self.forward(groups), axis=1)

    # -- parameter plumbing ----------------------------------------------------
    def named_layers(self):
        for gi, net in enumerate(self.subnets):
            for name, layer in net.named_layers:
                yield f"g{gi}.{name}", layer
        for name, layer in self.head.named_layers:
            yield f"head.{name}", layer

    def named_params(self):
        """Yields (path, layer, attr, decayed) in a fixed order."""
        for lname, layer in self.named_layers():
            for attr in layer.param_names():
                yield f"{lname}.{attr}", layer, attr, attr in layer.decayed


def build_hybrid_model(config: HybridConfig, seed: int = 0, dtype=np.float32) -> HybridModel:
    return HybridModel(config, seed=seed, dtype=dtype)
