import numpy as np
import pytest

from stegokit.micronet import (
    HybridConfig,
    build_hybrid_model,
    build_subnet,
    load_checkpoint,
    save_checkpoint,
    scaled_config,
)
from stegokit.micronet.model import MAX_SIZE, ConfigError
from stegokit.micronet import ops
from stegokit.residual import DEFAULT_QT_SPECS, dct_basis, front_stage_batch


class TestSubnetShapes:
    @pytest.mark.parametrize("size", [256, 64])
    def test_type1_ends_at_512(self, size):
        net = build_subnet(scaled_config("type1", input_size=size))
        assert net.out_shape((1, 25, size, size)) == (1, 512)

    def test_type1_desk_scale_quarter_widths(self):
        net = build_subnet(scaled_config("type1", 0.25, input_size=16))
        assert net.out_shape((1, 25, 16, 16)) == (1, 128)

    @pytest.mark.parametrize("size", [256, 64])
    def test_type2_ends_at_512(self, size):
        cfg = scaled_config("type2", input_size=size)
        assert cfg.widths == (16, 32, 128) and cfg.first_stride == 1
        net = build_subnet(cfg)
        assert net.out_shape((1, 25, size, size)) == (1, 512)

    def test_type1_doubled_stride_supports_512px(self):
        net = build_subnet(scaled_config("type1", first_stride=4, input_size=512))
        assert net.out_shape((1, 25, 512, 512)) == (1, 512)

    def test_type2_progressive_pool_count(self):
        net = build_subnet(scaled_config("type2", input_size=256))
        pools = [name for name, _ in net.named_layers if name.startswith("pool")]
        assert pools == ["pool1", "pool2", "pool3"]

    def test_bn_layers_present_by_default_and_removable(self):
        net = build_subnet(scaled_config("type1", input_size=64))
        assert any(name.endswith(".bn") for name, _ in net.named_layers)
        net = build_subnet(scaled_config("type1", input_size=64, use_bn=False))
        assert not any(name.endswith(".bn") for name, _ in net.named_layers)

    def test_type2_odd_spatial_rejected(self):
        with pytest.raises((ConfigError, ValueError)):
            build_subnet(scaled_config("type2", input_size=24))  # 24 -> 12 -> 6 -> 3, not 2x2

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            scaled_config("type3")
        with pytest.raises(ConfigError):
            HybridConfig(variant="type3")
        with pytest.raises(ConfigError):
            HybridConfig(widths=(16, 64))

    def test_width_scale_rounds_with_floors(self):
        cfg = scaled_config("type1", 0.125)
        assert cfg.widths == (2, 8, 64)
        assert cfg.head_widths == (100, 50, 25)
        cfg = scaled_config("type2", 0.01, first_stride=4)
        assert cfg.widths == (1, 1, 1)
        assert cfg.head_widths == (8, 4, 2)
        assert cfg.first_stride == 1
        assert scaled_config("type1", 0.001).head_widths == (2, 2, 2)


class TestConfigBounds:
    @staticmethod
    def stored(model):
        """Every parameter and BN statistic of model, by record name."""
        return {
            f"{name}.{attr}": getattr(layer, attr)
            for name, layer in model.named_layers()
            for attr in layer.param_names() + layer.state_names()
        }

    @pytest.mark.parametrize("variant", ["type1", "type2"])
    @pytest.mark.parametrize("use_bn", [True, False])
    @pytest.mark.parametrize("kernel_size, qt_labels, scale", [
        (5, ("4:1", "4:2", "4:4"), 0.125), (3, ("4:2",), 0.25), (8, ("4:1", "4:2"), 0.1),
    ])
    def test_checkpoint_holds_the_header_and_every_built_array(
        self, variant, use_bn, kernel_size, qt_labels, scale, tmp_path
    ):
        # The loader's size check counts the arrays of the skeleton it builds,
        # so a file saved from any config must pass it and load back whole.
        cfg = scaled_config(variant, scale, kernel_size=kernel_size, qt_labels=qt_labels,
                            input_size=32, use_bn=use_bn)
        model = build_hybrid_model(cfg, seed=4)
        arrays = self.stored(model)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        header_length = int.from_bytes(data[4:8], "little")
        assert len(data) == 8 + header_length + 4 * sum(a.size for a in arrays.values())
        back = self.stored(load_checkpoint(path)[0])
        assert back.keys() == arrays.keys()
        for key, array in arrays.items():
            assert back[key].flags.writeable and np.array_equal(back[key], array), key

    @pytest.mark.parametrize("field, value", [
        ("widths", (16, 64, MAX_SIZE + 1)),
        ("widths", (16, 0, 512)),
        ("head_widths", (800, 400.0, 200)),
        ("input_size", 0),
        ("input_size", "256"),
        ("first_stride", 0),
        ("widths", (True, 64, 512)),
        ("first_stride", True),
        ("use_bn", "false"),
        ("use_bn", 1),
    ])
    def test_out_of_range_sizes_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            HybridConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("kernel_size", 7),
        ("kernel_size", 5.0),
        ("qt_labels", (1, 2, 3)),
        ("qt_labels", ("4:1", "4:2", "x:y")),
        ("qt_labels", ("4:1.0",)),
        ("qt_labels", ("4:1,4:2",)),
        ("qt_labels", ("4:inf",)),
        ("qt_labels", ()),
        ("qt_labels", tuple(f"4:{q}" for q in range(1, 18))),
    ])
    def test_front_end_fields_the_front_end_cannot_build_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            HybridConfig(**{field: value})


def tiny_config(qt_labels=("4:1", "4:2", "4:4")):
    return HybridConfig(
        input_size=16,
        widths=(2, 4, 16),
        head_widths=(20, 10, 5),
        qt_labels=qt_labels,
    )


class TestHybridModel:
    def test_probabilities_sum_to_one(self):
        model = build_hybrid_model(tiny_config(), seed=0)
        rng = np.random.default_rng(0)
        groups = [rng.integers(-4, 5, (3, 25, 16, 16)).astype(np.float32) for _ in range(3)]
        probs = ops.softmax(model.forward(groups))
        assert probs.shape == (3, 2)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_zero_parameters_give_uniform_probabilities(self):
        model = build_hybrid_model(tiny_config(), seed=0)
        for _, layer, attr, _ in model.named_params():
            getattr(layer, attr)[...] = 0.0
        rng = np.random.default_rng(1)
        groups = [rng.integers(-4, 5, (2, 25, 16, 16)).astype(np.float32) for _ in range(3)]
        assert np.array_equal(model.forward(groups), np.zeros((2, 2), np.float32))

    def test_group_count_mismatch_rejected(self):
        model = build_hybrid_model(tiny_config(), seed=0)
        groups = [np.zeros((2, 25, 16, 16), np.float32)] * 2
        with pytest.raises(ValueError):
            model.forward(groups)

    def test_head_shapes(self):
        model = build_hybrid_model(HybridConfig(input_size=64), seed=0)
        dims = [layer.w.shape for _, layer in model.head.named_layers if hasattr(layer, "w")]
        assert dims == [(1536, 800), (800, 400), (400, 200), (200, 2)]

    def test_single_group_model_halves_head_input(self):
        cfg = HybridConfig(input_size=64, qt_labels=("4:2",))
        model = build_hybrid_model(cfg, seed=0)
        first = next(layer for _, layer in model.head.named_layers if hasattr(layer, "w"))
        assert first.w.shape[0] == 512

    def test_deterministic_forward(self):
        model = build_hybrid_model(tiny_config(), seed=5)
        rng = np.random.default_rng(2)
        groups = [rng.normal(size=(2, 25, 16, 16)).astype(np.float32) for _ in range(3)]
        a = model.forward(groups)
        b = model.forward(groups)
        assert np.array_equal(a, b)

    def test_forward_defaults_to_eval_mode(self):
        model = build_hybrid_model(tiny_config(), seed=6)
        rng = np.random.default_rng(10)
        groups = [rng.normal(size=(2, 25, 16, 16)).astype(np.float32) for _ in range(3)]

        def running_stats():
            return [
                getattr(layer, attr).copy()
                for _, layer in model.named_layers()
                for attr in layer.state_names()
            ]

        before = running_stats()
        assert before
        logits = model.forward(groups)
        for was, now in zip(before, running_stats()):
            assert np.array_equal(was, now)
        assert np.array_equal(logits, model.forward(groups, training=False))

    def test_same_seed_same_init(self):
        a = build_hybrid_model(tiny_config(), seed=9)
        b = build_hybrid_model(tiny_config(), seed=9)
        for (na, la, aa, _), (_, lb, ab, _) in zip(a.named_params(), b.named_params()):
            assert np.array_equal(getattr(la, aa), getattr(lb, ab)), na


class TestGradientState:
    """Gradients exist only once backward has run, and eval mode caches nothing."""

    def grads(self, model):
        return [
            f"{lname}.g{attr}"
            for lname, layer in model.named_layers()
            for attr in layer.param_names()
            if hasattr(layer, "g" + attr)
        ]

    def test_fresh_and_loaded_models_hold_no_gradients(self, tmp_path):
        model = build_hybrid_model(tiny_config(), seed=2)
        assert self.grads(model) == []
        save_checkpoint(model, tmp_path / "m.ckpt")
        assert self.grads(load_checkpoint(tmp_path / "m.ckpt")[0]) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_gives_every_parameter_its_gradient(self, dtype):
        model = build_hybrid_model(tiny_config(), seed=2, dtype=dtype)
        rng = np.random.default_rng(11)
        groups = [rng.integers(-4, 5, (4, 25, 16, 16)).astype(dtype) for _ in range(3)]
        _, grad = ops.softmax_xent(model.forward(groups, training=True), np.array([0, 1, 1, 0]))
        model.backward(grad)
        for name, layer, attr, _ in model.named_params():
            param, g = getattr(layer, attr), getattr(layer, "g" + attr)
            assert (g.shape, g.dtype) == (param.shape, param.dtype), name

    def test_eval_forward_caches_no_arrays(self):
        model = build_hybrid_model(tiny_config(), seed=2)
        rng = np.random.default_rng(12)
        model.forward([rng.normal(size=(2, 25, 16, 16)).astype(np.float32) for _ in range(3)])
        for lname, layer in model.named_layers():
            kept = set(layer.param_names()) | set(layer.state_names())
            held = [k for k, v in vars(layer).items() if isinstance(v, np.ndarray)]
            assert set(held) <= kept, lname


class TestHybridForward:
    def test_on_residual_stack(self):
        rng = np.random.default_rng(3)
        planes = rng.uniform(0, 255, (1, 16, 16))
        groups = front_stage_batch(planes, dct_basis(5), DEFAULT_QT_SPECS)
        model = build_hybrid_model(tiny_config(), seed=0)
        logits = model.forward(groups)
        assert logits.shape == (1, 2)
        assert np.all(np.isfinite(logits))

    def test_batch_of_stacks(self):
        rng = np.random.default_rng(4)
        planes = rng.uniform(0, 255, (3, 16, 16))
        groups = front_stage_batch(planes, dct_basis(5), DEFAULT_QT_SPECS)
        model = build_hybrid_model(tiny_config(), seed=0)
        logits = model.forward(groups)
        assert logits.shape == (3, 2)
        for i in range(3):
            alone = model.forward([g[i : i + 1] for g in groups])
            assert np.allclose(alone[0], logits[i], atol=1e-6)

    @pytest.mark.parametrize("variant", ["type1", "type2"])
    def test_logits_do_not_depend_on_the_groups_layout(self, variant):
        # The front end hands out channels-last views; NCHW copies of them
        # must give the same logits, in eval and in train mode.
        planes = np.random.default_rng(5).uniform(0, 255, (4, 32, 32))
        groups = front_stage_batch(planes, dct_basis(5), DEFAULT_QT_SPECS)
        copies = [np.ascontiguousarray(g) for g in groups]
        assert not groups[0].flags.c_contiguous
        model = build_hybrid_model(scaled_config(variant, 0.25, input_size=32), seed=1)
        for training in (False, True):
            assert np.array_equal(
                model.forward(groups, training), model.forward(copies, training)
            )


class TestFullModelGradients:
    def test_sampled_finite_differences(self):
        cfg = HybridConfig(
            input_size=16, widths=(2, 4, 16), head_widths=(16, 8, 4),
        )
        model = build_hybrid_model(cfg, seed=3, dtype=np.float64)
        rng = np.random.default_rng(7)
        groups = [rng.integers(-4, 5, (4, 25, 16, 16)).astype(np.float64) for _ in range(3)]
        labels = np.array([0, 1, 1, 0])

        def loss_fn():
            logits = model.forward(groups, training=True)
            return ops.softmax_xent(logits, labels)[0]

        logits = model.forward(groups, training=True)
        _, grad = ops.softmax_xent(logits, labels)
        model.backward(grad)

        for name, layer, attr, _ in model.named_params():
            arr = getattr(layer, attr)
            ana = getattr(layer, "g" + attr)
            flat, gflat = arr.reshape(-1), ana.reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[i]
                h = 1e-6 * max(1.0, abs(orig))
                flat[i] = orig + h
                hi = loss_fn()
                flat[i] = orig - h
                lo = loss_fn()
                flat[i] = orig
                num = (hi - lo) / (2 * h)
                scale = max(abs(num), abs(gflat[i]))
                assert abs(num - gflat[i]) <= 1e-5 * scale or scale <= 1e-7, (
                    f"{name}[{i}]: analytic {gflat[i]:.3e} numeric {num:.3e}"
                )


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        model = build_hybrid_model(tiny_config(), seed=4)
        rng = np.random.default_rng(8)
        # push some training noise into params and BN stats
        groups = [rng.normal(size=(4, 25, 16, 16)).astype(np.float32) for _ in range(3)]
        model.forward(groups, training=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, iteration=17)
        loaded, header = load_checkpoint(path)
        assert header["iteration"] == 17
        assert header["seed"] == 4
        assert header["qt_order"] == ["4:1", "4:2", "4:4"]
        for (name, la, aa, _), (_, lb, ab, _) in zip(
            model.named_params(), loaded.named_params()
        ):
            assert np.allclose(getattr(la, aa), getattr(lb, ab), atol=1e-7), name
        logits_a = model.forward(groups, training=False)
        logits_b = loaded.forward(groups, training=False)
        assert np.allclose(logits_a, logits_b, atol=1e-6)

    def test_bn_running_stats_serialized(self, tmp_path):
        model = build_hybrid_model(tiny_config(), seed=4)
        rng = np.random.default_rng(9)
        groups = [rng.normal(size=(4, 25, 16, 16)).astype(np.float32) for _ in range(3)]
        model.forward(groups, training=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        for (name, la), (_, lb) in zip(model.named_layers(), loaded.named_layers()):
            for attr in la.state_names():
                assert np.allclose(getattr(la, attr), getattr(lb, attr), atol=1e-7), name

    def test_save_is_deterministic(self, tmp_path):
        model = build_hybrid_model(tiny_config(), seed=4)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, a, iteration=3)
        save_checkpoint(model, b, iteration=3)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ValueError):
            load_checkpoint(path)
