import numpy as np
import pytest

from stegokit import codec, stego_sim, trainer
from stegokit.micronet import HybridConfig, build_hybrid_model, load_checkpoint
from stegokit.residual import DEFAULT_QT_SPECS, dct_basis


def make_splits(n_pairs=12, size=16, seed=0, rate=0.3):
    covers, stegos = [], []
    for pid in range(n_pairs):
        pix = stego_sim.synthetic_cover(size, np.random.default_rng([seed, 2, pid]))
        grid = stego_sim.prepare_cover(pix, 75)
        st, _ = stego_sim.embed(
            grid, stego_sim.EmbedSpec(rate=rate, seed=seed),
            rng=np.random.default_rng([seed, 3, pid]),
        )
        covers.append(codec.decompress(grid).values.astype(np.float32))
        stegos.append(codec.decompress(st).values.astype(np.float32))
    covers, stegos = np.stack(covers), np.stack(stegos)
    half = n_pairs // 2
    return (
        trainer.PairSplit(covers[:half], stegos[:half]),
        trainer.PairSplit(covers[half:], stegos[half:]),
    )


def tiny_model(seed=0, size=16):
    cfg = HybridConfig(input_size=size, widths=(2, 4, 16), head_widths=(16, 8, 4))
    return build_hybrid_model(cfg, seed=seed)


def tiny_front():
    return trainer.FrontEnd(dct_basis(5), DEFAULT_QT_SPECS)


class TestLrSchedule:
    def test_schedule_values(self):
        cfg = trainer.TrainConfig()
        assert abs(trainer.lr_at(0, cfg) - 0.01) < 1e-12
        assert abs(trainer.lr_at(5000, cfg) - 0.009) < 1e-12
        assert abs(trainer.lr_at(12000, cfg) - 0.0081) < 1e-12

    def test_non_increasing(self):
        cfg = trainer.TrainConfig()
        values = [trainer.lr_at(i, cfg) for i in range(0, 50001, 999)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            trainer.lr_at(-1, trainer.TrainConfig())


class TestSgdUpdate:
    def test_single_step(self):
        w = np.array([1.0])
        v = np.array([0.0])
        trainer.sgd_update(w, v, np.array([1.0]), lr=0.01, momentum=0.9, weight_decay=0.0)
        assert abs(v[0] + 0.01) < 1e-12
        assert abs(w[0] - 0.99) < 1e-12

    def test_momentum_accumulates(self):
        w = np.array([1.0])
        v = np.array([0.0])
        for _ in range(2):
            trainer.sgd_update(w, v, np.array([1.0]), 0.01, 0.9, 0.0)
        assert abs(v[0] + 0.019) < 1e-12  # -0.01 + 0.9*(-0.01)

    def test_weight_decay_alone(self):
        w = np.array([1.0])
        v = np.array([0.0])
        trainer.sgd_update(w, v, np.array([0.0]), 0.01, 0.9, 0.0005)
        assert abs(w[0] - 0.999995) < 1e-12

    def test_reduces_to_vanilla_gd(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=5)
        g = rng.normal(size=5)
        expect = w - 0.01 * g
        v = np.zeros(5)
        trainer.sgd_update(w, v, g, 0.01, momentum=0.0, weight_decay=0.0)
        assert np.array_equal(w, expect)


class TestSgdStep:
    def test_weight_decay_skips_biases_and_bn(self):
        model = tiny_model()
        before = {
            name: getattr(layer, attr).copy()
            for name, layer, attr, _ in model.named_params()
        }
        for _, layer, attr, _ in model.named_params():
            setattr(layer, "g" + attr, np.zeros_like(getattr(layer, attr)))
        cfg = trainer.TrainConfig(weight_decay=0.1)
        trainer.sgd_step(model, {}, cfg, iteration=0)
        for name, layer, attr, decayed in model.named_params():
            now = getattr(layer, attr)
            if decayed:
                assert not np.array_equal(now, before[name]) or not before[name].any(), name
            else:
                assert np.array_equal(now, before[name]), name

    def test_non_finite_gradient_aborts_with_layer_name(self):
        model = tiny_model()
        for _, layer, attr, _ in model.named_params():
            setattr(layer, "g" + attr, np.zeros_like(getattr(layer, attr)))
        first = next(iter(model.named_params()))
        getattr(first[1], "g" + first[2])[...] = np.nan
        with pytest.raises(trainer.DivergenceError, match=first[0]):
            trainer.sgd_step(model, {}, trainer.TrainConfig(), iteration=7)


class TestTrainConfig:
    def test_odd_batch_rejected(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(batch_size=63)

    def test_non_positive_values_rejected(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(max_iter=0)


class TestEvaluate:
    def test_fresh_model_near_chance(self):
        train_split, test_split = make_splits(n_pairs=16)
        model = tiny_model(seed=1)
        acc, cover_acc, stego_acc = trainer.evaluate(model, tiny_front(), test_split)
        assert abs(acc - 0.5) <= 0.05
        assert 0.0 <= cover_acc <= 1.0 and 0.0 <= stego_acc <= 1.0

    def test_accuracy_definition(self):
        # a constant predictor scores exactly 0.5 on a balanced split
        train_split, test_split = make_splits(n_pairs=8)
        model = tiny_model(seed=2)
        for _, layer, attr, _ in model.named_params():
            getattr(layer, attr)[...] = 0.0
        bias = model.head.named_layers[-1][1].b
        bias[0] = 1.0  # always predict cover
        acc, cover_acc, stego_acc = trainer.evaluate(model, tiny_front(), test_split)
        assert acc == 0.5 and cover_acc == 1.0 and stego_acc == 0.0

    @pytest.mark.parametrize(
        "front",
        [
            trainer.FrontEnd(dct_basis(5), DEFAULT_QT_SPECS[::-1]),
            trainer.FrontEnd(dct_basis(5), DEFAULT_QT_SPECS[:2]),
            trainer.FrontEnd(dct_basis(3), DEFAULT_QT_SPECS),
        ],
        ids=["reversed-qt", "fewer-groups", "other-bank"],
    )
    def test_qt_order_mismatch_rejected(self, front):
        train_split, test_split = make_splits(n_pairs=4)
        model = tiny_model()
        cfg = trainer.TrainConfig(batch_size=2, max_iter=1, eval_every=1)
        with pytest.raises(ValueError, match="does not match the model"):
            trainer.evaluate(model, front, test_split)
        with pytest.raises(ValueError, match="does not match the model"):
            trainer.train(model, front, train_split, test_split, cfg)


class TestTrainLoop:
    def test_metrics_written_and_reproducible(self, tmp_path):
        train_split, test_split = make_splits(n_pairs=8)
        cfg = trainer.TrainConfig(batch_size=4, max_iter=6, eval_every=3, seed=11)
        outputs = []
        for run in ("a", "b"):
            model = tiny_model(seed=11)
            metrics = trainer.train(
                model,
                tiny_front(),
                train_split,
                test_split,
                cfg,
                metrics_path=tmp_path / f"{run}.csv",
                checkpoint_path=tmp_path / f"{run}.ckpt",
                run_config={"seed": 11},
            )
            assert [m.iteration for m in metrics] == [3, 6]
            outputs.append(run)
        # byte-identical checkpoints; metrics identical except the seconds column
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        rows_a = (tmp_path / "a.csv").read_text().splitlines()
        rows_b = (tmp_path / "b.csv").read_text().splitlines()
        assert rows_a[0] == rows_b[0] == '# {"seed": 11}'
        assert rows_a[1] == trainer.METRICS_CSV_HEADER
        strip = lambda rows: [",".join(r.split(",")[:-1]) for r in rows[2:]]
        assert strip(rows_a) == strip(rows_b)

    def test_batch_larger_than_split_rejected(self):
        train_split, test_split = make_splits(n_pairs=4)
        cfg = trainer.TrainConfig(batch_size=64, max_iter=1, eval_every=1)
        with pytest.raises(ValueError):
            trainer.train(tiny_model(), tiny_front(), train_split, test_split, cfg)

    def test_stop_accuracy_short_circuits(self, tmp_path):
        train_split, test_split = make_splits(n_pairs=8)
        cfg = trainer.TrainConfig(batch_size=4, max_iter=50, eval_every=2, seed=3)
        metrics = trainer.train(
            tiny_model(seed=3), tiny_front(), train_split, test_split, cfg,
            stop_accuracy=0.0,
        )
        assert metrics[-1].iteration == 2  # first eval already satisfies 0.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_aborts(self):
        train_split, test_split = make_splits(n_pairs=8)
        model = tiny_model(seed=4)
        first = next(iter(model.named_params()))
        getattr(first[1], first[2])[...] = np.inf
        cfg = trainer.TrainConfig(batch_size=4, max_iter=3, eval_every=10)
        with pytest.raises(trainer.DivergenceError):
            trainer.train(model, tiny_front(), train_split, test_split, cfg)


class TestPairSplit:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            trainer.PairSplit(np.zeros((2, 8, 8), np.float32), np.zeros((3, 8, 8), np.float32))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trainer.PairSplit(np.zeros((0, 8, 8), np.float32), np.zeros((0, 8, 8), np.float32))


class TestBatchIterator:
    def test_deterministic_and_covering(self):
        rng_a = np.random.default_rng([5, 1])
        rng_b = np.random.default_rng([5, 1])
        it_a = trainer._batch_iterator(10, 2, rng_a)
        it_b = trainer._batch_iterator(10, 2, rng_b)
        seen = []
        for _ in range(5):  # one epoch
            a = next(it_a)
            b = next(it_b)
            assert np.array_equal(a, b)
            seen.extend(a.tolist())
        assert sorted(seen) == list(range(10))


class TestEnsembleVote:
    def test_majority_example(self):
        votes = np.array([[1], [1], [0], [1], [0]])
        assert trainer.ensemble_vote(votes)[0] == 1

    def test_unanimous(self):
        votes = np.zeros((5, 4), dtype=np.int64)
        assert np.array_equal(trainer.ensemble_vote(votes), np.zeros(4, np.int64))

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(6)
        votes = rng.integers(0, 2, size=(5, 1000))
        expect = np.array(
            [np.bincount(votes[:, i], minlength=2).argmax() for i in range(1000)]
        )
        assert np.array_equal(trainer.ensemble_vote(votes), expect)

    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            trainer.ensemble_vote(np.zeros((4, 10), dtype=np.int64))
