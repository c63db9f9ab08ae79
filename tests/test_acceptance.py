"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured values (run with ``pytest tests/test_acceptance.py -v -s``).

The two training criteria dominate the runtime; everything else finishes in
seconds. Ordering in this file is cheap-to-expensive.
"""

import numpy as np
import pytest

from stegokit import codec, stego_sim, trainer
from stegokit.codec import ImagePlane, StegoNoiseGrid
from stegokit.micronet import HybridConfig, build_hybrid_model
from stegokit.micronet import ops
from stegokit.propositions import (
    average_ratio_histograms,
    energy_audit,
    gradient_dominance,
    qt_finite_difference,
    qt_gradient_scan,
    ratio_histogram,
)
from stegokit.residual import DEFAULT_QT_SPECS, QtSpec, dct_basis, quantize_truncate


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(f"\n{line}")
    assert passed, line


# -- criterion 1: orthonormality & Parseval -------------------------------------


def test_criterion_1_orthonormality_and_parseval():
    worst_gram = 0.0
    for k in (3, 5, 8):
        flat = dct_basis(k).kernels.reshape(k * k, k * k)
        worst_gram = max(worst_gram, float(np.abs(flat @ flat.T - np.eye(k * k)).max()))
    assert worst_gram < 1e-10

    rng = np.random.default_rng(100)
    qt = codec.quant_table_for_quality(75)
    worst_gap = 0.0
    for _ in range(10_000):
        coeffs = rng.integers(-1, 2, size=(16, 16)).astype(np.int16)
        gap = energy_audit(StegoNoiseGrid(coeffs), qt).relative_gap
        worst_gap = max(worst_gap, gap)
    report(
        "1 orthonormality/Parseval",
        worst_gram < 1e-10 and worst_gap < 1e-9,
        f"max Gram deviation {worst_gram:.2e} (<1e-10), "
        f"max energy gap over 10^4 grids {worst_gap:.2e} (<1e-9)",
    )


# -- criterion 2: Q&T staircase equivalence -------------------------------------


def staircase_oracle(z, spec):
    """Literal interval membership of the staircase definition."""
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


def test_criterion_2_qt_staircase_equivalence():
    total = 0
    for q in (1.0, 2.0, 4.0):
        spec = QtSpec(4, q)
        z = np.arange(-100_000, 100_001, dtype=np.float64) / 10_000.0  # [-10, 10] step 1e-4
        ours = quantize_truncate(z, spec).astype(np.int64)
        oracle = staircase_oracle(z, spec)
        assert np.array_equal(ours, oracle), f"mismatch at q={q}"
        total += z.size
    report(
        "2 Q&T staircase oracle",
        total >= 600_000,
        f"exact agreement on {total} points across q in {{1,2,4}}, T=4",
    )


# -- criterion 3: Q&T gradient nullity ------------------------------------------


def test_criterion_3_gradient_nullity():
    fractions = {}
    for spec in DEFAULT_QT_SPECS:
        fractions[spec.label()] = qt_gradient_scan(spec, n_points=100_000, h=1e-4, seed=101)
    probe = float(qt_finite_difference(np.array([0.5]), QtSpec(4, 1), h=0.1)[0])
    ok = all(f == 0.0 for f in fractions.values()) and np.isclose(probe, 1.0 / 0.2)
    report(
        "3 gradient nullity",
        ok,
        f"nonzero fractions {fractions} (all exactly 0), "
        f"straddle probe {probe} == 1/(2h) = 5.0",
    )


# -- criterion 7: schedule/optimizer exactness -----------------------------------


def test_criterion_7_schedule_and_optimizer():
    cfg = trainer.TrainConfig()
    sched_ok = (
        abs(trainer.lr_at(0, cfg) - 0.01) < 1e-12
        and abs(trainer.lr_at(5000, cfg) - 0.009) < 1e-12
        and abs(trainer.lr_at(12000, cfg) - 0.0081) < 1e-12
    )
    w, v = np.array([1.0]), np.array([0.0])
    trainer.sgd_update(w, v, np.array([1.0]), 0.01, 0.9, 0.0)
    step1_ok = abs(v[0] + 0.01) < 1e-12 and abs(w[0] - 0.99) < 1e-12
    trainer.sgd_update(w, v, np.array([1.0]), 0.01, 0.9, 0.0)
    step2_ok = abs(v[0] + 0.019) < 1e-12
    w, v = np.array([1.0]), np.array([0.0])
    trainer.sgd_update(w, v, np.array([0.0]), 0.01, 0.9, 0.0005)
    decay_ok = abs(w[0] - 0.999995) < 1e-12
    report(
        "7 schedule/optimizer",
        sched_ok and step1_ok and step2_ok and decay_ok,
        "lr 0.01/0.009/0.0081 at 0/5000/12000; momentum and decay hand values to 1e-12",
    )


# -- criterion 4: gradient correctness -------------------------------------------


def rel_ok(analytic, numeric, tol=1e-6, zero_floor=1e-7):
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return bool(((np.abs(analytic - numeric) <= tol * scale) | (scale <= zero_floor)).all())


def numeric_grad(fn, arr, h=1e-6):
    grad = np.zeros_like(arr, dtype=np.float64)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
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


def test_criterion_4_layer_gradients():
    rng = np.random.default_rng(102)
    checks = []

    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    for stride, pad in ((1, 1), (2, 2)):
        proj = rng.normal(size=ops.conv2d_forward(x, w, b, stride, pad).shape)

        def loss():
            return float((ops.conv2d_forward(x, w, b, stride, pad) * proj).sum())

        gx, gw, gb = ops.conv2d_backward(x, w, proj.copy(), stride, pad)
        checks.append(("conv_x", rel_ok(gx, numeric_grad(loss, x))))
        checks.append(("conv_w", rel_ok(gw, numeric_grad(loss, w))))
        checks.append(("conv_b", rel_ok(gb, numeric_grad(loss, b))))

    xb = rng.normal(size=(3, 2, 4, 4))
    gamma = rng.normal(1.0, 0.1, size=2)
    beta = rng.normal(size=2)
    proj = rng.normal(size=xb.shape)

    def bn_loss():
        out, _ = ops.batchnorm_forward(xb, gamma, beta, np.zeros(2), np.ones(2), True)
        return float((out * proj).sum())

    _, cache = ops.batchnorm_forward(xb, gamma, beta, np.zeros(2), np.ones(2), True)
    gx, gg, gbta = ops.batchnorm_backward(cache, proj.copy())
    checks.append(("bn_x", rel_ok(gx, numeric_grad(bn_loss, xb))))
    checks.append(("bn_gamma", rel_ok(gg, numeric_grad(bn_loss, gamma))))
    checks.append(("bn_beta", rel_ok(gbta, numeric_grad(bn_loss, beta))))

    xr = rng.normal(size=(2, 2, 5, 5))
    projr = rng.normal(size=xr.shape)

    def relu_loss():
        return float((ops.relu(xr) * projr).sum())

    checks.append(("relu", rel_ok(ops.relu_backward(xr, projr), numeric_grad(relu_loss, xr))))

    xp = rng.normal(size=(2, 2, 6, 6))
    projp = rng.normal(size=ops.avgpool(xp, 3, 2, 1).shape)

    def pool_loss():
        return float((ops.avgpool(xp, 3, 2, 1) * projp).sum())

    checks.append(
        ("avgpool", rel_ok(ops.avgpool_backward(projp, xp.shape, 3, 2, 1),
                           numeric_grad(pool_loss, xp)))
    )

    xf = rng.normal(size=(4, 5))
    wf = rng.normal(size=(5, 3))
    bf = rng.normal(size=3)
    projf = rng.normal(size=(4, 3))

    def fc_loss():
        return float((ops.fc(xf, wf, bf) * projf).sum())

    gx, gw, gb = ops.fc_backward(xf, wf, projf)
    checks.append(("fc_x", rel_ok(gx, numeric_grad(fc_loss, xf))))
    checks.append(("fc_w", rel_ok(gw, numeric_grad(fc_loss, wf))))
    checks.append(("fc_b", rel_ok(gb, numeric_grad(fc_loss, bf))))

    logits = rng.normal(size=(4, 2))
    labels = np.array([0, 1, 1, 0])

    def sm_loss():
        return ops.softmax_xent(logits.copy(), labels)[0]

    _, gl = ops.softmax_xent(logits.copy(), labels)
    checks.append(("softmax_xent", rel_ok(gl, numeric_grad(sm_loss, logits))))

    failed = [name for name, ok in checks if not ok]
    report(
        "4a layer gradients",
        not failed,
        f"{len(checks)} layer-level finite-difference checks at 1e-6 (failed: {failed or 'none'})",
    )


def test_criterion_4_full_model_gradient():
    cfg = HybridConfig(
        input_size=16, widths=(4, 16, 128), head_widths=(200, 100, 50),
    )
    model = build_hybrid_model(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(103)
    groups = [rng.integers(-4, 5, (4, 25, 16, 16)).astype(np.float64) for _ in range(3)]
    labels = np.array([0, 1, 1, 0])

    def loss_fn():
        return ops.softmax_xent(model.forward(groups, training=True), labels)[0]

    _, grad = ops.softmax_xent(model.forward(groups, training=True), labels)
    model.backward(grad)

    n_checked, worst = 0, 0.0
    bad = []
    for name, layer, attr, _ in model.named_params():
        arr = getattr(layer, attr)
        ana = getattr(layer, "g" + attr).reshape(-1)
        flat = arr.reshape(-1)
        for i in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[i]
            h = 1e-5 * max(1.0, abs(orig))
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            num = (hi - lo) / (2.0 * h)
            scale = max(abs(num), abs(ana[i]))
            n_checked += 1
            if scale <= 1e-7:
                continue  # true-zero gradient (e.g. conv bias under BN): noise floor
            rel = abs(num - ana[i]) / scale
            worst = max(worst, rel)
            if rel > 1e-6:
                bad.append(f"{name}[{i}] rel {rel:.2e}")
    report(
        "4b full-model gradient",
        not bad,
        f"{n_checked} sampled entries across every parameter tensor, "
        f"worst relative error {worst:.2e} (tol 1e-6); bad: {bad or 'none'}",
    )


# -- criterion 5: magnitude-dominance diagnostic ----------------------------------


def test_criterion_5_proposition1_diagnostic():
    kern = np.random.default_rng(50).normal(size=(5, 5))
    kern /= np.sqrt((kern**2).sum())
    hists, medians, gaps = [], [], []
    for pid in range(500):
        pix = stego_sim.synthetic_cover(64, np.random.default_rng([51, pid]))
        grid = stego_sim.prepare_cover(pix, 75)
        _, noise_grid = stego_sim.embed(
            grid, stego_sim.EmbedSpec(rate=0.2, seed=51),
            rng=np.random.default_rng([52, pid]),
        )
        cover_plane = codec.decompress(grid)
        noise_plane = codec.noise_to_spatial(noise_grid, grid.quant_table)
        hists.append(ratio_histogram(cover_plane, noise_plane))
        gaps.append(energy_audit(noise_grid, grid.quant_table).relative_gap)
        medians.append(gradient_dominance(cover_plane, noise_plane, kern).median_ratio)
    mean_ratio = average_ratio_histograms(hists).mean
    dom_median = float(np.median(medians))
    report(
        "5 magnitude diagnostic",
        mean_ratio > 20.0 and dom_median > 10.0 and max(gaps) < 1e-9,
        f"500 covers at rate 0.2: ratio mean {mean_ratio:.2f} (>20), "
        f"dominance median {dom_median:.2f} (>10), max energy gap {max(gaps):.2e}",
    )


# -- criterion 9: ensemble ---------------------------------------------------------


def test_criterion_9_vote_oracle():
    rng = np.random.default_rng(104)
    votes = rng.integers(0, 2, size=(5, 100_000))
    ours = trainer.ensemble_vote(votes)
    oracle = (np.apply_along_axis(np.bincount, 0, votes, minlength=2)).argmax(axis=0)
    ok = np.array_equal(ours, oracle)
    report("9a vote oracle", ok, "majority vote equals counting oracle on 10^5 instances")


def _desk_dataset(n_pairs, size, seed, rate=0.2):
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
    return np.stack(covers), np.stack(stegos)


def test_criterion_9_ensemble_of_five():
    size, n_train, n_test = 32, 120, 60
    covers, stegos = _desk_dataset(n_train + n_test, size, seed=105)
    train_split = trainer.PairSplit(covers[:n_train], stegos[:n_train])
    test_split = trainer.PairSplit(covers[n_train:], stegos[n_train:])
    front = trainer.FrontEnd(dct_basis(5), DEFAULT_QT_SPECS)

    labels = np.concatenate([np.zeros(n_test, np.int64), np.ones(n_test, np.int64)])
    planes = np.concatenate([test_split.covers, test_split.stegos])
    singles, votes = [], []
    for seed in range(5):
        cfg = HybridConfig(input_size=size, widths=(4, 16, 128), head_widths=(200, 100, 50))
        model = build_hybrid_model(cfg, seed=200 + seed)
        tcfg = trainer.TrainConfig(seed=200 + seed, max_iter=400, eval_every=400,
                                   batch_size=32)
        trainer.train(model, front, train_split, test_split, tcfg)
        preds = np.concatenate(
            [model.predict(front.transform(planes[s : s + 64])) for s in range(0, len(planes), 64)]
        )
        votes.append(preds)
        singles.append(float((preds == labels).mean()))
    voted = trainer.ensemble_vote(np.stack(votes))
    ensemble_acc = float((voted == labels).mean())
    median_single = float(np.median(singles))
    report(
        "9b ensemble of five",
        ensemble_acc >= median_single,
        f"ensemble {ensemble_acc:.4f} vs median single {median_single:.4f} "
        f"(singles {['%.3f' % s for s in singles]}); gain "
        f"{ensemble_acc - median_single:+.4f}",
    )


# -- criterion 8: reproducibility ---------------------------------------------------


def test_criterion_8_reproducibility(tmp_path):
    from stegokit import cli

    # byte-identical manifests and coefficient files
    for sub in ("a", "b"):
        assert cli.main(
            ["make-dataset", "--synthetic", "8", "--size", "16", "--rate", "0.3",
             "--seed", "7", "--out", str(tmp_path / sub)]
        ) == 0
    manifests_equal = (tmp_path / "a" / "manifest.jsonl").read_bytes() == (
        tmp_path / "b" / "manifest.jsonl"
    ).read_bytes()
    grids_equal = all(
        (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        for rel in ("covers/syn00000.jcg", "stegos/syn00007.jcg")
    )

    # byte-identical checkpoints and metrics (seconds column excluded)
    for sub in ("ra", "rb"):
        assert cli.main(
            ["train", "--data", str(tmp_path / "a" / "manifest.jsonl"),
             "--out", str(tmp_path / sub), "--seed", "9", "--width-scale", "0.125",
             "--batch-size", "4", "--max-iter", "6", "--eval-every", "3"]
        ) == 0
    ckpt_equal = (tmp_path / "ra" / "model.ckpt").read_bytes() == (
        tmp_path / "rb" / "model.ckpt"
    ).read_bytes()

    def stripped(path):
        rows = path.read_text().splitlines()
        return [",".join(r.split(",")[:-1]) for r in rows]

    metrics_equal = stripped(tmp_path / "ra" / "metrics.csv") == stripped(
        tmp_path / "rb" / "metrics.csv"
    )
    report(
        "8 reproducibility",
        manifests_equal and grids_equal and ckpt_equal and metrics_equal,
        f"manifest bytes {manifests_equal}, coefficient bytes {grids_equal}, "
        f"checkpoint bytes {ckpt_equal}, metrics rows {metrics_equal}",
    )


# -- criterion 6: end-to-end learnability --------------------------------------------


@pytest.fixture(scope="module")
def e2e_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    stego_sim.build_dataset(
        out, stego_sim.EmbedSpec(rate=0.2, seed=60), qf=75, split_seed=61,
        synthetic=2000, size=64,
    )

    def load(split):
        covers, stegos = stego_sim.load_split_grids(out / "manifest.jsonl", split)
        c = np.stack([codec.decompress(g).values for g in covers]).astype(np.float32)
        s = np.stack([codec.decompress(g).values for g in stegos]).astype(np.float32)
        return trainer.PairSplit(c, s)

    return load("train"), load("test")


def test_criterion_6_end_to_end_learnability(e2e_dataset):
    train_split, test_split = e2e_dataset
    front = trainer.FrontEnd(dct_basis(5), DEFAULT_QT_SPECS)

    model = build_hybrid_model(HybridConfig(input_size=64), seed=62)
    cfg = trainer.TrainConfig(seed=62, max_iter=10_000, eval_every=250)
    metrics = trainer.train(
        model, front, train_split, test_split, cfg, stop_accuracy=0.65,
        log=lambda s: print("   ", s),
    )
    best = max(m.test_accuracy for m in metrics)
    main_iters = metrics[-1].iteration
    main_ok = best >= 0.65 and main_iters <= 10_000

    # shuffled-label control: seeded pairwise role swap decouples labels from
    # the embedding while keeping batches balanced
    rng = np.random.default_rng(63)
    swap = rng.random(len(train_split)) < 0.5
    ctrl_split = trainer.PairSplit(
        np.where(swap[:, None, None], train_split.stegos, train_split.covers),
        np.where(swap[:, None, None], train_split.covers, train_split.stegos),
    )
    ctrl_model = build_hybrid_model(HybridConfig(input_size=64), seed=64)
    ctrl_cfg = trainer.TrainConfig(seed=64, max_iter=main_iters, eval_every=250)
    ctrl_metrics = trainer.train(
        ctrl_model, front, ctrl_split, test_split, ctrl_cfg,
        log=lambda s: print("    control:", s),
    )
    ctrl_max = max(m.test_accuracy for m in ctrl_metrics)
    ctrl_ok = ctrl_max <= 0.55

    report(
        "6 end-to-end learnability",
        main_ok and ctrl_ok,
        f"default config on 2000 pairs reached {best:.4f} (>=0.65) at iteration "
        f"{main_iters} (<=10^4); shuffled-label control peaked at {ctrl_max:.4f} (<=0.55)",
    )
