"""Command-line front: dataset synthesis, training, evaluation, ensembling,
and the two proposition verifiers.

Exit codes: 0 success, 2 usage, 3 I/O, 4 dataset integrity, 5 divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import codec
from .micronet.checkpoint import load_checkpoint
from .micronet.model import ConfigError, HybridModel, scaled_config
from .propositions import (
    average_ratio_histograms,
    energy_audit,
    gradient_dominance,
    qt_finite_difference,
    qt_gradient_scan,
    ratio_histogram,
)
from .residual import QtSpec, dct_basis, parse_qt_specs, quantize_truncate
from .stego_sim import (
    DatasetIntegrityError,
    EmbedSpec,
    build_dataset,
    load_covers_dir,
    load_split_grids,
    read_manifest,
)
from .trainer import (
    DivergenceError,
    FrontEnd,
    PairSplit,
    TrainConfig,
    ensemble_vote,
    evaluate,
    predict,
    train,
)

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTEGRITY = 4
EXIT_DIVERGENCE = 5


def worker_count() -> int:
    """Worker cap from STEGOKIT_THREADS (default: number of CPUs)."""
    env = os.environ.get("STEGOKIT_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ValueError(f"STEGOKIT_THREADS must be an integer, got {env!r}") from exc
        if n < 1:
            raise ValueError("STEGOKIT_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _load_planes(manifest_path, split: str) -> PairSplit:
    covers, stegos = load_split_grids(manifest_path, split)
    cov = np.stack([codec.decompress(g).values for g in covers]).astype(np.float32)
    ste = np.stack([codec.decompress(g).values for g in stegos]).astype(np.float32)
    return PairSplit(cov, ste)


def _front_for(kernel_size: int, qt_labels) -> FrontEnd:
    return FrontEnd(dct_basis(kernel_size), parse_qt_specs(",".join(qt_labels)))


def _emit(report: dict, out_path=None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
    print(text)


# -- subcommands ---------------------------------------------------------------


def cmd_make_dataset(args) -> int:
    spec = EmbedSpec(rate=args.rate, seed=args.seed)
    covers = None
    if args.covers is not None:
        covers = load_covers_dir(args.covers)
    manifest = build_dataset(
        args.out,
        spec,
        qf=args.qf,
        split_seed=args.seed if args.split_seed is None else args.split_seed,
        covers=covers,
        synthetic=args.synthetic,
        size=args.size,
        workers=worker_count(),
    )
    _emit(
        {
            "manifest": str(Path(args.out) / "manifest.jsonl"),
            "config": manifest.config,
            "train_pairs": len(manifest.split("train")),
            "test_pairs": len(manifest.split("test")),
        }
    )
    return 0


def _resolved_train_config(args, input_size: int) -> dict:
    return {
        "subnet": args.subnet,
        "kernels": args.kernels,
        "qt": args.qt,
        "bn": not args.no_bn,
        "width_scale": args.width_scale,
        "first_stride": args.first_stride,
        "input_size": input_size,
        "base_lr": args.base_lr,
        "gamma": args.gamma,
        "stepsize": args.stepsize,
        "momentum": args.momentum,
        "weight_decay": args.weight_decay,
        "batch_size": args.batch_size,
        "max_iter": args.max_iter,
        "seed": args.seed,
        "eval_every": args.eval_every,
        "checkpoint_every": args.checkpoint_every,
        "data": str(args.data),
    }


def cmd_train(args) -> int:
    train_split = _load_planes(args.data, "train")
    test_split = _load_planes(args.data, "test")
    input_size = train_split.covers.shape[1]
    specs = parse_qt_specs(args.qt)

    model_cfg = scaled_config(
        args.subnet,
        args.width_scale,
        args.first_stride,
        kernel_size=args.kernels,
        qt_labels=tuple(s.label() for s in specs),
        input_size=input_size,
        use_bn=not args.no_bn,
    )
    model = HybridModel(model_cfg, seed=args.seed)
    front = FrontEnd(dct_basis(args.kernels), specs)
    cfg = TrainConfig(
        base_lr=args.base_lr,
        gamma=args.gamma,
        stepsize=args.stepsize,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        max_iter=args.max_iter,
        seed=args.seed,
        eval_every=args.eval_every,
        checkpoint_every=args.checkpoint_every,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_config = _resolved_train_config(args, input_size)
    metrics = train(
        model,
        front,
        train_split,
        test_split,
        cfg,
        metrics_path=out_dir / "metrics.csv",
        checkpoint_path=out_dir / "model.ckpt",
        stop_accuracy=args.stop_accuracy,
        run_config=run_config,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    last = metrics[-1]
    _emit(
        {
            "config": run_config,
            "checkpoint": str(out_dir / "model.ckpt"),
            "metrics": str(out_dir / "metrics.csv"),
            "iterations": last.iteration,
            "test_accuracy": last.test_accuracy,
        }
    )
    return 0


def cmd_eval(args) -> int:
    model, header = load_checkpoint(args.checkpoint)
    split = _load_planes(args.data, args.split)
    if split.covers.shape[1] != model.config.input_size:
        raise ValueError(
            f"checkpoint was trained on {model.config.input_size}px inputs, "
            f"data is {split.covers.shape[1]}px"
        )
    front = _front_for(model.config.kernel_size, model.config.qt_labels)
    acc, cover_acc, stego_acc = evaluate(model, front, split, args.batch_size)
    _emit(
        {
            "config": {"checkpoint": str(args.checkpoint), "data": str(args.data),
                       "split": args.split, "arch": header["arch"]},
            "accuracy": acc,
            "cover_acc": cover_acc,
            "stego_acc": stego_acc,
            "pairs": len(split),
        }
    )
    return 0


def cmd_ensemble(args) -> int:
    n = len(args.checkpoints)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"ensemble needs an odd number (>= 3) of checkpoints, got {n}")
    split = _load_planes(args.data, args.split)
    labels = np.concatenate([np.zeros(len(split), np.int64), np.ones(len(split), np.int64)])
    planes = np.concatenate([split.covers, split.stegos])
    votes, singles = [], []
    for ck in args.checkpoints:
        model, _ = load_checkpoint(ck)
        front = _front_for(model.config.kernel_size, model.config.qt_labels)
        preds = predict(model, front, planes, args.batch_size)
        votes.append(preds)
        singles.append(float((preds == labels).mean()))
    voted = ensemble_vote(np.stack(votes))
    _emit(
        {
            "config": {"checkpoints": [str(c) for c in args.checkpoints],
                       "data": str(args.data), "split": args.split},
            "ensemble_accuracy": float((voted == labels).mean()),
            "single_accuracies": singles,
            "pairs": len(split),
        }
    )
    return 0


def cmd_verify_prop1(args) -> int:
    manifest = read_manifest(args.data)
    base = Path(args.data).parent
    records = list(manifest.records) if args.split == "all" else manifest.split(args.split)
    if args.limit:
        records = records[: args.limit]
    if not records:
        raise ValueError("no records selected")

    k = 5
    kern = np.random.default_rng(args.kernel_seed).normal(size=(k, k))
    kern /= np.sqrt((kern**2).sum())

    from .containers import read_jcg
    from .codec import StegoNoiseGrid, noise_to_spatial

    hists, gaps, medians = [], [], []
    for rec in records:
        cover_grid = read_jcg(base / rec.cover_path)
        stego_grid = read_jcg(base / rec.stego_path)
        noise_grid = StegoNoiseGrid(
            coeffs=stego_grid.coeffs.astype(np.int32) - cover_grid.coeffs.astype(np.int32)
        )
        cover_plane = codec.decompress(cover_grid)
        noise_plane = noise_to_spatial(noise_grid, cover_grid.quant_table)
        try:
            hists.append(ratio_histogram(cover_plane, noise_plane))
        except ValueError:
            pass  # image whose noise rounds to zero everywhere
        gaps.append(energy_audit(noise_grid, cover_grid.quant_table).relative_gap)
        medians.append(gradient_dominance(cover_plane, noise_plane, kern).median_ratio)

    if not hists:
        raise ValueError("no image produced a nonempty ratio histogram")
    avg = average_ratio_histograms(hists)
    report = {
        "config": {"data": str(args.data), "split": args.split,
                   "kernel_seed": args.kernel_seed, "pairs": len(records)},
        "ratio_mean": avg.mean,
        "ratio_count": avg.count,
        "images_with_histogram": len(hists),
        "max_energy_gap": float(np.max(gaps)),
        "dominance_median_ratio": float(np.median(medians)),
    }
    _emit(report, args.out)
    if args.plot:
        centers = (avg.edges[:-1] + np.minimum(avg.edges[1:], avg.edges[-2] + 1.0)) / 2.0
        with open(args.plot, "w") as fh:
            fh.write(f"# {json.dumps(report['config'], sort_keys=True)}\n")
            for c, f in zip(centers, avg.freqs):
                fh.write(f"{c:.1f} {f!r}\n")
    return 0


def cmd_verify_prop2(args) -> int:
    specs = parse_qt_specs(args.qt)
    scans = [
        {
            "spec": s.label(),
            "fraction_nonzero": qt_gradient_scan(s, args.points, args.h, args.seed),
        }
        for s in specs
    ]
    probe_spec = QtSpec(specs[0].T, 1)
    probe = float(qt_finite_difference(np.array([0.5]), probe_spec, 0.1)[0])
    report = {
        "config": {"qt": args.qt, "points": args.points, "h": args.h, "seed": args.seed},
        "scans": scans,
        "straddle_probe": {"z": 0.5, "q": 1, "h": 0.1, "finite_difference": probe,
                           "expected": 1.0 / (2 * 0.1)},
    }
    _emit(report, args.out)
    if args.plot:
        s = specs[0]
        z = np.linspace(-(s.T + 1) * s.q, (s.T + 1) * s.q, 2001)
        f = quantize_truncate(z, s)
        with open(args.plot, "w") as fh:
            fh.write(f"# {json.dumps(report['config'], sort_keys=True)}\n")
            for zi, fi in zip(z, f):
                fh.write(f"{zi!r} {int(fi)}\n")
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stegokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flag(p):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file of flag defaults (explicit flags win)")

    p = sub.add_parser("make-dataset", help="synthesize a cover/stego dataset")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--covers", type=Path, help="directory of PGM cover images")
    src.add_argument("--synthetic", type=int, help="number of synthetic texture covers")
    p.add_argument("--size", type=int, default=256, help="synthetic cover side length")
    p.add_argument("--qf", type=int, default=75)
    p.add_argument("--rate", type=float, default=0.2,
                   help="fraction of nonzero AC coefficients to modify")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-seed", type=int, default=None,
                   help="train/test split seed (default: --seed)")
    p.add_argument("--out", type=Path, required=True)
    add_config_flag(p)
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("train", help="train a hybrid model")
    p.add_argument("--data", type=Path, required=True, help="manifest.jsonl path")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--subnet", choices=("type1", "type2"), default="type1")
    p.add_argument("--kernels", type=int, choices=(3, 5, 8), default=5)
    p.add_argument("--qt", default="4:1,4:2,4:4")
    p.add_argument("--no-bn", action="store_true")
    p.add_argument("--width-scale", type=float, default=1.0)
    p.add_argument("--first-stride", type=int, choices=(2, 4), default=2,
                   help="type1 bottom conv stride (4 for 512px inputs)")
    p.add_argument("--base-lr", type=float, default=0.01)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--stepsize", type=int, default=5000)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=0.0005)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--max-iter", type=int, default=200000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-every", type=int, default=1000)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--stop-accuracy", type=float, default=None,
                   help="stop once test accuracy reaches this value")
    add_config_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--batch-size", type=int, default=64)
    add_config_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ensemble", help="majority-vote several checkpoints")
    p.add_argument("--checkpoints", type=Path, nargs="+", required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--batch-size", type=int, default=64)
    add_config_flag(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("verify-prop1", help="cover-vs-noise magnitude diagnostics")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--kernel-seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--plot", type=Path, default=None,
                   help="write the averaged histogram as two-column text")
    add_config_flag(p)
    p.set_defaults(func=cmd_verify_prop1)

    p = sub.add_parser("verify-prop2", help="quantize-truncate gradient-nullity scan")
    p.add_argument("--qt", default="4:1,4:2,4:4")
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--plot", type=Path, default=None,
                   help="write the staircase samples as two-column text")
    add_config_flag(p)
    p.set_defaults(func=cmd_verify_prop2)

    return parser


def _install_config_defaults(parser, argv) -> int | None:
    """Make the subcommand's --config file its flag defaults before argv is
    parsed, so that the file can also supply required flags.

    Returns an exit code when the file cannot be used, else None.
    """
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparser = subparsers.choices.get(argv[0]) if argv else None
    if subparser is None:
        return None  # the full parse reports the missing or unknown subcommand
    pre = argparse.ArgumentParser(prog=subparser.prog, add_help=False)
    pre.add_argument("--config", type=Path, default=None)
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return None
    try:
        overrides = json.loads(path.read_text())
    except OSError as exc:
        print(f"stegokit: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"stegokit: bad config JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(overrides, dict):
        print(f"stegokit: config {path} must hold a JSON object", file=sys.stderr)
        return EXIT_USAGE
    unknown = set(overrides) - {a.dest for a in subparser._actions}
    if unknown:
        print(f"stegokit: unknown config keys: {sorted(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    subparser.set_defaults(**overrides)
    for action in subparser._actions:
        if action.dest in overrides:
            action.required = False
    for group in subparser._mutually_exclusive_groups:
        if any(a.dest in overrides for a in group._group_actions):
            group.required = False
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    code = _install_config_defaults(parser, argv)
    if code is not None:
        return code
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DatasetIntegrityError as exc:
        print(f"stegokit: dataset integrity: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except DivergenceError as exc:
        print(f"stegokit: numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ValueError, ConfigError) as exc:
        print(f"stegokit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"stegokit: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
