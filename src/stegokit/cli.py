"""Command-line front: dataset synthesis, training, evaluation, ensembling,
and the two proposition verifiers.

Exit codes: 0 success, 2 usage, 3 I/O, 4 dataset integrity, 5 divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import codec
from .containers import read_jcg
from .micronet.checkpoint import load_checkpoint
from .micronet.model import BASE_WIDTHS, ConfigError, HybridConfig, HybridModel, scaled_config
from .propositions import (
    average_ratio_histograms,
    energy_audit,
    gradient_dominance,
    qt_finite_difference,
    qt_gradient_scan,
    ratio_histogram,
)
from .residual import (
    DEFAULT_QT_SPECS,
    SUPPORTED_KERNEL_SIZES,
    QtSpec,
    dct_basis,
    parse_qt_specs,
    quantize_truncate,
)
from .stego_sim import (
    DatasetIntegrityError,
    EmbedSpec,
    audit_manifest,
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


def _front_for(config: HybridConfig) -> FrontEnd:
    return FrontEnd(dct_basis(config.kernel_size), parse_qt_specs(",".join(config.qt_labels)))


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


def cmd_train(args) -> int:
    train_split = _load_planes(args.data, "train")
    test_split = _load_planes(args.data, "test")
    input_size = train_split.covers.shape[1]
    model_cfg = scaled_config(
        args.subnet,
        args.width_scale,
        args.first_stride,
        kernel_size=args.kernels,
        qt_labels=tuple(s.label() for s in parse_qt_specs(args.qt)),
        input_size=input_size,
        use_bn=not args.no_bn,
    )
    model = HybridModel(model_cfg, seed=args.seed)
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The metrics CSV's first line: every SGD setting plus the model and data.
    run_config = {
        **asdict(cfg),
        **{k: getattr(args, k) for k in ("subnet", "kernels", "qt", "width_scale", "first_stride")},
        "bn": not args.no_bn, "input_size": input_size, "data": str(args.data),
    }
    metrics = train(
        model,
        _front_for(model_cfg),
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
    acc, cover_acc, stego_acc = evaluate(model, _front_for(model.config), split, args.batch_size)
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
    models = [load_checkpoint(ck)[0] for ck in args.checkpoints]
    split = _load_planes(args.data, args.split)
    labels = np.concatenate([np.zeros(len(split), np.int64), np.ones(len(split), np.int64)])
    planes = np.concatenate([split.covers, split.stegos])
    # Checkpoints with the same front end share its groups, batch by batch.
    by_front: dict = {}
    for i, model in enumerate(models):
        by_front.setdefault((model.config.kernel_size, model.config.qt_labels), []).append(i)
    votes = np.empty((n, len(planes)), np.int64)
    for members in by_front.values():
        front = _front_for(models[members[0]].config)
        votes[members] = predict([models[i] for i in members], front, planes, args.batch_size)
    _emit(
        {
            "config": {"checkpoints": [str(c) for c in args.checkpoints],
                       "data": str(args.data), "split": args.split},
            "ensemble_accuracy": float((ensemble_vote(votes) == labels).mean()),
            "single_accuracies": [float((v == labels).mean()) for v in votes],
            "pairs": len(split),
        }
    )
    return 0


def cmd_verify_prop1(args) -> int:
    manifest = read_manifest(args.data)
    audit_manifest(manifest, args.data)
    base = Path(args.data).parent
    records = list(manifest.records) if args.split == "all" else manifest.split(args.split)
    if args.limit:
        records = records[: args.limit]
    if not records:
        raise ValueError("no records selected")

    k = 5
    kern = np.random.default_rng(args.kernel_seed).normal(size=(k, k))
    kern /= np.sqrt((kern**2).sum())

    hists, gaps, medians = [], [], []
    for rec in records:
        cover_grid = read_jcg(base / rec.cover_path)
        stego_grid = read_jcg(base / rec.stego_path)
        try:
            noise_grid = codec.StegoNoiseGrid(
                np.subtract(stego_grid.coeffs, cover_grid.coeffs, dtype=np.int32))
        except ValueError:
            raise DatasetIntegrityError(
                f"{args.data}: pair_id {rec.pair_id}: stego is not its cover +-1"
            ) from None
        cover_plane = codec.decompress(cover_grid)
        noise_plane = codec.noise_to_spatial(noise_grid, cover_grid.quant_table)
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
    default_qt = ",".join(spec.label() for spec in DEFAULT_QT_SPECS)
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
    p.add_argument("--subnet", choices=tuple(BASE_WIDTHS), default=HybridConfig.variant)
    p.add_argument("--kernels", type=int, choices=SUPPORTED_KERNEL_SIZES,
                   default=HybridConfig.kernel_size)
    p.add_argument("--qt", default=default_qt)
    p.add_argument("--no-bn", action="store_true")
    p.add_argument("--width-scale", type=float, default=1.0)
    p.add_argument("--first-stride", type=int, choices=(2, 4), default=HybridConfig.first_stride,
                   help="type1 bottom conv stride (4 for 512px inputs)")
    for f in fields(TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
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
    p.add_argument("--qt", default=default_qt)
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--plot", type=Path, default=None,
                   help="write the staircase samples as two-column text")
    add_config_flag(p)
    p.set_defaults(func=cmd_verify_prop2)

    return parser


def _flag_tokens(action, value) -> list:
    """The command-line tokens that give action's flag the JSON value. Raises
    ValueError unless the value passes the flag's type and choices; a
    store_true flag takes a bool and a nargs="+" flag a nonempty list."""
    flag = action.option_strings[0]
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ValueError(f"expected true or false, got {json.dumps(value)}")
        return [flag] if value else []
    if action.nargs == "+" and not (isinstance(value, list) and value):
        raise ValueError(f"expected a nonempty list, got {json.dumps(value)}")
    values = value if action.nargs == "+" else [value]
    convert = action.type or str
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (str, int, float)):
            raise ValueError(f"expected a string or a number, got {json.dumps(v)}")
        try:
            converted = convert(str(v))
        except ValueError:
            raise ValueError(f"invalid {convert.__name__} value {v!r}") from None
        if action.choices is not None and converted not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise ValueError(f"invalid choice {v!r} (choose from {choices})")
    if action.nargs == "+":
        return [flag, *map(str, values)]
    return [f"{flag}={value}"]


def _splice_config(parser, argv) -> list:
    """argv with the subcommand's --config file spliced in as flag tokens
    ahead of the command line's own flags, so that explicit flags win and the
    file can also supply required flags. Raises ValueError naming the file
    and the key for an unknown key or a value its flag would refuse.
    """
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparser = subparsers.choices.get(argv[0]) if argv else None
    if subparser is None:
        return argv  # the full parse reports the missing or unknown subcommand
    pre = argparse.ArgumentParser(prog=subparser.prog, add_help=False)
    pre.add_argument("--config", type=Path, default=None)
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    try:
        overrides = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: bad JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    flags = {a.dest: a for a in subparser._actions if not isinstance(a, argparse._HelpAction)}
    unknown = set(overrides) - set(flags)
    if unknown:
        raise ValueError(f"config {path}: unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in overrides.items():
        try:
            tokens += _flag_tokens(flags[key], value)
        except ValueError as exc:
            raise ValueError(f"config {path}: {key}: {exc}") from None
    return [argv[0], *tokens, *argv[1:]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_splice_config(parser, argv))
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
