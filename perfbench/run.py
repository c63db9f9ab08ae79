#!/usr/bin/env python3
"""stegokit benchmark.

    python3 perfbench/run.py --workload train64 --seed 1 --seconds 30 --trace 0

Runs one workload (train64, infer256 or dataset256) in this process: set-up
five times, then closed-loop operations for --seconds, then the fixed-seed
canary. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 runs an untraced warm-up operation, then alternates traced
and untraced operations, and reports the per-layer metrics. Details go to
.perfbench_out/ in the checkout root.

    python3 perfbench/run.py --write-benchmark-json
    python3 perfbench/run.py --workload train64 --record-reference
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

#: BLAS and dataset-build threads. Outputs are bit-exact only at a fixed
#: BLAS thread count, so it is pinned (and capped at the CPUs we may use).
DEFAULT_THREADS = 2
SETUP_REPEATS = 5
RUN_SECONDS = 30
WORKLOAD_WHY = {
    "train64": "trainer.train at criterion 6's config (64px, batch 64, full widths); "
               "micronet forward/backward is ~89% of a step",
    "infer256": "stegokit eval (1 checkpoint) and ensemble (3) at 256px: forward-only, "
                "checkpoint and JCG reads, front end recomputed per checkpoint",
    "dataset256": "make-dataset 256px, load + decompress a split, verify-prop1: "
                  "no micronet/residual/trainer, so ROADMAP items 2-4 should not move it",
}
END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOAD_WHY))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="run the small size preset (the self-check uses it)")
    p.add_argument("--reference", type=Path, default=REFERENCE,
                   help="reference outputs the canary is checked against")
    p.add_argument("--record-reference", action="store_true",
                   help="run only the canary and store its output in --reference")
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the checkout root and exit")
    args = p.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        p.error("--workload is required")
    return args


def pin_threads() -> int:
    """Fix BLAS and dataset-build threads; must run before numpy is imported."""
    threads = min(DEFAULT_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "STEGOKIT_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_package():
    """Put the checkout's src/ first on the path; refuse any other stegokit."""
    if not (SRC / "stegokit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stegokit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stegokit

    if SRC not in Path(stegokit.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported stegokit from {stegokit.__file__}, not {SRC}")


def machine(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "stegokit_threads": threads,
    }


def measure(wl, state, seconds, tracer, work):
    """Closed loop: start operations until the next one would end past
    `seconds`. With a tracer, the first operation is an untraced warm-up
    and after it every second operation is traced."""
    from workloads import CheckFailed, fresh_dir

    ops, first_output = [], None
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        rec = {"traced": traced, "warmup": tracer is not None and not ops}
        where = fresh_dir(work / "op")
        n_spans = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        wall = time.perf_counter()
        try:
            res = wl.run_op(state, where)
        except Exception as exc:  # the program failed: count it, keep measuring
            traceback.print_exc(file=sys.stderr)
            res, rec["error"] = None, repr(exc)
        finally:
            if traced:
                tracer.uninstall()
        rec["wall_s"] = time.perf_counter() - wall
        if traced:
            rec["spans"] = (n_spans, len(tracer.spans))
        if res is not None:
            rec.update(items=res["items"], seconds=res["seconds"], phases=res["phases"])
            try:
                wl.check(state, res["output"])
                if first_output is None:
                    first_output = res["output"]
                elif res["output"] != first_output:
                    raise CheckFailed("output differs from this run's first operation")
            except CheckFailed as exc:
                rec["error"] = str(exc)
            rec["output"] = res["output"]
        ops.append(rec)
        elapsed = time.perf_counter() - begin
        if len(ops) >= (3 if tracer else 1) and \
                elapsed + statistics.median(r["wall_s"] for r in ops) > seconds:
            return ops


def run_canary(name, threads, work):
    """The workload's canary preset at REF_SEED: set up, one operation, its
    own check."""
    from workloads import REF_SEED, WORKLOADS, fresh_dir, make

    wl = make(name, WORKLOADS[name].canary_preset, threads)
    state = wl.setup(REF_SEED, fresh_dir(work / "canary-setup"))
    res = wl.run_op(state, fresh_dir(work / "canary-op"))
    wl.check(state, res["output"])
    return res["output"]


def check_canary(name, threads, work, reference_path):
    """(problems, output) of the canary against the reference."""
    from workloads import WORKLOADS, compare

    try:
        reference = json.loads(Path(reference_path).read_text())["workloads"][name]
        output = run_canary(name, threads, work)
    except Exception as exc:  # a canary that cannot run is a failed operation
        traceback.print_exc(file=sys.stderr)
        return [f"canary raised {exc!r}"], None
    return compare(output, reference, WORKLOADS[name].tolerance), output


def median_rate(ops, key=None):
    """Median over operations of items per second (of one phase, if key)."""
    rates = []
    for r in ops:
        items, seconds = r["phases"][key] if key else (r["items"], r["seconds"])
        rates.append(items / seconds)
    return statistics.median(rates)


def end_to_end(wl, setup_times, ok_ops) -> tuple[dict, dict]:
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": median_rate(ok_ops),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    phases = {name: {"value": median_rate(ok_ops, name), "unit": unit}
              for name, unit in wl.phase_metrics}
    return metrics, phases


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    threads = pin_threads()
    import_package()
    OUT.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.record_reference:
            return record_reference(args, threads, work)
        return run(args, threads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, threads, work) -> int:
    import layer_report
    from spans import Tracer
    from workloads import fresh_dir, make

    wl = make(args.workload, "small" if args.small else "full", threads)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        where = fresh_dir(work / "setup")
        start = time.perf_counter()
        state = wl.setup(args.seed, where)
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer() if args.trace else None
    ops = measure(wl, state, args.seconds, tracer, work)
    problems, canary_output = check_canary(args.workload, threads, work, args.reference)
    failed = sum("error" in r for r in ops) + bool(problems)
    ok = [r for r in ops if "error" not in r]
    ok_untraced = [r for r in ok if not r["traced"] and not r["warmup"]]
    ok_traced = [r for r in ok if r["traced"]]
    if not ok_untraced or (args.trace and not ok_traced):
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "why": WORKLOAD_WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "sizes": wl.sizes, "machine": machine(threads),
        "setup_s": setup_times, "ops": ops,
        "canary": {"problems": problems, "output": canary_output},
    }
    if args.trace:
        metrics, table = layer_report.per_layer(wl, state, tracer.spans, ok_untraced, ok_traced)
        tracer.write(OUT / f"{stem}-spans.jsonl")
        details["per_layer"], details["layer_table"] = metrics, table
        print("\n".join(table))
        units = {m[0]: m[1] for m in layer_report.PER_LAYER}
    else:
        metrics, phases = end_to_end(wl, setup_times, ok_untraced)
        details["end_to_end"], details["phases"] = metrics, phases
        units = {m[0]: m[1] for m in END_TO_END}
        for name, m in phases.items():
            print(f"{args.workload} {name} {m['value']:.4f} {m['unit']}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    attempted = len(ops) + 1  # the canary is an operation too
    print(f"{args.workload} failed_ratio {failed / attempted:.4f} "
          f"({failed} of {attempted}; canary {'ok' if not problems else problems})")
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def record_reference(args, threads, work) -> int:
    output = run_canary(args.workload, threads, work)
    path = Path(args.reference)
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("workloads", {})[args.workload] = output
    data.setdefault("recorded_on", {})[args.workload] = machine(threads)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: recorded {args.workload} canary into {path}")
    return 0


def benchmark_spec() -> dict:
    """The contents of BENCHMARK.json."""
    from layer_report import PER_LAYER

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    sys.exit(main())
