#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For each workload, at the small size preset and one second of measurement:
- an untraced and a traced run each emit exactly the metrics BENCHMARK.json
  declares for them, with the declared units, and no operation fails;
- the traced run's metrics of the layers the workload is meant to exercise
  are above 0 (a metric whose span was renamed away reads 0), and each of
  the nine layers has a nonzero self-time share on some workload;
- a run against a deliberately corrupted reference reports the canary as a
  failed operation (correct false, failed 1).
It also checks that BENCHMARK.json is what `run.py --write-benchmark-json`
writes, and that run.py fails without printing a result in a directory that
holds only BENCHMARK.json and perfbench/. Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "selfcheck"

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (the benchmark's entry module; imports no numpy)

#: One checked reference field per workload, and how to corrupt it.
CORRUPT = {
    "train64": ("loss", lambda v: v * 1.01),
    "infer256": ("cover_acc", lambda v: 1.0 - v if v != 0.5 else 0.25),
    "dataset256": ("dataset_sha256", lambda v: "0" * 64),
}

#: Per-layer metrics each workload's traced run must report above 0.
MUST_MOVE = {
    "train64": ("micronet.b1.conv.fwd_ms", "micronet.b1.conv.bwd_ms", "micronet.ops.im2col.ms",
                "residual.convolve_batch.ms", "trainer.sgd_step.ms", "trainer.evaluate.ms",
                "micronet.checkpoint.save_ms"),
    "infer256": ("micronet.checkpoint.load_ms", "containers.read_jcg.ms",
                 "containers.read_jcg.bytes", "codec.decompress.ms", "residual.convolve_batch.ms",
                 "micronet.b1.conv.fwd_ms", "cli.self_ms"),
    "dataset256": ("stego_sim.embed.ms", "stego_sim.synthetic_cover.ms",
                   "containers.write_jcg.ms", "propositions.ratio_histogram.ms",
                   "propositions.energy_audit.ms", "propositions.gradient_dominance.ms",
                   "codec.decompress.ms"),
}


def run(args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=600)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result: dict, declared: list, what: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise AssertionError(f"{what}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise AssertionError(f"{what}: {name} = {m['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if spec != json.loads(json.dumps(bench.benchmark_spec())):
        raise AssertionError("BENCHMARK.json differs from run.py --write-benchmark-json")
    layers = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".self_pct")]
    layer_share = dict.fromkeys(layers, 0.0)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            small = ["--workload", workload, "--seed", "1", "--seconds", "1", "--small"]
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                what = f"{workload} --trace {trace}"
                result = result_of(run(small + ["--trace", str(trace)]))
                expect_metrics(result, declared, what)
                if not result["correct"] or result["failed"] or result["attempted"] < 2:
                    raise AssertionError(f"{what}: {result['failed']} of "
                                         f"{result['attempted']} operations failed")
                print(f"selfcheck: {what}: {len(declared)} metrics, "
                      f"{result['attempted']} operations, none failed")
            # result is the traced run's, the last of the loop
            values = {name: m["value"] for name, m in result["metrics"].items()}
            zero = [name for name in MUST_MOVE[workload] if not values[name] > 0]
            if zero:
                raise AssertionError(f"{workload} --trace 1: {zero} read 0; a traced "
                                     "function or layer was renamed or moved?")
            for name in layers:
                layer_share[name] = max(layer_share[name], values[name])

            reference = json.loads(bench.REFERENCE.read_text())
            field, corrupt = CORRUPT[workload]
            entry = reference["workloads"][workload]
            entry[field] = corrupt(entry[field])
            bad = SCRATCH / f"{workload}-corrupt-reference.json"
            bad.write_text(json.dumps(reference))
            result = result_of(run(small + ["--trace", "0", "--reference", str(bad)]))
            if result["correct"] or result["failed"] != 1:
                raise AssertionError(f"{workload}: corrupted {field} gave {result}")
            print(f"selfcheck: {workload}: corrupted reference {field} counted as "
                  f"{result['failed']} failed of {result['attempted']}")

        idle = [name for name, share in layer_share.items() if not share > 0]
        if idle:
            raise AssertionError(f"no workload spends self time in {idle}")
        print(f"selfcheck: {len(layers)} layers, each with self time on some workload")

        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", "train64", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare, script=bare / "perfbench" / "run.py")
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"selfcheck: without src/ run.py exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
