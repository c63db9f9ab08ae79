"""The three workloads. Each one has a set-up, one timed closed-loop
operation, a check of that operation's output, and a canary: the same
operation at fixed inputs whose output is compared with reference.json.

Everything drives the package through its public entry points:
`trainer.train`, `cli.main` (eval, ensemble, make-dataset, verify-prop1) and
`stego_sim.load_split_grids` + `codec.decompress`.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
from stegokit import cli, codec, stego_sim, trainer
from stegokit.micronet.checkpoint import save_checkpoint
from stegokit.micronet.layers import BatchNorm2d
from stegokit.micronet.model import HybridConfig, HybridModel
from stegokit.residual import DEFAULT_QT_SPECS, dct_basis

from counts import layer_counts

#: Seed of the canary inputs that reference.json was recorded from.
REF_SEED = 7
EMBED_RATE = 0.2
TRAIN_BATCH = 64  # criterion 6's batch
TEST_PER_TRAIN = 8  # criterion 6 evaluates one test image per 8 training images


class CheckFailed(Exception):
    """An operation's output differs from what it must be."""


def run_cli(argv) -> dict:
    """`stegokit <argv>` in-process; returns its JSON report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"stegokit {argv[0]} exited with code {code}")
    return json.loads(buf.getvalue())


def load_split(manifest, split: str) -> trainer.PairSplit:
    covers, stegos = stego_sim.load_split_grids(manifest, split)
    return trainer.PairSplit(
        np.stack([codec.decompress(g).values for g in covers]).astype(np.float32),
        np.stack([codec.decompress(g).values for g in stegos]).astype(np.float32),
    )


def tree_digest(root: Path) -> str:
    """sha256 over the relative path and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare(observed: dict, reference: dict, tolerance: dict) -> list[str]:
    """Mismatches between an output and its reference. Fields named in
    tolerance are floats (or lists of floats) compared to its (relative,
    absolute) tolerance; every other field must be equal."""
    problems = []
    for key, want in reference.items():
        got = observed.get(key)
        if key in tolerance:
            rel, abs_ = tolerance[key]
            wants = want if isinstance(want, list) else [want]
            gots = got if isinstance(got, list) else [got]
            ok = len(wants) == len(gots) and all(
                isinstance(g, float) and math.isclose(g, w, rel_tol=rel, abs_tol=abs_)
                for g, w in zip(gots, wants)
            )
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


class Workload:
    """One workload at one size preset. Subclasses define the rest."""

    name = ""
    #: (relative, absolute) tolerance of float output fields against the
    #: reference. Wide enough for another BLAS thread count or summation
    #: order, far too narrow for a wrong gradient or a changed model.
    tolerance: dict = {}
    #: size preset of the canary, the operation checked against reference.json
    canary_preset = "small"
    #: the workload's own throughput metrics, as (name, unit)
    phase_metrics: tuple = ()

    def __init__(self, sizes: dict, threads: int):
        self.sizes = sizes
        self.threads = threads

    def setup(self, seed: int, where: Path) -> dict:
        raise NotImplementedError

    def run_op(self, state: dict, where: Path) -> dict:
        """Returns {"items", "seconds", "phases": {metric: (count, s)}, "output"}."""
        raise NotImplementedError

    def check(self, state: dict, output: dict) -> None:
        """Raise CheckFailed unless the output is what it must be."""

    def layer_counts(self, state: dict) -> dict:
        return {}


class Train64(Workload):
    """trainer.train at criterion 6's configuration on 64px data."""

    name = "train64"
    # Changing BLAS threads 2 -> 1 moves the loss by 1e-7 and the weight
    # deltas by up to 2e-4 (relative); conv biases ahead of BN get only
    # ~1e-9 of gradient noise, hence the absolute floor.
    tolerance = {"loss": (1e-3, 0.0), "delta_norms": (1e-2, 1e-6)}
    phase_metrics = (("train_images_per_s", "1/s"),)

    def setup(self, seed, where):
        iters = self.sizes["iters"]
        test_pairs = iters * TRAIN_BATCH // TEST_PER_TRAIN // 2
        stego_sim.build_dataset(
            where, stego_sim.EmbedSpec(rate=EMBED_RATE, seed=seed), split_seed=seed,
            synthetic=2 * self.sizes["train_pairs"], size=64, workers=self.threads,
        )
        test = load_split(where / "manifest.jsonl", "test")
        model = HybridModel(HybridConfig(input_size=64), seed=seed)
        return {
            "train": load_split(where / "manifest.jsonl", "train"),
            "test": trainer.PairSplit(test.covers[:test_pairs], test.stegos[:test_pairs]),
            "model": model,
            "front": trainer.FrontEnd(dct_basis(5), DEFAULT_QT_SPECS),
            "cfg": trainer.TrainConfig(seed=seed, batch_size=TRAIN_BATCH, max_iter=iters,
                                       eval_every=iters),
        }

    def run_op(self, state, where):
        model = copy.deepcopy(state["model"])
        cfg = state["cfg"]
        ckpt = where / "model.ckpt"
        start = time.perf_counter()
        metrics = trainer.train(model, state["front"], state["train"], state["test"], cfg,
                                metrics_path=where / "metrics.csv", checkpoint_path=ckpt)
        seconds = time.perf_counter() - start
        init = dict(state["model"].named_layers())
        deltas = [
            float(np.linalg.norm(getattr(layer, attr) - getattr(init[name], attr)))
            for name, layer in model.named_layers()
            for attr in layer.param_names() + layer.state_names()
        ]
        images = cfg.max_iter * cfg.batch_size
        return {
            "items": images,
            "seconds": seconds,
            "phases": {"train_images_per_s": (images, seconds)},
            "output": {
                "loss": float(metrics[-1].train_loss),
                "accuracy": float(metrics[-1].test_accuracy),
                "ckpt_bytes": ckpt.stat().st_size,
                "delta_norms": deltas,
            },
        }

    def check(self, state, output):
        if not math.isfinite(output["loss"]) or not 0.0 <= output["accuracy"] <= 1.0:
            raise CheckFailed(f"loss {output['loss']} / accuracy {output['accuracy']} out of range")

    def layer_counts(self, state):
        return layer_counts(state["model"], TRAIN_BATCH)


def _calibrated_checkpoint(seed: int, planes: np.ndarray, size: int, path: Path) -> None:
    """Save a seeded, untrained model whose predictions depend on the image.

    Fresh weights put every image in one class. So the BN running statistics
    are set from one train-mode pass over 64px centre crops (cheaper than the
    full size), the weights are copied into a model for `size` (they do not
    depend on the input size), and its logits bias is moved to split the
    full-size planes evenly.
    """
    front = trainer.FrontEnd(dct_basis(5), DEFAULT_QT_SPECS)
    lo = (planes.shape[1] - 64) // 2
    crops = np.ascontiguousarray(planes[:, lo:lo + 64, lo:lo + 64])
    small = HybridModel(HybridConfig(input_size=64), seed=seed)
    for _, layer in small.named_layers():
        if isinstance(layer, BatchNorm2d):
            layer.momentum = 0.0  # running statistics := this batch's
    small.forward(front.transform(crops), training=True)
    layers = dict(small.named_layers())
    model = HybridModel(HybridConfig(input_size=size), seed=seed)
    for name, layer in model.named_layers():
        for attr in layer.param_names() + layer.state_names():
            setattr(layer, attr, getattr(layers[name], attr).copy())
    logits = model.forward(front.transform(planes), training=False)
    bias = dict(model.named_layers())["head.logits"].b
    bias[1] -= np.median(logits[:, 1] - logits[:, 0]).astype(np.float32)
    save_checkpoint(model, path)


class Infer256(Workload):
    """`stegokit eval` with one checkpoint, then `stegokit ensemble` with three."""

    name = "infer256"
    phase_metrics = (("eval_images_per_s", "1/s"), ("ensemble_images_per_s", "1/s"))
    n_checkpoints = 3
    # The 256px forward path (b1.conv output 128x128, the larger pool) is
    # checked against the reference at its full size.
    canary_preset = "full"

    def setup(self, seed, where):
        size, pairs = self.sizes["size"], self.sizes["test_pairs"]
        stego_sim.build_dataset(
            where, stego_sim.EmbedSpec(rate=EMBED_RATE, seed=seed), split_seed=seed,
            synthetic=2 * pairs, size=size, workers=self.threads,
        )
        calib = load_split(where / "manifest.jsonl", "train")
        planes = np.concatenate([calib.covers[:1], calib.stegos[:1]])
        ckpts = []
        for k in range(self.n_checkpoints):
            path = where / f"model{k}.ckpt"
            _calibrated_checkpoint(seed * 10 + k, planes, size, path)
            ckpts.append(path)
        return {"manifest": where / "manifest.jsonl", "ckpts": ckpts}

    def run_op(self, state, where):
        batch = ["--batch-size", self.sizes["batch"]]
        start = time.perf_counter()
        single = run_cli(["eval", "--checkpoint", state["ckpts"][0],
                          "--data", state["manifest"], *batch])
        mid = time.perf_counter()
        vote = run_cli(["ensemble", "--checkpoints", *state["ckpts"],
                        "--data", state["manifest"], *batch])
        end = time.perf_counter()
        images = 2 * single["pairs"]
        return {
            "items": 2 * images,
            "seconds": end - start,
            "phases": {"eval_images_per_s": (images, mid - start),
                       "ensemble_images_per_s": (2 * vote["pairs"], end - mid)},
            "output": {
                "accuracy": single["accuracy"],
                "cover_acc": single["cover_acc"],
                "stego_acc": single["stego_acc"],
                "ensemble_accuracy": vote["ensemble_accuracy"],
                "single_accuracies": vote["single_accuracies"],
            },
        }

    def check(self, state, output):
        # The ensemble's first member is the checkpoint that eval scored.
        if output["single_accuracies"][0] != output["accuracy"]:
            raise CheckFailed(
                f"ensemble member 0 scored {output['single_accuracies'][0]}, "
                f"eval of the same checkpoint {output['accuracy']}"
            )

    def layer_counts(self, state):
        model = HybridModel(HybridConfig(input_size=self.sizes["size"]))
        return layer_counts(model, self.sizes["batch"])


class Dataset256(Workload):
    """`stegokit make-dataset`, load and decompress one split, then
    `stegokit verify-prop1`."""

    name = "dataset256"
    tolerance = {"ratio_mean": (1e-9, 0.0), "dominance_median_ratio": (1e-9, 0.0)}
    phase_metrics = (("make_dataset_pairs_per_s", "1/s"), ("load_pairs_per_s", "1/s"),
                     ("verify_prop1_pairs_per_s", "1/s"))

    def setup(self, seed, where):
        # The README promises bit-identical datasets for any worker count:
        # a serial build is the reference for the thread-pooled one.
        stego_sim.build_dataset(
            where, stego_sim.EmbedSpec(rate=EMBED_RATE, seed=seed), split_seed=seed,
            synthetic=self.sizes["pairs"], size=self.sizes["size"], workers=1,
        )
        return {"seed": seed, "serial_digest": tree_digest(where)}

    def run_op(self, state, where):
        pairs, limit = self.sizes["pairs"], self.sizes["verify"]
        start = time.perf_counter()
        run_cli(["make-dataset", "--synthetic", pairs, "--size", self.sizes["size"],
                 "--rate", EMBED_RATE, "--seed", state["seed"], "--out", where])
        made = time.perf_counter()
        covers, stegos = stego_sim.load_split_grids(where / "manifest.jsonl", "train")
        for grid in covers + stegos:
            codec.decompress(grid)
        loaded = time.perf_counter()
        report = run_cli(["verify-prop1", "--data", where / "manifest.jsonl",
                          "--limit", limit])
        end = time.perf_counter()
        return {
            "items": pairs,
            "seconds": end - start,
            "phases": {"make_dataset_pairs_per_s": (pairs, made - start),
                       "load_pairs_per_s": (len(covers), loaded - made),
                       "verify_prop1_pairs_per_s": (limit, end - loaded)},
            "output": {
                "dataset_sha256": tree_digest(where),
                "ratio_mean": report["ratio_mean"],
                "ratio_count": report["ratio_count"],
                "images_with_histogram": report["images_with_histogram"],
                "max_energy_gap": report["max_energy_gap"],
                "dominance_median_ratio": report["dominance_median_ratio"],
            },
        }

    def check(self, state, output):
        if output["dataset_sha256"] != state["serial_digest"]:
            raise CheckFailed("thread-pooled dataset differs from the serial build")
        # The coefficient-to-spatial map is orthonormal: energy is conserved.
        if not output["max_energy_gap"] < 1e-9:
            raise CheckFailed(f"energy gap {output['max_energy_gap']} breaks Parseval")


WORKLOADS = {w.name: w for w in (Train64, Infer256, Dataset256)}

#: Size presets. "full" is what the benchmark measures; "small" keeps the
#: same model and code paths at a fraction of the work, for the canary and
#: the self-check.
SIZES = {
    "train64": {"full": {"train_pairs": 128, "iters": 4},
                "small": {"train_pairs": 32, "iters": 2}},
    "infer256": {"full": {"size": 256, "test_pairs": 4, "batch": 8},
                 "small": {"size": 64, "test_pairs": 4, "batch": 8}},
    "dataset256": {"full": {"size": 256, "pairs": 96, "verify": 48},
                   "small": {"size": 64, "pairs": 16, "verify": 8}},
}


def make(name: str, preset: str, threads: int) -> Workload:
    return WORKLOADS[name](SIZES[name][preset], threads)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
