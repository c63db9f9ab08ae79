"""Minibatch SGD with momentum, step learning-rate schedule, evaluation, and
checkpointing. One trainer owns its model exclusively; given a seed, a run is
bit-reproducible."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .micronet.checkpoint import save_checkpoint
from .micronet.model import HybridModel
from .micronet import ops
from .residual import KernelBank, front_stage_batch


class DivergenceError(RuntimeError):
    """Non-finite loss or gradient encountered during training."""


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 0.01
    gamma: float = 0.9
    stepsize: int = 5000
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 64
    max_iter: int = 200000
    seed: int = 0
    eval_every: int = 1000
    checkpoint_every: int = 0  # 0: only the final checkpoint

    def __post_init__(self):
        for name in ("base_lr", "gamma", "stepsize", "batch_size", "max_iter", "eval_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.momentum < 0 or self.weight_decay < 0 or self.checkpoint_every < 0:
            raise ValueError("momentum, weight_decay, checkpoint_every must be >= 0")
        if self.batch_size % 2:
            raise ValueError("batch_size must be even (batches pair covers with stegos)")


@dataclass
class Metrics:
    iteration: int
    train_loss: float
    test_accuracy: float
    cover_acc: float
    stego_acc: float
    lr: float
    seconds: float

    def csv_row(self) -> str:
        return (
            f"{self.iteration},{self.train_loss!r},{self.test_accuracy!r},"
            f"{self.cover_acc!r},{self.stego_acc!r},{self.lr!r},{self.seconds:.3f}"
        )


METRICS_CSV_HEADER = "iteration,train_loss,test_accuracy,cover_acc,stego_acc,lr,seconds"


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Step schedule: base_lr * gamma ** floor(iteration / stepsize)."""
    if iteration < 0:
        raise ValueError("iteration must be >= 0")
    return cfg.base_lr * cfg.gamma ** (iteration // cfg.stepsize)


def sgd_update(w, v, grad, lr, momentum, weight_decay) -> None:
    """In place: v <- momentum*v - lr*(grad + wd*w); w <- w + v."""
    v *= momentum
    if weight_decay:
        v -= lr * (grad + weight_decay * w)
    else:
        v -= lr * grad
    w += v


def sgd_step(model: HybridModel, velocities: dict, cfg: TrainConfig, iteration: int) -> None:
    """One optimizer step over every model parameter.

    Weight decay touches conv/fc weights only, never biases or BN affine
    parameters. Raises DivergenceError on any non-finite gradient.
    """
    lr = lr_at(iteration, cfg)
    for name, layer, attr, decayed in model.named_params():
        grad = getattr(layer, "g" + attr)
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite gradient in {name} at iteration {iteration}")
        v = velocities.get(name)
        if v is None:
            v = velocities.setdefault(name, np.zeros_like(getattr(layer, attr)))
        wd = cfg.weight_decay if decayed else 0.0
        sgd_update(getattr(layer, attr), v, grad, lr, cfg.momentum, wd)


@dataclass
class PairSplit:
    """Decompressed cover/stego planes of one split, pair-aligned."""

    covers: np.ndarray  # (n, H, W) float32
    stegos: np.ndarray

    def __post_init__(self):
        if self.covers.shape != self.stegos.shape:
            raise ValueError("covers and stegos must be pair-aligned")
        if len(self.covers) == 0:
            raise ValueError("empty split")

    def __len__(self):
        return len(self.covers)


class FrontEnd:
    """Fixed residual front end: a kernel bank and its Q&T specs, in group order."""

    def __init__(self, bank: KernelBank, specs):
        self.bank = bank
        self.specs = tuple(specs)

    def transform(self, planes: np.ndarray) -> list:
        return front_stage_batch(planes, self.bank, self.specs)


def _check_front_end(model: HybridModel, front: FrontEnd) -> None:
    """Raise ValueError unless front yields the groups model was built for, in order."""
    found = (front.bank.size, tuple(spec.label() for spec in front.specs))
    expected = (model.config.kernel_size, tuple(model.config.qt_labels))
    if found != expected:
        raise ValueError(
            f"front end (bank size, Q&T order) {found} does not match the model's {expected}"
        )


def _check_input_size(model: HybridModel, planes: np.ndarray) -> None:
    """Raise ValueError unless planes are the square size model was built for."""
    size = model.config.input_size
    if planes.shape[1:] != (size, size):
        h, w = planes.shape[1:]
        raise ValueError(f"model was trained on {size}x{size}px inputs, data is {h}x{w}px")


def predict(models, front: FrontEnd, planes: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """(len(models), n) labels (0 cover, 1 stego): one front end per batch, all models."""
    for model in models:
        _check_front_end(model, front)
        _check_input_size(model, planes)
    preds = np.empty((len(models), len(planes)), np.int64)
    for start in range(0, len(planes), batch_size):
        groups = front.transform(planes[start : start + batch_size])
        for row, model in zip(preds, models):
            row[start : start + batch_size] = model.predict(groups)
    return preds


def evaluate(
    model: HybridModel, front: FrontEnd, split: PairSplit, batch_size: int = 64
) -> tuple[float, float, float]:
    """(accuracy, cover accuracy, stego accuracy) over all covers and stegos."""
    covers_right = int((predict([model], front, split.covers, batch_size) == 0).sum())
    stegos_right = int((predict([model], front, split.stegos, batch_size) == 1).sum())
    n = len(split)
    return (covers_right + stegos_right) / (2 * n), covers_right / n, stegos_right / n


def _batch_iterator(n_pairs: int, half_batch: int, rng):
    """Endless seeded stream of pair-index batches, reshuffled each epoch."""
    while True:
        order = rng.permutation(n_pairs)
        for start in range(0, n_pairs - half_batch + 1, half_batch):
            yield order[start : start + half_batch]


def train(
    model: HybridModel,
    front: FrontEnd,
    train_split: PairSplit,
    test_split: PairSplit,
    cfg: TrainConfig,
    metrics_path=None,
    checkpoint_path=None,
    stop_accuracy: float | None = None,
    run_config: dict | None = None,
    log=None,
) -> list:
    """Run up to cfg.max_iter balanced-batch SGD iterations.

    Each batch holds batch_size/2 pairs: the covers first, then the matching
    stegos. Metrics rows are appended every eval_every iterations (and at the
    final iteration); training stops early once test accuracy reaches
    stop_accuracy, when given. Returns the metrics list.
    """
    _check_front_end(model, front)
    _check_input_size(model, train_split.covers)
    if cfg.batch_size // 2 > len(train_split):
        raise ValueError(
            f"batch of {cfg.batch_size} needs {cfg.batch_size // 2} pairs, "
            f"train split has {len(train_split)}"
        )
    rng = np.random.default_rng([cfg.seed, 1])
    batches = _batch_iterator(len(train_split), cfg.batch_size // 2, rng)
    half = cfg.batch_size // 2
    labels = np.concatenate([np.zeros(half, np.int64), np.ones(half, np.int64)])
    velocities: dict = {}
    metrics: list[Metrics] = []
    start_time = time.monotonic()
    if metrics_path:  # a "# <run_config JSON>" line, the CSV header, then a row per eval
        with open(metrics_path, "w") as fh:
            if run_config is not None:
                fh.write("# " + json.dumps(run_config, sort_keys=True) + "\n")
            fh.write(METRICS_CSV_HEADER + "\n")

    for iteration in range(cfg.max_iter):
        idx = next(batches)
        planes = np.concatenate([train_split.covers[idx], train_split.stegos[idx]])
        groups = front.transform(planes)
        logits = model.forward(groups, training=True)
        loss, grad = ops.softmax_xent(logits, labels)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at iteration {iteration}")
        model.backward(grad)
        sgd_step(model, velocities, cfg, iteration)

        done = iteration + 1
        if done % cfg.eval_every == 0 or done == cfg.max_iter:
            acc, cover_acc, stego_acc = evaluate(model, front, test_split, cfg.batch_size)
            row = Metrics(
                iteration=done,
                train_loss=loss,
                test_accuracy=acc,
                cover_acc=cover_acc,
                stego_acc=stego_acc,
                lr=lr_at(iteration, cfg),
                seconds=time.monotonic() - start_time,
            )
            metrics.append(row)
            if metrics_path:
                with open(metrics_path, "a") as fh:
                    fh.write(row.csv_row() + "\n")
            if log:
                log(
                    f"iter {done}: loss {loss:.4f} acc {acc:.4f} "
                    f"(cover {cover_acc:.4f} stego {stego_acc:.4f})"
                )
            if stop_accuracy is not None and acc >= stop_accuracy:
                break
        if cfg.checkpoint_every and done % cfg.checkpoint_every == 0 and checkpoint_path:
            save_checkpoint(model, f"{checkpoint_path}.iter{done}", iteration=done)
    if checkpoint_path:
        save_checkpoint(model, checkpoint_path, iteration=metrics[-1].iteration if metrics else cfg.max_iter)
    return metrics


def ensemble_vote(predictions: np.ndarray) -> np.ndarray:
    """Majority label per column of an (n_models, n_images) 0/1 matrix."""
    predictions = np.asarray(predictions)
    if predictions.ndim != 2:
        raise ValueError("predictions must be (n_models, n_images)")
    n_models = predictions.shape[0]
    if n_models % 2 == 0:
        raise ValueError(f"model count must be odd to avoid ties, got {n_models}")
    return (predictions.sum(axis=0) * 2 > n_models).astype(np.int64)
