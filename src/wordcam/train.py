"""Mini-batch training loop, optimizers, and evaluation.

The optimizer owns ``model.trainable_arrays``, a flat name -> array view of
every trainable tensor: convolution banks, FC weights/biases, and the tables
of trainable embedding channels, and ``model.backward`` returns gradients
under the same names. Frozen channels never enter that view, so they are
bitwise untouched by training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from wordcam.corpus import LabeledExample, PAD_ID
from wordcam.embed.channels import ChannelConfig
from wordcam.errors import ConfigError, DataError, DivergenceError
from wordcam.model import (
    BATCH_SIZE,
    ModelHyper,
    ModelParams,
    _as_batch,
    backward,
    cross_entropy,
    forward,
    trainable_arrays,
)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"  # "adam" or "sgd"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.kind!r}")
        if self.lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = BATCH_SIZE
    epochs: int = 5
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    lam: float = 0.1
    keep: float = 0.5
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if not 0.0 < self.keep <= 1.0:
            raise ConfigError(f"dropout keep must be in (0, 1], got {self.keep}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")


class SGD:
    def __init__(self, arrays: dict[str, np.ndarray], lr: float):
        self.arrays = arrays
        self.lr = lr

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            self.arrays[name] -= self.lr * g


class Adam:
    def __init__(self, arrays: dict[str, np.ndarray], cfg: OptimizerConfig):
        self.arrays = arrays
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        c = self.cfg
        self.t += 1
        corr1 = 1.0 - c.beta1**self.t
        corr2 = 1.0 - c.beta2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            self.arrays[name] -= c.lr * (m / corr1) / (np.sqrt(v / corr2) + c.eps)


def make_optimizer(arrays: dict[str, np.ndarray], cfg: OptimizerConfig):
    if cfg.kind == "sgd":
        return SGD(arrays, cfg.lr)
    return Adam(arrays, cfg)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def batch_arrays(
    examples: Sequence[LabeledExample], d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack examples into (ids, lengths, labels) matrices."""
    ids, lengths = _as_batch([ex.token_ids for ex in examples], d)
    labels = np.asarray([ex.label.class_index for ex in examples], dtype=np.int64)
    return ids, lengths, labels


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    accuracy: float
    loss: float
    confusion: np.ndarray  # (true, predicted) counts, classes 0..c-1
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    n_examples: int


def evaluate(
    params: ModelParams,
    channels: ChannelConfig,
    examples: Sequence[LabeledExample],
    batch_size: int = BATCH_SIZE,
) -> EvalReport:
    """Argmax classification over logits; a logit tie predicts class 0
    (Negative)."""
    if not examples:
        raise DataError("cannot evaluate on an empty example set")
    c = params.hyper.n_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    loss_sum = 0.0
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        ids, lengths, labels = batch_arrays(chunk, params.hyper.d)
        trace = forward(ids, params, channels, mode="infer", n_words=lengths)
        preds = np.argmax(trace.logits, axis=1)  # argmax takes the first max
        loss_sum += cross_entropy(trace.logits, labels) * len(chunk)
        np.add.at(confusion, (labels, preds), 1)
    total = int(confusion.sum())
    correct = int(np.trace(confusion))
    col = confusion.sum(axis=0)
    row = confusion.sum(axis=1)
    precision = tuple(
        float(confusion[i, i] / col[i]) if col[i] else 0.0 for i in range(c)
    )
    recall = tuple(
        float(confusion[i, i] / row[i]) if row[i] else 0.0 for i in range(c)
    )
    return EvalReport(
        accuracy=correct / total,
        loss=loss_sum / total,
        confusion=confusion,
        precision=precision,
        recall=recall,
        n_examples=total,
    )


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    test_accuracy: float | None


@dataclass
class TrainResult:
    params: ModelParams
    channels: ChannelConfig
    history: list[EpochRecord]
    best_params: ModelParams
    best_channels: ChannelConfig
    best_accuracy: float


def history_csv(history: Sequence[EpochRecord]) -> str:
    lines = ["epoch,train_loss,test_acc"]
    for rec in history:
        acc = "" if rec.test_accuracy is None else repr(rec.test_accuracy)
        lines.append(f"{rec.epoch},{rec.train_loss!r},{acc}")
    return "\n".join(lines) + "\n"


def train_epochs(
    train_set: Sequence[LabeledExample],
    test_set: Sequence[LabeledExample],
    channels: ChannelConfig,
    hyper: ModelHyper,
    config: TrainConfig,
    params: ModelParams | None = None,
    on_epoch_end: Callable[[int, "TrainResult"], None] | None = None,
) -> TrainResult:
    """Seeded mini-batch training with per-epoch evaluation.

    The incoming channel config is copied; trainable copies are updated in
    place by the optimizer while frozen copies are left untouched. The best
    checkpoint by test accuracy is retained alongside the final state.
    """
    if not train_set:
        raise DataError("empty training set")
    if hyper.n_channels != len(channels.channels):
        raise ConfigError("hyper.n_channels disagrees with the channel config")
    if hyper.k != channels.dim:
        raise ConfigError("hyper.k disagrees with the channel dimension")

    channels = ChannelConfig(channels.mode, tuple(c.copy() for c in channels.channels))
    if params is None:
        params = ModelParams.init(hyper, seed=config.seed)
    else:
        params = params.copy()

    rng = np.random.default_rng(config.seed)
    optimizer = make_optimizer(trainable_arrays(params, channels), config.optimizer)

    history: list[EpochRecord] = []
    best_acc = -1.0
    best_params = params.copy()
    best_channels = ChannelConfig(
        channels.mode, tuple(c.copy() for c in channels.channels)
    )
    result = TrainResult(params, channels, history, best_params, best_channels, 0.0)

    n = len(train_set)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            ids, lengths, labels = batch_arrays(batch, hyper.d)
            trace = forward(
                ids, params, channels, mode="train", rng=rng,
                keep=config.keep, n_words=lengths,
            )
            loss, grads = backward(trace, params, channels, labels, lam=config.lam)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {n_batches}; "
                    "reduce the learning rate or the regularization weight"
                )
            optimizer.step(grads)
            for ch in channels.channels:
                ch.table[PAD_ID] = 0.0
            loss_sum += loss
            n_batches += 1

        test_acc = None
        if test_set and (epoch % config.eval_every == 0 or epoch == config.epochs):
            report = evaluate(params, channels, test_set)
            test_acc = report.accuracy
            if test_acc > best_acc:
                best_acc = test_acc
                result.best_params = params.copy()
                result.best_channels = ChannelConfig(
                    channels.mode, tuple(c.copy() for c in channels.channels)
                )
                result.best_accuracy = test_acc
        history.append(EpochRecord(epoch, loss_sum / max(n_batches, 1), test_acc))
        if on_epoch_end is not None:
            on_epoch_end(epoch, result)

    if best_acc < 0:  # never evaluated: final state is the best known state
        result.best_params = params.copy()
        result.best_channels = ChannelConfig(
            channels.mode, tuple(c.copy() for c in channels.channels)
        )
        result.best_accuracy = float("nan")
    return result
