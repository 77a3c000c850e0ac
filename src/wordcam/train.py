"""Mini-batch training loop, the Adam optimizer, and evaluation.

The optimizer owns ``model.trainable_arrays``, a flat name -> array view of
every trainable tensor: convolution banks, FC weights/biases, and the tables
of trainable embedding channels, and ``model.backward`` returns gradients
under the same names. Frozen channels never enter that view, so they are
bitwise untouched by training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from wordcam.corpus import LabeledExample
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
    infer,
    trainable_arrays,
)


# Adam's moment decays and epsilon (Kingma & Ba 2015, arXiv:1412.6980)
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = BATCH_SIZE
    epochs: int = 5
    lr: float = 1e-3
    lam: float = 0.1
    keep: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.lr < math.inf:  # false for nan too
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.lr}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.keep <= 1.0:
            raise ConfigError(f"dropout keep must be in (0, 1], got {self.keep}")


class Adam:
    def __init__(self, arrays: dict[str, np.ndarray], lr: float):
        self.arrays = arrays
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        corr1 = 1.0 - _BETA1**self.t
        corr2 = 1.0 - _BETA2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            self.arrays[name] -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + _EPS)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def batch_arrays(
    examples: Sequence[LabeledExample], d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack examples into (ids, lengths, labels) matrices."""
    ids, lengths = _as_batch([ex.token_ids for ex in examples], d)
    labels = np.asarray([ex.label.value for ex in examples], dtype=np.int64)
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
) -> EvalReport:
    """Argmax classification over logits; a logit tie predicts class 0
    (Negative)."""
    if not examples:
        raise DataError("cannot evaluate on an empty example set")
    c = params.hyper.n_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    loss_sum = 0.0
    labels = np.asarray([ex.label.value for ex in examples], dtype=np.int64)
    for start, trace in infer(params, channels, [ex.token_ids for ex in examples]):
        chunk = labels[start : start + trace.batch_size]
        preds = np.argmax(trace.logits, axis=1)  # argmax takes the first max
        loss_sum += cross_entropy(trace.logits, chunk) * len(chunk)
        np.add.at(confusion, (chunk, preds), 1)
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
    test_accuracy: float


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
        lines.append(f"{rec.epoch},{rec.train_loss!r},{rec.test_accuracy!r}")
    return "\n".join(lines) + "\n"


def train_epochs(
    train_set: Sequence[LabeledExample],
    test_set: Sequence[LabeledExample],
    channels: ChannelConfig,
    hyper: ModelHyper,
    config: TrainConfig,
    on_epoch_end: Callable[[int, "TrainResult"], None] | None = None,
) -> TrainResult:
    """Seeded mini-batch training from ``ModelParams.init(hyper,
    seed=config.seed)``, evaluated on the test set after every epoch.

    The incoming channel config is copied; trainable copies are updated in
    place by the optimizer while frozen copies are left untouched. No step
    writes a pad row: ``backward`` gives it a +0.0 gradient, which Adam turns
    into a +0.0 step, so every table keeps its pad-row bits. The best
    checkpoint by test accuracy is retained alongside the final state.
    ``forward`` refuses channels that ``hyper`` does not fit, at the first
    batch; at epochs=0 no batch runs, and nothing checks the fit.
    """
    if not train_set:
        raise DataError("empty training set")
    if not test_set:
        raise DataError("empty test set")

    channels = channels.copy()
    params = ModelParams.init(hyper, seed=config.seed)

    rng = np.random.default_rng(config.seed)
    optimizer = Adam(trainable_arrays(params, channels), config.lr)

    history: list[EpochRecord] = []
    best_acc = -1.0
    # until an epoch is scored (never, at epochs=0) the live state is the
    # best state; epoch 1 replaces it, since any accuracy beats -1.0
    result = TrainResult(params, channels, history, params, channels, float("nan"))

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
            loss_sum += loss
            n_batches += 1

        test_acc = evaluate(params, channels, test_set).accuracy
        if test_acc > best_acc:
            best_acc = test_acc
            result.best_params = params.copy()
            result.best_channels = channels.copy()
            result.best_accuracy = test_acc
        history.append(EpochRecord(epoch, loss_sum / max(n_batches, 1), test_acc))
        if on_epoch_end is not None:
            on_epoch_end(epoch, result)
    return result
