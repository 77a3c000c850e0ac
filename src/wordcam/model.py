"""The sentence CNN: padded input matrices, multi-height convolution banks
with ReLU, average pooling, and a fully connected output, with hand-written
backpropagation.

Conventions used throughout:

* ids arrive right-padded with the pad id to length d; true word counts
  travel separately because out-of-vocabulary tokens also encode to id 0.
* every id-0 position contributes an exactly-zero embedding row, so the pad
  row of a table never influences the loss and receives zero gradient.
* for filter height h the input is framed by h-1 zero rows on each side,
  giving feature maps of length I = d + h - 1 and placing every word in
  exactly h convolution windows: word p fills row t of window p+h-1-t.
  The frame is never built. A word's filter responses depend only on its
  id, so each height is one GEMM of the (u, C*k) matrix of the batch's u
  distinct ids with the (C*k, h*n) filter bank (Devlin et al. 2014's
  precomputation). ``spread`` reads each token's responses through the
  token-to-row index into its windows, and its per-token transpose
  ``gather`` reads them back; they are the only code that knows the window
  rule, and the backward pass (per token) and attention reuse ``gather``.
* the filter heights are independent until the FC layer, so ``forward``
  and ``backward`` each run one task per height, the largest in the calling
  thread and the rest on threads started and joined inside the call (numpy
  releases the interpreter lock inside its kernels). Results are combined
  in ascending height order, so every bit matches the same tasks run one
  after another.
* the pooled feature vector z concatenates heights in ascending order,
  filter index ascending within a height; the fully connected layer and the
  attention scores both index it that way.
* reductions (pooling means, losses) accumulate in float64 regardless of
  the storage dtype.
"""

from __future__ import annotations

import hashlib
import numbers
import os
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from wordcam.corpus import CLASS_NAMES, PAD_ID
from wordcam.embed.channels import (
    ChannelConfig,
    InputMode,
    read_container,
    scatter_add,
    write_container,
)
from wordcam.errors import ConfigError, DataError, malformed

_CKPT_MAGIC = b"WCAMCKPT1\n"
_CONV_B_INIT = 0.1  # every convolution bias at initialization

# Sentences per batch: the default training batch, and the chunk in which
# ``infer`` runs every many-sentence inference, which keeps the per-height
# temporaries of concurrent heights small.
BATCH_SIZE = 64
# The smallest batch whose heights run on threads of their own; a smaller
# one stays in the calling thread, where starting them would cost more than
# they save.
_POOL_MIN_BATCH = 16


@dataclass(frozen=True)
class ModelHyper:
    k: int
    d: int
    heights: tuple[int, ...] = (3, 4, 5)
    n_filters: int = 128
    n_classes: int = 2
    n_channels: int = 1

    def __post_init__(self):
        # integers, not a float or a bool such as a checkpoint header can hold
        def integral(x):
            return isinstance(x, numbers.Integral) and not isinstance(x, bool)

        for name in ("k", "d", "n_filters", "n_classes", "n_channels"):
            if not integral(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(integral(h) for h in self.heights):
            raise ConfigError(f"heights must be integers, got {self.heights!r}")
        if self.k < 1 or self.d < 1 or self.n_filters < 1:
            raise ConfigError("k, d, and n_filters must all be >= 1")
        if self.n_classes != len(CLASS_NAMES):
            raise ConfigError(f"n_classes must be {len(CLASS_NAMES)} "
                              f"({', '.join(CLASS_NAMES)}), got {self.n_classes}")
        if self.n_channels < 1:
            raise ConfigError("need at least 1 channel")
        hs = tuple(sorted(self.heights))
        if not hs or any(h < 1 for h in hs) or len(set(hs)) != len(hs):
            raise ConfigError(f"heights must be distinct and >= 1, got {self.heights}")
        object.__setattr__(self, "heights", hs)

    @property
    def n_features(self) -> int:
        """Length of the pooled vector: one block of n_filters per height."""
        return len(self.heights) * self.n_filters

    def fmap_len(self, h: int) -> int:
        return self.d + h - 1

    def feature_slice(self, h: int) -> slice:
        i = self.heights.index(h)
        return slice(i * self.n_filters, (i + 1) * self.n_filters)

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Name and shape of each parameter array, in ``named_arrays`` order."""
        out = []
        for h in self.heights:
            out.append((f"conv_w[{h}]", (self.n_channels, self.n_filters, h * self.k)))
            out.append((f"conv_b[{h}]", (self.n_filters,)))
        return out + [("fc_w", (self.n_classes, self.n_features)),
                      ("fc_b", (self.n_classes,))]


@dataclass
class ModelParams:
    hyper: ModelHyper
    conv_w: dict[int, np.ndarray]  # h -> (C, n_filters, h*k)
    conv_b: dict[int, np.ndarray]  # h -> (n_filters,)
    fc_w: np.ndarray  # (n_classes, n_features)
    fc_b: np.ndarray  # (n_classes,)

    @classmethod
    def init(
        cls,
        hyper: ModelHyper,
        seed: int = 0,
        w_scale: float = 0.1,
        dtype=np.float32,
    ) -> "ModelParams":
        rng = np.random.default_rng(seed)
        conv_w = {}
        conv_b = {}
        for h in hyper.heights:
            conv_w[h] = rng.normal(
                0.0, w_scale, size=(hyper.n_channels, hyper.n_filters, h * hyper.k)
            ).astype(dtype)
            conv_b[h] = np.full(hyper.n_filters, _CONV_B_INIT, dtype=dtype)
        fc_w = rng.normal(0.0, w_scale, size=(hyper.n_classes, hyper.n_features))
        return cls(hyper, conv_w, conv_b, fc_w.astype(dtype), np.zeros(hyper.n_classes, dtype=dtype))

    @classmethod
    def zeros(cls, hyper: ModelHyper, dtype=np.float32) -> "ModelParams":
        arrays = {name: np.zeros(s, dtype=dtype) for name, s in hyper.param_shapes()}
        return cls.from_named(hyper, arrays)

    @classmethod
    def from_named(cls, hyper: ModelHyper, arrays: dict) -> "ModelParams":
        """Parameters from arrays keyed by their ``named_arrays`` names."""
        return cls(
            hyper,
            {h: arrays[f"conv_w[{h}]"] for h in hyper.heights},
            {h: arrays[f"conv_b[{h}]"] for h in hyper.heights},
            arrays["fc_w"],
            arrays["fc_b"],
        )

    @property
    def dtype(self):
        return self.fc_w.dtype

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Parameter arrays in a fixed, documented order."""
        out = []
        for h in self.hyper.heights:
            out.append((f"conv_w[{h}]", self.conv_w[h]))
            out.append((f"conv_b[{h}]", self.conv_b[h]))
        out.append(("fc_w", self.fc_w))
        out.append(("fc_b", self.fc_b))
        return out

    def copy(self) -> "ModelParams":
        return self.from_named(self.hyper, {n: a.copy() for n, a in self.named_arrays()})

    def weight_sq_norm(self) -> float:
        """Sum of squared convolution and FC weights (biases excluded)."""
        total = float(np.sum(self.fc_w.astype(np.float64) ** 2))
        for w in self.conv_w.values():
            total += float(np.sum(w.astype(np.float64) ** 2))
        return total


def trainable_arrays(params: ModelParams, channels: ChannelConfig) -> dict[str, np.ndarray]:
    """Every array training updates, by its checkpoint name: the parameters
    in ``named_arrays`` order, then ``channel[i]`` for each trainable
    channel's table. ``backward`` returns its gradients under these keys,
    in this order."""
    arrays = dict(params.named_arrays())
    for i, ch in enumerate(channels.channels):
        if ch.trainable:
            arrays[f"channel[{i}]"] = ch.table
    return arrays


@dataclass
class ForwardTrace:
    """Everything forward() computed, kept for backprop and attention.

    Arrays carry a leading batch axis; single-sentence calls produce B=1.
    """

    ids: np.ndarray  # (B, d) right-padded with PAD_ID
    n_words: np.ndarray  # (B,) true token counts
    words: np.ndarray  # (u, C, k) one row per distinct id, id-0 row zeroed
    index: np.ndarray  # (B, d) row of ``words`` holding each token
    fmaps: dict[int, np.ndarray]  # h -> (B, I_h, n_filters), post-ReLU
    pooled: np.ndarray  # (B, n_features)
    dropout_mask: np.ndarray | None  # (B, n_features), includes 1/keep scaling
    pooled_dropped: np.ndarray  # (B, n_features)
    logits: np.ndarray  # (B, n_classes)
    mode: str

    @property
    def batch_size(self) -> int:
        return self.ids.shape[0]


# ---------------------------------------------------------------------------
# Id padding and the convolution lowering (one GEMM per height plus shifts)
# ---------------------------------------------------------------------------


def pad_ids(ids: Sequence[int], d: int) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size > d:
        raise DataError(f"id sequence of length {ids.size} exceeds d={d}")
    out = np.full(d, PAD_ID, dtype=np.int64)
    out[: ids.size] = ids
    return out


def spread(y: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Place filter-row responses into their convolution windows.

    y is (u, h, n): y[r, t] is word-matrix row r's response to row t of each
    filter. index is (B, d): word p of sentence b is row index[b, p]. Word p
    sits in row t of window p+h-1-t, so the result is the (B, d+h-1, n)
    pre-activation with pre[:, p+h-1-t] += y[index[:, p], t], added in
    ascending t.
    """
    _, h, n = y.shape
    batch, d = index.shape
    out = np.zeros((batch, d + h - 1, n), dtype=y.dtype)
    for t in range(h):
        out[:, h - 1 - t : h - 1 - t + d] += y[:, t].take(index, axis=0)
    return out


def gather(g: np.ndarray, h: int) -> np.ndarray:
    """Transpose of ``spread``: (B, d+h-1, n) -> (B, d, h, n) with
    out[:, p, t] = g[:, p+h-1-t], the window holding word p in row t."""
    d = g.shape[1] - h + 1
    return np.stack([g[:, h - 1 - t : h - 1 - t + d] for t in range(h)], axis=2)


def _filter_bank(w: np.ndarray, k: int) -> np.ndarray:
    """(C, n, h*k) filters as the (C*k, h*n) matrix that multiplies words."""
    n_channels, n_filters, hk = w.shape
    h = hk // k
    return w.reshape(n_channels, n_filters, h, k).transpose(0, 3, 2, 1).reshape(
        n_channels * k, h * n_filters
    )


# ---------------------------------------------------------------------------
# Per-height threads
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _per_height(fn, heights: Sequence[int], batch: int) -> dict:
    """``{h: fn(h)}`` over ascending ``heights`` on as many threads as CPUs
    this process may use, capped at the number of heights: the calling
    thread runs the largest height (the most work), and threads started here
    and joined before the return run the rest. When that count is 1, or the
    batch is below ``_POOL_MIN_BATCH``, the calling thread runs every task."""
    desc = heights[::-1]
    workers = min(_usable_cpus(), len(desc)) if batch >= _POOL_MIN_BATCH else 1
    if workers < 2:
        return {h: fn(h) for h in desc}
    # imported here: the module (with logging) costs a process that never
    # runs a batch, such as `wordcam embed`, half a megabyte
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1, thread_name_prefix="wordcam-height") as pool:
        rest = pool.map(fn, desc[1:])
        return {desc[0]: fn(desc[0]), **dict(zip(desc[1:], rest))}


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _as_batch(ids, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalize ids to a (B, d) matrix plus true lengths."""
    if isinstance(ids, np.ndarray) and ids.ndim == 2:
        if ids.shape[1] != d:
            raise DataError(f"id matrix width {ids.shape[1]} != d={d}")
        lengths = np.full(ids.shape[0], d, dtype=np.int64)
        return ids.astype(np.int64), lengths
    first = ids[0] if len(ids) else None
    if first is not None and not np.isscalar(first) and not isinstance(first, (int, np.integer)):
        rows = [pad_ids(s, d) for s in ids]
        lengths = np.asarray([len(s) for s in ids], dtype=np.int64)
        return np.stack(rows), lengths
    seq = np.asarray(ids, dtype=np.int64)
    return pad_ids(seq, d)[None], np.asarray([seq.size], dtype=np.int64)


def forward(
    ids,
    params: ModelParams,
    channels: ChannelConfig,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
    keep: float = 0.5,
    n_words: np.ndarray | None = None,
) -> ForwardTrace:
    """Run the CNN on one sentence or a batch.

    ``ids`` may be a single id sequence, a list of sequences, or a
    pre-padded (B, d) matrix (pass ``n_words`` alongside the latter). In
    train mode an inverted dropout mask with the given keep probability is
    applied to the pooled vector; infer mode is deterministic.
    """
    hyper = params.hyper
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "train" and not 0.0 < keep <= 1.0:
        raise ConfigError(f"keep probability must be in (0, 1], got {keep}")
    if len(channels.channels) != hyper.n_channels:
        raise ConfigError(
            f"model expects {hyper.n_channels} channel(s), config has "
            f"{len(channels.channels)}"
        )
    if channels.dim != hyper.k:
        raise ConfigError(f"model expects channels of k={hyper.k}, config has k={channels.dim}")
    ids_mat, lengths = _as_batch(ids, hyper.d)
    if n_words is not None:
        lengths = np.asarray(n_words, dtype=np.int64)
        if lengths.shape != (ids_mat.shape[0],):
            raise DataError("n_words must have one entry per batch row")
    if ids_mat.min(initial=0) < 0 or ids_mat.max(initial=0) >= channels.vocab_size:
        raise DataError("token id out of range for the embedding tables")

    dtype = params.dtype
    # a word's filter responses depend only on its id: one word-matrix row
    # per distinct id, and index maps each token to its row
    distinct, inverse = np.unique(ids_mat.ravel(), return_inverse=True)
    index = inverse.reshape(ids_mat.shape)
    # rows in (u, C, k) order, so the GEMM operand is a free reshape
    words = np.empty((distinct.size, hyper.n_channels, hyper.k), dtype=dtype)
    for c, ch in enumerate(channels.channels):
        words[:, c] = ch.table[distinct]
    words[distinct == PAD_ID] = 0.0
    x = words.reshape(distinct.size, hyper.n_channels * hyper.k)

    def conv(h):
        y = x @ _filter_bank(params.conv_w[h], hyper.k)
        pre = spread(y.reshape(distinct.size, h, hyper.n_filters), index)
        pre += params.conv_b[h]
        f = np.maximum(pre, 0.0, out=pre)
        return f, f.mean(axis=1, dtype=np.float64).astype(dtype)

    done = _per_height(conv, hyper.heights, ids_mat.shape[0])
    fmaps = {h: done[h][0] for h in hyper.heights}
    pooled = np.concatenate([done[h][1] for h in hyper.heights], axis=1)  # (B, n)

    if mode == "train" and keep < 1.0:
        if rng is None:
            raise ConfigError("train-mode forward needs an rng for dropout")
        mask = (rng.random(pooled.shape) < keep).astype(dtype) / dtype.type(keep)
        pooled_dropped = pooled * mask
    else:
        mask = None
        pooled_dropped = pooled

    logits = pooled_dropped @ params.fc_w.T + params.fc_b
    return ForwardTrace(
        ids=ids_mat,
        n_words=lengths,
        words=words,
        index=index,
        fmaps=fmaps,
        pooled=pooled,
        dropout_mask=mask,
        pooled_dropped=pooled_dropped,
        logits=logits,
        mode=mode,
    )


def infer(params: ModelParams, channels: ChannelConfig, id_seqs: Sequence):
    """Yield ``(start, trace)``: the infer-mode trace of the id sequences
    ``id_seqs[start : start + BATCH_SIZE]``, one chunk at a time, so only
    one chunk's trace is alive at once."""
    for start in range(0, len(id_seqs), BATCH_SIZE):
        chunk = id_seqs[start : start + BATCH_SIZE]
        yield start, forward(chunk, params, channels, mode="infer")


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy, computed in float64."""
    z = logits.astype(np.float64)
    lse = np.logaddexp.reduce(z, axis=-1)
    picked = z[np.arange(z.shape[0]), labels]
    return float((lse - picked).mean())


def loss_value(
    trace: ForwardTrace, params: ModelParams, labels: np.ndarray, lam: float
) -> float:
    """Mean cross-entropy plus (lam/2) * squared weight norm."""
    labels = np.asarray(labels)
    return cross_entropy(trace.logits, labels) + 0.5 * lam * params.weight_sq_norm()


def backward(
    trace: ForwardTrace,
    params: ModelParams,
    channels: ChannelConfig,
    labels,
    lam: float = 0.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """The loss, and its gradient for every array ``trainable_arrays``
    names, under the same keys in the same order.

    The data term is averaged over the batch; the L2 term covers convolution
    and FC weights only. A trainable channel's gradient has its pad row
    forced to zero.
    """
    hyper = params.hyper
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    batch = trace.batch_size
    if labels.shape != (batch,):
        raise DataError(f"expected {batch} label(s), got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= hyper.n_classes:
        raise DataError("label out of class range")
    if trace.mode != "train":
        raise ConfigError("backward needs a trace produced in train mode")
    dtype = params.dtype

    loss = loss_value(trace, params, labels, lam)
    probs = softmax(trace.logits)
    dy = probs
    dy[np.arange(batch), labels] -= 1.0
    dy = (dy / batch).astype(dtype)  # (B, c)

    g_fc_w = dy.T @ trace.pooled_dropped + dtype.type(lam) * params.fc_w
    g_fc_b = dy.sum(axis=0)
    dz = dy @ params.fc_w  # (B, n)
    if trace.dropout_mask is not None:
        dz = dz * trace.dropout_mask

    k = hyper.k
    n_rows = batch * hyper.d
    x = trace.words.take(trace.index, axis=0).reshape(n_rows, -1)  # (B*d, C*k)
    # the input gradient is needed only over the trainable channels' columns
    trainable = [c for c, ch in enumerate(channels.channels) if ch.trainable]
    cols = slice(trainable[0] * k, (trainable[-1] + 1) * k) if trainable else None

    def height_grads(h):
        dzh = dz[:, hyper.feature_slice(h)]  # (B, nf)
        length = dtype.type(hyper.fmap_len(h))
        dpre = (dzh[:, None, :] / length) * (trace.fmaps[h] > 0.0)
        g_b = dpre.sum(axis=(0, 1)).astype(dtype)
        dy = gather(dpre, h).reshape(n_rows, h * hyper.n_filters)
        del dpre
        g_bank = (x.T @ dy).reshape(hyper.n_channels, k, h, hyper.n_filters)
        g_w = (
            g_bank.transpose(0, 3, 2, 1).reshape(params.conv_w[h].shape)
            + dtype.type(lam) * params.conv_w[h]
        )
        dx = dy @ _filter_bank(params.conv_w[h], k)[cols].T if trainable else None
        return g_w, g_b, dx

    done = _per_height(height_grads, hyper.heights, batch)
    grads = {}
    for h in hyper.heights:
        grads[f"conv_w[{h}]"], grads[f"conv_b[{h}]"], _ = done[h]
    grads["fc_w"] = g_fc_w
    grads["fc_b"] = g_fc_b
    if trainable:
        dx = np.zeros((n_rows, cols.stop - cols.start), dtype=dtype)
        for h in hyper.heights:  # ascending, as the serial sum
            dx += done[h][2]
        flat_ids = trace.ids.reshape(-1)
        d_words = dx.reshape(n_rows, -1, k)
        for c in trainable:
            g = np.zeros_like(channels.channels[c].table, dtype=dtype)
            scatter_add(g, flat_ids, d_words[:, c - trainable[0]])
            g[PAD_ID] = 0.0
            grads[f"channel[{c}]"] = g
    return loss, grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(
    path,
    params: ModelParams,
    channels: ChannelConfig,
    vocab_hash: str,
    extra: dict | None = None,
) -> None:
    """Versioned binary container (``write_container``): hyperparameters,
    input mode and vocabulary digest in the header (the mode's stack gives
    each channel its role), then the parameter tensors and channel tables."""
    header = {
        "hyper": asdict(params.hyper),
        "mode": channels.mode.value,
        "vocab_sha256": vocab_hash,
        "extra": extra or {},
    }
    arrays = params.named_arrays() + [
        (f"channel[{i}]", ch.table) for i, ch in enumerate(channels.channels)
    ]
    write_container(path, _CKPT_MAGIC, header, arrays)


def load_checkpoint(path) -> tuple[ModelParams, ChannelConfig, dict]:
    """Load a checkpoint, checking its arrays against its hyperparameters:
    an ``n_channels`` other than the mode's stack, a parameter of another
    shape, a channel table of another k, or a non-finite parameter raises
    DataError. The mode's stack gives each channel its role."""
    header, arrays = read_container(path, _CKPT_MAGIC, "a model checkpoint")
    with malformed(path):
        hyper = ModelHyper(**header["hyper"])
        tables = [arrays[f"channel[{i}]"] for i in range(hyper.n_channels)]
        config = ChannelConfig.of(InputMode(header["mode"]), tables)
        if config.dim != hyper.k:
            raise DataError(f"{path}: channel k={config.dim}, hyper k={hyper.k}")
        for name, shape in hyper.param_shapes():
            if arrays[name].shape != shape:
                raise DataError(f"{path}: {name} is {arrays[name].shape}, not {shape}")
            if not np.all(np.isfinite(arrays[name])):
                raise DataError(f"{path}: {name} contains non-finite entries")
        params = ModelParams.from_named(hyper, arrays)
        meta = {"vocab_sha256": header["vocab_sha256"], "extra": header["extra"]}
        return params, config, meta


def params_digest(params: ModelParams) -> str:
    """Stable hash over all parameter tensors, used to detect no-op training."""
    digest = hashlib.sha256()
    for name, arr in params.named_arrays():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()
