"""Embeddings from weighted least-squares factorization of co-occurrence
counts.

The objective per (i, j) entry is f(x) * (w_i . u_j + b_i + c_j - ln x)^2
with f(x) = min(1, (x / 100)^0.75), optimized by AdaGrad with step 0.05.
The final word vector is the sum of the word and context vectors. Each chunk
of entries gathers its word and context rows once, and its gradients and
steps are computed in those rows' buffers and one more, each operation as
in the plain expression, so no bit changes.

The weighting cutoff 100 and exponent 0.75 are the published values of
Pennington et al. 2014 (GloVe); they and the step are the module constants
``_X_MAX``, ``_ALPHA`` and ``_LR``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from wordcam.corpus import PAD_ID
from wordcam.embed.channels import check_dim, scatter_add
from wordcam.embed.skipgram import WINDOW, context_pairs
from wordcam.errors import ConfigError

_CHUNK = 4096
_X_MAX = 100.0
_ALPHA = 0.75
_LR = 0.05


def build_cooc(
    sentences: Sequence[Sequence[int]], window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric co-occurrence counts: sorted (min_id, max_id) keys (n, 2)
    and their counts (n,).

    Each ordered co-occurrence event inside +-window adds one count to its
    unordered pair; a token co-occurring with itself produces a diagonal
    entry. ``context_pairs`` lists every event once from each end, so the
    counts of its id-sorted pairs are twice the event counts.
    """
    pairs = np.sort(context_pairs(sentences, window), axis=1)
    # one integer per pair, ordered as the pairs are: far faster to unique
    # than the rows themselves
    base = pairs.max() + 1
    codes, counts = np.unique(pairs[:, 0] * base + pairs[:, 1], return_counts=True)
    return np.stack(np.divmod(codes, base), axis=1), counts // 2


@dataclass
class CoocFit:
    w: np.ndarray  # word vectors (V, k)
    u: np.ndarray  # context vectors (V, k)
    b: np.ndarray  # word biases (V,)
    c: np.ndarray  # context biases (V,)
    epoch_losses: list[float] = field(default_factory=list)

    def predict(self, i: int, j: int) -> float:
        """Model value for an entry: should approach ln(count) when trained."""
        return float(self.w[i] @ self.u[j] + self.b[i] + self.c[j])

    def table(self, dtype=np.float32) -> np.ndarray:
        """The word + context vector sums, (V, k)."""
        return (self.w + self.u).astype(dtype)


def _gather(table: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``table[rows]``, written into ``out``. The rows are in range, so
    "clip" changes none; it lets ``take`` write ``out`` without a copy."""
    return np.take(table, rows, axis=0, out=out, mode="clip")


def _adagrad_step(grad: np.ndarray, acc: np.ndarray, rows: np.ndarray, buf: np.ndarray):
    """``-_LR * grad / np.sqrt(acc[rows])``, computed in ``grad`` and ``buf``."""
    np.sqrt(_gather(acc, rows, buf), out=buf)
    np.multiply(-_LR, grad, out=grad)
    return np.divide(grad, buf, out=grad)


def fit_cooc(
    cooc: tuple[np.ndarray, np.ndarray],
    vocab_size: int,
    k: int = 100,
    epochs: int = 25,
    seed: int = 0,
) -> CoocFit:
    check_dim(k)
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.5 / k, 0.5 / k, size=(vocab_size, k))
    u = rng.uniform(-0.5 / k, 0.5 / k, size=(vocab_size, k))
    b = np.zeros(vocab_size)
    c = np.zeros(vocab_size)
    # AdaGrad accumulators start at 1 so the first steps are ~_LR-sized
    gw = np.ones_like(w)
    gu = np.ones_like(u)
    gb = np.ones_like(b)
    gc = np.ones_like(c)

    # train both orientations of off-diagonal pairs, each right after the
    # other, and diagonal pairs once
    keys, counts = cooc
    mirrored = keys[:, 0] != keys[:, 1]
    keep = np.stack([np.ones_like(mirrored), mirrored], axis=1)
    rows, cols = np.stack([keys, keys[:, ::-1]], axis=1)[keep].T
    xs = np.repeat(counts, 1 + mirrored).astype(np.float64)
    logx = np.log(xs)
    weight = np.minimum(1.0, (xs / _X_MAX) ** _ALPHA)

    fit = CoocFit(w, u, b, c)
    n = len(rows)
    # a chunk's (n, k) rows, gradients and steps live in these three buffers
    bufs = np.empty((3, min(n, _CHUNK), k))
    for _ in range(epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, _CHUNK):
            sel = order[start : start + _CHUNK]
            i, j = rows[sel], cols[sel]
            f = weight[sel]
            wi, uj, buf = bufs[:, : len(sel)]
            _gather(w, i, wi)
            _gather(u, j, uj)
            diff = np.einsum("nk,nk->n", wi, uj) + b[i] + c[j] - logx[sel]
            loss_sum += float((f * diff**2).sum())
            g = 2.0 * f * diff  # (n,)

            grad_wi = np.multiply(g[:, None], uj, out=uj)
            grad_uj = np.multiply(g[:, None], wi, out=wi)
            scatter_add(gw, i, np.square(grad_wi, out=buf))
            scatter_add(gu, j, np.square(grad_uj, out=buf))
            g_sq = g**2
            scatter_add(gb, i, g_sq)
            scatter_add(gc, j, g_sq)
            scatter_add(w, i, _adagrad_step(grad_wi, gw, i, buf))
            scatter_add(u, j, _adagrad_step(grad_uj, gu, j, buf))
            scatter_add(b, i, -_LR * g / np.sqrt(gb[i]))
            scatter_add(c, j, -_LR * g / np.sqrt(gc[j]))
        fit.epoch_losses.append(loss_sum / n)
    # the pad's w and u rows start random; its b and c entries start at zero
    # and, as no key holds the pad, stay there
    w[PAD_ID] = 0.0
    u[PAD_ID] = 0.0
    return fit


def train_cooc_factor(
    sentences: Sequence[Sequence[int]], vocab_size: int, *, k: int, epochs: int, seed: int
) -> np.ndarray:
    """Build counts within skip-gram's window, factorize, and return the
    word + context vector sums as a float32 table."""
    cooc = build_cooc(sentences, WINDOW)
    return fit_cooc(cooc, vocab_size, k=k, epochs=epochs, seed=seed).table()
