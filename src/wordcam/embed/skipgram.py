"""Skip-gram embeddings trained with negative sampling (Mikolov et al.
2013). In the subword model (Bojanowski et al. 2017) a word's vector is its
own row plus the sum of its n-gram rows; skip-gram is that model with no
n-grams. So ``fit_sgns`` is the one training loop of both: it takes the
n-grams as a CSR index, and ``fit_skipgram`` passes an empty one.
``context_pairs``, the one window enumeration, also serves co-occurrence.

Pairs are processed in chunks (``sgns_chunks``) so the update arithmetic is
vectorized; within a chunk, repeated rows accumulate through
``channels.scatter_add``, in pair order. A center's vector is summed once
per chunk, and the n-gram and negative-sample updates are built one scatter
block of rows at a time, so a chunk's memory does not grow with word length.
Deterministic given (sentence order, seed).

``WINDOW``, ``NEGATIVES`` and ``LR`` are the context window, negative
samples per pair and starting rate of every trainer here and in the subword
and co-occurrence modules; 5 negatives and rate 0.025 are those of Mikolov
et al. 2013.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from wordcam.corpus import PAD_ID
from wordcam.embed.channels import EmbeddingChannel, Source, scatter_add, scatter_rows
from wordcam.errors import ConfigError, DataError

_CHUNK = 2048
WINDOW = 3
NEGATIVES = 5
LR = 0.025


def _flat_tokens(sentences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """All token ids end to end, and each sentence's length."""
    tokens = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.int64)
    if np.any(tokens == PAD_ID):
        raise DataError("padding id in training sentences")
    return tokens, np.fromiter(map(len, sentences), dtype=np.int64)


def context_pairs(sentences: Sequence[Sequence[int]], window: int) -> np.ndarray:
    """All (center, context) id pairs within +-window, in corpus order: by
    center position, then by context position."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    tokens, lengths = _flat_tokens(sentences)
    end = np.repeat(np.cumsum(lengths), lengths)  # one past each token's sentence
    start = end - np.repeat(lengths, lengths)
    ctx = np.arange(len(tokens))[:, None] + np.r_[-window:0, 1 : window + 1]
    same_sentence = (ctx >= start[:, None]) & (ctx < end[:, None])
    if not same_sentence.any():
        raise DataError("no context pairs: every sentence has fewer than 2 tokens")
    centers = np.repeat(tokens, same_sentence.sum(axis=1))
    return np.stack([centers, tokens[ctx[same_sentence]]], axis=1)


class NoiseTable:
    """Unigram^0.75 negative-sampling distribution over real token ids."""

    def __init__(self, sentences: Sequence[Sequence[int]], vocab_size: int):
        counts = np.bincount(_flat_tokens(sentences)[0], minlength=vocab_size)
        weights = counts.astype(np.float64) ** 0.75
        total = weights.sum()
        if total <= 0:
            raise DataError("empty corpus: no tokens to sample negatives from")
        self.cdf = np.cumsum(weights / total)
        # the rounded sum can end below 1.0; from the last id that has a
        # count on, the cdf is 1.0, so every draw in [0, 1) maps to a real id
        self.cdf[np.flatnonzero(weights)[-1] :] = 1.0

    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        return np.searchsorted(self.cdf, rng.random(shape), side="right")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def check_sgns(k: int, negatives: int, chunk: int) -> None:
    """Reject settings a negative-sampling trainer cannot run with."""
    if k < 1:
        raise ConfigError(f"embedding dimension must be >= 1, got {k}")
    if negatives < 1:
        raise ConfigError(f"need at least one negative sample, got {negatives}")
    if chunk < 1:
        raise ConfigError(f"chunk must be >= 1, got {chunk}")


def sgns_chunks(
    pairs: np.ndarray, epochs: int, lr: float, chunk: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, float]]:
    """(epoch, centers, contexts, step_lr) for each chunk of ``pairs`` in
    each epoch, with the rate decaying linearly over all pairs seen.

    Pairs inside a chunk update against the same stale parameters, so the
    chunk size should stay well below the typical per-token pair count.
    """
    total_steps = epochs * len(pairs)
    done = 0
    for epoch in range(epochs):
        for start in range(0, len(pairs), chunk):
            centers, contexts = pairs[start : start + chunk].T
            yield epoch, centers, contexts, lr * max(1e-4, 1.0 - done / total_steps)
            done += len(centers)


def sgns_step(
    h: np.ndarray, contexts: np.ndarray, w_out: np.ndarray, noise: NoiseTable,
    rng: np.random.Generator, negatives: int, step_lr: float,
) -> tuple[np.ndarray, float]:
    """One negative-sampling step for center vectors h (n, k) and their true
    contexts (n,): updates ``w_out`` in place and returns the gradient of the
    summed loss with respect to h, and that loss."""
    u_pos = w_out[contexts]  # (n, k)
    negs = noise.sample(rng, (len(h), negatives))
    u_neg = w_out[negs]  # (n, neg, k)

    pos_score = np.einsum("nk,nk->n", h, u_pos)
    neg_score = np.einsum("nk,njk->nj", h, u_neg)
    # a negative that collides with the true context is skipped
    live = negs != contexts[:, None]

    g_pos = _sigmoid(pos_score) - 1.0  # (n,)
    g_neg = _sigmoid(neg_score) * live  # (n, neg)
    loss = -(_log_sigmoid(pos_score).sum() + (_log_sigmoid(-neg_score) * live).sum())

    grad_h = g_pos[:, None] * u_pos + np.einsum("nj,njk->nk", g_neg, u_neg)
    scatter_add(w_out, contexts, -step_lr * g_pos[:, None] * h)
    # the negatives' update values, built for one scatter block at a time
    k = h.shape[1]
    block = max(1, scatter_rows(k) // negatives)
    for lo in range(0, len(h), block):
        values = -step_lr * g_neg[lo : lo + block, :, None] * h[lo : lo + block, None, :]
        scatter_add(w_out, negs[lo : lo + block].reshape(-1), values.reshape(-1, k))
    return grad_h, loss


@dataclass
class SkipGramFit:
    """Trained input/output tables plus the per-epoch mean pair loss."""

    w_in: np.ndarray
    w_out: np.ndarray
    epoch_losses: list[float] = field(default_factory=list)

    def channel(self, dtype=np.float32) -> EmbeddingChannel:
        """The center-word table as an embedding channel."""
        table = self.w_in.astype(dtype)
        return EmbeddingChannel(table, trainable=True, source=Source.SKIPGRAM)


def _ngram_blocks(
    words: np.ndarray, offsets: np.ndarray, grams: np.ndarray, block: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The n-gram rows of ``words`` end to end, each word's in the CSR
    index's order, in blocks of at most ``block``: for each block, the
    position in ``words`` that each row belongs to, and the row."""
    starts = offsets[words]
    counts = offsets[words + 1] - starts
    ends = np.cumsum(counts)  # one past each word's last row, end to end
    shift = starts - (ends - counts)  # from a place end to end to its CSR index
    total = int(ends[-1])
    for lo in range(0, total, block):
        pos = np.arange(lo, min(lo + block, total))
        seg = np.searchsorted(ends, pos, side="right")
        yield seg, grams[pos + shift[seg]]


def fit_sgns(
    sentences: Sequence[Sequence[int]], word_vecs: np.ndarray, offsets: np.ndarray,
    grams: np.ndarray, gram_vecs: np.ndarray, rng: np.random.Generator, window: int,
    negatives: int, epochs: int, lr: float, chunk: int,
) -> tuple[np.ndarray, list[float]]:
    """Train ``word_vecs`` (V, k) and ``gram_vecs`` in place, where word i's
    center vector is its row plus the sum of its n-gram rows
    ``gram_vecs[grams[offsets[i] : offsets[i + 1]]]``, in that order.
    Returns the output table and the per-epoch mean pair loss."""
    pairs = context_pairs(sentences, window)
    noise = NoiseTable(sentences, len(word_vecs))
    w_out = np.zeros_like(word_vecs)
    block = scatter_rows(word_vecs.shape[1])
    losses = [0.0] * epochs
    for epoch, centers, contexts, step_lr in sgns_chunks(pairs, epochs, lr, chunk):
        # each distinct center's row plus its n-gram rows, in n-gram order,
        # summed once for all the pairs it centers
        distinct, center_of = np.unique(centers, return_inverse=True)
        h = word_vecs[distinct]
        for seg, gram_rows in _ngram_blocks(distinct, offsets, grams, block):
            scatter_add(h, seg, gram_vecs[gram_rows])
        grad_h, loss = sgns_step(h[center_of], contexts, w_out, noise, rng, negatives, step_lr)
        step = -step_lr * grad_h
        scatter_add(word_vecs, centers, step)
        for seg, gram_rows in _ngram_blocks(centers, offsets, grams, block):
            scatter_add(gram_vecs, gram_rows, step[seg])
        losses[epoch] += loss
    word_vecs[PAD_ID] = 0.0
    return w_out, [s / len(pairs) for s in losses]


def fit_skipgram(
    sentences: Sequence[Sequence[int]],
    vocab_size: int,
    k: int = 100,
    window: int = WINDOW,
    negatives: int = NEGATIVES,
    epochs: int = 5,
    lr: float = LR,
    seed: int = 0,
    chunk: int = _CHUNK,
) -> SkipGramFit:
    """The default chunk suits vocabularies in the thousands; tiny corpora
    should pass something like 32 (see ``sgns_chunks``)."""
    check_sgns(k, negatives, chunk)
    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-0.5 / k, 0.5 / k, size=(vocab_size, k))
    w_in[PAD_ID] = 0.0
    no_grams = np.zeros(vocab_size + 1, dtype=np.int64)  # an empty CSR index
    w_out, losses = fit_sgns(sentences, w_in, no_grams, no_grams[:0], np.zeros((0, k)),
                             rng, window, negatives, epochs, lr, chunk)
    return SkipGramFit(w_in, w_out, losses)


def train_skipgram(
    sentences: Sequence[Sequence[int]], vocab_size: int, *, k: int, epochs: int, seed: int
) -> EmbeddingChannel:
    """Train at the module's window, negatives and rate, and materialize the
    center-word table as an embedding channel."""
    return fit_skipgram(sentences, vocab_size, k=k, epochs=epochs, seed=seed).channel()
