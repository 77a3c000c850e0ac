"""Skip-gram embeddings trained with negative sampling (Mikolov et al.
2013). In the subword model (Bojanowski et al. 2017) a word's vector is its
own row plus the sum of its n-gram rows; skip-gram is that model with no
n-grams. So ``fit_sgns`` is the one fit of both, with one record,
``SGNSFit``: it takes each word's n-gram buckets, and ``fit_skipgram``
passes none.
``context_pairs``, the one window enumeration, also serves co-occurrence.

Pairs are processed in chunks (``sgns_chunks``) so the update arithmetic is
vectorized; within a chunk, repeated rows accumulate through
``channels.scatter_add``, in pair order. A center's vector is summed once
per chunk. The n-gram updates and the negatives' rows and updates are built
one scatter block of rows at a time, so a chunk's memory does not grow with
word length or with the negatives.
Deterministic given (sentence order, seed).

``WINDOW``, ``NEGATIVES`` and ``LR`` are the context window, negative
samples per pair and starting rate of every trainer here and in the subword
and co-occurrence modules; 5 negatives and rate 0.025 are those of Mikolov
et al. 2013.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from wordcam.corpus import PAD_ID
from wordcam.embed.channels import check_dim, scatter_add, scatter_rows
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
    check_dim(k)
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
    # a negative that collides with the true context is skipped
    live = negs != contexts[:, None]

    pos_score = np.einsum("nk,nk->n", h, u_pos)
    g_pos = _sigmoid(pos_score) - 1.0  # (n,)
    grad_h = g_pos[:, None] * u_pos
    # the negatives' rows and gradients, and then their updates, one scatter
    # block of pairs at a time: every update follows every gather
    k = h.shape[1]
    block = max(1, scatter_rows(k) // negatives)
    neg_score, g_neg = np.empty((2, *negs.shape))
    for lo in range(0, len(h), block):
        rows = slice(lo, lo + block)
        u_neg = w_out[negs[rows]]  # (block, neg, k)
        neg_score[rows] = np.einsum("nk,njk->nj", h[rows], u_neg)
        g_neg[rows] = _sigmoid(neg_score[rows]) * live[rows]
        grad_h[rows] += np.einsum("nj,njk->nk", g_neg[rows], u_neg)
    loss = -(_log_sigmoid(pos_score).sum() + (_log_sigmoid(-neg_score) * live).sum())

    scatter_add(w_out, contexts, -step_lr * g_pos[:, None] * h)
    for lo in range(0, len(h), block):
        rows = slice(lo, lo + block)
        values = -step_lr * g_neg[rows, :, None] * h[rows, None, :]
        scatter_add(w_out, negs[rows].reshape(-1), values.reshape(-1, k))
    return grad_h, loss


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


def _initial_rows(rng: np.random.Generator, rows: np.ndarray, k: int, n: int) -> np.ndarray:
    """Rows ``rows`` (sorted, distinct, below ``n``) of the draw
    ``rng.uniform(-0.5/k, 0.5/k, (n, k))``, after which ``rng`` stands where
    that whole draw would leave it.

    Each uniform takes one 64-bit draw, so row r starts r*k draws in. The
    generator skips each gap between used rows with ``advance``, which is
    exact and costs a few microseconds whatever its length, and draws each
    used row alone.
    """
    bitgen = rng.bit_generator
    out = np.empty((len(rows), k))
    drawn = 0  # rows of the draw consumed
    for i, row in enumerate(rows.tolist()):
        bitgen.advance((row - drawn) * k)
        out[i] = rng.uniform(-0.5 / k, 0.5 / k, size=k)
        drawn = row + 1
    bitgen.advance((n - drawn) * k)
    return out


@dataclass
class SGNSFit:
    """The trained tables of ``fit_sgns``."""

    word_vecs: np.ndarray  # (V, k) whole-word (input) vectors
    w_out: np.ndarray  # (V, k) output vectors
    # the distinct buckets the vocabulary's n-grams hash to, ascending, and
    # their vectors: gram_vecs[r] belongs to bucket buckets[r]
    buckets: np.ndarray
    gram_vecs: np.ndarray  # (len(buckets), k)
    # CSR n-gram index of the vocabulary: word i's rows of gram_vecs are
    # grams[offsets[i] : offsets[i + 1]]; pad has none
    offsets: np.ndarray
    grams: np.ndarray
    epoch_losses: list[float]

    def table(self, dtype=np.float32) -> np.ndarray:
        """Each word's n-gram vectors summed, then its whole-word vector
        added, (V, k); the pad row stays zero."""
        table = np.zeros(self.word_vecs.shape)
        words, block = np.arange(len(table)), scatter_rows(table.shape[1])
        for seg, gram_rows in _ngram_blocks(words, self.offsets, self.grams, block):
            scatter_add(table, seg, self.gram_vecs[gram_rows])
        # the float64 sum, rounded to dtype as it is written
        return np.add(table, self.word_vecs, out=np.empty(table.shape, dtype))


def fit_sgns(
    sentences: Sequence[Sequence[int]], per_word: Sequence[Sequence[int]], bucket: int,
    k: int, window: int, negatives: int, epochs: int, lr: float, seed: int, chunk: int,
) -> SGNSFit:
    """Train a (V, k) word table, V = ``len(per_word)``, in which word i's
    center vector is its row plus the sum of the rows of its n-gram buckets
    ``per_word[i]`` (each below ``bucket``), in that order.

    Word rows start as a seeded uniform (V, k) draw, pad zeroed; bucket rows
    as the rows of the (bucket, k) draw that follows it, and the negatives
    are drawn after that whole draw. Only the buckets that some word uses
    are stored.
    """
    check_sgns(k, negatives, chunk)
    rng = np.random.default_rng(seed)
    word_vecs = rng.uniform(-0.5 / k, 0.5 / k, size=(len(per_word), k))
    word_vecs[PAD_ID] = 0.0
    offsets = np.cumsum([0] + [len(g) for g in per_word])
    ids = np.asarray([g for gs in per_word for g in gs], dtype=np.int64)
    buckets, grams = np.unique(ids, return_inverse=True)
    gram_vecs = _initial_rows(rng, buckets, k, bucket)

    pairs = context_pairs(sentences, window)
    noise = NoiseTable(sentences, len(word_vecs))
    w_out = np.zeros_like(word_vecs)
    block = scatter_rows(k)
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
    return SGNSFit(word_vecs, w_out, buckets, gram_vecs, offsets, grams,
                   [s / len(pairs) for s in losses])


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
) -> SGNSFit:
    """``fit_sgns`` with no n-grams. The default chunk suits vocabularies in
    the thousands; tiny corpora should pass something like 32 (see
    ``sgns_chunks``)."""
    return fit_sgns(sentences, [[]] * vocab_size, 0, k, window, negatives, epochs, lr,
                    seed, chunk)


def train_skipgram(
    sentences: Sequence[Sequence[int]], vocab_size: int, *, k: int, epochs: int, seed: int
) -> np.ndarray:
    """Train at the module's window, negatives and rate, and return the
    center-word table as float32."""
    return fit_skipgram(sentences, vocab_size, k=k, epochs=epochs, seed=seed).table()
