"""Subword embeddings: skip-gram where a word is represented by the sum of
its character n-gram bucket vectors plus a whole-word vector.

N-grams are taken from the word wrapped in boundary markers ("<word>") and
hashed into a fixed number of buckets, so unseen words still materialize
from their n-grams alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from wordcam.corpus import PAD_ID
from wordcam.embed.channels import EmbeddingChannel, Source
from wordcam.embed.skipgram import (
    NoiseTable,
    check_sgns,
    context_pairs,
    sgns_chunks,
    sgns_step,
)
from wordcam.errors import ConfigError

_CHUNK = 1024


def word_ngrams(word: str, ngram_min: int, ngram_max: int) -> list[str]:
    """Character n-grams of '<word>' with lengths in [ngram_min, ngram_max]."""
    if ngram_min < 1 or ngram_min > ngram_max:
        raise ConfigError(
            f"need 1 <= ngram_min <= ngram_max, got {ngram_min}..{ngram_max}"
        )
    wrapped = f"<{word}>"
    grams = []
    for n in range(ngram_min, ngram_max + 1):
        for i in range(len(wrapped) - n + 1):
            grams.append(wrapped[i : i + n])
    return grams


def ngram_bucket(gram: str, bucket: int) -> int:
    """FNV-1a 32-bit hash of the n-gram's UTF-8 bytes, reduced mod bucket."""
    h = 0x811C9DC5
    for byte in gram.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h % bucket


@dataclass
class SubwordFit:
    word_vecs: np.ndarray  # (V, k) whole-word vectors
    gram_vecs: np.ndarray  # (bucket, k)
    w_out: np.ndarray  # (V, k) output vectors
    ngram_min: int
    ngram_max: int
    bucket: int
    epoch_losses: list[float] = field(default_factory=list)

    def gram_ids(self, word: str) -> list[int]:
        return [
            ngram_bucket(g, self.bucket)
            for g in word_ngrams(word, self.ngram_min, self.ngram_max)
        ]

    def materialize(self, word: str, word_id: int | None = None) -> np.ndarray:
        """Vector for a word; out-of-vocabulary words use n-grams only."""
        vec = self.gram_vecs[self.gram_ids(word)].sum(axis=0)
        if word_id is not None:
            vec = vec + self.word_vecs[word_id]
        return vec


def fit_subword(
    sentences: Sequence[Sequence[int]],
    id_to_token: Sequence[str],
    k: int = 100,
    window: int = 3,
    ngram_min: int = 3,
    ngram_max: int = 6,
    bucket: int = 200_000,
    negatives: int = 5,
    epochs: int = 5,
    lr: float = 0.025,
    seed: int = 0,
    chunk: int = _CHUNK,
) -> SubwordFit:
    check_sgns(k, negatives, chunk)
    if bucket < 1:
        raise ConfigError(f"bucket count must be >= 1, got {bucket}")
    vocab_size = len(id_to_token)
    rng = np.random.default_rng(seed)
    word_vecs = rng.uniform(-0.5 / k, 0.5 / k, size=(vocab_size, k))
    word_vecs[PAD_ID] = 0.0
    gram_vecs = rng.uniform(-0.5 / k, 0.5 / k, size=(bucket, k))
    w_out = np.zeros((vocab_size, k))
    fit = SubwordFit(word_vecs, gram_vecs, w_out, ngram_min, ngram_max, bucket)
    pairs = context_pairs(sentences, window)
    noise = NoiseTable(sentences, vocab_size)

    # CSR-style n-gram index per vocabulary word (pad has none)
    grams_per_word = [[]] + [fit.gram_ids(tok) for tok in id_to_token[1:]]
    offsets = np.cumsum([0] + [len(g) for g in grams_per_word])
    flat_grams = np.asarray([g for gs in grams_per_word for g in gs], dtype=np.int64)

    losses = [0.0] * epochs
    for epoch, centers, contexts, step_lr in sgns_chunks(pairs, epochs, lr, chunk):
        counts = offsets[centers + 1] - offsets[centers]
        gram_rows = np.concatenate(
            [flat_grams[offsets[c] : offsets[c + 1]] for c in centers]
        )
        seg = np.repeat(np.arange(len(centers)), counts)
        h = word_vecs[centers]
        np.add.at(h, seg, gram_vecs[gram_rows])

        grad_h, loss = sgns_step(h, contexts, w_out, noise, rng, negatives, step_lr)
        np.add.at(word_vecs, centers, -step_lr * grad_h)
        np.add.at(gram_vecs, gram_rows, -step_lr * grad_h[seg])
        losses[epoch] += loss
    fit.epoch_losses = [s / len(pairs) for s in losses]
    word_vecs[PAD_ID] = 0.0
    return fit


def train_subword(
    sentences: Sequence[Sequence[int]],
    id_to_token: Sequence[str],
    k: int = 100,
    window: int = 3,
    ngram_min: int = 3,
    ngram_max: int = 6,
    bucket: int = 200_000,
    negatives: int = 5,
    epochs: int = 5,
    lr: float = 0.025,
    seed: int = 0,
    dtype=np.float32,
    chunk: int = _CHUNK,
) -> EmbeddingChannel:
    """Train, then materialize summed vectors for every vocabulary word."""
    fit = fit_subword(
        sentences, id_to_token, k=k, window=window, ngram_min=ngram_min,
        ngram_max=ngram_max, bucket=bucket, negatives=negatives,
        epochs=epochs, lr=lr, seed=seed, chunk=chunk,
    )
    table = np.zeros((len(id_to_token), k), dtype=np.float64)
    for i, tok in enumerate(id_to_token):
        if i == PAD_ID:
            continue
        table[i] = fit.materialize(tok, word_id=i)
    table = table.astype(dtype)
    table[PAD_ID] = 0.0
    return EmbeddingChannel(table, trainable=True, source=Source.SUBWORD)
