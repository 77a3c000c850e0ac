"""Subword embeddings: a word is represented by the sum of its character
n-gram bucket vectors plus a whole-word vector (Bojanowski et al. 2017).

N-grams are taken from the word wrapped in boundary markers ("<word>") and
hashed into ``BUCKET`` buckets. The n-gram lengths ``NGRAM_MIN``..
``NGRAM_MAX`` = 3..6 are the published ones; window, negatives and rate are
skip-gram's. Only vocabulary words get vectors: an out-of-vocabulary token
encodes to the pad id, so the CNN never sees one.

Skip-gram is this model with no n-grams, so training is skip-gram's one
negative-sampling loop, ``skipgram.fit_sgns``, given the vocabulary's CSR
n-gram index; the channel sums each word's vectors in the same order.

Every bucket's vector starts as one row of a (bucket, k) uniform draw, but
only the buckets the vocabulary's n-grams hash to are ever trained or read,
so only their rows are stored: a few percent of ``BUCKET``. The rows are
read from the generator at their place in the draw, and the generator then
skips to where the whole draw would end, so the training that follows and
the vectors it gives are those of the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wordcam.corpus import PAD_ID
from wordcam.embed.channels import EmbeddingChannel, Source, scatter_add, scatter_rows
from wordcam.embed.skipgram import (
    LR,
    NEGATIVES,
    WINDOW,
    _ngram_blocks,
    check_sgns,
    fit_sgns,
)
from wordcam.errors import ConfigError

_CHUNK = 1024
NGRAM_MIN = 3
NGRAM_MAX = 6
BUCKET = 200_000


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


def _initial_rows(state: dict, rows: np.ndarray, k: int) -> np.ndarray:
    """Rows ``rows`` (sorted, distinct) of ``uniform(-0.5/k, 0.5/k, (n, k))``
    drawn from a PCG64 generator in ``state``, for any n above the last row.

    Each uniform takes one 64-bit draw, so row r starts r*k draws after
    ``state``. The generator skips each gap between used rows with
    ``advance``, which is exact and costs a few microseconds whatever its
    length, and draws each used row alone.
    """
    bitgen = np.random.PCG64()
    bitgen.state = state
    gen = np.random.Generator(bitgen)
    out = np.empty((len(rows), k))
    drawn = 0  # rows of the draw consumed
    for i, row in enumerate(rows.tolist()):
        bitgen.advance((row - drawn) * k)
        out[i] = gen.uniform(-0.5 / k, 0.5 / k, size=k)
        drawn = row + 1
    return out


@dataclass
class SubwordFit:
    """The trained tables of ``fit_subword``."""

    word_vecs: np.ndarray  # (V, k) whole-word vectors
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

    def channel(self, dtype=np.float32) -> EmbeddingChannel:
        """Each vocabulary word's n-gram vectors summed with its whole-word
        vector, as an embedding channel; the pad row stays zero."""
        table = np.zeros(self.word_vecs.shape)
        words, block = np.arange(len(table)), scatter_rows(table.shape[1])
        for seg, gram_rows in _ngram_blocks(words, self.offsets, self.grams, block):
            scatter_add(table, seg, self.gram_vecs[gram_rows])
        table = (table + self.word_vecs).astype(dtype)
        return EmbeddingChannel(table, trainable=True, source=Source.SUBWORD)


def fit_subword(
    sentences: Sequence[Sequence[int]],
    id_to_token: Sequence[str],
    k: int = 100,
    window: int = WINDOW,
    ngram_min: int = NGRAM_MIN,
    ngram_max: int = NGRAM_MAX,
    bucket: int = BUCKET,
    negatives: int = NEGATIVES,
    epochs: int = 5,
    lr: float = LR,
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
    per_word = [[]] + [
        [ngram_bucket(g, bucket) for g in word_ngrams(tok, ngram_min, ngram_max)]
        for tok in id_to_token[1:]
    ]
    offsets = np.cumsum([0] + [len(g) for g in per_word])
    ids = np.asarray([g for gs in per_word for g in gs], dtype=np.int64)
    buckets, grams = np.unique(ids, return_inverse=True)
    gram_vecs = _initial_rows(rng.bit_generator.state, buckets, k)
    # the noise draws below start where the whole (bucket, k) draw ends
    rng.bit_generator.advance(bucket * k)
    w_out, epoch_losses = fit_sgns(sentences, word_vecs, offsets, grams, gram_vecs, rng,
                                   window, negatives, epochs, lr, chunk)
    return SubwordFit(word_vecs, w_out, buckets, gram_vecs, offsets, grams, epoch_losses)


def train_subword(
    sentences: Sequence[Sequence[int]], id_to_token: Sequence[str], *, k: int, epochs: int,
    seed: int,
) -> EmbeddingChannel:
    """Train at the module's n-gram, bucket and skip-gram settings, then sum
    each vocabulary word's n-gram and whole-word vectors."""
    return fit_subword(sentences, id_to_token, k=k, epochs=epochs, seed=seed).channel()
