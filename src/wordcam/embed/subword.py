"""Subword embeddings: a word is represented by the sum of its character
n-gram bucket vectors plus a whole-word vector (Bojanowski et al. 2017).

N-grams are taken from the word wrapped in boundary markers ("<word>") and
hashed into ``BUCKET`` buckets. The n-gram lengths ``NGRAM_MIN``..
``NGRAM_MAX`` = 3..6 are the published ones; window, negatives and rate are
skip-gram's. Only vocabulary words get vectors: an out-of-vocabulary token
encodes to the pad id, so the CNN never sees one.

Skip-gram is this model with no n-grams, so training is skip-gram's one
negative-sampling loop, ``skipgram.fit_sgns``, given the vocabulary's CSR
n-gram index; ``SGNSFit.table`` sums each word's vectors in the same
order.

Every bucket's vector starts as one row of a (bucket, k) uniform draw, but
only the buckets the vocabulary's n-grams hash to are ever trained or read,
so only their rows are stored: a few percent of ``BUCKET``. The rows are
read from the generator at their place in the draw, and the generator then
skips to where the whole draw would end, so the training that follows and
the vectors it gives are those of the whole table.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wordcam.embed.skipgram import LR, NEGATIVES, WINDOW, SGNSFit, fit_sgns
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
) -> SGNSFit:
    """``fit_sgns`` over the vocabulary's hashed n-grams; pad has none."""
    if bucket < 1:
        raise ConfigError(f"bucket count must be >= 1, got {bucket}")
    per_word = [[]] + [
        [ngram_bucket(g, bucket) for g in word_ngrams(tok, ngram_min, ngram_max)]
        for tok in id_to_token[1:]
    ]
    return fit_sgns(sentences, per_word, bucket, k, window, negatives, epochs, lr, seed,
                    chunk)


def train_subword(
    sentences: Sequence[Sequence[int]], id_to_token: Sequence[str], *, k: int, epochs: int,
    seed: int,
) -> np.ndarray:
    """Train at the module's n-gram, bucket and skip-gram settings, then sum
    each vocabulary word's n-gram and whole-word vectors into a float32
    table."""
    return fit_subword(sentences, id_to_token, k=k, epochs=epochs, seed=seed).table()
