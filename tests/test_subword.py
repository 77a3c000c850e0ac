import tracemalloc

import numpy as np
import pytest
from oracles import subword_dense

from wordcam.embed.subword import (
    fit_subword,
    ngram_bucket,
    word_ngrams,
)
from wordcam.errors import ConfigError


def test_word_ngrams_enumeration():
    assert word_ngrams("ab", 2, 3) == ["<a", "ab", "b>", "<ab", "ab>"]
    assert word_ngrams("x", 3, 3) == ["<x>"]


def test_word_ngrams_bad_range():
    with pytest.raises(ConfigError):
        word_ngrams("word", 4, 3)
    with pytest.raises(ConfigError):
        word_ngrams("word", 0, 2)


def test_ngram_bucket_deterministic():
    assert ngram_bucket("<ab", 1000) == ngram_bucket("<ab", 1000)
    assert 0 <= ngram_bucket("한국", 64) < 64


def _toy_fit(**kwargs):
    """The toy vocabulary, its fit, and the fit's float64 table."""
    tokens = ["<pad>", "care", "core", "dare", "mist", "mast"]
    rng = np.random.default_rng(0)
    sentences = [rng.integers(1, 6, size=5).tolist() for _ in range(40)]
    defaults = dict(
        k=8, window=2, ngram_min=3, ngram_max=4, bucket=512,
        negatives=3, epochs=2, lr=0.05, seed=1,
    )
    defaults.update(kwargs)
    fit = fit_subword(sentences, tokens, **defaults)
    table = fit.table(dtype=np.float64)
    return tokens, fit, table


def _gram_rows(fit, i):
    """Word i's rows of fit.gram_vecs, one per n-gram."""
    return fit.grams[fit.offsets[i] : fit.offsets[i + 1]]


@pytest.mark.parametrize("bad", [dict(negatives=0), dict(k=0)])
def test_fit_subword_rejects_bad_settings(bad):
    with pytest.raises(ConfigError):
        _toy_fit(**bad)


def test_materialized_difference_is_unshared_contribution():
    tokens, fit, table = _toy_fit()
    i, j = tokens.index("care"), tokens.index("dare")
    rows_i = set(_gram_rows(fit, i))
    rows_j = set(_gram_rows(fit, j))
    shared = rows_i & rows_j
    assert shared  # "are", "are>", ... overlap by construction
    expected = (
        fit.word_vecs[i]
        - fit.word_vecs[j]
        + fit.gram_vecs[sorted(rows_i - shared)].sum(axis=0)
        - fit.gram_vecs[sorted(rows_j - shared)].sum(axis=0)
    )
    # repeated shared grams could break this; the toy words have none
    assert len(_gram_rows(fit, i)) == len(rows_i)
    assert np.allclose(table[i] - table[j], expected, atol=1e-12)


def test_bucket_one_collides_everything():
    tokens, fit, table = _toy_fit(bucket=1, epochs=0)
    assert fit.buckets.tolist() == [0]
    i, j = tokens.index("mist"), tokens.index("mast")
    # same length means the same number of colliding grams, so the two
    # rows differ by their whole-word vectors alone
    n = len(word_ngrams("mist", 3, 4))
    assert len(_gram_rows(fit, i)) == len(_gram_rows(fit, j)) == n
    for word in (i, j):
        assert np.allclose(table[word] - fit.word_vecs[word], n * fit.gram_vecs[0], atol=1e-12)


def test_train_subword_channel_deterministic():
    tokens = ["<pad>", "haste", "taste", "waste", "paste"]
    rng = np.random.default_rng(3)
    sentences = [rng.integers(1, 5, size=6).tolist() for _ in range(30)]
    kwargs = dict(k=6, window=2, ngram_min=3, ngram_max=5, bucket=256,
                  negatives=2, epochs=2, seed=7)
    a = fit_subword(sentences, tokens, **kwargs).table()
    b = fit_subword(sentences, tokens, **kwargs).table()
    assert np.array_equal(a, b)
    assert np.all(a[0] == 0.0)
    assert a.shape == (5, 6)


_TOY_TOKENS = ["<pad>", "care", "core", "dare", "mist", "mast"]
_TOY_SETTINGS = dict(k=8, window=2, ngram_min=3, ngram_max=4, negatives=3, lr=0.05, seed=1)


def _last_bucket_used(tokens, lo):
    """The smallest bucket count >= lo at which some n-gram of the tokens
    hashes to the last bucket."""
    grams = [g for tok in tokens[1:] for g in word_ngrams(tok, 3, 4)]
    return next(b for b in range(lo, lo + 10_000) if b - 1 in {ngram_bucket(g, b) for g in grams})


@pytest.mark.parametrize("bucket, epochs", [
    (1, 2),  # every n-gram in one bucket
    (200_000, 2),  # sparse: the vocabulary uses a few dozen rows
    (512, 0),  # no training: the tables are the initial draw
    (_last_bucket_used(_TOY_TOKENS, 300), 2),  # the last row is used
])
def test_fit_matches_the_dense_table(bucket, epochs):
    """Storing only the used buckets' rows changes no bit: the trained
    tables, the summed table and the losses (so the noise draws) all equal the
    dense trainer's."""
    tokens = _TOY_TOKENS
    rng = np.random.default_rng(0)
    sentences = [rng.integers(1, len(tokens), size=5).tolist() for _ in range(40)]
    kwargs = dict(_TOY_SETTINGS, bucket=bucket, epochs=epochs)
    fit = fit_subword(sentences, tokens, **kwargs)
    want = subword_dense(sentences, tokens, **kwargs)
    assert np.array_equal(fit.word_vecs, want.word_vecs)
    assert np.array_equal(fit.w_out, want.w_out)
    assert fit.epoch_losses == want.epoch_losses
    assert np.array_equal(fit.buckets, np.unique(want.grams))
    assert np.array_equal(fit.gram_vecs, want.gram_vecs[fit.buckets])
    assert np.array_equal(fit.buckets[fit.grams], want.grams)
    assert np.array_equal(fit.table(dtype=np.float64), want.table)


def test_fit_memory_does_not_grow_with_the_bucket_count():
    """200,000 buckets at k=8 make a 12.8 MB dense table; a toy vocabulary
    uses a few dozen of its rows, and the fit may trace a quarter of it."""
    rng = np.random.default_rng(0)
    sentences = [rng.integers(1, len(_TOY_TOKENS), size=5).tolist() for _ in range(40)]
    tracemalloc.start()
    try:
        fit_subword(sentences, _TOY_TOKENS, bucket=200_000, epochs=1, **_TOY_SETTINGS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000 * 8 * 8 / 4


def test_fit_memory_does_not_grow_with_word_length():
    """A chunk's n-gram rows are gathered and updated one scatter block at a
    time, so 40-character words peak within 10% of 4-character ones at a
    fixed bucket count; updates built for the whole chunk took about 8x."""

    def peak(length):
        tokens = ["<pad>"] + [c * length for c in "abcdefghijklmnopqrst"]
        rng = np.random.default_rng(0)
        sentences = [rng.integers(1, len(tokens), size=8).tolist() for _ in range(150)]
        tracemalloc.start()
        try:
            fit_subword(sentences, tokens, k=16, bucket=64, epochs=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) < 1.1 * peak(4)
