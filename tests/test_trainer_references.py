"""The embedding trainers against their whole-array references in
``oracles``: every table and every epoch loss bit for bit, over seeds, chunk
sizes and scatter block sizes."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from oracles import cooc_unfused, skipgram_whole, subword_dense

from wordcam.embed import channels, cooccur, skipgram, subword
from wordcam.embed.cooccur import build_cooc, fit_cooc
from wordcam.embed.skipgram import context_pairs, fit_skipgram
from wordcam.embed.subword import fit_subword

SEEDS = [0, 1, 2]
CHUNKS = [1, 7, None]  # None: the trainer's default
BLOCK_ROWS = [None, 3]  # rows per scatter_add block; None: the default
K = 8
# "a" wraps to "<a>", which has no n-gram of length 4 or 5
TOKENS = ["<pad>", "a", "care", "core", "dare", "mist"]


def straddling_corpus(seed):
    """Random sentences over ids 1..5 after [1, 2, 3, 4, 5]. At window 2 the
    center 3 owns pairs 5 to 8, so a chunk of 7 splits them."""
    rng = np.random.default_rng(seed)
    return [[1, 2, 3, 4, 5]] + [rng.integers(1, 6, size=6).tolist() for _ in range(30)]


@contextlib.contextmanager
def scatter_blocks(rows):
    """``scatter_add`` blocks of ``rows`` rows of a K-wide table."""
    if rows is None:
        yield
        return
    with mock.patch.object(channels, "_SCATTER_ENTRIES", rows * K):
        yield


def test_one_center_straddles_chunk_seven():
    pairs = context_pairs(straddling_corpus(0), window=2)
    assert pairs[5:9, 0].tolist() == [3, 3, 3, 3]


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("seed", SEEDS)
def test_skipgram_matches_its_whole_array_reference(seed, chunk, rows):
    sentences = straddling_corpus(seed)
    chunk = skipgram._CHUNK if chunk is None else chunk
    kwargs = dict(k=K, window=2, negatives=3, epochs=2, lr=0.05, seed=seed, chunk=chunk)
    with scatter_blocks(rows):
        fit = fit_skipgram(sentences, len(TOKENS), **kwargs)
    want = skipgram_whole(sentences, len(TOKENS), **kwargs)
    assert np.array_equal(fit.word_vecs, want.w_in)
    assert np.array_equal(fit.table(dtype=np.float64), want.w_in)
    assert np.array_equal(fit.w_out, want.w_out)
    assert fit.epoch_losses == want.epoch_losses


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("seed", SEEDS)
def test_cooc_matches_its_unfused_reference(seed, chunk, rows):
    cooc = build_cooc(straddling_corpus(seed), window=2)
    chunk = cooccur._CHUNK if chunk is None else chunk
    with mock.patch.object(cooccur, "_CHUNK", chunk), scatter_blocks(rows):
        fit = fit_cooc(cooc, len(TOKENS), k=K, epochs=3, seed=seed)
    want = cooc_unfused(cooc, len(TOKENS), k=K, epochs=3, seed=seed, chunk=chunk)
    for name in ("w", "u", "b", "c"):
        assert np.array_equal(getattr(fit, name), getattr(want, name)), name
    assert fit.epoch_losses == want.epoch_losses


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("seed", SEEDS)
def test_subword_matches_its_dense_reference(seed, chunk, rows):
    """One n-gram sum per distinct center and updates built by block give
    the bits of a sum per pair and whole-array updates."""
    sentences = straddling_corpus(seed)
    chunk = subword._CHUNK if chunk is None else chunk
    kwargs = dict(
        k=K, window=2, ngram_min=4, ngram_max=5, bucket=512, negatives=3, epochs=2,
        lr=0.05, seed=seed, chunk=chunk,
    )
    with scatter_blocks(rows):
        fit = fit_subword(sentences, TOKENS, **kwargs)
    want = subword_dense(sentences, TOKENS, **kwargs)
    assert fit.offsets[2] == fit.offsets[1]  # "a" has no n-grams
    assert np.array_equal(fit.word_vecs, want.word_vecs)
    assert np.array_equal(fit.w_out, want.w_out)
    assert np.array_equal(fit.gram_vecs, want.gram_vecs[fit.buckets])
    assert np.array_equal(fit.table(dtype=np.float64), want.table)
    assert fit.epoch_losses == want.epoch_losses
