import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import context_pairs_loops, cooc_loops
from wordcam.corpus import PAD_ID
from wordcam.embed.cooccur import build_cooc
from wordcam.embed.skipgram import (
    NoiseTable,
    context_pairs,
    fit_skipgram,
    train_skipgram,
)
from wordcam.errors import DataError


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_context_pairs_window():
    pairs = context_pairs([[1, 2, 3]], window=1)
    assert sorted(map(tuple, pairs.tolist())) == [(1, 2), (2, 1), (2, 3), (3, 2)]


@st.composite
def _corpora(draw):
    """Sentences of 0-8 tokens (empty and one-token ones included), and in
    some corpora one token replaced by the padding id."""
    sentences = draw(st.lists(
        st.lists(st.integers(1, 9), max_size=8), max_size=6,
    ))
    flat = [(i, j) for i, sent in enumerate(sentences) for j in range(len(sent))]
    if flat and draw(st.integers(0, 3)) == 0:
        i, j = flat[draw(st.integers(0, len(flat) - 1))]
        sentences[i][j] = PAD_ID
    return sentences


@given(_corpora(), st.integers(1, 5))
def test_pair_builders_match_loop_oracles(sentences, window):
    pairs = context_pairs_loops(sentences, window)
    if not pairs or any(PAD_ID in sent for sent in sentences):
        for build in (context_pairs, build_cooc):
            with pytest.raises(DataError):
                build(sentences, window)
        return
    assert context_pairs(sentences, window).tolist() == [list(p) for p in pairs]
    keys, counts = build_cooc(sentences, window)
    want = sorted(cooc_loops(sentences, window).items())
    assert keys.tolist() == [list(key) for key, _ in want]
    assert counts.tolist() == [n for _, n in want]


def test_no_pairs_is_an_error():
    with pytest.raises(DataError):
        context_pairs([[1], [5], [9]], window=3)
    with pytest.raises(DataError):
        fit_skipgram([[1], [2]], vocab_size=4, k=4, epochs=1)


def test_zero_epochs_returns_initialization():
    sentences = [[1, 2, 3, 2]]
    a = fit_skipgram(sentences, vocab_size=4, k=8, epochs=0, seed=3)
    b = fit_skipgram(sentences, vocab_size=4, k=8, epochs=0, seed=3)
    assert np.array_equal(a.word_vecs, b.word_vecs)
    assert np.all(a.w_out == 0.0)
    assert np.all(a.word_vecs[0] == 0.0)


def test_deterministic_training():
    rng = np.random.default_rng(0)
    sentences = [rng.integers(1, 20, size=6).tolist() for _ in range(50)]
    a = train_skipgram(sentences, vocab_size=20, k=12, epochs=2, seed=9)
    b = train_skipgram(sentences, vocab_size=20, k=12, epochs=2, seed=9)
    assert np.array_equal(a, b)
    assert np.all(a[0] == 0.0)


def _paired_corpus(rng, n=500):
    """Token 1 (A) always co-occurs with 2 (B) amid shared filler; token 3
    (C) never appears near A and lives among its own fillers."""
    sentences = []
    for _ in range(n):
        trio = [1, 2, int(rng.integers(4, 10))]
        rng.shuffle(trio)
        sentences.append(trio)
        sentences.append([3, int(rng.integers(10, 16)), int(rng.integers(10, 16))])
    return sentences


@pytest.mark.parametrize("seed", range(5))
def test_cooccurring_tokens_align(seed):
    rng = np.random.default_rng(seed)
    fit = fit_skipgram(
        _paired_corpus(rng), vocab_size=16, k=16, window=2,
        negatives=4, epochs=8, lr=0.03, seed=seed, chunk=32,
    )
    a, b, c = fit.word_vecs[1], fit.word_vecs[2], fit.word_vecs[3]
    assert cosine(a, b) > cosine(a, c)


def test_loss_trend_non_increasing_on_moving_average():
    rng = np.random.default_rng(11)
    fit = fit_skipgram(
        _paired_corpus(rng, 400), vocab_size=16, k=16, window=2,
        negatives=4, epochs=9, lr=0.03, seed=2, chunk=32,
    )
    losses = fit.epoch_losses
    smooth = [sum(losses[i : i + 3]) / 3 for i in range(len(losses) - 2)]
    assert all(b <= a + 1e-9 for a, b in zip(smooth, smooth[1:]))


def test_noise_table_excludes_pad():
    table = NoiseTable([[1, 2, 2, 3]], vocab_size=5)
    rng = np.random.default_rng(0)
    samples = table.sample(rng, (500,))
    assert samples.min() >= 1
    assert set(np.unique(samples)) <= {1, 2, 3}


class _TopDraw:
    """A generator stub whose every uniform draw is the largest below 1.0."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


def test_noise_table_top_draw_is_the_last_counted_id():
    """Counts 5, 2, 1: their unigram^0.75 shares sum to 0.9999999999999999
    in float64. The largest draw must still give id 3, not the zero-count id
    4 or the out-of-table id 5."""
    weights = np.array([5.0, 2.0, 1.0]) ** 0.75
    assert np.cumsum(weights / weights.sum())[-1] < 1.0
    table = NoiseTable([[1, 1, 1, 1, 1, 2, 2, 3]], vocab_size=5)
    assert table.sample(_TopDraw(), (4,)).tolist() == [3, 3, 3, 3]
