import math

import numpy as np
import pytest

from wordcam.embed.cooccur import build_cooc, fit_cooc, train_cooc_factor
from wordcam.errors import ConfigError, DataError


def test_build_cooc_counts():
    keys, counts = build_cooc([[1, 2, 1]], window=2)
    # events: (1,2) at distance 1, (1,1) at distance 2, (2,1) at distance 1
    cooc = dict(zip(map(tuple, keys.tolist()), counts.tolist()))
    assert cooc[(1, 2)] == 2
    assert cooc[(1, 1)] == 1


def test_build_cooc_symmetry_under_mirroring():
    forward = build_cooc([[4, 7], [4, 7], [7, 5]], window=3)
    mirrored = build_cooc([[7, 4], [7, 4], [5, 7]], window=3)
    assert all(np.array_equal(a, b) for a, b in zip(forward, mirrored))


def test_build_cooc_window_zero_rejected():
    with pytest.raises(ConfigError):
        build_cooc([[1, 2]], window=0)


def test_build_cooc_needs_pairs():
    with pytest.raises(DataError):
        build_cooc([[1], [2]], window=3)


def test_single_pair_fit_recovers_log_count():
    cooc = (np.array([[1, 2]]), np.array([10]))
    fit = fit_cooc(cooc, vocab_size=3, k=8, epochs=600, seed=0)
    assert abs(fit.predict(1, 2) - math.log(10)) < 0.1
    assert abs(fit.predict(2, 1) - math.log(10)) < 0.1


def test_fit_loss_decreases():
    rng = np.random.default_rng(0)
    sentences = [rng.integers(1, 15, size=7).tolist() for _ in range(60)]
    cooc = build_cooc(sentences, window=3)
    fit = fit_cooc(cooc, vocab_size=15, k=8, epochs=30, seed=2)
    assert fit.epoch_losses[-1] < fit.epoch_losses[0]


def test_train_cooc_factor_channel():
    rng = np.random.default_rng(1)
    sentences = [rng.integers(1, 12, size=5).tolist() for _ in range(40)]
    a = train_cooc_factor(sentences, vocab_size=12, k=6, epochs=3, seed=5)
    b = train_cooc_factor(sentences, vocab_size=12, k=6, epochs=3, seed=5)
    assert np.array_equal(a, b)
    assert a.shape == (12, 6)
    assert np.all(a[0] == 0.0)
    assert np.all(np.isfinite(a))
