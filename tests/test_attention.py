
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import score_vector_loops, windows_covering_word, word_scores_brute
from wordcam.attention import (
    attend,
    class_scores,
    consistency_gap,
    normalize_scores,
    select_top,
)
from wordcam.embed import InputMode, assemble, init_random
from wordcam.errors import ConfigError, DataError
from wordcam.model import ForwardTrace, ModelHyper, ModelParams, forward


def given_fmaps(fmaps: dict, fc_w) -> tuple[ForwardTrace, ModelParams]:
    """An infer-mode trace with the given feature maps (h -> (B, d+h-1, n))
    and a model with the given (n_classes, n_features) FC weights, whose
    logits follow from average pooling."""
    heights = tuple(sorted(fmaps))
    batch, length, n = fmaps[heights[0]].shape
    d = length - heights[0] + 1
    fc_w = np.asarray(fc_w, dtype=np.float64)
    hyper = ModelHyper(k=1, d=d, heights=heights, n_filters=n,
                       n_classes=fc_w.shape[0])
    params = ModelParams.zeros(hyper, dtype=np.float64)
    params.fc_w[:] = fc_w
    pooled = np.concatenate([fmaps[h].mean(axis=1) for h in heights], axis=1)
    trace = ForwardTrace(
        ids=np.ones((batch, d), dtype=np.int64),
        n_words=np.full(batch, d),
        words=np.zeros((1, 1, 1)),
        index=np.zeros((batch, d), dtype=np.int64),
        fmaps=fmaps,
        pooled=pooled,
        dropout_mask=None,
        pooled_dropped=pooled,
        logits=pooled @ fc_w.T,
        mode="infer",
    )
    return trace, params


def scores_of_vector(v, h: int) -> np.ndarray:
    """Word scores of one score vector v over d+h-1 feature-map positions:
    class_scores of a one-height, one-filter model whose feature map is v
    and whose FC weights are 1."""
    trace, params = given_fmaps({h: np.reshape(v, (1, -1, 1))}, np.ones((2, 1)))
    return class_scores(trace, params, [0])[0][0]


# ---------------------------------------------------------------------------
# class_scores at h=1: the per-filter score vector, fmap @ class weights
# ---------------------------------------------------------------------------


def test_score_vector_zero_weights():
    fmap = np.random.default_rng(0).normal(size=(1, 7, 5))
    trace, params = given_fmaps({1: fmap}, np.zeros((2, 5)))
    for c in range(2):
        assert np.all(class_scores(trace, params, [c])[0] == 0.0)


def test_score_vector_one_hot():
    fmap = np.zeros((1, 6, 4))
    fmap[0, 2, 3] = 1.0
    w = np.zeros((2, 4))
    w[0, 3] = -1.5
    trace, params = given_fmaps({1: fmap}, w)
    v = class_scores(trace, params, [0])[0][0]
    assert v[2] == -1.5
    assert np.count_nonzero(v) == 1


def test_score_vector_matches_double_loop():
    rng = np.random.default_rng(1)
    fmap = rng.normal(size=(1, 9, 6))
    w = rng.normal(size=(2, 6))
    trace, params = given_fmaps({1: fmap}, w)
    for c in range(2):
        raw = class_scores(trace, params, [c])[0]
        assert np.allclose(raw[0], score_vector_loops(fmap[0], w[c]), atol=1e-6)


# ---------------------------------------------------------------------------
# class_scores on one score vector: redistribution onto the words
# ---------------------------------------------------------------------------


def test_word_scores_constant():
    v = np.full(7, 3.25)  # d=5, h=3
    assert np.allclose(scores_of_vector(v, 3), 3.25)


def test_word_scores_h1_identity():
    v = np.arange(6.0)
    assert np.array_equal(scores_of_vector(v, 1), v)


def test_word_scores_hand_example():
    v = np.array([1.0, 2, 3, 4, 5, 6, 7])
    assert np.allclose(scores_of_vector(v, 3), [2, 3, 4, 5, 6])


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_word_scores_equals_window_enumeration(d, h, seed):
    v = np.random.default_rng(seed).normal(size=d + h - 1)
    assert np.allclose(scores_of_vector(v, h), word_scores_brute(v, h, d), atol=1e-12)


@given(
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
def test_word_scores_mass_law(d, h, seed):
    # total word mass equals (1/h) * sum_q c(q) v[q] where c(q) counts the
    # word windows containing feature position q
    v = np.random.default_rng(seed).normal(size=d + h - 1)
    s = scores_of_vector(v, h)
    counts = np.zeros(d + h - 1)
    for p in range(d):
        for q in windows_covering_word(p, d, h):
            counts[q] += 1
    assert np.isclose(s.sum(), (counts * v).sum() / h, atol=1e-9)


# ---------------------------------------------------------------------------
# class_scores on real traces, and the pooling identity
# ---------------------------------------------------------------------------


def test_word_attention_zero_weights(tiny_setup):
    hyper, params, config = tiny_setup()
    params.fc_w[:] = 0.0
    trace = forward([1, 2, 3], params, config, mode="infer")
    for c in range(2):
        assert np.all(class_scores(trace, params, [c])[0] == 0.0)


@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4,
             unique=True),
    st.sets(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_word_attention_is_sum_over_heights(lengths, heights, n_filters, seed):
    # every row and class against the heights' sum of the scalar oracles;
    # each one-row slice, and each row of a call that scores the rows for
    # different classes, is the same bits as its row of the batched call
    d, k, vocab = 8, 4, 20
    hyper = ModelHyper(k=k, d=d, heights=tuple(heights), n_filters=n_filters)
    params = ModelParams.init(hyper, seed=seed, w_scale=0.5, dtype=np.float64)
    config = assemble(InputMode.RAND,
                      rand=init_random(vocab, k, seed=seed, dtype=np.float64))
    rng = np.random.default_rng(seed)
    ids = [rng.integers(1, vocab, size=n).tolist() for n in lengths]
    trace = forward(ids, params, config, mode="infer")
    scored = [class_scores(trace, params, np.full(len(ids), c)) for c in range(2)]
    assert all(r.shape == (len(ids), d) and g.shape == (len(ids),) for r, g in scored)
    raw = np.stack([r for r, _ in scored], axis=2)
    gap = np.stack([g for _, g in scored], axis=1)
    for b in range(len(ids)):
        for c in range(2):
            want = sum(
                word_scores_brute(
                    score_vector_loops(trace.fmaps[h][b],
                                       params.fc_w[c, hyper.feature_slice(h)]),
                    h, d,
                )
                for h in hyper.heights
            )
            assert np.allclose(raw[b, :, c], want, rtol=0.0, atol=1e-12)
        for c in range(2):
            one_raw, one_gap = class_scores(trace, params, [c], slice(b, b + 1))
            assert np.array_equal(one_raw[0], raw[b, :, c])
            assert np.array_equal(one_gap[0], gap[b, c])
    mixed = np.arange(len(ids)) % 2
    mixed_raw, mixed_gap = class_scores(trace, params, mixed)
    assert np.array_equal(mixed_raw, raw[np.arange(len(ids)), :, mixed])
    assert np.array_equal(mixed_gap, gap[np.arange(len(ids)), mixed])
    assert gap.max() <= 1e-10


def test_word_attention_requires_infer_trace(tiny_setup):
    hyper, params, config = tiny_setup()
    rng = np.random.default_rng(0)
    trace = forward([1, 2], params, config, mode="train", rng=rng, keep=0.5)
    with pytest.raises(ConfigError):
        class_scores(trace, params, [0])


def test_class_scores_needs_one_class_per_row(tiny_setup):
    # a classes list of another length raises rather than broadcasting
    hyper, params, config = tiny_setup()
    trace = forward([[1, 2], [3, 4, 5], [6]], params, config, mode="infer")
    for classes in ([0], [0, 1], [0, 1, 1, 0], np.zeros((3, 1), dtype=int)):
        with pytest.raises(ConfigError, match="classes for 3 trace rows"):
            class_scores(trace, params, classes)
    with pytest.raises(ConfigError, match="2 classes for 1 trace rows"):
        class_scores(trace, params, [0, 1], slice(1, 2))
    # and every class must exist: a negative index would wrap around
    for classes in ([0, 2, 1], [-1, 0, 0]):
        with pytest.raises(ConfigError, match="out of range"):
            class_scores(trace, params, classes)


def test_consistency_gap_random_models(tiny_setup):
    rng = np.random.default_rng(3)
    for trial in range(10):
        hyper, params, config = tiny_setup(
            vocab_size=20,
            k=int(rng.integers(2, 8)),
            d=int(rng.integers(2, 12)),
            heights=tuple(
                sorted(rng.choice(np.arange(1, 5), rng.integers(1, 3), replace=False))
            ),
            n_filters=int(rng.integers(1, 6)),
            seed=trial,
        )
        n = int(rng.integers(1, hyper.d + 1))
        ids = rng.integers(1, 20, size=n).tolist()
        trace = forward(ids, params, config, mode="infer")
        for c in range(2):
            assert consistency_gap(trace, params, c) < 1e-10


def test_consistency_gap_has_the_bits_of_class_scores(tiny_setup):
    # consistency_gap and attend score one row and class through
    # class_scores: the same bits as scoring every row for that class at
    # once, in both dtypes, for both classes
    for dtype in (np.float32, np.float64):
        hyper, _, config = tiny_setup(d=8, dtype=dtype)
        params = ModelParams.init(
            ModelHyper(k=hyper.k, d=8, heights=(1, 2, 4), n_filters=4),
            seed=2, dtype=dtype,
        )
        trace = forward([[1, 2, 3], [4, 5, 6, 7, 8, 9], [10]], params, config, mode="infer")
        for c in range(2):
            raw, gap = class_scores(trace, params, np.full(3, c))
            for item, n_words in enumerate((3, 6, 1)):
                assert consistency_gap(trace, params, c, item=item) == gap[item]
                got = attend(trace, params, ["w"] * n_words, class_index=c, item=item)
                assert np.array_equal(got.raw, raw[item])


def test_monotone_in_feature_map(tiny_setup):
    # raising a feature-map entry whose class weight is positive never
    # lowers any word score and strictly raises at least one
    hyper, params, config = tiny_setup(seed=5)
    trace = forward([1, 2, 3, 4, 5], params, config, mode="infer")
    cls = 1
    h = hyper.heights[0]
    w = params.fc_w[cls, hyper.feature_slice(h)]
    i = int(np.argmax(w))
    assert w[i] > 0
    before = class_scores(trace, params, [cls])[0][0]
    trace.fmaps[h][0, 2, i] += 1.0
    after = class_scores(trace, params, [cls])[0][0]
    assert np.all(after >= before - 1e-12)
    assert np.any(after > before + 1e-9)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_hand_example():
    out = normalize_scores(np.array([1.0, 2.0, 3.0]), 3)
    assert np.allclose(out, [0.0, 1 / 3, 2 / 3])


def test_normalize_all_equal_uniform():
    out = normalize_scores(np.array([4.0, 4.0, 4.0, 0.0]), 3)
    assert np.allclose(out[:3], 1 / 3)
    assert out[3] == 0.0


def test_normalize_no_words_error():
    with pytest.raises(DataError):
        normalize_scores(np.array([1.0]), 0)


# dyadic lattice values make the affine transform exact in floating point,
# so these check the mathematical property rather than rounding noise
_lattice = st.integers(min_value=-400, max_value=400).map(lambda x: x / 8.0)
_scales = st.sampled_from([0.5, 1.0, 2.0, 4.0])


@given(st.lists(_lattice, min_size=1, max_size=30), _scales, _lattice)
def test_normalize_sums_to_one_and_is_affine_invariant(raw, a, b):
    raw = np.asarray(raw)
    n = raw.size
    base = normalize_scores(raw, n)
    assert abs(base[:n].sum() - 1.0) < 1e-6
    scaled = normalize_scores(a * raw + b, n)
    assert np.allclose(base, scaled, atol=1e-9)
    # the argmax word under normalization matches the argmax under raw scores
    assert int(np.argmax(base[:n])) == int(np.argmax(raw))


@given(st.lists(_lattice, min_size=1, max_size=30), _scales, _lattice)
def test_select_top_affine_invariant(raw, a, b):
    raw = np.asarray(raw)
    n = raw.size
    assert select_top(raw, n, 0.3) == select_top(a * raw + b, n, 0.3)


# ---------------------------------------------------------------------------
# select_top
# ---------------------------------------------------------------------------


def test_select_top_ceil_counts():
    raw = np.arange(10.0)
    assert select_top(raw, 10, 0.10) == [9]
    assert len(select_top(raw[:6], 6, 0.10)) == 1  # ceil(0.6)
    assert len(select_top(raw, 10, 0.25)) == 3  # ceil(2.5)


def test_select_top_strictly_increasing_takes_last():
    raw = np.linspace(0, 1, 10)
    assert select_top(raw, 10, 0.10) == [9]
    assert select_top(raw, 10, 0.10, direction="bottom") == [0]


def test_select_top_tie_prefers_earlier_position():
    raw = np.array([5.0, 1.0, 5.0, 5.0])
    assert select_top(raw, 4, 0.5) == [0, 2]


def test_select_top_validation():
    with pytest.raises(ConfigError):
        select_top(np.zeros(3), 3, 0.0)
    with pytest.raises(ConfigError):
        select_top(np.zeros(3), 3, 0.5, direction="sideways")


# ---------------------------------------------------------------------------
# attend
# ---------------------------------------------------------------------------


def test_attend_defaults_to_predicted_class(tiny_setup):
    hyper, params, config = tiny_setup()
    tokens = ["alpha", "beta", "gamma"]
    trace = forward([1, 2, 3], params, config, mode="infer")
    result = attend(trace, params, tokens)
    assert result.class_index == int(np.argmax(trace.logits[0]))
    assert result.n_words == 3
    assert abs(result.normalized[:3].sum() - 1.0) < 1e-6
    assert len(result.selected) == 1  # ceil(0.1 * 3)


def test_attend_token_count_must_match(tiny_setup):
    hyper, params, config = tiny_setup()
    trace = forward([1, 2], params, config, mode="infer")
    with pytest.raises(DataError):
        attend(trace, params, ["only"])


def test_attend_class_index_must_exist(tiny_setup):
    hyper, params, config = tiny_setup()
    trace = forward([1, 2], params, config, mode="infer")
    for cls in (-1, hyper.n_classes):
        with pytest.raises(ConfigError):
            attend(trace, params, ["a", "b"], class_index=cls)


def test_sentiment_word_attains_maximum_score_after_training():
    # qualitative check: train a small classifier whose positive class is
    # driven by "entertaining", then ask which word of a held-out sentence
    # carried the decision
    import numpy as np

    from wordcam.corpus import Polarity, TokenizedExample, prepare
    from wordcam.embed import InputMode, assemble, init_random
    from wordcam.model import ModelHyper
    from wordcam.train import TrainConfig, train_epochs

    rng = np.random.default_rng(0)
    filler = ["this", "film", "is", "actually", "quite", "the", "a", "was",
              "plot", "it"]
    examples = []
    for i in range(400):
        words = [filler[int(j)] for j in rng.integers(0, len(filler), size=7)]
        planted = "entertaining" if i % 2 == 0 else "boring"
        words[int(rng.integers(0, 7))] = planted
        label = Polarity.POSITIVE if i % 2 == 0 else Polarity.NEGATIVE
        examples.append(TokenizedExample(tuple(words), label))
    d = 8
    prepared = prepare(examples, d=d, ratio=0.7, seed=0)
    vocab, train_set, test_set = prepared.vocab, prepared.train, prepared.test
    hyper = ModelHyper(k=16, d=d, heights=(3, 4, 5), n_filters=8, n_channels=1)
    channels = assemble(InputMode.RAND, rand=init_random(len(vocab), 16, seed=1))
    config = TrainConfig(batch_size=32, epochs=10, lr=2e-3, lam=1e-3,
                         keep=0.5, seed=2)
    result = train_epochs(train_set, test_set, channels, hyper, config)
    params, trained = result.best_params, result.best_channels

    tokens = ["this", "film", "is", "actually", "quite", "entertaining"]
    ids = vocab.encode(tokens, d)
    trace = forward(ids, params, trained, mode="infer",
                    n_words=np.asarray([len(tokens)]))
    res = attend(trace, params, tokens)
    assert res.class_index == 1  # classified positive
    assert tokens[int(np.argmax(res.raw[:6]))] == "entertaining"
    assert abs(res.normalized[:6].sum() - 1.0) < 1e-6
    assert tokens[int(np.argmax(res.normalized[:6]))] == "entertaining"
