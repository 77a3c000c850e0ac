import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    avg_pool_scalar,
    conv_per_token,
    conv_relu_scalar,
    coverage_counts,
    embedding_grads_serial,
    numeric_gradient,
    relative_errors,
)
from wordcam import model
from wordcam.embed import InputMode, assemble, init_random
from wordcam.embed.channels import STACKS, ChannelConfig, read_container, write_container
from wordcam.errors import ConfigError, DataError
from wordcam.model import (
    ModelHyper,
    ModelParams,
    _filter_bank,
    backward,
    forward,
    gather,
    load_checkpoint,
    loss_value,
    save_checkpoint,
    spread,
    trainable_arrays,
)


def per_token_words(trace):
    """The (B, C, d, k) word matrix of the trace's tokens, id-0 rows zero."""
    return trace.words[trace.index].transpose(0, 2, 1, 3)


def framed(trace, h, item=0):
    """The (C, d+2(h-1), k) input the oracles expect: the trace's embedded
    words with h-1 zero rows on each side."""
    x = np.asarray(per_token_words(trace)[item], dtype=np.float64)
    frame = np.zeros((x.shape[0], h - 1, x.shape[2]))
    return np.concatenate([frame, x, frame], axis=1)


def one_hot_model(d, h, n_filters):
    """Zero parameters over a table where word id j+1 embeds as e_j (k=d)."""
    table = np.zeros((d + 1, d))
    table[1:] = np.eye(d)
    config = assemble(InputMode.RAND, rand=table)
    hyper = ModelHyper(k=d, d=d, heights=(h,), n_filters=n_filters)
    return ModelParams.zeros(hyper, dtype=np.float64), config


# ---------------------------------------------------------------------------
# the convolution lowering
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
def test_spread_gather_are_adjoint(d, h, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(2, d, h, 3))
    g = rng.normal(size=(2, d + h - 1, 3))
    index = np.arange(2 * d).reshape(2, d)  # one row per token
    lhs = float(np.sum(spread(y.reshape(2 * d, h, 3), index) * g))
    rhs = float(np.sum(y * gather(g, h)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_forward_embeds_and_right_pads(tiny_setup):
    hyper, params, config = tiny_setup(d=4)
    ch = config.channels[0]
    trace = forward([7], params, config, mode="infer")
    words = per_token_words(trace)
    assert words.shape == (1, 1, 4, hyper.k)
    assert np.array_equal(words[0, 0, 0], ch.table[7])
    assert np.all(words[0, 0, 1:] == 0.0)  # pad-id rows are zero


def test_word_coverage_is_h_for_every_position():
    # a word contributes to a window exactly when the window inner product
    # can see its one-hot row: count via a filter that sums that row
    d = 5
    for h in (1, 2, 3, 4):
        params, config = one_hot_model(d, h, n_filters=1)
        for word in range(d):
            params.conv_w[h][:] = 0.0
            params.conv_w[h][0, 0, word::d] = 1.0  # every row slot of dimension `word`
            fmap = forward(list(range(1, d + 1)), params, config).fmaps[h][0]
            assert fmap.shape == (d + h - 1, 1)
            assert fmap.sum() == h  # appears in exactly h windows
        assert coverage_counts(d, h) == [h] * d


def test_conv_output_length(tiny_setup):
    hyper, params, config = tiny_setup(d=5, heights=(1, 2, 3))
    trace = forward([1, 2], params, config, mode="infer")
    for h in hyper.heights:
        assert trace.fmaps[h].shape == (1, 5 + h - 1, hyper.n_filters)  # h=1: no frame


def test_conv_zero_weights_zero_bias(tiny_setup):
    hyper, _, config = tiny_setup()
    zero = ModelParams.zeros(hyper, dtype=np.float64)
    trace = forward([3, 4, 5, 6, 7], zero, config, mode="infer")
    for h in hyper.heights:
        assert np.all(trace.fmaps[h] == 0.0)


def test_conv_matches_scalar_oracle(tiny_setup):
    hyper, params, config = tiny_setup(d=5, k=4, heights=(2,), n_filters=3)
    params.conv_b[2][:] = np.random.default_rng(0).normal(size=3)
    trace = forward([1, 2, 0, 4], params, config, mode="infer")
    got = trace.fmaps[2][0]
    want = conv_relu_scalar(framed(trace, 2), params.conv_w[2], params.conv_b[2])
    assert np.allclose(got, want, atol=1e-6)
    assert np.all(got >= 0.0)


def test_conv_multichannel_sums_before_relu():
    hyper = ModelHyper(k=4, d=4, heights=(3,), n_filters=5, n_channels=2)
    sg = init_random(12, 4, seed=1, dtype=np.float64)
    config = assemble(InputMode.TWO_CH, skipgram=sg)
    config.channels[1].table[1:] = np.random.default_rng(1).normal(size=(11, 4))
    params = ModelParams.init(hyper, seed=1, w_scale=1.0, dtype=np.float64)
    params.conv_b[3][:] = np.random.default_rng(2).normal(size=5)
    trace = forward([1, 2, 3, 4], params, config, mode="infer")
    x = framed(trace, 3)
    w, b = params.conv_w[3], params.conv_b[3]
    got = trace.fmaps[3][0]
    assert np.allclose(got, conv_relu_scalar(x, w, b), atol=1e-6)
    # summing inside the ReLU differs from relu-then-sum; make sure we do
    # the former
    per_channel = sum(conv_relu_scalar(x[c], w[c], b * 0) for c in range(2))
    assert not np.allclose(got, per_channel + b, atol=1e-6)


def test_conv_shape_mismatch(tiny_setup):
    # one channel of k=6: a model of two channels, or of k=8, does not fit
    _, _, config = tiny_setup(k=6)
    for hyper, message in ((ModelHyper(k=6, d=10, n_channels=2), "2 channel"),
                           (ModelHyper(k=8, d=10), "k=8, config has k=6")):
        params = ModelParams.init(hyper, seed=0)
        for mode in ("infer", "train"):
            with pytest.raises(ConfigError, match=message):
                forward([1, 2], params, config, mode=mode, rng=np.random.default_rng(0))


def test_avg_pool_constant_and_single_entry():
    d, h = 5, 3
    params, config = one_hot_model(d, h, n_filters=2)
    params.conv_b[h][:] = 2.5
    assert np.allclose(forward([1, 2], params, config).pooled, [[2.5, 2.5]])
    # one word seen by one filter: h windows of d+h-1 hold a 1
    params.conv_b[h][:] = 0.0
    params.conv_w[h][0, 1, 2::d] = 1.0
    assert np.allclose(forward([1, 2, 3], params, config).pooled, [[0.0, h / (d + h - 1)]])


def test_avg_pool_matches_summation_oracle(tiny_setup):
    hyper, params, config = tiny_setup(d=13)
    trace = forward([2, 5, 7, 1, 9, 3], params, config, mode="infer")
    for h in hyper.heights:
        block = trace.pooled[0, hyper.feature_slice(h)]
        assert np.allclose(block, avg_pool_scalar(trace.fmaps[h][0]), atol=1e-9)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_all_pad_zero_biases(tiny_setup):
    hyper, params, config = tiny_setup()
    zero = ModelParams.zeros(hyper, dtype=np.float64)
    zero.fc_b[:] = [0.25, -0.5]
    trace = forward([0, 0, 0], zero, config, mode="infer")
    assert np.all(trace.pooled == 0.0)
    assert np.allclose(trace.logits[0], zero.fc_b)


def test_forward_infer_deterministic(tiny_setup):
    hyper, params, config = tiny_setup()
    a = forward([3, 4, 5], params, config, mode="infer")
    b = forward([3, 4, 5], params, config, mode="infer")
    assert np.array_equal(a.logits, b.logits)
    assert a.dropout_mask is None


def test_forward_feature_vector_length():
    hyper = ModelHyper(k=4, d=8, heights=(3, 4, 5), n_filters=128)
    assert hyper.n_features == 384
    config = assemble(InputMode.RAND, rand=init_random(10, 4, seed=0))
    params = ModelParams.init(hyper, seed=0)
    trace = forward([1, 2, 3], params, config, mode="infer")
    assert trace.pooled.shape == (1, 384)
    for h in (3, 4, 5):
        assert trace.fmaps[h].shape == (1, 8 + h - 1, 128)


def test_forward_pooled_is_mean_of_feature_maps(tiny_setup):
    hyper, params, config = tiny_setup()
    trace = forward([2, 5, 7, 1], params, config, mode="infer")
    for h in hyper.heights:
        block = trace.pooled[0, hyper.feature_slice(h)]
        assert np.allclose(block, trace.fmaps[h][0].mean(axis=0), atol=1e-12)


def test_forward_rejects_bad_ids(tiny_setup):
    hyper, params, config = tiny_setup(vocab_size=10)
    for ids in ([55], [1] * (hyper.d + 1)):
        with pytest.raises(DataError):
            forward(ids, params, config, mode="infer")


def test_forward_train_needs_rng(tiny_setup):
    hyper, params, config = tiny_setup()
    with pytest.raises(ConfigError):
        forward([1, 2], params, config, mode="train")


@pytest.mark.parametrize("keep", [1.5, float("nan"), 0.0, -1.0])
def test_forward_train_refuses_keep_outside_unit_interval(tiny_setup, keep):
    # refused whatever the value, not only where dropout would run
    _, params, config = tiny_setup()
    with pytest.raises(ConfigError, match=r"keep probability must be in \(0, 1\]"):
        forward([1, 2], params, config, mode="train", rng=np.random.default_rng(0), keep=keep)


def test_forward_dropout_expectation_scaling(tiny_setup):
    hyper, params, config = tiny_setup()
    rng = np.random.default_rng(0)
    trace = forward([1, 2, 3], params, config, mode="train", rng=rng, keep=0.5)
    mask = trace.dropout_mask
    assert set(np.unique(mask)) <= {0.0, 2.0}  # inverted dropout: 1/keep
    assert np.array_equal(trace.pooled_dropped, trace.pooled * mask)


def test_forward_oov_id_equals_explicit_pad(tiny_setup):
    # an id-0 token anywhere must behave as a zero embedding row, even if
    # the pad row of the table were corrupted in place after validation
    hyper, params, config = tiny_setup()
    t1 = forward([4, 0, 6], params, config, mode="infer")
    poisoned = config.copy()
    poisoned.channels[0].table[0] = 123.0
    t2 = forward([4, 0, 6], params, poisoned, mode="infer")
    assert np.allclose(t1.logits, t2.logits)


def test_forward_batch_matches_single(tiny_setup):
    hyper, params, config = tiny_setup(d=7)
    sents = [[1, 2, 3], [4, 5], [6, 7, 8, 9, 10, 11, 12]]
    batch = forward(sents, params, config, mode="infer")
    for i, s in enumerate(sents):
        single = forward(s, params, config, mode="infer")
        assert np.allclose(batch.logits[i], single.logits[0], atol=1e-12)
        assert np.allclose(batch.pooled[i], single.pooled[0], atol=1e-12)


@st.composite
def conv_batches(draw):
    """A model and an id batch drawn to repeat ids: a small vocabulary,
    OOV ids inside sentences, whole rows of padding, and tables whose pad
    row is non-zero."""
    n_channels = draw(st.sampled_from([1, 2]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 8))
    heights = tuple(draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)))
    hyper = ModelHyper(k=k, d=d, heights=heights, n_filters=draw(st.integers(1, 5)),
                       n_channels=n_channels)
    vocab = draw(st.integers(2, 12))
    batch = draw(st.integers(1, 8))
    ids = np.zeros((batch, d), dtype=np.int64)
    lengths = np.zeros(batch, dtype=np.int64)
    for b in range(batch):
        row = draw(st.lists(st.integers(0, vocab - 1), max_size=d))
        ids[b, : len(row)] = row
        lengths[b] = len(row)
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    tables = [np.zeros((vocab, k), dtype=dtype) for _ in range(n_channels)]
    config = ChannelConfig.of(InputMode.RAND if n_channels == 1 else InputMode.TWO_CH, tables)
    for table in tables:
        table[:] = rng.normal(size=(vocab, k))  # row 0 too, after the pad-row check
    params = ModelParams.init(hyper, seed=seed, w_scale=1.0, dtype=dtype)
    for h in hyper.heights:
        params.conv_b[h][:] = rng.normal(size=hyper.n_filters)
    return params, config, ids, lengths, seed


def blas_rows_ignore_row_count(ids, embedded, params) -> bool:
    """Whether the BLAS gives every row of the per-token word matrix the
    same bits as the product over one row per distinct id gives that id.
    numpy sends a one-row or one-column product to gemv, and gemv (like
    some small float64 GEMMs) changes a row's last bits with the row count
    and the row's position; there no lowering can match the per-token one."""
    x = embedded.transpose(0, 2, 1, 3).reshape(ids.size, -1)
    _, first, inverse = np.unique(ids.ravel(), return_index=True, return_inverse=True)
    return all(
        np.array_equal(x @ bank, (x[first] @ bank)[inverse])
        for bank in (_filter_bank(w, params.hyper.k) for w in params.conv_w.values())
    )


def equal_unless_blas_varies(row_invariant: bool, dtype):
    """``np.array_equal`` where the BLAS is row-invariant, else closeness at
    1e-5 (float32) or 1e-12 (float64)."""
    if row_invariant:
        return np.array_equal
    tol = 1e-5 if dtype == np.float32 else 1e-12
    return lambda a, b: np.allclose(a, b, rtol=tol, atol=tol)


@given(conv_batches(), st.sampled_from(["infer", "train"]))
def test_forward_is_bit_identical_to_per_token_lowering(case, mode):
    params, config, ids, lengths, seed = case
    rng = np.random.default_rng(seed)
    trace = forward(ids, params, config, mode=mode, rng=rng, n_words=lengths)
    embedded, fmaps = conv_per_token(
        ids, [ch.table for ch in config.channels], params.conv_w, params.conv_b
    )
    assert np.array_equal(per_token_words(trace), embedded)
    pooled = np.concatenate(
        [fmaps[h].mean(axis=1, dtype=np.float64).astype(params.dtype)
         for h in params.hyper.heights],
        axis=1,
    )
    dropped = pooled if trace.dropout_mask is None else pooled * trace.dropout_mask
    logits = dropped @ params.fc_w.T + params.fc_b
    same = equal_unless_blas_varies(
        blas_rows_ignore_row_count(ids, embedded, params), params.dtype
    )
    for h in params.hyper.heights:
        assert same(trace.fmaps[h], fmaps[h])
    assert same(trace.pooled, pooled)
    assert same(trace.logits, logits)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 8])
def test_forward_is_bit_identical_at_paper_sizes(dtype, batch):
    # two channels, k=100, d=100, heights 3/4/5, 128 filters; words drawn
    # from 300 ids so they repeat, short sentences so rows end in padding;
    # exact wherever the BLAS is row-invariant at these shapes
    rng = np.random.default_rng(batch)
    hyper = ModelHyper(k=100, d=100, n_channels=2)
    tables = [np.zeros((300, 100), dtype=dtype) for _ in range(2)]
    for table in tables:
        table[1:] = rng.normal(size=(299, 100))
    config = ChannelConfig.of(InputMode.TWO_CH, tables)
    params = ModelParams.init(hyper, seed=batch, dtype=dtype)
    sentences = [rng.integers(0, 300, size=rng.integers(5, 100)) for _ in range(batch)]
    trace = forward(sentences, params, config, mode="infer")
    embedded, fmaps = conv_per_token(trace.ids, tables, params.conv_w, params.conv_b)
    assert np.array_equal(per_token_words(trace), embedded)
    same = equal_unless_blas_varies(
        blas_rows_ignore_row_count(trace.ids, embedded, params), dtype
    )
    for h in hyper.heights:
        assert same(trace.fmaps[h], fmaps[h])


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_softmax_at_zero_logits(tiny_setup):
    hyper, params, config = tiny_setup()
    zero = ModelParams.zeros(hyper, dtype=np.float64)
    rng = np.random.default_rng(0)
    trace = forward([1, 2, 3], zero, config, mode="train", rng=rng, keep=1.0)
    assert np.allclose(trace.logits, 0.0)
    loss, grads = backward(trace, zero, config, [1], lam=0.0)
    # dL/dy = softmax(y) - onehot = [0.5, -0.5] when the true class is second
    assert np.allclose(grads["fc_b"], [0.5, -0.5])
    assert np.isclose(loss, np.log(2.0))


def test_backward_requires_train_trace(tiny_setup):
    hyper, params, config = tiny_setup()
    trace = forward([1, 2], params, config, mode="infer")
    with pytest.raises(ConfigError):
        backward(trace, params, config, [0])


def test_backward_batch_is_mean_of_singles(tiny_setup):
    hyper, params, config = tiny_setup(d=6)
    sents = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
    labels = [0, 1, 1]
    batch_trace = forward(sents, params, config, mode="train",
                          rng=np.random.default_rng(0), keep=1.0)
    _, batch_grads = backward(batch_trace, params, config, labels, lam=0.0)
    acc = None
    for s, y in zip(sents, labels):
        tr = forward(s, params, config, mode="train",
                     rng=np.random.default_rng(0), keep=1.0)
        _, g = backward(tr, params, config, [y], lam=0.0)
        acc = g if acc is None else {name: acc[name] + g[name] for name in acc}
    assert list(batch_grads) == list(acc)
    for name, g in batch_grads.items():
        assert np.allclose(g, acc[name] / len(sents), atol=1e-12), name


def test_backward_frozen_channel_gets_no_gradient():
    hyper = ModelHyper(k=5, d=6, heights=(2,), n_filters=3, n_channels=2)
    sg = init_random(12, 5, seed=3, dtype=np.float64)
    config = assemble(InputMode.TWO_CH, skipgram=sg)
    params = ModelParams.init(hyper, seed=1, dtype=np.float64)
    rng = np.random.default_rng(2)
    trace = forward([1, 2, 3], params, config, mode="train", rng=rng, keep=0.5)
    _, grads = backward(trace, params, config, [1], lam=0.1)
    assert "channel[0]" not in grads  # frozen half
    assert np.abs(grads["channel[1]"]).sum() > 0.0
    assert np.all(grads["channel[1]"][0] == 0.0)  # pad row pinned


@pytest.mark.parametrize("mode", list(InputMode))
def test_backward_keys_are_the_trainable_arrays(mode):
    """``backward`` returns one gradient per array ``trainable_arrays``
    names, in its order: a static or frozen channel has neither."""
    table = init_random(8, 4, seed=1, dtype=np.float64)
    config = assemble(mode, rand=table, skipgram=table, cooc=table, subword=table)
    hyper = ModelHyper(k=4, d=5, heights=(2, 3), n_filters=2, n_channels=len(config.channels))
    params = ModelParams.init(hyper, seed=2, dtype=np.float64)
    trace = forward([1, 2, 3], params, config, mode="train", rng=np.random.default_rng(3))
    _, grads = backward(trace, params, config, [1])
    arrays = trainable_arrays(params, config)
    assert list(grads) == list(arrays)
    assert [name for name in arrays if name.startswith("channel")] == [
        f"channel[{i}]" for i, ch in enumerate(config.channels) if ch.trainable
    ]
    for name, g in grads.items():
        assert g.shape == arrays[name].shape, name


def test_backward_matches_finite_differences_two_channels():
    hyper = ModelHyper(k=4, d=5, heights=(2, 3), n_filters=2, n_channels=2)
    sg = init_random(8, 4, seed=5, dtype=np.float64)
    config = assemble(InputMode.TWO_CH, skipgram=sg)
    params = ModelParams.init(hyper, seed=4, dtype=np.float64)
    ids = [1, 2, 0, 3]  # includes an OOV position
    label = [0]
    lam, keep, mask_seed = 0.05, 0.5, 17

    def loss_fn():
        rng = np.random.default_rng(mask_seed)
        tr = forward(ids, params, config, mode="train", rng=rng, keep=keep)
        return loss_value(tr, params, np.asarray(label), lam)

    rng = np.random.default_rng(mask_seed)
    trace = forward(ids, params, config, mode="train", rng=rng, keep=keep)
    _, grads = backward(trace, params, config, label, lam=lam)
    for name, arr, g in [
        ("conv_w[2]", params.conv_w[2], grads["conv_w[2]"]),
        ("fc_w", params.fc_w, grads["fc_w"]),
        ("channel[1]", config.channels[1].table, grads["channel[1]"]),
    ]:
        numeric = numeric_gradient(loss_fn, arr)
        assert relative_errors(g, numeric).max() < 1e-6, name


def test_forward_backward_bitwise_deterministic(tiny_setup):
    hyper, params, config = tiny_setup()
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        tr = forward([1, 2, 3, 4], params, config, mode="train", rng=rng, keep=0.5)
        loss, grads = backward(tr, params, config, [1], lam=0.1)
        outs.append((loss, grads["fc_w"].copy(), grads["channel[0]"].copy()))
    assert outs[0][0] == outs[1][0]
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])


# ---------------------------------------------------------------------------
# per-height threads
# ---------------------------------------------------------------------------


def stack_model(dtype, k, d, n_filters, batch, seed=0, mode=InputMode.TWO_CH):
    """Heights 3/4/5 over the channel stack of ``mode`` (by default a frozen
    and a trainable channel), each channel with its own table, and a batch
    of short sentences drawn from 300 ids, so words repeat and rows end in
    padding."""
    rng = np.random.default_rng(seed)
    n_channels = len(STACKS[mode])
    hyper = ModelHyper(k=k, d=d, n_filters=n_filters, n_channels=n_channels)
    tables = [np.zeros((300, k), dtype=dtype) for _ in range(n_channels)]
    for table in tables:
        table[1:] = rng.normal(size=(299, k))
    config = ChannelConfig.of(mode, tables)
    params = ModelParams.init(hyper, seed=seed, dtype=dtype)
    sentences = [rng.integers(0, 300, size=rng.integers(5, d)) for _ in range(batch)]
    return params, config, sentences, rng.integers(0, 2, size=batch)


def train_step(params, config, sentences, labels):
    """A train-mode forward and its backward, then an infer-mode forward."""
    train = forward(sentences, params, config, mode="train", rng=np.random.default_rng(1))
    _, grads = backward(train, params, config, labels, lam=0.1)
    return train, grads, forward(sentences, params, config, mode="infer")


def assert_same_step(got, want):
    for a, b in ((got[0], want[0]), (got[2], want[2])):
        assert list(a.fmaps) == list(b.fmaps)
        for h in a.fmaps:
            assert np.array_equal(a.fmaps[h], b.fmaps[h])
        assert np.array_equal(a.pooled, b.pooled)
        assert np.array_equal(a.logits, b.logits)
    ga, gb = got[1], want[1]
    assert list(ga) == list(gb)
    for name in ga:
        assert np.array_equal(ga[name], gb[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_matches_serial_loop_at_paper_sizes(dtype, monkeypatch):
    # k=100, d=100, heights 3/4/5, 128 filters, B=64; three CPUs, so the
    # heights run on threads here whatever the CPU count, and one CPU for
    # the serial loop
    params, config, sentences, labels = stack_model(dtype, 100, 100, 128, 64)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
    pooled = train_step(params, config, sentences, labels)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    assert_same_step(pooled, train_step(params, config, sentences, labels))
    # and the pooled feature maps are the per-token lowering's
    infer = pooled[2]
    embedded, fmaps = conv_per_token(
        infer.ids, [ch.table for ch in config.channels], params.conv_w, params.conv_b
    )
    assert np.array_equal(per_token_words(infer), embedded)
    same = equal_unless_blas_varies(
        blas_rows_ignore_row_count(infer.ids, embedded, params), dtype
    )
    for h in params.hyper.heights:
        assert same(infer.fmaps[h], fmaps[h])


def test_pool_is_for_batches_and_several_heights(monkeypatch):
    def runners(heights, batch):
        """The thread that ran each height's task, once the results are
        checked."""
        ran = {}

        def fn(h):
            ran[h] = threading.get_ident()
            return -h

        done = model._per_height(fn, heights, batch)
        assert done == {h: -h for h in heights}
        return ran

    me = threading.get_ident()
    monkeypatch.setattr(model, "_usable_cpus", lambda: 4)
    for heights, batch in [
        ((3, 4, 5), 1),  # one sentence: the calling thread
        ((3, 4, 5), model._POOL_MIN_BATCH - 1),
        ((4,), 64),  # one height: nothing to share
    ]:
        assert set(runners(heights, batch).values()) == {me}
    for batch in (model._POOL_MIN_BATCH, 64):
        # the calling thread runs the largest height, other threads the rest
        ran = runners((3, 4, 5), batch)
        assert ran[5] == me and me not in (ran[3], ran[4])
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    assert set(runners((3, 4, 5), 64).values()) == {me}  # one CPU: a plain loop


def test_concurrent_callers_get_the_serial_bytes():
    # four callers, each starting its own height threads, more than the
    # cores, with a short switch interval so their tasks interleave
    params, config, sentences, labels = stack_model(np.float32, 20, 30, 16, 16)
    batches = [(sentences[i:] + sentences[:i], np.roll(labels, i)) for i in range(4)]
    want = [train_step(params, config, *batch) for batch in batches]
    got = [None] * len(batches)

    def call(i):
        got[i] = train_step(params, config, *batches[i])

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert g is not None
        assert_same_step(g, w)


def test_importing_the_model_starts_no_thread():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import threading, wordcam.model; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["1"]


def assert_only_callers_threads(before: int):
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("wordcam-height")]


def test_no_height_thread_outlives_a_call(monkeypatch):
    # three CPUs, so a B=64 batch runs its heights on threads
    params, config, sentences, labels = stack_model(np.float32, 20, 30, 16, 64)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
    before = threading.active_count()
    train = forward(sentences, params, config, mode="train", rng=np.random.default_rng(1))
    assert_only_callers_threads(before)
    backward(train, params, config, labels, lam=0.1)
    assert_only_callers_threads(before)


def test_a_failing_height_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    # height 4 fails on a helper thread, height 5 on the calling thread
    params, config, sentences, _ = stack_model(np.float32, 20, 30, 16, 64)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
    spread = model.spread
    for failing in (4, 5):

        def spread_but_one_height(y, index):
            if y.shape[1] == failing:
                raise RuntimeError(f"height {failing} failed")
            return spread(y, index)

        monkeypatch.setattr(model, "spread", spread_but_one_height)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"height {failing} failed"):
            forward(sentences, params, config, mode="infer")
        assert_only_callers_threads(before)


def blas_columns_ignore_column_count(params, n_rows, cols, dtype) -> bool:
    """Whether the BLAS gives the columns ``cols`` of a product with every
    filter bank the same bits as the product with those columns alone."""
    rng = np.random.default_rng(0)
    for w in params.conv_w.values():
        bank = _filter_bank(w, params.hyper.k)
        dy = rng.normal(size=(n_rows, bank.shape[1])).astype(dtype)
        if not np.array_equal((dy @ bank.T)[:, cols], dy @ bank[cols].T):
            return False
    return True


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_gradients_are_the_serial_loops(dtype):
    # paper sizes, B=16, through the pool, over three modes' stacks. 2ch:
    # the input gradient covers the trainable channel's columns only, with
    # the bits of the full product (where the BLAS gives a column the same
    # bits whatever the column count); 4ch, all trainable: every column;
    # static, none trainable: skipped.
    for mode in (InputMode.STATIC, InputMode.TWO_CH, InputMode.FOUR_CH):
        params, config, sentences, labels = stack_model(dtype, 100, 100, 128, 16, mode=mode)
        trace = forward(sentences, params, config, mode="train",
                        rng=np.random.default_rng(1))
        flags = [ch.trainable for ch in config.channels]
        trained = [c for c, flag in enumerate(flags) if flag]
        k = params.hyper.k
        exact = all(flags) or not trained or blas_columns_ignore_column_count(
            params, trace.ids.size, slice(trained[0] * k, (trained[-1] + 1) * k), dtype
        )
        _, got = backward(trace, params, config, labels, lam=0.1)
        want = embedding_grads_serial(
            trace, params, [ch.table for ch in config.channels], flags, labels
        )
        assert [name for name in got if name.startswith("channel")] == [
            f"channel[{c}]" for c in want
        ], mode
        same = equal_unless_blas_varies(exact, dtype)
        for c in want:
            assert same(got[f"channel[{c}]"], want[c]), (mode, c)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, tiny_setup):
    hyper, params, config = tiny_setup(dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, vocab_hash="abc123", extra={"epoch": 3})
    loaded_params, loaded_config, meta = load_checkpoint(path)
    assert meta["vocab_sha256"] == "abc123"
    assert meta["extra"]["epoch"] == 3
    assert loaded_params.hyper == hyper
    for h in hyper.heights:
        assert np.array_equal(loaded_params.conv_w[h], params.conv_w[h])
    assert np.array_equal(loaded_params.fc_w, params.fc_w)
    assert loaded_config.mode is config.mode
    assert np.array_equal(loaded_config.channels[0].table, config.channels[0].table)
    # identical bytes when saved again
    save_checkpoint(tmp_path / "again.ckpt", loaded_params, loaded_config,
                    vocab_hash="abc123", extra={"epoch": 3})
    assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()


def _rewrite_header(path, change):
    """Rewrite a checkpoint's header through ``change``, arrays as they are."""
    header, arrays = read_container(path, model._CKPT_MAGIC, "a model checkpoint")
    del header["manifest"]
    change(header)
    write_container(path, model._CKPT_MAGIC, header, list(arrays.items()))


def _two_channel_checkpoint(path):
    params, config, _, _ = stack_model(np.float32, 4, 6, 2, 1)
    save_checkpoint(path, params, config, vocab_hash="abc")
    return config


def test_checkpoint_roles_come_from_its_mode(tmp_path):
    """The header stores the mode, not each channel's role; the channel_meta
    of an older checkpoint is not read, even where it contradicts the mode."""
    path = tmp_path / "model.ckpt"
    config = _two_channel_checkpoint(path)
    header, _ = read_container(path, model._CKPT_MAGIC, "a model checkpoint")
    assert "channel_meta" not in header and header["mode"] == "2ch"
    _rewrite_header(path, lambda h: h.update(channel_meta=[
        {"source": "rand", "trainable": True}, {"source": "cooc", "trainable": False},
    ]))
    _, loaded, _ = load_checkpoint(path)
    roles = [(ch.source, ch.trainable) for ch in loaded.channels]
    assert roles == list(STACKS[InputMode.TWO_CH])
    for got, want in zip(loaded.channels, config.channels):
        assert np.array_equal(got.table, want.table)


@pytest.mark.parametrize("mode", ["rand", "4ch"])
def test_checkpoint_of_another_stack_length_is_a_data_error(tmp_path, mode):
    """A header whose mode stacks another channel count than n_channels."""
    path = tmp_path / "model.ckpt"
    _two_channel_checkpoint(path)
    _rewrite_header(path, lambda h: h.update(mode=mode))
    with pytest.raises(DataError, match=f"mode {mode} needs"):
        load_checkpoint(path)


def test_checkpoint_rejects_junk(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"nonsense")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_infer_chunks_feed_attend_sentences_and_evaluate(tiny_setup):
    """2·BATCH_SIZE+1 sentences, so the last chunk holds one sentence: the
    read side's results are those of one forward per chunk."""
    from wordcam.attention import attend, attend_sentences
    from wordcam.corpus import LabeledExample, Polarity
    from wordcam.train import evaluate

    hyper, params, config = tiny_setup()
    rng = np.random.default_rng(5)
    n = 2 * model.BATCH_SIZE + 1
    id_seqs = [tuple(int(i) for i in rng.integers(1, 30, size=rng.integers(1, hyper.d + 1)))
               for _ in range(n)]
    tokens = [tuple(f"w{i}" for i in ids) for ids in id_seqs]
    labels = rng.integers(0, 2, size=n)

    starts = range(0, n, model.BATCH_SIZE)
    traces = [forward(id_seqs[s : s + model.BATCH_SIZE], params, config, mode="infer")
              for s in starts]
    b = model.BATCH_SIZE
    chunks = [(s, t.batch_size) for s, t in model.infer(params, config, id_seqs)]
    assert chunks == [(0, b), (b, b), (2 * b, 1)]

    results = list(attend_sentences(params, config, list(zip(tokens, id_seqs))))
    assert [r.tokens for r in results] == tokens
    for i, got in enumerate(results):
        j, row = divmod(i, model.BATCH_SIZE)
        want = attend(traces[j], params, tokens[i], item=row)
        assert got.raw.tobytes() == want.raw.tobytes()
        assert got.selected == want.selected
        assert got.class_index == want.class_index

    examples = [LabeledExample(ids, Polarity(int(y)), toks)
                for ids, y, toks in zip(id_seqs, labels, tokens)]
    want = np.zeros((2, 2), dtype=np.int64)
    for s, trace in zip(starts, traces):
        np.add.at(want, (labels[s : s + model.BATCH_SIZE], np.argmax(trace.logits, axis=1)), 1)
    assert np.array_equal(evaluate(params, config, examples).confusion, want)
