import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordcam.embed import (
    EmbeddingChannel,
    InputMode,
    Source,
    assemble,
    build_cooc,
    fit_cooc,
    init_random,
    load_channel,
    save_channel,
    train_cooc_factor,
    train_skipgram,
    train_sources,
    train_subword,
)
from wordcam.embed import channels
from wordcam.embed.channels import ChannelConfig, scatter_add
from wordcam.embed.skipgram import WINDOW
from wordcam.errors import ConfigError, DataError


def test_init_random_single_row_is_pad():
    table = init_random(1, 100, seed=0)
    assert table.shape == (1, 100)
    assert np.all(table == 0.0)


def test_init_random_deterministic_and_bounded():
    a = init_random(5, 100, seed=7)
    b = init_random(5, 100, seed=7)
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 0.25
    assert np.all(a[0] == 0.0)
    c = init_random(5, 100, seed=8)
    assert not np.array_equal(a, c)


def test_channel_rejects_nonzero_pad_row():
    table = np.ones((3, 4), dtype=np.float32)
    with pytest.raises(DataError):
        EmbeddingChannel(table, True, Source.RAND)
    table[0] = np.nan
    with pytest.raises(DataError):
        EmbeddingChannel(table, True, Source.RAND)


def _sources(v=8, k=5):
    return {
        "rand": init_random(v, k, seed=0),
        "skipgram": init_random(v, k, seed=1),
        "cooc": init_random(v, k, seed=2),
        "subword": init_random(v, k, seed=3),
    }


# each mode's channel stack as (source, trainable) pairs in channel order,
# written out here rather than read from channels.STACKS
_STACKS = {
    InputMode.RAND: [(Source.RAND, True)],
    InputMode.STATIC: [(Source.SKIPGRAM, False)],
    InputMode.NON_STATIC: [(Source.SKIPGRAM, True)],
    InputMode.TWO_CH: [(Source.SKIPGRAM, False), (Source.SKIPGRAM, True)],
    InputMode.FOUR_CH: [
        (Source.SKIPGRAM, True), (Source.COOC, True),
        (Source.SUBWORD, True), (Source.SKIPGRAM, True),
    ],
}


@pytest.mark.parametrize("mode", list(InputMode), ids=lambda m: m.value)
def test_assemble_stack(mode):
    """Each channel is an independent copy of its source table with the
    mode's trainable flag: updating one leaks into no other channel and no
    source."""
    src = _sources()
    before = {name: table.copy() for name, table in src.items()}
    cfg = assemble(mode, **src)
    assert cfg.mode is mode
    assert [(ch.source, ch.trainable) for ch in cfg.channels] == _STACKS[mode]
    for ch in cfg.channels:
        assert np.array_equal(ch.table, before[ch.source.value])
    for i, ch in enumerate(cfg.channels):
        ch.table[1] += 1.0
        for other in cfg.channels[i + 1:]:
            assert np.array_equal(other.table, before[other.source.value])
    for name, table in src.items():
        assert np.array_equal(table, before[name])


def test_assemble_missing_channel():
    """Leaving out any one source that a mode's stack names is a ConfigError."""
    for mode, stack in _STACKS.items():
        for source in {source for source, _ in stack}:
            given = {name: t for name, t in _sources().items() if name != source.value}
            with pytest.raises(ConfigError, match=f"mode {mode.value} requires"):
                assemble(mode, **given)


@pytest.mark.parametrize("mode", list(InputMode), ids=lambda m: m.value)
def test_config_of_gives_each_table_its_stack_role(mode):
    tables = [np.zeros((4, 3), dtype=np.float32) for _ in _STACKS[mode]]
    cfg = ChannelConfig.of(mode, tables)
    assert [(ch.source, ch.trainable) for ch in cfg.channels] == _STACKS[mode]
    assert all(ch.table is table for ch, table in zip(cfg.channels, tables))
    with pytest.raises(dataclasses.FrozenInstanceError):  # no role changes after the check
        cfg.channels[0].trainable = not cfg.channels[0].trainable
    with pytest.raises(ConfigError, match="table"):
        ChannelConfig.of(mode, tables + tables[:1])


def _channel(source, trainable):
    return EmbeddingChannel(np.zeros((4, 3), dtype=np.float32), trainable, source)


@pytest.mark.parametrize("chans", [
    # the off-stack config a checkpoint once accepted under the 2ch label
    [(Source.RAND, True), (Source.COOC, False)],
    [(Source.SKIPGRAM, True), (Source.SKIPGRAM, True)],  # static channel trainable
    [(Source.SKIPGRAM, True), (Source.SKIPGRAM, False)],  # roles swapped
    [(Source.SKIPGRAM, False)],  # a channel short
    [(Source.SKIPGRAM, False), (Source.SKIPGRAM, True), (Source.SKIPGRAM, True)],
], ids=["rand-cooc", "both-trainable", "swapped", "short", "long"])
def test_config_off_its_stack_is_refused(chans):
    """A ChannelConfig holds its mode's stack and nothing else."""
    with pytest.raises(ConfigError, match="mode 2ch stacks"):
        ChannelConfig(InputMode.TWO_CH, tuple(_channel(*role) for role in chans))


def test_assemble_takes_roles_from_the_stack():
    """A source is a plain table: the stack gives each channel its role."""
    sg = np.zeros((4, 3), dtype=np.float32)
    cfg = assemble(InputMode.TWO_CH, skipgram=sg)
    assert [(ch.source, ch.trainable) for ch in cfg.channels] == _STACKS[InputMode.TWO_CH]


def test_train_sources_recipe():
    """Each table is its own trainer's at its documented seed, co-occurrence
    trained for 5 * epochs epochs; at epochs=0 that is none, so its table is
    the initial w + u."""
    tokens = ["<pad>", "care", "core", "dare", "mist", "mast"]
    rng = np.random.default_rng(0)
    sentences = [rng.integers(1, len(tokens), size=5).tolist() for _ in range(30)]
    k, seed = 6, 4
    for epochs in (0, 2):
        got = train_sources(sentences, tokens, [InputMode.RAND, InputMode.FOUR_CH],
                            k=k, epochs=epochs, seed=seed)
        want = {
            "rand": init_random(len(tokens), k, seed=seed),
            "skipgram": train_skipgram(sentences, len(tokens), k=k, epochs=epochs,
                                       seed=seed + 1),
            "cooc": train_cooc_factor(sentences, len(tokens), k=k, epochs=5 * epochs,
                                      seed=seed + 2),
            "subword": train_subword(sentences, tokens, k=k, epochs=epochs, seed=seed + 3),
        }
        assert list(got) == list(want)  # in this order
        for name, table in want.items():
            assert got[name].dtype == table.dtype
            assert np.array_equal(got[name], table), (name, epochs)
        if epochs == 0:
            fit = fit_cooc(build_cooc(sentences, WINDOW), len(tokens), k=k, epochs=0,
                           seed=seed + 2)
            assert np.array_equal(got["cooc"], (fit.w + fit.u).astype(np.float32))


@pytest.mark.parametrize("mode, names", [
    pytest.param(InputMode.RAND, ["rand"], id="rand"),
    pytest.param(InputMode.STATIC, ["skipgram"], id="static"),
    pytest.param(InputMode.NON_STATIC, ["skipgram"], id="non-static"),
    pytest.param(InputMode.TWO_CH, ["skipgram"], id="2ch"),
    pytest.param(InputMode.FOUR_CH, ["skipgram", "cooc", "subword"], id="4ch"),
])
def test_train_sources_trains_what_the_mode_stacks(mode, names):
    """Each source the stack names, as a plain C-contiguous (V, k) float32
    table with a zero pad row."""
    tokens = ["<pad>", "care", "core", "dare"]
    sentences = [[1, 2, 3, 1], [3, 2, 1]]
    got = train_sources(sentences, tokens, [mode], k=4, epochs=0, seed=0)
    assert list(got) == names
    for table in got.values():
        assert type(table) is np.ndarray and table.flags.c_contiguous
        assert table.shape == (4, 4) and table.dtype == np.float32
        assert np.all(table[0] == 0.0)


def test_mode_parse():
    assert InputMode.parse("2ch") is InputMode.TWO_CH
    assert InputMode.parse("Non-Static") is InputMode.NON_STATIC
    with pytest.raises(ConfigError):
        InputMode.parse("fivech")


def test_channel_binary_roundtrip(tmp_path):
    ch = EmbeddingChannel(init_random(9, 7, seed=4), trainable=False, source=Source.SKIPGRAM)
    path = tmp_path / "ch.emb"
    save_channel(ch, path)
    loaded = load_channel(path)
    assert np.array_equal(loaded.table, ch.table)
    assert loaded.trainable is False
    assert loaded.source is Source.SKIPGRAM
    # identical bytes on rewrite
    save_channel(loaded, tmp_path / "ch2.emb")
    assert (tmp_path / "ch.emb").read_bytes() == (tmp_path / "ch2.emb").read_bytes()


def test_channel_binary_rejects_other_files(tmp_path):
    path = tmp_path / "junk.emb"
    path.write_bytes(b"not a channel")
    with pytest.raises(DataError):
        load_channel(path)


@given(
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from([None, 1, 5]),  # None: a 1-D table
    st.integers(1, 4),
    st.integers(0, 40),
    st.booleans(),
    st.sampled_from([None, 1, 2, 3]),  # rows per block; None: the default
    st.integers(0, 2**32 - 1),
)
def test_scatter_add_is_np_add_at(dtype, k, n_table, n_rows, strided, block, seed):
    """Same bits as np.add.at, for few table rows hit many times each, no
    rows at all, a strided values view like backward's d_words[:, c], and
    blocks of 1 to 3 rows, so that a row's additions cross block edges."""
    rng = np.random.default_rng(seed)
    row_shape = () if k is None else (k,)
    table = rng.standard_normal((n_table, *row_shape)).astype(dtype)
    rows = rng.integers(0, n_table, size=n_rows)
    # magnitudes over 16 decades, so any change in summation order shows
    scale = 10.0 ** rng.integers(-8, 8, size=(len(rows), 2, *row_shape))
    values = (rng.standard_normal(scale.shape) * scale).astype(dtype)
    values = values[:, 1] if strided else np.ascontiguousarray(values[:, 1])
    want = table.copy()
    np.add.at(want, rows, values)
    entries = channels._SCATTER_ENTRIES if block is None else block * (k or 1)
    with mock.patch.object(channels, "_SCATTER_ENTRIES", entries):
        scatter_add(table, rows, values)
    assert np.array_equal(table, want)
