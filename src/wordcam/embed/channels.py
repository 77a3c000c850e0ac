"""Embedding channels: V x k tables plus their update policy.

A channel is one embedding table used as one input plane of the CNN. Row 0
belongs to the padding token and is pinned to zero; the model additionally
masks id-0 positions, so the pin is structural, not just an initialization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from wordcam.errors import ConfigError, DataError, malformed

_MAGIC = b"WEMB2\n"
_SCATTER_ENTRIES = 1 << 15  # flat-index entries per scatter_add block


class Source(Enum):
    RAND = "rand"
    SKIPGRAM = "skipgram"
    COOC = "cooc"
    SUBWORD = "subword"


class InputMode(Enum):
    RAND = "rand"
    STATIC = "static"
    NON_STATIC = "non-static"
    TWO_CH = "2ch"
    FOUR_CH = "4ch"

    @classmethod
    def parse(cls, s: str) -> "InputMode":
        try:
            return cls(s.lower())
        except ValueError:
            raise ConfigError(f"unknown input mode {s!r} (choose from "
                              f"{', '.join(m.value for m in cls)})") from None


# Each input mode's channel stack, in channel order: the source table that
# each channel copies, and whether that channel trains.
STACKS: dict[InputMode, tuple[tuple[Source, bool], ...]] = {
    InputMode.RAND: ((Source.RAND, True),),
    InputMode.STATIC: ((Source.SKIPGRAM, False),),
    InputMode.NON_STATIC: ((Source.SKIPGRAM, True),),
    InputMode.TWO_CH: ((Source.SKIPGRAM, False), (Source.SKIPGRAM, True)),
    InputMode.FOUR_CH: ((Source.SKIPGRAM, True), (Source.COOC, True),
                        (Source.SUBWORD, True), (Source.SKIPGRAM, True)),
}


@dataclass(frozen=True)
class EmbeddingChannel:
    table: np.ndarray  # (V, k)
    trainable: bool
    source: Source

    def __post_init__(self):
        if self.table.ndim != 2 or min(self.table.shape) < 1:
            raise ConfigError(f"embedding table must be (V, k) with V, k >= 1, "
                              f"got {self.table.shape}")
        if not np.all(np.isfinite(self.table)):
            raise DataError("embedding table contains non-finite entries")
        if np.any(self.table[0] != 0.0):
            raise DataError("padding row (id 0) must be zero")

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def digest(self) -> str:
        import hashlib

        return hashlib.sha256(np.ascontiguousarray(self.table).tobytes()).hexdigest()


@dataclass(frozen=True)
class ChannelConfig:
    """The channels of ``mode``, each with its role (source, trainable) in
    ``STACKS[mode]`` and all of one (V, k)."""

    mode: InputMode
    channels: tuple[EmbeddingChannel, ...]

    def __post_init__(self):
        stack = tuple((s.value, t) for s, t in STACKS[self.mode])
        got = tuple((c.source.value, c.trainable) for c in self.channels)
        if got != stack:
            raise ConfigError(f"mode {self.mode.value} stacks (source, trainable) "
                              f"{stack}, got {got}")
        shapes = {c.table.shape for c in self.channels}
        if len(shapes) != 1:
            raise ConfigError(f"channels disagree on (V, k): {sorted(shapes)}")

    @classmethod
    def of(cls, mode: InputMode, tables) -> "ChannelConfig":
        """The stack of ``mode`` over ``tables``, one per channel in stack
        order, each given its channel's role. The tables are not copied."""
        stack = STACKS[mode]
        if len(tables) != len(stack):
            raise ConfigError(f"mode {mode.value} needs {len(stack)} table(s), "
                              f"got {len(tables)}")
        return cls(mode, tuple(
            EmbeddingChannel(table, trainable, source)
            for table, (source, trainable) in zip(tables, stack)
        ))

    def __len__(self) -> int:
        return len(self.channels)

    def __getitem__(self, i: int) -> EmbeddingChannel:
        return self.channels[i]

    def copy(self) -> "ChannelConfig":
        return ChannelConfig.of(self.mode, [c.table.copy() for c in self.channels])

    @property
    def vocab_size(self) -> int:
        return self.channels[0].table.shape[0]

    @property
    def dim(self) -> int:
        return self.channels[0].dim


def scatter_rows(k: int) -> int:
    """Rows of a k-wide table that one ``scatter_add`` block covers."""
    return max(1, _SCATTER_ENTRIES // k)


def scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``table[rows[i]] += values[i]`` for each i in order, so repeated rows
    accumulate: the additions and their order are those of
    ``np.add.at(table, rows, values)``, and so are the bits.

    A (V, k) table is scattered with 1-D ``np.add.at`` calls over its flat
    view, which take numpy's fast path for ``ufunc.at`` (numpy >= 1.25);
    the row-wise 2-D form misses it and runs several times slower. The flat
    index is built for one block of rows at a time, in row order, so its
    temporary stays near ``_SCATTER_ENTRIES`` entries however many rows
    there are. The table must be C-contiguous, so that the flat view writes
    through, and ``values`` should already have its dtype.
    """
    if table.ndim == 1:
        np.add.at(table, rows, values)
        return
    if not table.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous table")
    k = table.shape[1]
    rows = np.asarray(rows, dtype=np.intp)
    values = np.ascontiguousarray(values, dtype=table.dtype)
    flat_table, cols = table.reshape(-1), np.arange(k)
    block = scatter_rows(k)
    for lo in range(0, len(rows), block):
        flat_rows = rows[lo : lo + block, None] * k + cols
        np.add.at(flat_table, flat_rows.reshape(-1), values[lo : lo + block].reshape(-1))


def check_dim(k: int) -> None:
    """Reject an embedding dimension below 1."""
    if k < 1:
        raise ConfigError(f"embedding dimension must be >= 1, got {k}")


def init_random(vocab_size: int, k: int, seed: int, dtype=np.float32) -> np.ndarray:
    """A (V, k) uniform [-0.25, 0.25] table with the padding row zeroed."""
    check_dim(k)
    if vocab_size < 1:
        raise ConfigError(f"need V >= 1, got V={vocab_size}")
    rng = np.random.default_rng(seed)
    table = rng.uniform(-0.25, 0.25, size=(vocab_size, k)).astype(dtype)
    table[0] = 0.0
    return table


def assemble(
    mode: InputMode,
    rand: np.ndarray | None = None,
    skipgram: np.ndarray | None = None,
    cooc: np.ndarray | None = None,
    subword: np.ndarray | None = None,
) -> ChannelConfig:
    """The channel stack of ``mode`` (``ChannelConfig.of``) over an
    independent copy of the (V, k) table of each source it names. A source
    the stack names and the caller did not give raises ConfigError."""
    given = {Source.RAND: rand, Source.SKIPGRAM: skipgram, Source.COOC: cooc,
             Source.SUBWORD: subword}
    tables = []
    for source, _ in STACKS[mode]:
        if given[source] is None:
            raise ConfigError(f"mode {mode.value} requires a {source.value} table")
        tables.append(np.array(given[source], order="C"))
    return ChannelConfig.of(mode, tables)


# ---------------------------------------------------------------------------
# Persistence: the binary container
# ---------------------------------------------------------------------------


def write_container(
    path: Path | str, magic: bytes, header: dict, arrays: list[tuple[str, np.ndarray]]
) -> None:
    """Write the artifact layout shared by channel files and checkpoints.

    ``magic``, a u32 little-endian header length, the sorted-key JSON of
    ``header`` plus a ``manifest`` (name, shape and dtype of each array, in
    list order), then each array's row-major bytes in that order. The file
    is written to ``<path>.tmp`` and renamed onto ``path``, so a write that
    fails part-way leaves the previous artifact as it was.
    """
    manifest = [
        {"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
        for name, arr in arrays
    ]
    blob = json.dumps({**header, "manifest": manifest}, sort_keys=True).encode("utf-8")
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(len(blob).to_bytes(4, "little"))
            fh.write(blob)
            for _, arr in arrays:
                fh.write(np.ascontiguousarray(arr).tobytes())
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_container(path: Path | str, magic: bytes, what: str) -> tuple[dict, dict]:
    """Read a ``write_container`` file as (header, {name: array}).

    A file that cannot be read (missing, a directory, no permission), a
    wrong magic, a header cut short or not JSON, a malformed manifest entry,
    or a payload whose length is not the sum of the manifest's array sizes
    raises DataError. The header keeps its ``manifest``.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot read {what} ({exc.strerror})") from exc
    with fh:
        if fh.read(len(magic)) != magic:
            raise DataError(f"{path}: not {what}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise DataError(f"{path}: truncated header")
        hlen = int.from_bytes(raw_len, "little")
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise DataError(f"{path}: truncated header")
        payload = fh.read()
    with malformed(path):
        header = json.loads(blob.decode("utf-8"))
        entries = []
        for entry in header["manifest"]:
            shape = tuple(entry["shape"])
            if not all(type(n) is int and n >= 0 for n in shape):
                raise DataError(f"{path}: bad shape {shape} in the manifest")
            entries.append((entry["name"], np.dtype(entry["dtype"]), shape))
        sizes = [dtype.itemsize * math.prod(shape) for _, dtype, shape in entries]
        if sum(sizes) != len(payload):
            raise DataError(f"{path}: {len(payload)} payload bytes, manifest {sum(sizes)}")
        arrays, offset = {}, 0
        for (name, dtype, shape), size in zip(entries, sizes):
            arr = np.frombuffer(payload, dtype, math.prod(shape), offset)
            arrays[name] = arr.reshape(shape).copy()
            offset += size
        return header, arrays


def save_channel(channel: EmbeddingChannel, path: Path | str) -> None:
    """The channel's source and trainable flag, then its table as
    row-major little-endian float32 (``write_container``)."""
    header = {"source": channel.source.value, "trainable": channel.trainable}
    table = np.ascontiguousarray(channel.table, dtype="<f4")
    write_container(path, _MAGIC, header, [("table", table)])


def load_channel(path: Path | str) -> EmbeddingChannel:
    meta, arrays = read_container(path, _MAGIC, "an embedding channel file")
    with malformed(path):
        trainable = meta["trainable"]
        if type(trainable) is not bool:
            raise DataError(f"{path}: trainable must be true or false, got {trainable!r}")
        return EmbeddingChannel(arrays["table"], trainable, Source(meta["source"]))
