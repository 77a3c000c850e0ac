"""Corpus ingestion: tokenization, rating-derived labels, vocabulary, splits.

Everything here is deterministic given (input order, seed). Token id 0 is
reserved for the padding token and is never produced for a real token;
out-of-vocabulary tokens at encode time also map to id 0.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from wordcam.errors import ConfigError, DataError, malformed, read_text

PAD_TOKEN = "<pad>"
PAD_ID = 0


class Polarity(Enum):
    """Binary sentiment class; its value is the class index."""

    NEGATIVE = 0
    POSITIVE = 1


CLASS_NAMES = tuple(p.name.lower() for p in Polarity)  # by class index


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


def _is_latin(ch: str) -> bool:
    try:
        return unicodedata.name(ch).startswith("LATIN")
    except ValueError:
        return False


class _CharMap(dict):
    """Lazy str.translate table: drop punctuation/digits, fold case.

    Punctuation is any Unicode category P*; digits are category Nd. Case is
    folded for Latin script only; other scripts pass through unchanged.
    """

    def __missing__(self, codepoint: int):
        ch = chr(codepoint)
        cat = unicodedata.category(ch)
        if cat.startswith("P") or cat == "Nd":
            out = None
        elif _is_latin(ch):
            out = ch.lower()
        else:
            out = ch
        self[codepoint] = out
        return out


_CHAR_MAP = _CharMap()


def tokenize(text: str) -> list[str]:
    """Split on whitespace, strip punctuation and digit characters per token,
    and fold Latin case.

    Tokens that become empty after stripping are dropped, so the result may
    be empty. Idempotent on its own (space-joined) output.

    The whole text is translated once and then split. That gives the tokens
    of translating each whitespace run: the map keeps every whitespace
    character, deletes none (no P* or Nd character is whitespace) and makes
    none (the lowercase of a Latin letter holds no whitespace), so the runs
    are the same and a run stripped to nothing is dropped by the split.
    """
    return text.translate(_CHAR_MAP).split()


# ---------------------------------------------------------------------------
# Rating schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelScheme:
    """Maps a numeric rating to a polarity.

    ``rating <= neg_max`` is negative, ``rating >= pos_min`` is positive,
    anything in between is excluded. Ratings must be multiples of ``step``
    (measured from ``lo``).
    """

    name: str
    lo: float
    hi: float
    neg_max: float
    pos_min: float
    step: float

    def validate(self, rating: float) -> None:
        if not np.isfinite(rating):
            raise DataError(f"{self.name}: non-finite rating {rating!r}")
        if rating < self.lo or rating > self.hi:
            raise DataError(
                f"{self.name}: rating {rating} outside scale [{self.lo}, {self.hi}]"
            )
        steps = (rating - self.lo) / self.step
        if abs(steps - round(steps)) > 1e-9:
            raise DataError(
                f"{self.name}: rating {rating} is not a multiple of {self.step}"
            )


IMDB_SCHEME = LabelScheme("imdb", lo=1, hi=10, neg_max=4, pos_min=7, step=1)
WATCHA_SCHEME = LabelScheme("watcha", lo=0.5, hi=5.0, neg_max=2.0, pos_min=5.0, step=0.5)


SCHEMES = {"imdb": IMDB_SCHEME, "watcha": WATCHA_SCHEME}


def label_from_rating(rating: float, scheme: LabelScheme) -> Polarity | None:
    """Classify a rating as Positive or Negative under a scheme; None for a
    rating in the excluded band between them."""
    scheme.validate(rating)
    if rating <= scheme.neg_max:
        return Polarity.NEGATIVE
    if rating >= scheme.pos_min:
        return Polarity.POSITIVE
    return None


# ---------------------------------------------------------------------------
# Examples and vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawReview:
    text: str
    rating: float

    def __post_init__(self):
        if not self.text.strip():
            raise DataError("review text is empty")


@dataclass(frozen=True)
class TokenizedExample:
    """A tokenized review with its polarity."""

    tokens: tuple[str, ...]
    label: Polarity

    def __post_init__(self):
        if not self.tokens:
            raise DataError("example has no tokens")


@dataclass(frozen=True)
class LabeledExample:
    """Encoded example: ids align 1:1 with ``tokens`` (both truncated to d)."""

    token_ids: tuple[int, ...]
    label: Polarity
    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.token_ids:
            raise DataError("example has no tokens")
        if len(self.token_ids) != len(self.tokens):
            raise DataError("token/id length mismatch")


class Vocabulary:
    """Bijective token<->id map; id 0 is the padding token.

    Ids are assigned by descending training frequency, ties broken
    lexicographically, so construction is independent of input order.
    """

    def __init__(self, id_to_token: list[str], counts: list[int]):
        if not id_to_token or id_to_token[0] != PAD_TOKEN:
            raise DataError("id 0 must be the padding token")
        if len(id_to_token) != len(set(id_to_token)):
            raise DataError("duplicate tokens in vocabulary")
        self.id_to_token = list(id_to_token)
        self.counts = list(counts)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        self._digest: str | None = None  # nothing changes a vocabulary once built

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def n_tokens(self) -> int:
        """Distinct real tokens, excluding the padding slot."""
        return len(self.id_to_token) - 1

    @classmethod
    def build(cls, token_seqs: Iterable[Sequence[str]]) -> "Vocabulary":
        freq: Counter = Counter()
        for toks in token_seqs:
            freq.update(toks)
        if not freq:
            raise DataError("cannot build a vocabulary from an empty corpus")
        if PAD_TOKEN in freq:
            raise DataError(f"corpus contains the reserved token {PAD_TOKEN!r}")
        ordered = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
        id_to_token = [PAD_TOKEN] + [t for t, _ in ordered]
        counts = [0] + [c for _, c in ordered]
        return cls(id_to_token, counts)

    def encode(self, tokens: Sequence[str], d: int) -> list[int]:
        """Token ids, truncated to at most ``d``; unknown tokens map to pad."""
        return [self.token_to_id.get(t, PAD_ID) for t in tokens[:d]]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def lines(self) -> list[str]:
        return [
            f"{tok}\t{i}\t{self.counts[i]}" for i, tok in enumerate(self.id_to_token)
        ]

    def digest(self) -> str:
        if self._digest is None:
            payload = "\n".join(self.lines()).encode("utf-8")
            self._digest = hashlib.sha256(payload).hexdigest()
        return self._digest

    def save(self, path: Path | str) -> None:
        Path(path).write_text("\n".join(self.lines()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "Vocabulary":
        id_to_token: list[str] = []
        counts: list[int] = []
        lines = read_text(path, "vocabulary").splitlines()
        try:  # one guard for the file: a context manager per line tripled the load
            for lineno, line in enumerate(lines, 1):
                if not line:
                    continue
                tok, idx, count = line.split("\t")
                idx, count = int(idx), int(count)
                if idx != len(id_to_token):
                    raise DataError(f"{path}:{lineno}: ids out of order")
                id_to_token.append(tok)
                counts.append(count)
        except DataError:
            raise
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed vocab line ({exc!r})") from exc
        try:
            return cls(id_to_token, counts)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc


def encode_example(ex: TokenizedExample, vocab: Vocabulary, d: int) -> LabeledExample:
    ids = vocab.encode(ex.tokens, d)
    return LabeledExample(tuple(ids), ex.label, tuple(ex.tokens[: len(ids)]))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusSplit:
    train: tuple
    test: tuple
    seed: int


def split(examples: Sequence, ratio: float = 0.7, seed: int = 0) -> CorpusSplit:
    """Stratified train/test split, deterministic for a fixed seed.

    Each class stratum contributes round(ratio * n) examples to train
    (clamped so neither side is empty), so the train fraction holds within
    one example per class.
    """
    by_class: dict[Polarity, list[int]] = {}
    for i, ex in enumerate(examples):
        by_class.setdefault(ex.label, []).append(i)
    for label, idxs in by_class.items():
        if len(idxs) < 2:
            raise DataError(f"class {label.name} has {len(idxs)} example(s), need >= 2")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_class, key=lambda l: l.value):
        idxs = np.asarray(by_class[label])
        perm = rng.permutation(len(idxs))
        n_train = int(round(ratio * len(idxs)))
        n_train = min(max(n_train, 1), len(idxs) - 1)
        train_idx.extend(idxs[perm[:n_train]].tolist())
        test_idx.extend(idxs[perm[n_train:]].tolist())
    return CorpusSplit(
        train=tuple(examples[i] for i in train_idx),
        test=tuple(examples[i] for i in test_idx),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def load_imdb_dir(root: Path | str) -> list[RawReview]:
    """Read the ``{train,test}/{pos,neg}/<id>_<rating>.txt`` layout."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    reviews: list[RawReview] = []
    for part in ("train", "test"):
        for side in ("pos", "neg"):
            d = root / part / side
            if not d.is_dir():
                continue
            for f in sorted(d.glob("*.txt")):
                stem = f.stem
                try:
                    rating = float(stem.rsplit("_", 1)[1])
                except (IndexError, ValueError) as exc:
                    raise DataError(f"cannot parse rating from filename {f}") from exc
                text = read_text(f, "review")
                if not text.strip():
                    continue
                reviews.append(RawReview(text, rating))
    if not reviews:
        raise DataError(f"no reviews found under {root}")
    return reviews


def load_delimited(path: Path | str, delimiter: str | None = None) -> list[RawReview]:
    """Read a CSV/TSV with a ``text,rating`` header; delimiter auto-detected."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    raw = read_text(path, "dataset file")
    if not raw.strip():
        raise DataError(f"dataset file is empty: {path}")
    if delimiter is None:
        header = raw.splitlines()[0]
        delimiter = "\t" if "\t" in header else ","
    reader = csv.DictReader(io.StringIO(raw), delimiter=delimiter)
    fields = [f.strip().lower() for f in reader.fieldnames or []]
    if "text" not in fields or "rating" not in fields:
        raise DataError(f"{path}: header must contain 'text' and 'rating' columns")
    key = {f.strip().lower(): f for f in reader.fieldnames}
    reviews: list[RawReview] = []
    for row in reader:
        text = (row[key["text"]] or "").strip()
        if not text:
            continue
        try:
            rating = float(row[key["rating"]])
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad rating {row[key['rating']]!r}") from exc
        reviews.append(RawReview(text, rating))
    if not reviews:
        raise DataError(f"no usable rows in {path}")
    return reviews


# ---------------------------------------------------------------------------
# End-to-end preparation
# ---------------------------------------------------------------------------


@dataclass
class PreparedCorpus:
    vocab: Vocabulary
    train: tuple[LabeledExample, ...]
    test: tuple[LabeledExample, ...]
    seed: int
    d: int
    stats: dict
    # untruncated training sentences as ids, for embedding training
    train_sentences: tuple[tuple[int, ...], ...]


def label_reviews(
    reviews: Iterable[RawReview], scheme: LabelScheme
) -> tuple[list[TokenizedExample], dict]:
    """Tokenize and label; drops excluded ratings and empty tokenizations."""
    kept: list[TokenizedExample] = []
    n_excluded = 0
    n_empty = 0
    for rv in reviews:
        label = label_from_rating(rv.rating, scheme)
        if label is None:
            n_excluded += 1
            continue
        toks = tokenize(rv.text)
        if not toks:
            n_empty += 1
            continue
        kept.append(TokenizedExample(tuple(toks), label))
    stats = {"excluded": n_excluded, "empty": n_empty, "kept": len(kept)}
    return kept, stats


def check_prepare(d: int, ratio: float) -> None:
    """Reject a sentence length or a train fraction ``prepare`` cannot use."""
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")


def prepare(
    examples: Iterable[TokenizedExample] | Iterable[RawReview],
    scheme: LabelScheme | None = None,
    d: int = 100,
    ratio: float = 0.7,
    seed: int = 0,
) -> PreparedCorpus:
    """The one corpus builder: split, build the vocabulary on train, encode.

    ``examples`` are TokenizedExamples. Given a ``scheme``, they are
    RawReviews, which ``label_reviews`` tokenizes and labels first; its
    counts then join the stats. The vocabulary sees only the training split,
    so test-time tokens absent from it encode to the padding id.
    """
    check_prepare(d, ratio)
    stats: dict = {}
    if scheme is not None:
        examples, stats = label_reviews(examples, scheme)
    examples = list(examples)
    if not examples:
        raise DataError("no labeled examples after rating filter")
    parts = split(examples, ratio=ratio, seed=seed)
    vocab = Vocabulary.build(ex.tokens for ex in parts.train)
    # embeddings train on whole sentences; the model's input is the first d
    # ids and tokens of each
    train_sentences = tuple(
        tuple(vocab.encode(ex.tokens, len(ex.tokens))) for ex in parts.train
    )
    train = tuple(
        LabeledExample(ids[:d], ex.label, tuple(ex.tokens[:d]))
        for ids, ex in zip(train_sentences, parts.train)
    )
    test = tuple(encode_example(ex, vocab, d) for ex in parts.test)
    stats.update(
        {
            "train": len(train),
            "test": len(test),
            "train_pos": sum(1 for e in train if e.label is Polarity.POSITIVE),
            "train_neg": sum(1 for e in train if e.label is Polarity.NEGATIVE),
            "test_pos": sum(1 for e in test if e.label is Polarity.POSITIVE),
            "test_neg": sum(1 for e in test if e.label is Polarity.NEGATIVE),
            "vocab_size": vocab.n_tokens,
        }
    )
    return PreparedCorpus(vocab, train, test, seed, d, stats, train_sentences)


# ---------------------------------------------------------------------------
# Artifact persistence
# ---------------------------------------------------------------------------


def _known(ids: tuple[int, ...], tokens: Sequence[str]) -> tuple[int, ...]:
    """``ids``, each of which must name a vocabulary word: a training token
    is never unknown, nor the pad."""
    if PAD_ID in ids:
        raise DataError(f"token {tokens[ids.index(PAD_ID)]!r} is not a vocabulary word")
    return ids


def _read_lines(path: Path, what: str, parse) -> tuple:
    """``parse(line)`` for each non-empty line of ``path``; a line that fails
    to parse raises DataError naming ``path:line``."""
    out = []
    for lineno, line in enumerate(read_text(path, what).splitlines(), 1):
        if not line:
            continue
        try:
            out.append(parse(line))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: malformed line ({exc!r})") from exc
    return tuple(out)


def save_prepared(corpus: PreparedCorpus, out_dir: Path | str) -> None:
    """The corpus files, written into the existing directory ``out_dir``.
    Tokens only: ids are derived from ``vocab.tsv`` when the corpus is read
    back, so an id can never disagree with its token."""
    out = Path(out_dir)
    paths = {
        "vocab": out / "vocab.tsv",
        "train": out / "train.tsv",
        "test": out / "test.tsv",
        "embed_corpus": out / "embed_corpus.txt",
        "meta": out / "meta.json",
    }
    corpus.vocab.save(paths["vocab"])
    for name in ("train", "test"):
        body = "\n".join(
            f"{CLASS_NAMES[ex.label.value]}\t{' '.join(ex.tokens)}"
            for ex in getattr(corpus, name)
        )
        paths[name].write_text(body + "\n", encoding="utf-8")
    body = "\n".join(" ".join(corpus.vocab.decode(s)) for s in corpus.train_sentences)
    paths["embed_corpus"].write_text(body + "\n", encoding="utf-8")
    meta = {
        "d": corpus.d,
        "seed": corpus.seed,
        "stats": corpus.stats,
        "vocab_sha256": corpus.vocab.digest(),
    }
    paths["meta"].write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_prepared(out_dir: Path | str) -> PreparedCorpus:
    """Read the four files ``save_prepared`` wrote. ``meta.json``'s ``d``
    must be >= 1, and ``vocab.tsv`` must have the digest that ``meta.json``
    records. Each example is encoded from its tokens as ``prepare`` encodes
    it; a training token (in ``train.tsv`` or ``embed_corpus.txt``) must be
    a vocabulary word. A file that breaks any of this raises DataError
    naming it."""
    out = Path(out_dir)
    meta_path = out / "meta.json"
    if not meta_path.is_file():
        raise DataError(f"no prepared corpus at {out} (missing meta.json)")
    with malformed(meta_path, "corpus metadata"):
        meta = json.loads(read_text(meta_path, "corpus metadata"))
        seed, d = meta["seed"], meta["d"]
        if type(seed) is not int or type(d) is not int:
            raise DataError(f"{meta_path}: d and seed must be integers, got d={d!r}, "
                            f"seed={seed!r}")
        if d < 1:
            raise DataError(f"{meta_path}: d must be >= 1, got {d}")
        stats = meta["stats"]
        vocab_sha256 = meta["vocab_sha256"]
    vocab_path = out / "vocab.tsv"
    vocab = Vocabulary.load(vocab_path)
    if vocab.digest() != vocab_sha256:
        raise DataError(f"{vocab_path} does not match the vocab_sha256 of {meta_path}")

    def example(line: str) -> LabeledExample:
        label, tokens = line.split("\t")
        if label not in CLASS_NAMES:
            raise DataError(f"label {label!r} is not one of {', '.join(CLASS_NAMES)}")
        ex = TokenizedExample(tuple(tokens.split()), Polarity(CLASS_NAMES.index(label)))
        return encode_example(ex, vocab, d)

    def train_example(line: str) -> LabeledExample:
        ex = example(line)
        _known(ex.token_ids, ex.tokens)
        return ex

    def sentence(line: str) -> tuple[int, ...]:
        tokens = line.split()
        return _known(tuple(vocab.encode(tokens, len(tokens))), tokens)

    train = _read_lines(out / "train.tsv", "example file", train_example)
    test = _read_lines(out / "test.tsv", "example file", example)
    sentences = _read_lines(out / "embed_corpus.txt", "sentence file", sentence)
    return PreparedCorpus(vocab, train, test, seed, d, stats, sentences)
