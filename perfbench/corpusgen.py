"""Seeded review corpus for the benchmark, written as a ``text,rating`` CSV.

Words are letters only, because ``wordcam.corpus.tokenize`` strips digits:
a lexicon rank maps to a word spelled in consonant-vowel syllables, short
words for frequent ranks. Word frequencies follow the two-regime rank law of
English text (``WORD_LAW``), so scatter conflicts, the co-occurrence table
and the negative-sampling noise table all see the skew of real text. Every
sentence carries exactly one polarity token inside its first ``d`` words;
lexicon words have even length and alternate consonant and vowel, so no
lexicon word can equal one.

Only the words and ratings depend on the seed. The sentence lengths and
their order come from the spec alone, so every seed yields the same token
count per split and runs on different seeds do the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)
POSITIVE_TOKENS = ("good", "great")
NEGATIVE_TOKENS = ("bad", "awful")


@dataclass(frozen=True)
class WordLaw:
    """Rank-frequency law: p(r) ~ (r+q)^-1 up to rank ``knee``, then
    ~ (r+q)^-tail_s, continuous at the knee.

    The shape is the two regimes of Ferrer i Cancho and Sole (2001), an
    exponent near 1 for the kernel lexicon and near 2 beyond it. The offset
    and the knee are fitted to the Brown corpus (Kucera and Francis 1967):
    "the" makes about 6.9% of its 1.01M tokens, which hold about 50.4k
    distinct words. This law gives 6.9% and about 49.7k expected types for
    1M tokens.
    """

    q: float = 0.45
    knee: int = 8_000
    tail_s: float = 2.0
    lexicon: int = 2_000_000  # ranks that can be drawn

    def cdf(self) -> np.ndarray:
        r = np.arange(1, self.lexicon + 1, dtype=np.float64) + self.q
        head = self.knee + self.q
        weights = np.where(r <= head, 1.0 / r, head ** (self.tail_s - 1.0) * r**-self.tail_s)
        cdf = np.cumsum(weights)
        return cdf / cdf[-1]


WORD_LAW = WordLaw()


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a generated corpus; the seed only picks words and ratings."""

    n_sentences: int  # split evenly between the two classes
    min_len: int
    max_len: int
    median_len: float  # lengths are log-normal, clipped to [min_len, max_len]
    d: int = 100  # polarity tokens land inside the first d words


def word(rank: int) -> str:
    """Bijective base-|syllables| spelling of a lexicon rank."""
    n = len(_SYLLABLES)
    parts = []
    rank += 1
    while rank > 0:
        rank -= 1
        parts.append(_SYLLABLES[rank % n])
        rank //= n
    return "".join(reversed(parts))


def sentence_lengths(spec: CorpusSpec) -> np.ndarray:
    """Seed-independent lengths, in sentence order."""
    rng = np.random.default_rng(0x5EED)
    raw = spec.median_len * np.exp(rng.normal(0.0, 0.9, size=spec.n_sentences))
    return np.clip(np.rint(raw), spec.min_len, spec.max_len).astype(np.int64)


def sentences(spec: CorpusSpec, seed: int) -> list[tuple[str, int]]:
    """(text, rating) rows; even rows are positive, odd rows negative."""
    rng = np.random.default_rng(seed)
    lengths = sentence_lengths(spec)
    ranks = np.searchsorted(WORD_LAW.cdf(), rng.random(int(lengths.sum())), side="right")
    ranks = np.minimum(ranks, WORD_LAW.lexicon - 1)
    drawn, inverse = np.unique(ranks, return_inverse=True)
    spelled = [word(int(r)) for r in drawn]
    tokens = [spelled[i] for i in inverse]
    rows = []
    start = 0
    for i, n in enumerate(lengths.tolist()):
        words = tokens[start : start + n]
        start += n
        positive = i % 2 == 0
        polar = POSITIVE_TOKENS if positive else NEGATIVE_TOKENS
        words[int(rng.integers(0, min(n, spec.d)))] = polar[int(rng.integers(0, len(polar)))]
        rating = int(rng.integers(7, 11)) if positive else int(rng.integers(1, 5))
        rows.append((" ".join(words), rating))
    return rows


def text_stats(rows: list[tuple[str, int]]) -> dict:
    """Type/token ratio and the most frequent word's share of tokens."""
    counts: dict[str, int] = {}
    for text, _ in rows:
        for w in text.split():
            counts[w] = counts.get(w, 0) + 1
    tokens = sum(counts.values())
    return {"tokens": tokens, "types": len(counts), "type_token_ratio": len(counts) / tokens,
            "top_word_share": max(counts.values()) / tokens}


def csv_bytes(rows: list[tuple[str, int]]) -> bytes:
    """Rows hold letters and spaces only, so no field needs quoting."""
    body = "".join(f"{text},{rating}\n" for text, rating in rows)
    return ("text,rating\n" + body).encode("utf-8")


def write_csv(spec: CorpusSpec, seed: int, path) -> None:
    with open(path, "wb") as fh:
        fh.write(csv_bytes(sentences(spec, seed)))
