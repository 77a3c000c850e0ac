"""Synthetic review corpora with a planted sentiment token.

Each sentence is neutral filler plus exactly one planted token ("good" or
"bad") at a random position; the label is determined by the planted token.
Useful for end-to-end sanity checks: a sound attention mechanism must find
the planted word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wordcam.corpus import Polarity, TokenizedExample


_N_FILLER = 50
_MIN_LEN = 8
_MAX_LEN = 16
_POSITIVE_TOKEN = "good"
_NEGATIVE_TOKEN = "bad"


@dataclass(frozen=True)
class PlantedCorpus:
    examples: tuple[TokenizedExample, ...]
    positive_token: str
    negative_token: str


def planted_corpus(n_sentences: int = 2000, seed: int = 0) -> PlantedCorpus:
    rng = np.random.default_rng(seed)
    filler = [f"filler{i:02d}" for i in range(_N_FILLER)]
    examples = []
    for i in range(n_sentences):
        positive = i % 2 == 0
        planted = _POSITIVE_TOKEN if positive else _NEGATIVE_TOKEN
        length = int(rng.integers(_MIN_LEN, _MAX_LEN + 1))
        words = [filler[int(j)] for j in rng.integers(0, _N_FILLER, size=length)]
        words[int(rng.integers(0, length))] = planted
        label = Polarity.POSITIVE if positive else Polarity.NEGATIVE
        examples.append(TokenizedExample(tuple(words), label))
    return PlantedCorpus(tuple(examples), _POSITIVE_TOKEN, _NEGATIVE_TOKEN)
