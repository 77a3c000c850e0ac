"""Embedding channels for the CNN input: random, skip-gram, co-occurrence
factorization, and subword n-gram variants."""

import numpy as np

from wordcam.embed.channels import (
    STACKS,
    ChannelConfig,
    EmbeddingChannel,
    InputMode,
    Source,
    assemble,
    check_dim,
    init_random,
    load_channel,
    save_channel,
)
from wordcam.embed.cooccur import CoocFit, build_cooc, fit_cooc, train_cooc_factor
from wordcam.embed.skipgram import SGNSFit, fit_skipgram, train_skipgram
from wordcam.embed.subword import fit_subword, ngram_bucket, train_subword, word_ngrams
from wordcam.errors import ConfigError


def check_sources(k: int, epochs: int) -> None:
    """Reject a dimension or an epoch count ``train_sources`` cannot use."""
    check_dim(k)
    if epochs < 0:
        raise ConfigError(f"embedding epochs must be >= 0, got {epochs}")


def train_sources(
    sentences, id_to_token, modes, *, k: int, epochs: int, seed: int
) -> dict[str, np.ndarray]:
    """Train each (V, k) float32 source table that the stacks of ``modes``
    name, once, and return them as the keyword arguments of ``assemble``.
    Each source has its own seed: random init ``seed``, skip-gram
    ``seed + 1``, co-occurrence ``seed + 2`` and subword ``seed + 3``.
    Skip-gram and subword train ``epochs`` epochs and co-occurrence
    ``5 * epochs``, so ``epochs=0`` leaves every table at its initial
    values."""
    check_sources(k, epochs)
    vocab_size = len(id_to_token)
    needed = {source for mode in modes for source, _ in STACKS[mode]}
    sources = {}
    if Source.RAND in needed:
        sources["rand"] = init_random(vocab_size, k, seed=seed)
    if Source.SKIPGRAM in needed:
        sources["skipgram"] = train_skipgram(
            sentences, vocab_size, k=k, epochs=epochs, seed=seed + 1
        )
    if Source.COOC in needed:
        sources["cooc"] = train_cooc_factor(
            sentences, vocab_size, k=k, epochs=5 * epochs, seed=seed + 2
        )
    if Source.SUBWORD in needed:
        sources["subword"] = train_subword(
            sentences, id_to_token, k=k, epochs=epochs, seed=seed + 3
        )
    return sources


__all__ = [
    "STACKS",
    "ChannelConfig",
    "EmbeddingChannel",
    "InputMode",
    "Source",
    "assemble",
    "init_random",
    "load_channel",
    "save_channel",
    "CoocFit",
    "build_cooc",
    "fit_cooc",
    "train_cooc_factor",
    "SGNSFit",
    "fit_skipgram",
    "train_skipgram",
    "fit_subword",
    "ngram_bucket",
    "train_subword",
    "word_ngrams",
    "check_sources",
    "train_sources",
]
