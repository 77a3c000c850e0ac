"""Per-word class scores derived from the trained CNN: a class activation
map (Zhou et al. 2016), computed by ``class_scores`` for a batch of trace
rows, each for the one class it explains. For each filter height, the cached
feature map times that class's FC weight slice is a score vector over
feature-map positions; averaging the h entries whose convolution windows
contain a word redistributes those scores onto the d word positions, and
summing across filter heights gives the raw per-word score.

Because the pooled feature vector is the positional mean of each feature
map, the position-mean of the score vectors summed over heights equals the
class logit minus its bias exactly; ``class_scores`` returns the gap in that
identity and the tests enforce it.

All score arithmetic runs in float64 regardless of the model storage dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from wordcam.embed.channels import ChannelConfig
from wordcam.errors import ConfigError, DataError
from wordcam.model import ForwardTrace, ModelParams, gather, infer

FRACTION = 0.10  # share of a sentence's words selected as its top words


def class_scores(
    trace: ForwardTrace, params: ModelParams, classes, rows=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Raw word scores (b, d) of the trace rows ``rows``, row i scored for
    class ``classes[i]``, and the (b,) score/logit consistency gap |sum over
    heights of mean(score vector) - (logit - fc bias)|. A row's entries have
    the same bits whichever other rows are scored with it.

    Requires an infer-mode trace; a dropout mask would break the relation
    between feature maps and the logits being explained.
    """
    if trace.mode != "infer":
        raise ConfigError("attention needs an infer-mode trace (no dropout)")
    logits = trace.logits[rows].astype(np.float64)
    classes = np.asarray(classes)
    if classes.shape != (len(logits),):
        raise ConfigError(f"got {classes.size} classes for {len(logits)} trace rows")
    if np.any((classes < 0) | (classes >= params.hyper.n_classes)):
        raise ConfigError(f"class index out of range in {classes.tolist()}")
    hyper = params.hyper
    raw = 0.0
    means = []
    for h in hyper.heights:
        fmap = trace.fmaps[h][rows].astype(np.float64)
        w = params.fc_w[classes, hyper.feature_slice(h)].astype(np.float64)
        # the (b, d+h-1, 1) score vectors, one matvec per row: bit-identical
        # to scoring each row alone, which an einsum over the rows is not
        v = fmap @ w[:, :, None]
        raw = raw + gather(v, h).mean(axis=2)[:, :, 0]
        means.append(v[:, :, 0].mean(axis=1))
    bias = params.fc_b[classes].astype(np.float64)
    gap = np.abs(sum(means, 0.0) - (logits[np.arange(len(logits)), classes] - bias))
    return raw, gap


def consistency_gap(
    trace: ForwardTrace, params: ModelParams, class_index: int, item: int = 0
) -> float:
    """The gap that ``class_scores`` returns for trace row ``item`` scored
    for class ``class_index``.

    Algebraically zero for any parameters: average pooling makes each score
    vector's positional mean equal that height's contribution to the logit.
    """
    _, gap = class_scores(trace, params, [class_index], slice(item, item + 1))
    return float(gap[0])


def normalize_scores(raw: np.ndarray, n_words: int) -> np.ndarray:
    """Shift raw scores by their minimum over real words and rescale to sum 1.

    Only the first n_words positions participate; trailing pad positions get
    zero. If all real-word scores are equal the result is uniform.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if n_words < 1:
        raise DataError("cannot normalize: sentence has no real words")
    if n_words > raw.size:
        raise DataError(f"n_words={n_words} exceeds score length {raw.size}")
    out = np.zeros_like(raw)
    words = raw[:n_words]
    shifted = words - words.min()
    total = shifted.sum()
    if total <= 0.0:
        out[:n_words] = 1.0 / n_words
    else:
        out[:n_words] = shifted / total
    return out


def select_top(
    raw: np.ndarray,
    n_words: int,
    fraction: float = FRACTION,
    direction: str = "top",
) -> list[int]:
    """Positions of the ceil(fraction * n_words) highest (or lowest) scores.

    Ties break toward the earlier position. Returns sorted 0-based positions
    within the real words of the sentence.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if direction not in ("top", "bottom"):
        raise ConfigError(f"direction must be 'top' or 'bottom', got {direction!r}")
    if n_words < 1:
        return []
    words = np.asarray(raw, dtype=np.float64)[:n_words]
    n_sel = math.ceil(fraction * n_words)
    keyed = -words if direction == "top" else words
    order = np.argsort(keyed, kind="stable")
    return sorted(int(i) for i in order[:n_sel])


@dataclass
class AttentionResult:
    """Raw and normalized per-word scores for one sentence and one class."""

    class_index: int
    tokens: tuple[str, ...]  # real words only; positions beyond are padding
    raw: np.ndarray  # (d,)
    normalized: np.ndarray  # (d,), zeros at pad positions
    selected: tuple[int, ...]  # positions of the top fraction
    bottom: tuple[int, ...] = ()  # lowest-scored unselected positions (from_attention)

    @property
    def n_words(self) -> int:
        return len(self.tokens)


def _readout(raw, tokens: tuple, class_index: int) -> AttentionResult:
    n_words = len(tokens)
    return AttentionResult(
        class_index=class_index,
        tokens=tokens,
        raw=raw,
        normalized=normalize_scores(raw, n_words),
        selected=tuple(select_top(raw, n_words)),
    )


def attend(
    trace: ForwardTrace,
    params: ModelParams,
    tokens,
    class_index: int | None = None,
    item: int = 0,
) -> AttentionResult:
    """Full attention readout for one sentence in an infer-mode trace.

    When class_index is None the predicted class (argmax logit, ties toward
    class 0) is scored, which is how highlight reports color their words.
    """
    tokens = tuple(tokens)
    n_words = int(trace.n_words[item])
    if len(tokens) != n_words:
        raise DataError(f"got {len(tokens)} tokens for a {n_words}-word trace entry")
    if class_index is None:
        class_index = int(np.argmax(trace.logits[item]))
    raw, _ = class_scores(trace, params, [class_index], slice(item, item + 1))
    return _readout(raw[0], tokens, class_index)


def attend_sentences(
    params: ModelParams,
    channels: ChannelConfig,
    sentences,
    class_index: int | None = None,
) -> Iterator[AttentionResult]:
    """``attend`` of each ``(tokens, token_ids)`` sentence, yielded in order
    as ``model.infer`` runs the sentences through the model, one chunk at a
    time. When class_index is None each sentence's predicted class is
    scored; each row is scored for its own class only."""
    for start, trace in infer(params, channels, [ids for _, ids in sentences]):
        chunk = sentences[start : start + trace.batch_size]
        if class_index is None:
            classes = np.argmax(trace.logits, axis=1)
        else:
            classes = np.full(len(chunk), class_index)
        raw, _ = class_scores(trace, params, classes)
        for (tokens, _), r, c in zip(chunk, raw, classes):
            yield _readout(r, tuple(tokens), int(c))
