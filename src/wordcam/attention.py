"""Per-word class scores derived from the trained CNN: a class activation
map (Zhou et al. 2016), computed by ``class_scores`` for a batch of trace
rows and every class at once. For each filter height, the cached feature map
times a class's FC weight slice is a score vector over feature-map positions;
averaging the h entries whose convolution windows contain a word
redistributes those scores onto the d word positions, and summing across
filter heights gives the raw per-word score.

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
    trace: ForwardTrace, params: ModelParams, rows=slice(None), classes=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Raw word scores (b, d, c) of the trace rows ``rows`` for the classes
    ``classes`` (every class by default), and the (b, c) score/logit
    consistency gap |sum over heights of mean(score vector) - (logit - fc
    bias)|. A class's entries have the same bits whichever other classes
    are scored with it.

    Requires an infer-mode trace; a dropout mask would break the relation
    between feature maps and the logits being explained.
    """
    if trace.mode != "infer":
        raise ConfigError("attention needs an infer-mode trace (no dropout)")
    hyper = params.hyper
    raw = 0.0
    means = []
    for h in hyper.heights:
        fmap = trace.fmaps[h][rows].astype(np.float64)
        fc_w = params.fc_w[classes, hyper.feature_slice(h)].astype(np.float64)
        # the (b, c, d+h-1) score vectors, one matvec per class: bit-identical
        # to scoring each row or class alone, which a single (..., n) @ (n, c)
        # GEMM is not
        v = np.stack([fmap @ w for w in fc_w], axis=1)
        # classes ride in gather's batch axis, so the window mean reduces a
        # contiguous axis; with classes last it is strided and slower
        s = gather(v.reshape(-1, v.shape[2], 1), h).mean(axis=2)
        raw = raw + s.reshape(v.shape[0], v.shape[1], -1).transpose(0, 2, 1)
        means.append(v.mean(axis=2))
    logits = trace.logits[rows][:, classes].astype(np.float64)
    gap = np.abs(sum(means, 0.0) - (logits - params.fc_b[classes].astype(np.float64)))
    return raw, gap


def consistency_gap(
    trace: ForwardTrace, params: ModelParams, class_index: int, item: int = 0
) -> float:
    """Entry [0, 0] of the gap that ``class_scores`` returns for trace row
    ``item`` and class ``class_index``.

    Algebraically zero for any parameters: average pooling makes each score
    vector's positional mean equal that height's contribution to the logit.
    """
    _, gap = class_scores(trace, params, slice(item, item + 1), [class_index])
    return float(gap[0, 0])


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
    if not 0 <= class_index < params.hyper.n_classes:
        raise ConfigError(f"class index {class_index} out of range")
    raw, _ = class_scores(trace, params, slice(item, item + 1), [class_index])
    return _readout(raw[0, :, 0], tokens, class_index)


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
    if class_index is not None and not 0 <= class_index < params.hyper.n_classes:
        raise ConfigError(f"class index {class_index} out of range")
    for start, trace in infer(params, channels, [ids for _, ids in sentences]):
        chunk = sentences[start : start + trace.batch_size]
        if class_index is None:
            classes = np.argmax(trace.logits, axis=1)
        else:
            classes = np.full(len(chunk), class_index)
        raw = np.empty((len(chunk), params.hyper.d))
        for c in np.unique(classes):
            rows = np.flatnonzero(classes == c)
            raw[rows] = class_scores(trace, params, rows, [c])[0][:, :, 0]
        for (tokens, _), r, c in zip(chunk, raw, classes):
            yield _readout(r, tuple(tokens), int(c))
