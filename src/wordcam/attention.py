"""Per-word class scores derived from the trained CNN.

For each filter height, the cached feature map is combined with the FC
weight slice of the target class into a score vector over feature-map
positions; averaging the h entries whose convolution windows contain a word
redistributes those scores onto the d word positions, and summing across
filter heights gives the final per-word raw score.

Because the pooled feature vector is the positional mean of each feature
map, the position-mean of the score vectors summed over heights equals the
class logit minus its bias exactly; ``consistency_gap`` measures that
identity and the tests enforce it.

All score arithmetic runs in float64 regardless of the model storage dtype.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from wordcam.errors import ConfigError, DataError
from wordcam.model import ForwardTrace, ModelParams, gather


def score_vector(fmap: np.ndarray, class_weights: np.ndarray) -> np.ndarray:
    """Combine one feature map (I, n_filters) with one class's FC weight
    slice for that filter height, yielding a score per feature-map position."""
    fmap = np.asarray(fmap, dtype=np.float64)
    class_weights = np.asarray(class_weights, dtype=np.float64)
    if fmap.ndim != 2 or class_weights.shape != (fmap.shape[1],):
        raise ValueError(
            f"shape mismatch: fmap {fmap.shape}, weights {class_weights.shape}"
        )
    return fmap @ class_weights


def word_scores(v: np.ndarray, h: int, d: int) -> np.ndarray:
    """Redistribute a length d+h-1 score vector onto the d word positions.

    s[p] is the mean of v over the h convolution windows whose receptive
    field contains word p, as listed by the model's ``gather``.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (d + h - 1,):
        raise ValueError(f"score vector must have length d+h-1={d + h - 1}, got {v.shape}")
    return gather(v.reshape(1, -1, 1), h)[0, :, :, 0].mean(axis=1)


def word_attention(
    trace: ForwardTrace, params: ModelParams, class_index: int, item: int = 0
) -> np.ndarray:
    """Raw per-word scores for one class: word_scores summed over heights.

    Requires an infer-mode trace; a dropout mask would break the relation
    between feature maps and the logits being explained.
    """
    hyper = params.hyper
    if trace.mode != "infer":
        raise ConfigError("attention needs an infer-mode trace (no dropout)")
    if not 0 <= class_index < hyper.n_classes:
        raise ConfigError(f"class index {class_index} out of range")
    raw = np.zeros(hyper.d)
    for h in hyper.heights:
        w_slice = params.fc_w[class_index, hyper.feature_slice(h)]
        v = score_vector(trace.fmaps[h][item], w_slice)
        raw += word_scores(v, h, hyper.d)
    return raw


def consistency_gap(
    trace: ForwardTrace, params: ModelParams, class_index: int, item: int = 0
) -> float:
    """|sum over heights of mean(score vector) - (logit - fc bias)|.

    Algebraically zero for any parameters: average pooling makes each score
    vector's positional mean equal that height's contribution to the logit.
    """
    hyper = params.hyper
    total = 0.0
    for h in hyper.heights:
        w_slice = params.fc_w[class_index, hyper.feature_slice(h)]
        v = score_vector(trace.fmaps[h][item], w_slice)
        total += float(v.mean())
    gap = total - (
        float(trace.logits[item, class_index]) - float(params.fc_b[class_index])
    )
    return abs(gap)


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
    fraction: float = 0.10,
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
    fraction: float

    @property
    def n_words(self) -> int:
        return len(self.tokens)

    def to_json_dict(self) -> dict:
        words = []
        for p in range(self.raw.size):
            pad = p >= self.n_words
            words.append(
                {
                    "token": None if pad else self.tokens[p],
                    "pos": p,
                    "raw": float(self.raw[p]),
                    "norm": float(self.normalized[p]),
                    "selected": p in self.selected,
                }
            )
        return {"class": self.class_index, "words": words}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def attend(
    trace: ForwardTrace,
    params: ModelParams,
    tokens,
    class_index: int | None = None,
    fraction: float = 0.10,
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
    raw = word_attention(trace, params, class_index, item=item)
    normalized = normalize_scores(raw, n_words)
    selected = select_top(raw, n_words, fraction=fraction)
    return AttentionResult(
        class_index=class_index,
        tokens=tokens,
        raw=raw,
        normalized=normalized,
        selected=tuple(selected),
        fraction=fraction,
    )
