"""Human-facing outputs: highlighted sentences, frequent-attended-word
tables, and accuracy tables. All renderers are deterministic byte-for-byte.
"""

from __future__ import annotations

import csv
import html
import io
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from wordcam.attention import AttentionResult, select_top
from wordcam.corpus import CLASS_NAMES
from wordcam.embed.channels import InputMode
from wordcam.errors import ConfigError, DataError
from wordcam.train import EvalReport

# each render format and the suffix of the file that `attend` writes it to
FORMATS = {"html": "html", "json": "json", "ansi": "ansi.txt"}
# how html and ansi write a sentence: each class's mark by class index (a
# red family for negative, a blue one for positive; the exact values are
# arbitrary), the template that wraps an escaped word in a mark, the escape,
# and the template of the whole output
_MARKUP = {
    "html": (("#bf2b1f", "#1f5fbf"), '<span style="background:{};color:#fff">{}</span>',
             html.escape,
             '<!DOCTYPE html>\n<html><head><meta charset="utf-8"><title>word attention'
             '</title></head>\n<body style="font-family:sans-serif;max-width:60em">'
             '<p>{body}</p><p>prediction: <strong style="color:{main}">{label}</strong>'
             "</p></body></html>\n"),
    "ansi": (("\x1b[41;97m", "\x1b[44;97m"), "{}{}\x1b[0m", str, "{body}  [{label}]\n"),
}

MODE_LABELS = {
    "rand": "CNN-Rand",
    "static": "CNN-Static",
    "non-static": "CNN-Non-Static",
    "2ch": "CNN-2channel",
    "4ch": "CNN-4channel",
}


def from_attention(
    result: AttentionResult, bottom_fraction: float | None = None
) -> AttentionResult:
    """``result`` with its bottom set, for mixed-sentiment views: the
    ``bottom_fraction`` lowest-scored words that are not selected (none when
    ``bottom_fraction`` is None)."""
    bottom: tuple[int, ...] = ()
    if bottom_fraction is not None:
        lowest = select_top(result.raw, result.n_words, bottom_fraction, "bottom")
        top = set(result.selected)
        bottom = tuple(p for p in lowest if p not in top)
    return replace(result, bottom=bottom)


def render_highlight(result: AttentionResult, fmt: str = "html") -> bytes:
    """Render one sentence with its selected (and bottom) words marked.

    html: a standalone UTF-8 document with inline styles only;
    ansi: terminal colors; json: the scores and flags verbatim.
    """
    predicted = result.class_index
    top, bottom = set(result.selected), set(result.bottom)
    label = CLASS_NAMES[predicted]
    if fmt == "json":
        payload = {
            "class": predicted,
            "class_name": label,
            "words": [
                {
                    "token": tok,
                    "pos": p,
                    "raw": float(result.raw[p]),
                    "norm": float(result.normalized[p]),
                    "selected": p in top,
                    "bottom": p in bottom,
                }
                for p, tok in enumerate(result.tokens)
            ],
        }
        return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    if fmt not in _MARKUP:
        raise ConfigError(f"unknown render format {fmt!r} ({', '.join(FORMATS)})")

    marks, marked, escape, page = _MARKUP[fmt]
    # selected words take the predicted class's mark, bottom words the other's
    main, other = marks[predicted], marks[1 - predicted]
    words = []
    for p, tok in enumerate(result.tokens):
        mark = main if p in top else other if p in bottom else None
        words.append(escape(tok) if mark is None else marked.format(mark, escape(tok)))
    return page.format(body=" ".join(words), main=main, label=label).encode("utf-8")


# ---------------------------------------------------------------------------
# Frequent attended words
# ---------------------------------------------------------------------------


@dataclass
class TopWordsTable:
    """Per class: tokens ranked by how often they reached a sentence top-k."""

    by_class: dict[int, list[tuple[str, int]]] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, str]]:
        neg = self.by_class.get(0, [])
        pos = self.by_class.get(1, [])
        out = []
        for i in range(max(len(neg), len(pos), 1)):
            p = f"{pos[i][0]} ({pos[i][1]})" if i < len(pos) else ""
            n = f"{neg[i][0]} ({neg[i][1]})" if i < len(neg) else ""
            out.append((p, n))
        return out

    def to_text(self) -> str:
        rows = self.rows()
        width = max([len("positive")] + [len(p) for p, _ in rows]) + 2
        lines = [f"{'positive':<{width}}negative"]
        for p, n in rows:
            lines.append(f"{p:<{width}}{n}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(("class", "rank", "token", "frequency"))
        for cls in sorted(self.by_class):
            writer.writerows((CLASS_NAMES[cls], rank, tok, freq)
                             for rank, (tok, freq) in enumerate(self.by_class[cls], start=1))
        return buf.getvalue()


def sentence_top_tokens(result: AttentionResult, k: int) -> list[str]:
    """The k highest-raw-score real words of one sentence, ties to the
    earlier position; shorter sentences contribute every word."""
    n = result.n_words
    order = np.argsort(-result.raw[:n], kind="stable")
    return [result.tokens[int(i)] for i in order[: min(k, n)]]


def check_top_k(k: int) -> None:
    """Reject a per-sentence word count below 1."""
    if k < 1:
        raise ConfigError(f"top_k must be >= 1, got {k}")


def aggregate_top_words(results: Iterable[AttentionResult], k: int = 5) -> TopWordsTable:
    """Pool each sentence's top-k words by its scored (predicted) class and
    rank tokens by frequency, ties lexicographic. Stop words count like any
    other word, to mirror raw model behavior."""
    check_top_k(k)
    counters: dict[int, Counter] = {}
    n_results = 0
    for res in results:
        n_results += 1
        counters.setdefault(res.class_index, Counter()).update(sentence_top_tokens(res, k))
    if n_results == 0:
        raise DataError("no attention results to aggregate")
    table = TopWordsTable()
    for cls, counter in counters.items():
        table.by_class[cls] = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return table


# ---------------------------------------------------------------------------
# Accuracy tables
# ---------------------------------------------------------------------------


def accuracy_table(reports: Mapping[str, EvalReport]) -> tuple[str, str]:
    """Aligned-text and CSV accuracy tables, one row per input mode (keyed
    by its value), in ``InputMode`` order."""
    names = sorted(reports, key=[m.value for m in InputMode].index)
    label_w = max([len(MODE_LABELS[n]) for n in names] + [len("Mode")]) + 2
    text_lines = [f"{'Mode':<{label_w}}Accuracy"]
    csv_lines = ["mode,accuracy"]
    for name in names:
        acc = reports[name].accuracy
        text_lines.append(f"{MODE_LABELS[name]:<{label_w}}{acc:.4f}")
        csv_lines.append(f"{name},{acc:.4f}")
    return "\n".join(text_lines) + "\n", "\r\n".join(csv_lines) + "\r\n"
