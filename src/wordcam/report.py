"""Human-facing outputs: highlighted sentences, frequent-attended-word
tables, and accuracy tables. All renderers are deterministic byte-for-byte.
"""

from __future__ import annotations

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

# Blue family marks words supporting a positive prediction, red family a
# negative one; the exact hex values are arbitrary constants.
POSITIVE_COLOR = "#1f5fbf"
NEGATIVE_COLOR = "#bf2b1f"
_ANSI_POSITIVE = "\x1b[44;97m"
_ANSI_NEGATIVE = "\x1b[41;97m"
_ANSI_RESET = "\x1b[0m"

# each render format and the suffix of the file that `attend` writes it to
FORMATS = {"html": "html", "json": "json", "ansi": "ansi.txt"}

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


def _span_colors(predicted: int) -> tuple[str, str]:
    main = POSITIVE_COLOR if predicted == 1 else NEGATIVE_COLOR
    other = NEGATIVE_COLOR if predicted == 1 else POSITIVE_COLOR
    return main, other


def render_highlight(result: AttentionResult, fmt: str = "html") -> bytes:
    """Render one sentence with its selected (and bottom) words marked.

    html: a standalone UTF-8 document with inline styles only;
    ansi: terminal colors; json: the scores and flags verbatim.
    """
    predicted = result.class_index
    top, bottom = set(result.selected), set(result.bottom)
    if fmt == "json":
        payload = {
            "class": predicted,
            "class_name": CLASS_NAMES[predicted],
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

    main, other = _span_colors(predicted)
    if fmt == "html":
        parts = []
        for p, tok in enumerate(result.tokens):
            safe = html.escape(tok)
            if p in top:
                parts.append(
                    f'<span style="background:{main};color:#fff">{safe}</span>'
                )
            elif p in bottom:
                parts.append(
                    f'<span style="background:{other};color:#fff">{safe}</span>'
                )
            else:
                parts.append(safe)
        body = " ".join(parts)
        label = CLASS_NAMES[predicted]
        page = (
            "<!DOCTYPE html>\n"
            '<html><head><meta charset="utf-8">'
            "<title>word attention</title></head>\n"
            '<body style="font-family:sans-serif;max-width:60em">'
            f"<p>{body}</p>"
            f'<p>prediction: <strong style="color:{main}">{label}</strong></p>'
            "</body></html>\n"
        )
        return page.encode("utf-8")

    if fmt == "ansi":
        main_code = _ANSI_POSITIVE if predicted == 1 else _ANSI_NEGATIVE
        other_code = _ANSI_NEGATIVE if predicted == 1 else _ANSI_POSITIVE
        parts = []
        for p, tok in enumerate(result.tokens):
            if p in top:
                parts.append(f"{main_code}{tok}{_ANSI_RESET}")
            elif p in bottom:
                parts.append(f"{other_code}{tok}{_ANSI_RESET}")
            else:
                parts.append(tok)
        line = " ".join(parts) + f"  [{CLASS_NAMES[predicted]}]\n"
        return line.encode("utf-8")

    raise ConfigError(f"unknown render format {fmt!r} ({', '.join(FORMATS)})")


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
        buf.write("class,rank,token,frequency\r\n")
        for cls in sorted(self.by_class):
            for rank, (tok, freq) in enumerate(self.by_class[cls], start=1):
                safe = tok.replace('"', '""')
                if any(ch in tok for ch in ',"\n'):
                    safe = f'"{safe}"'
                buf.write(f"{CLASS_NAMES[cls]},{rank},{safe},{freq}\r\n")
        return buf.getvalue()


def sentence_top_tokens(result: AttentionResult, k: int) -> list[str]:
    """The k highest-raw-score real words of one sentence, ties to the
    earlier position; shorter sentences contribute every word."""
    n = result.n_words
    order = np.argsort(-result.raw[:n], kind="stable")
    return [result.tokens[int(i)] for i in order[: min(k, n)]]


def aggregate_top_words(results: Iterable[AttentionResult], k: int = 5) -> TopWordsTable:
    """Pool each sentence's top-k words by its scored (predicted) class and
    rank tokens by frequency, ties lexicographic. Stop words count like any
    other word, to mirror raw model behavior."""
    if k < 1:
        raise ConfigError(f"top_k must be >= 1, got {k}")
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
