import csv
import io
import json
from html.parser import HTMLParser

import numpy as np
import pytest

from wordcam.attention import AttentionResult
from wordcam.errors import ConfigError, DataError
from wordcam.report import (
    MODE_LABELS,
    TopWordsTable,
    accuracy_table,
    aggregate_top_words,
    from_attention,
    render_highlight,
    sentence_top_tokens,
)
from wordcam.train import EvalReport


def _result(tokens, raw, class_index=1, d=None, selected=None, bottom=()):
    d = d or len(tokens)
    raw = np.asarray(raw, dtype=float)
    full = np.zeros(d)
    full[: raw.size] = raw
    if selected is None:
        selected = (int(np.argmax(raw)),)
    norm = np.zeros(d)
    shifted = raw - raw.min()
    norm[: raw.size] = shifted / shifted.sum() if shifted.sum() else 1 / raw.size
    return AttentionResult(
        class_index=class_index,
        tokens=tuple(tokens),
        raw=full,
        normalized=norm,
        selected=tuple(selected),
        bottom=tuple(bottom),
    )


def _doc(tokens=("an", "excellent", "film"), class_index=1, top=(1,), bottom=()):
    """A rendered sentence whose raw scores are its positions."""
    raw = [float(i) for i in range(len(tokens))]
    return _result(tokens, raw, class_index=class_index, selected=top, bottom=bottom)


class TagBalanceChecker(HTMLParser):
    VOID = {"meta", "br", "img", "hr", "link", "input"}

    def __init__(self):
        super().__init__()
        self.stack = []
        self.balanced = True

    def handle_starttag(self, tag, attrs):
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if not self.stack or self.stack.pop() != tag:
            self.balanced = False


def test_render_deterministic_bytes():
    doc = _doc()
    for fmt in ("html", "ansi", "json"):
        assert render_highlight(doc, fmt) == render_highlight(doc, fmt)


def test_render_html_span_counts():
    none = render_highlight(_doc(top=()), "html").decode("utf-8")
    assert "<span" not in none
    one = render_highlight(_doc(top=(1,)), "html").decode("utf-8")
    assert one.count("<span") == 1
    mixed = render_highlight(_doc(top=(1,), bottom=(2,)), "html").decode("utf-8")
    assert mixed.count("<span") == 2


def test_render_html_well_formed_and_utf8_clean():
    doc = _doc(tokens=("최고의", "영화", "<script>", "b&w"), class_index=0, top=(0,))
    payload = render_highlight(doc, "html")
    text = payload.decode("utf-8")  # must be valid UTF-8
    checker = TagBalanceChecker()
    checker.feed(text)
    assert checker.balanced and not checker.stack
    assert "최고의" in text
    assert "&lt;script&gt;" in text  # token text escaped, not interpreted


def test_render_preserves_token_bytes_in_json():
    doc = _doc(tokens=("<b>", "ok", "영화"), top=(0,))
    payload = json.loads(render_highlight(doc, "json").decode("utf-8"))
    assert [w["token"] for w in payload["words"]] == ["<b>", "ok", "영화"]
    assert payload["words"][0]["selected"] is True
    assert payload["class_name"] == "positive"
    # the schema README's "Artifact formats" documents
    assert set(payload) == {"class", "class_name", "words"}
    keys = {"token", "pos", "raw", "norm", "selected", "bottom"}
    assert all(set(w) == keys for w in payload["words"])


def test_render_ansi_reset_codes():
    out = render_highlight(_doc(top=(0,), bottom=(2,)), "ansi").decode("utf-8")
    assert out.count("\x1b[0m") == 2
    assert out.strip().endswith("[positive]")


# the exact bytes of every format, under each predicted class: the marked
# words' colors and ANSI codes swap with the class, and the table's csv
# quotes a token that holds a comma or a quote
_NEG_HTML = (
    b'<!DOCTYPE html>\n<html><head><meta charset="utf-8"><title>word attention</title>'
    b'</head>\n<body style="font-family:sans-serif;max-width:60em"><p>'
    b'<span style="background:#1f5fbf;color:#fff">a</span> &lt;b&gt; '
    b'<span style="background:#bf2b1f;color:#fff">good</span> film</p>'
    b'<p>prediction: <strong style="color:#bf2b1f">negative</strong></p></body></html>\n'
)
_POS_HTML = (
    b'<!DOCTYPE html>\n<html><head><meta charset="utf-8"><title>word attention</title>'
    b'</head>\n<body style="font-family:sans-serif;max-width:60em"><p>'
    b'<span style="background:#bf2b1f;color:#fff">a</span> &lt;b&gt; '
    b'<span style="background:#1f5fbf;color:#fff">good</span> film</p>'
    b'<p>prediction: <strong style="color:#1f5fbf">positive</strong></p></body></html>\n'
)
_WORDS_JSON = (
    b'"words": [{"bottom": true, "norm": 0.0, "pos": 0, "raw": 0.0, "selected": false, '
    b'"token": "a"}, {"bottom": false, "norm": 0.16666666666666666, "pos": 1, "raw": 1.0, '
    b'"selected": false, "token": "<b>"}, {"bottom": false, "norm": 0.3333333333333333, '
    b'"pos": 2, "raw": 2.0, "selected": true, "token": "good"}, {"bottom": false, '
    b'"norm": 0.5, "pos": 3, "raw": 3.0, "selected": false, "token": "film"}]}\n'
)


@pytest.mark.parametrize("class_index, fmt, want", [
    (0, "html", _NEG_HTML),
    (0, "ansi", b"\x1b[44;97ma\x1b[0m <b> \x1b[41;97mgood\x1b[0m film  [negative]\n"),
    (0, "json", b'{"class": 0, "class_name": "negative", ' + _WORDS_JSON),
    (1, "html", _POS_HTML),
    (1, "ansi", b"\x1b[41;97ma\x1b[0m <b> \x1b[44;97mgood\x1b[0m film  [positive]\n"),
    (1, "json", b'{"class": 1, "class_name": "positive", ' + _WORDS_JSON),
], ids=["negative-html", "negative-ansi", "negative-json",
        "positive-html", "positive-ansi", "positive-json"])
def test_render_bytes_are_pinned(class_index, fmt, want):
    doc = _doc(tokens=("a", "<b>", "good", "film"), class_index=class_index, top=(2,),
               bottom=(0,))
    assert render_highlight(doc, fmt) == want


def test_topwords_csv_bytes_are_pinned():
    table = TopWordsTable({1: [("a,b", 3), ('say "hi"', 2)], 0: [("bad", 1)]})
    assert table.to_csv() == (
        'class,rank,token,frequency\r\nnegative,1,bad,1\r\n'
        'positive,1,"a,b",3\r\npositive,2,"say ""hi""",2\r\n'
    )


def test_render_unknown_format():
    with pytest.raises(ConfigError):
        render_highlight(_doc(), "pdf")


def test_from_attention_builds_disjoint_sets():
    res = _result(["dull", "plot", "shine"], [5.0, -2.0, 1.0], selected=(0,))
    doc = from_attention(res, bottom_fraction=0.3)  # ceil(0.9) = 1 position
    assert doc.selected == (0,)
    assert doc.bottom == (1,)  # lowest score, minus any overlap with top
    wide = from_attention(res, bottom_fraction=0.9)  # ceil(2.7) = 3, minus top
    assert wide.bottom == (1, 2)
    assert not set(wide.selected) & set(wide.bottom)
    assert from_attention(wide).bottom == ()


# ---------------------------------------------------------------------------
# top-words aggregation
# ---------------------------------------------------------------------------


def test_sentence_top_tokens_short_sentence():
    res = _result(["tiny", "set", "here"], [0.1, 0.9, 0.5])
    assert sentence_top_tokens(res, 5) == ["set", "here", "tiny"]


def test_aggregate_counts_repeats():
    results = [
        _result(["great", "movie"], [2.0, 1.0]),
        _result(["great", "film"], [3.0, 0.5]),
        _result(["dire", "mess"], [1.0, 0.2], class_index=0),
    ]
    table = aggregate_top_words(results, k=1)
    assert table.by_class[1][0] == ("great", 2)
    assert table.by_class[0][0] == ("dire", 1)


def test_aggregate_order_invariance():
    rng = np.random.default_rng(0)
    results = [
        _result([f"w{i}", "x"], [float(i % 3), 0.5], class_index=i % 2)
        for i in range(12)
    ]
    a = aggregate_top_words(results, k=2)
    shuffled = [results[i] for i in rng.permutation(len(results))]
    b = aggregate_top_words(shuffled, k=2)
    assert a.by_class == b.by_class


def test_aggregate_tie_rank_lexicographic():
    results = [
        _result(["zeta", "alp"], [2.0, 1.0]),
        _result(["alp", "zeta"], [2.0, 1.0]),
    ]
    table = aggregate_top_words(results, k=2)
    assert table.by_class[1] == [("alp", 2), ("zeta", 2)]


def test_aggregate_empty_is_error():
    with pytest.raises(DataError):
        aggregate_top_words([], k=5)


def test_topwords_outputs_have_both_classes():
    results = [
        _result(["good"], [1.0], class_index=1),
        _result(["bad"], [1.0], class_index=0),
    ]
    table = aggregate_top_words(results, k=1)
    text = table.to_text()
    assert "positive" in text and "negative" in text
    assert "good" in text and "bad" in text
    rows = list(csv.DictReader(io.StringIO(table.to_csv())))
    assert {r["class"] for r in rows} == {"positive", "negative"}


# ---------------------------------------------------------------------------
# accuracy tables
# ---------------------------------------------------------------------------


def _report(acc):
    return EvalReport(
        accuracy=acc, loss=0.5, confusion=np.zeros((2, 2), dtype=np.int64),
        precision=(0.0, 0.0), recall=(0.0, 0.0), n_examples=10,
    )


def test_accuracy_table_single_mode():
    text, csv_text = accuracy_table({"rand": _report(0.5)})
    assert "0.5000" in text
    assert "rand,0.5000" in csv_text


def test_accuracy_table_canonical_order():
    reports = {
        "4ch": _report(0.4), "rand": _report(0.1), "static": _report(0.2),
        "2ch": _report(0.3), "non-static": _report(0.25),
    }
    text, csv_text = accuracy_table(reports)
    lines = text.strip().split("\n")[1:]
    labels = [l.split()[0] for l in lines]
    assert labels == [
        MODE_LABELS["rand"], MODE_LABELS["static"], MODE_LABELS["non-static"],
        MODE_LABELS["2ch"], MODE_LABELS["4ch"],
    ]


def test_accuracy_table_csv_roundtrip():
    reports = {"rand": _report(0.8435), "static": _report(0.7750)}
    _, csv_text = accuracy_table(reports)
    parsed = {r["mode"]: float(r["accuracy"])
              for r in csv.DictReader(io.StringIO(csv_text))}
    assert parsed == {"rand": 0.8435, "static": 0.7750}
