"""Self-tests of the benchmark: python -m pytest perfbench -q"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import corpusgen  # noqa: E402
import workloads  # noqa: E402
from wordcam import corpus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_byte_identical_per_seed(tmp_path):
    spec = workloads.WORKLOADS["embed-4ch"].spec
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    corpusgen.write_csv(spec, 7, a)
    corpusgen.write_csv(spec, 7, b)
    corpusgen.write_csv(spec, 8, c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_words_survive_tokenization_and_lengths_straddle_d():
    spec = workloads.WORKLOADS["train-2ch"].spec
    rows = corpusgen.sentences(spec, 3)
    for text, _ in rows:
        assert corpus.tokenize(text) == text.split()
    lengths = corpusgen.sentence_lengths(spec)
    assert (lengths <= spec.d).any() and (lengths > spec.d).any()
    planted = set(corpusgen.POSITIVE_TOKENS + corpusgen.NEGATIVE_TOKENS)
    for text, _ in rows:
        assert len(planted.intersection(text.split()[: spec.d])) >= 1


def test_word_law_matches_its_calibration():
    """The Brown corpus figures the law is fitted to: "the" is ~6.9% of
    tokens, and 1M tokens hold ~50.4k types."""
    cdf = corpusgen.WORD_LAW.cdf()
    p = np.diff(cdf, prepend=0.0)
    assert 0.065 <= p[0] <= 0.073
    expected_types = -np.expm1(1_000_000 * np.log1p(-p)).sum()
    assert 45_000 <= expected_types <= 55_000


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_realised_vocabulary_in_intended_range(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    rows = corpusgen.sentences(wl.spec, 11)
    assert 0.06 <= corpusgen.text_stats(rows)["top_word_share"] <= 0.078
    data = tmp_path / "data.csv"
    data.write_bytes(corpusgen.csv_bytes(rows))
    flags = dict(zip(wl.prepare_flags[::2], wl.prepare_flags[1::2]))
    prepared = corpus.prepare(
        corpus.load_delimited(data), corpus.IMDB_SCHEME,
        ratio=float(flags.get("--ratio", 0.7)), seed=int(workloads.PROGRAM_SEED),
    )
    lo, hi = wl.vocab_range
    assert lo <= prepared.stats["vocab_size"] <= hi


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_end_to_end(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracer_nests_spans_and_restores_functions():
    from tracer import Target, Tracer
    from wordcam import cli, corpus as corpus_mod

    original = corpus_mod.tokenize
    tracer = Tracer()
    tracer.install([Target("wordcam.corpus", "tokenize", "corpus.tokenize",
                           lambda a, k, r: {"tokens": len(r)})])
    assert corpus_mod.tokenize is not original
    root = tracer.begin("pass")
    corpus_mod.tokenize("a b c")
    corpus_mod.tokenize("d e")
    tracer.end(root)
    tracer.uninstall()
    assert corpus_mod.tokenize is original and cli.corpus_mod.tokenize is original
    calls = tracer.named("corpus.tokenize", parent="pass")
    assert [s.attrs["tokens"] for s in calls] == [3, 2]
    assert tracer.self_time(root) == pytest.approx(
        root.duration - sum(s.duration for s in calls))
    assert tracer.per_root("corpus.tokenize", lambda s: s.attrs["tokens"]) == 5
