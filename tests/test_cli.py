import dataclasses
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from wordcam.attention import attend, class_scores
from wordcam import cli as cli_module
from wordcam.cli import RunConfig, build_parser, main, read_config_file
from wordcam.corpus import Vocabulary, load_prepared, tokenize
from wordcam.embed import (
    EmbeddingChannel,
    InputMode,
    Source,
    assemble,
    load_channel,
    save_channel,
)
from wordcam.embed import channels as channels_module
from wordcam import model as model_module
from wordcam.errors import DataError, DivergenceError
from wordcam.report import aggregate_top_words
from wordcam.train import batch_arrays
from wordcam.model import (
    ModelHyper,
    ModelParams,
    forward,
    infer,
    load_checkpoint,
    save_checkpoint,
)


def make_csv(path: Path, n_per_class=12, seed=0):
    """Tiny but learnable dataset: positive rows carry 'delight', negative
    rows carry 'dreary', both amid shared filler."""
    rng = np.random.default_rng(seed)
    filler = ["the", "movie", "was", "seen", "by", "folks", "at", "night",
              "with", "friends"]
    rows = ["text,rating"]
    for i in range(n_per_class):
        pick = lambda: " ".join(
            filler[int(j)] for j in rng.integers(0, len(filler), size=5)
        )
        rows.append(f"a {pick()} delight truly,9")
        rows.append(f"a {pick()} dreary slog,2")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def pipeline_dirs(tmp_path):
    data = make_csv(tmp_path / "reviews.csv")
    dirs = {
        "data": data,
        "corpus": tmp_path / "corpus",
        "channels": tmp_path / "channels",
        "run": tmp_path / "run",
        "reports": tmp_path / "reports",
    }
    return dirs


def _prepare(dirs, seed=3):
    return run([
        "prepare", "--data", dirs["data"], "--data-format", "csv",
        "--scheme", "imdb", "--out", dirs["corpus"], "--seed", seed, "--d", "12",
    ])


def _embed(dirs, mode="rand", seed=3):
    return run([
        "embed", "--corpus", dirs["corpus"], "--mode", mode,
        "--out", dirs["channels"], "--seed", seed, "--k", "12",
        "--embed-epochs", "2",
    ])


def _train(dirs, seed=3, extra=()):
    return run([
        "train", "--corpus", dirs["corpus"], "--channels", dirs["channels"],
        "--out", dirs["run"], "--seed", seed, "--heights", "2,3",
        "--n-filters", "4", "--epochs", "8", "--batch-size", "8",
        "--lam", "0.001", "--lr", "0.01", *extra,
    ])


def test_full_pipeline(pipeline_dirs, capsys):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    out = capsys.readouterr().out
    assert "seed: 3" in out
    assert "vocabulary:" in out
    for name in ("vocab.tsv", "train.tsv", "test.tsv", "meta.json",
                 "embed_corpus.txt"):
        assert (dirs["corpus"] / name).is_file()

    assert _embed(dirs) == 0
    assert (dirs["channels"] / "channel_0.emb").is_file()
    assert (dirs["channels"] / "channels.json").is_file()

    assert _train(dirs) == 0
    out = capsys.readouterr().out
    assert "config:" in out and "batch_size=8" in out
    for name in ("checkpoint.ckpt", "last.ckpt", "history.csv", "vocab.tsv"):
        assert (dirs["run"] / name).is_file()
    header = (dirs["run"] / "history.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,test_acc"

    ckpt = dirs["run"] / "checkpoint.ckpt"
    rc = run([
        "attend", "--checkpoint", ckpt, "--vocab", dirs["corpus"] / "vocab.tsv",
        "--sentence", "a truly delight evening", "--out", dirs["reports"],
        "--formats", "html,json,ansi",
    ])
    assert rc == 0
    for ext in ("html", "json", "ansi.txt"):
        assert (dirs["reports"] / f"attend_0000.{ext}").is_file()
    payload = json.loads((dirs["reports"] / "attend_0000.json").read_text())
    assert {w["token"] for w in payload["words"]} == {"a", "truly", "delight",
                                                      "evening"}

    rc = run([
        "topwords", "--checkpoint", ckpt, "--vocab", dirs["corpus"] / "vocab.tsv",
        "--corpus", dirs["corpus"], "--out", dirs["reports"], "--top-k", "2",
    ])
    assert rc == 0
    # the batched topwords path equals one attend call per test sentence
    params, channels, _ = load_checkpoint(ckpt)
    test = load_prepared(dirs["corpus"]).test
    ids, lengths, _ = batch_arrays(test, params.hyper.d)
    trace = forward(ids, params, channels, mode="infer", n_words=lengths)
    per_row = [attend(trace, params, ex.tokens, item=j) for j, ex in enumerate(test)]
    assert (dirs["reports"] / "topwords.csv").read_bytes() == (
        aggregate_top_words(per_row, k=2).to_csv().encode("utf-8")
    )

    rc = run([
        "evaluate", "--checkpoint", ckpt, "--vocab", dirs["corpus"] / "vocab.tsv",
        "--corpus", dirs["corpus"],
    ])
    assert rc == 0


def test_help_covers_every_config_key(capsys):
    parser = build_parser()
    blobs = []
    for action in parser._subparsers._group_actions[0].choices.values():
        blobs.append(action.format_help())
    combined = "\n".join(blobs)
    for field in dataclasses.fields(RunConfig):
        flag = "--" + field.name.replace("_", "-")
        assert flag in combined, f"{flag} missing from help"


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    for field in dataclasses.fields(RunConfig):
        assert f"`{field.name}`" in readme, f"{field.name} missing from README"
    # and the key table names no key that RunConfig lacks
    section = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    assert rows, "README's configuration key table not found"
    table_keys = set(re.findall(r"`(\w+)`", "".join(r.split("|")[2] for r in rows)))
    assert table_keys == {f.name for f in dataclasses.fields(RunConfig)}


def test_prepare_all_excluded_exits_3(tmp_path, capsys):
    path = tmp_path / "mid.csv"
    path.write_text("text,rating\nso so,5\nmeh,6\neh,5\n", encoding="utf-8")
    rc = run(["prepare", "--data", path, "--data-format", "csv",
              "--out", tmp_path / "c"])
    assert rc == 3
    assert "no labeled examples" in capsys.readouterr().err


def test_unknown_scheme_exits_2(pipeline_dirs, capsys):
    """Only the named schemes label ratings; there is no generic one."""
    rc = run(["prepare", "--data", pipeline_dirs["data"], "--data-format", "csv",
              "--scheme", "generic", "--out", pipeline_dirs["corpus"]])
    assert rc == 2
    assert "unknown rating scheme 'generic'" in capsys.readouterr().err
    assert not pipeline_dirs["corpus"].exists()


def test_unknown_mode_exits_2(pipeline_dirs):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    rc = run(["embed", "--corpus", dirs["corpus"], "--mode", "7ch",
              "--out", dirs["channels"]])
    assert rc == 2


def test_missing_dataset_exits_3(tmp_path):
    rc = run(["prepare", "--data", tmp_path / "missing", "--out", tmp_path / "c"])
    assert rc == 3


def test_config_file_and_flag_precedence(pipeline_dirs, tmp_path, capsys):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    conf = tmp_path / "run.conf"
    conf.write_text("epochs=1\nbatch_size=4\n# comment\nlam=0.5\n",
                    encoding="utf-8")
    capsys.readouterr()
    rc = run([
        "train", "--config", conf, "--corpus", dirs["corpus"],
        "--channels", dirs["channels"], "--out", dirs["run"],
        "--heights", "2", "--n-filters", "2", "--epochs", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "epochs=2" in out  # flag wins over the file
    assert "batch_size=4" in out and "lambda=0.5" in out  # file wins defaults


def test_config_file_unknown_key_exits_2(pipeline_dirs, tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    # a misspelt key, and keys that were once options and are now constants
    for line in ("optimiser=adam", "optimizer=adam", "beta2=0.99", "x_max=50",
                 "eval_every=2", "keep_case=true", "scale_lo=1", "scale_hi=10",
                 "neg_max=4", "pos_min=7", "window=3", "negatives=5",
                 "embed_lr=0.025", "ngram_min=3", "ngram_max=6", "bucket=200000",
                 "dropout_keep=0.5", "fraction=0.1"):
        conf.write_text(line + "\n", encoding="utf-8")
        rc = run(["train", "--config", conf, "--corpus", "x", "--channels", "y"])
        assert rc == 2, line
        key = line.split("=")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_read_config_file_types(tmp_path):
    conf = tmp_path / "ok.conf"
    conf.write_text("epochs=7\nlr=0.5\nmode=2ch\n", encoding="utf-8")
    got = read_config_file(str(conf))
    assert got == {"epochs": 7, "lr": 0.5, "mode": "2ch"}


def _flag_parser(name):
    """The subcommand parser that has the flag of RunConfig field ``name``."""
    for sub in build_parser()._subparsers._group_actions[0].choices.values():
        if any(a.dest == name for a in sub._actions):
            return sub
    raise AssertionError(f"no subcommand has a flag for {name}")


_SAMPLE_VALUES = {int: "7", float: "0.25", str: "2,3"}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
def test_config_file_value_parses_like_the_flag(tmp_path, name):
    """Each key has one declared type, which the config file and the flag
    both parse to."""
    hint = typing.get_type_hints(RunConfig)[name]  # X or X | None
    kind = next(t for t in _SAMPLE_VALUES if t is hint or t in typing.get_args(hint))
    text = _SAMPLE_VALUES[kind]
    conf = tmp_path / "one.conf"
    conf.write_text(f"{name}={text}\n", encoding="utf-8")
    from_file = read_config_file(str(conf))[name]
    flag = "--" + name.replace("_", "-")
    from_flag = getattr(_flag_parser(name).parse_args([flag, text]), name)
    assert from_file == from_flag
    assert type(from_file) is type(from_flag) is kind


def test_attend_bottom_fraction_from_config(pipeline_dirs, tmp_path, capsys):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "1"]) == 0
    conf = tmp_path / "attend.conf"
    argv = ["attend", "--config", conf, "--checkpoint", dirs["run"] / "checkpoint.ckpt",
            "--sentence", "a dreary slog tonight", "--out", dirs["reports"],
            "--formats", "json"]
    conf.write_text("bottom_fraction=0.2\n", encoding="utf-8")
    assert run(argv) == 0
    payload = json.loads((dirs["reports"] / "attend_0000.json").read_text())
    assert sum(w["bottom"] for w in payload["words"]) == 1  # ceil(0.2 * 4)
    capsys.readouterr()
    conf.write_text("# ratio of words\nbottom_fraction=abc\n", encoding="utf-8")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{conf}:2:" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("extra_words", [0, 6], ids=["same-size", "larger"])
def test_corpus_with_another_vocabulary_exits_3(pipeline_dirs, tmp_path, capsys,
                                               extra_words):
    """topwords and evaluate refuse a corpus that was not encoded with the
    checkpoint's vocabulary, whether or not its ids fit the model's tables."""
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "1"]) == 0
    text = dirs["data"].read_text(encoding="utf-8")
    text = text.replace("delight", "teal").replace("dreary", "blue")
    words = ["apple", "bread", "cider", "dough", "elder", "fudge"][:extra_words]
    other_csv = tmp_path / "other.csv"
    other_csv.write_text(text + "".join(f"a {w} teal,9\n" for w in words),
                         encoding="utf-8")
    other = tmp_path / "other_corpus"
    assert run(["prepare", "--data", other_csv, "--data-format", "csv",
                "--out", other, "--seed", "3", "--d", "12"]) == 0
    n_vocab = len(load_prepared(other).vocab)
    assert (n_vocab > len(load_prepared(dirs["corpus"]).vocab)) == bool(extra_words)
    ckpt = dirs["run"] / "checkpoint.ckpt"
    capsys.readouterr()
    for argv in (["topwords", "--out", dirs["reports"]], ["evaluate"]):
        assert run([*argv, "--checkpoint", ckpt, "--corpus", other]) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(other) in err and str(ckpt) in err, err
    assert not (dirs["reports"] / "topwords.csv").exists()


def test_corpus_prepared_at_another_d_exits_3(pipeline_dirs, tmp_path, capsys):
    """topwords and evaluate refuse the training data re-prepared at a d
    below the checkpoint's (which would score cut sentences) or above it,
    naming both files and both values."""
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "1"]) == 0
    ckpt = dirs["run"] / "checkpoint.ckpt"
    vocab_digest = load_prepared(dirs["corpus"]).vocab.digest()
    for d in (6, 20):
        other = tmp_path / f"corpus_d{d}"
        assert run(["prepare", "--data", dirs["data"], "--data-format", "csv",
                    "--out", other, "--seed", "3", "--d", d]) == 0
        assert load_prepared(other).vocab.digest() == vocab_digest  # only d differs
        capsys.readouterr()
        for argv in (["topwords", "--out", dirs["reports"]], ["evaluate"]):
            assert run([*argv, "--checkpoint", ckpt, "--corpus", other]) == 3, (d, argv[0])
            err = capsys.readouterr().err
            assert err == (f"data error: corpus {other} was prepared at d={d}, "
                           f"checkpoint {ckpt} at d=12\n"), err
    assert not dirs["reports"].exists()


def test_lr_zero_warning(pipeline_dirs, capsys):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    capsys.readouterr()
    warning = "warning: parameters unchanged by training (lr=0?)"
    assert _train(dirs, extra=["--lr", "0", "--epochs", "1"]) == 0
    assert warning in capsys.readouterr().out.splitlines()
    # the default learning rate (no --lr) moves the parameters
    assert run([
        "train", "--corpus", dirs["corpus"], "--channels", dirs["channels"],
        "--out", dirs["run"], "--seed", 3, "--epochs", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "lr=0.001" in out
    assert warning not in out


def test_train_names_only_the_files_it_wrote(pipeline_dirs, capsys):
    # last.ckpt is written after each epoch, so a run of no epochs has none
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    for epochs, files in ((0, "checkpoint.ckpt, history.csv, vocab.tsv"),
                          (1, "checkpoint.ckpt, last.ckpt, history.csv, vocab.tsv")):
        out = dirs["run"].with_name(f"run_{epochs}")
        capsys.readouterr()
        assert _train(dict(dirs, run=out), extra=["--epochs", str(epochs)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {files} to {out}"
        assert sorted(p.name for p in out.iterdir()) == sorted(files.split(", "))


def test_attend_fixed_class_scores_that_class(pipeline_dirs, tmp_path):
    # --label negative scores class 0 on every line, whatever the model
    # predicts: each report's raw scores are class_scores of the infer chunk
    # for class 0, and a line predicted negative gets --label auto's bytes
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "20"]) == 0  # far from the class boundary
    sentences = ["a dreary slog tonight", "a delight truly", "movie was seen"]
    lines = tmp_path / "lines.txt"
    lines.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    ckpt = dirs["run"] / "checkpoint.ckpt"
    for label in ("negative", "auto"):
        assert run(["attend", "--checkpoint", ckpt, "--input", lines, "--label", label,
                    "--formats", "json", "--out", tmp_path / label]) == 0
    params, channels, _ = load_checkpoint(ckpt)
    vocab = Vocabulary.load(dirs["corpus"] / "vocab.tsv")
    ids = [vocab.encode(tokenize(s), params.hyper.d) for s in sentences]
    [(_, trace)] = list(infer(params, channels, ids))
    raw, _ = class_scores(trace, params, np.zeros(len(ids), dtype=np.int64))
    predicted = np.argmax(trace.logits, axis=1)
    assert set(predicted) == {0, 1}  # both the equal and the differing case run
    for i, sentence in enumerate(sentences):
        fixed = (tmp_path / "negative" / f"attend_{i:04d}.json").read_bytes()
        report = json.loads(fixed)
        assert report["class"] == 0
        n_words = len(tokenize(sentence))
        assert [w["raw"] for w in report["words"]] == raw[i, :n_words].tolist()
        auto = (tmp_path / "auto" / f"attend_{i:04d}.json").read_bytes()
        assert (fixed == auto) == (predicted[i] == 0)


def test_attend_batch_preserves_order(pipeline_dirs, tmp_path):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "1"]) == 0
    sentences = ["a dreary slog tonight", "a delight truly", "movie was seen"]
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    rc = run([
        "attend", "--checkpoint", dirs["run"] / "checkpoint.ckpt",
        "--vocab", dirs["corpus"] / "vocab.tsv", "--input", batch,
        "--out", dirs["reports"], "--formats", "json",
    ])
    assert rc == 0
    for i, sentence in enumerate(sentences):
        payload = json.loads(
            (dirs["reports"] / f"attend_{i:04d}.json").read_text()
        )
        got = [w["token"] for w in payload["words"] if w["token"] is not None]
        assert got == sentence.split()


def test_attend_writes_a_repeated_format_once(pipeline_dirs, monkeypatch, capsys):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "1"]) == 0
    rendered = []
    render = cli_module.render_highlight
    monkeypatch.setattr(cli_module, "render_highlight",
                        lambda result, fmt: rendered.append(fmt) or render(result, fmt))
    capsys.readouterr()
    assert run(["attend", "--checkpoint", dirs["run"] / "checkpoint.ckpt",
                "--sentence", "a truly delight evening", "--out", dirs["reports"],
                "--formats", "html, json,html"]) == 0
    assert rendered == ["html", "json"]
    assert sorted(p.name for p in dirs["reports"].iterdir()) == [
        "attend_0000.html", "attend_0000.json"]
    assert "wrote 1 report(s) x 2 format(s)" in capsys.readouterr().out


def _batch_rows_match_singles(ckpt, vocab_path, sentences) -> bool:
    """Whether ``forward`` gives each sentence in one batch the feature maps
    and predicted class it gets alone, which is all an attend report reads.
    It does wherever the BLAS gives a convolution GEMM row the same bits
    whatever the row count and the row's position (see test_model's
    ``blas_rows_ignore_row_count``). The logits themselves may differ in the
    last bits: numpy runs a one-row FC product as gemv."""
    params, channels, _ = load_checkpoint(ckpt)
    vocab = Vocabulary.load(vocab_path)
    ids = [vocab.encode(tokenize(s), params.hyper.d) for s in sentences]
    batch = forward(ids, params, channels)
    for i, row in enumerate(ids):
        one = forward([row], params, channels)
        if np.argmax(batch.logits[i]) != np.argmax(one.logits[0]):
            return False
        if not all(
            np.array_equal(batch.fmaps[h][i], one.fmaps[h][0]) for h in params.hyper.heights
        ):
            return False
    return True


def _same_report(got: dict, want: dict, tol: float) -> bool:
    """Two attend JSON reports agree: words, classes and selections exactly,
    raw and normalized scores to ``tol``."""
    if got["class"] != want["class"] or len(got["words"]) != len(want["words"]):
        return False
    for a, b in zip(got["words"], want["words"]):
        if any(a[key] != b[key] for key in ("token", "pos", "selected")):
            return False
        if not np.allclose([a["raw"], a["norm"]], [b["raw"], b["norm"]], rtol=tol, atol=tol):
            return False
    return True


def test_attend_input_reports_match_one_sentence_per_call(pipeline_dirs, tmp_path):
    # --input runs its lines through forward in batches; every report must
    # carry the same bytes as a --sentence call for that line alone, or,
    # on a BLAS whose rows depend on their neighbours, the same JSON to 1e-5
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "2"]) == 0
    sentences = [
        "a dreary slog tonight",
        "a delight truly",
        "movie was seen by folks at night with friends and more friends after dinner",
        "zzz unknown words only",
        "delight",
        "the movie the movie the movie",
    ]
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    ckpt, vocab = dirs["run"] / "checkpoint.ckpt", dirs["corpus"] / "vocab.tsv"
    common = ["--checkpoint", ckpt, "--vocab", vocab, "--formats", "html,json,ansi"]
    assert run(["attend", *common, "--input", batch, "--out", tmp_path / "batched"]) == 0
    exact = _batch_rows_match_singles(ckpt, vocab, sentences)
    for i, sentence in enumerate(sentences):
        single = tmp_path / f"single_{i}"
        assert run(["attend", *common, "--sentence", sentence, "--out", single]) == 0
        batched = tmp_path / "batched"
        if exact:
            for ext in ("html", "json", "ansi.txt"):
                got = (batched / f"attend_{i:04d}.{ext}").read_bytes()
                assert got == (single / f"attend_0000.{ext}").read_bytes()
        else:
            got = json.loads((batched / f"attend_{i:04d}.json").read_text())
            want = json.loads((single / "attend_0000.json").read_text())
            assert _same_report(got, want, tol=1e-5)


def _stop_after_first_epoch(monkeypatch):
    """Make ``train`` fail (exit 4) once the first epoch's last.ckpt is
    written, as a diverging or interrupted run would."""
    real = cli_module.train_epochs

    def interrupted(*args, on_epoch_end, **kwargs):
        def stop(epoch, state):
            on_epoch_end(epoch, state)
            raise DivergenceError("stopped after the first epoch")

        return real(*args, on_epoch_end=stop, **kwargs)

    monkeypatch.setattr(cli_module, "train_epochs", interrupted)


@pytest.mark.parametrize("ckpt_name", ["checkpoint.ckpt", "last.ckpt"])
def test_vocab_defaults_to_the_training_run(pipeline_dirs, monkeypatch, ckpt_name):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    if ckpt_name == "last.ckpt":
        # an interrupted run leaves only last.ckpt; it must work on its own
        _stop_after_first_epoch(monkeypatch)
        assert _train(dirs) == 4
        assert not (dirs["run"] / "checkpoint.ckpt").exists()
    else:
        assert _train(dirs, extra=["--epochs", "1"]) == 0
    ckpt = dirs["run"] / ckpt_name
    commands = [
        ["attend", "--checkpoint", ckpt, "--sentence", "a truly delight evening",
         "--out", dirs["reports"]],
        ["topwords", "--checkpoint", ckpt, "--corpus", dirs["corpus"],
         "--out", dirs["reports"]],
        ["evaluate", "--checkpoint", ckpt, "--corpus", dirs["corpus"]],
    ]
    for args in commands:
        assert run(args) == 0, args[0]
    # a vocabulary beside the checkpoint that is not the one it was trained on
    (dirs["run"] / "vocab.tsv").write_text("<pad>\t0\t0\nword\t1\t3\n",
                                          encoding="utf-8")
    for args in commands:
        assert run(args) == 3, args[0]


def test_attend_wrong_vocab_detected(pipeline_dirs, tmp_path):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "1"]) == 0
    other = tmp_path / "other.tsv"
    other.write_text("<pad>\t0\t0\nword\t1\t3\n", encoding="utf-8")
    rc = run([
        "attend", "--checkpoint", dirs["run"] / "checkpoint.ckpt",
        "--vocab", other, "--sentence", "word", "--out", dirs["reports"],
    ])
    assert rc == 3


@pytest.mark.parametrize("mode, stack", [
    ("rand", [("rand", True)]),
    ("static", [("skipgram", False)]),
    ("non-static", [("skipgram", True)]),
    ("2ch", [("skipgram", False), ("skipgram", True)]),
    ("4ch", [("skipgram", True), ("cooc", True), ("subword", True), ("skipgram", True)]),
], ids=["rand", "static", "non-static", "2ch", "4ch"])
def test_embed_writes_the_mode_stack(pipeline_dirs, mode, stack):
    """One channel_<i>.emb file per channel of the mode, each with its
    source and trainable flag; channels.json names the mode and no files."""
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs, mode=mode) == 0
    meta = json.loads((dirs["channels"] / "channels.json").read_text())
    assert sorted(meta) == ["k", "mode", "seed", "vocab_sha256"]
    assert meta["mode"] == mode
    names = [f"channel_{i}.emb" for i in range(len(stack))]
    assert sorted(p.name for p in dirs["channels"].glob("*.emb")) == names
    chans = [load_channel(dirs["channels"] / name) for name in names]
    assert [(ch.source.value, ch.trainable) for ch in chans] == stack


def test_embed_four_channel_end_to_end(pipeline_dirs):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    rc = run([
        "embed", "--corpus", dirs["corpus"], "--mode", "4ch",
        "--out", dirs["channels"], "--seed", "3", "--k", "8",
        "--embed-epochs", "1",
    ])
    assert rc == 0
    assert len(list(dirs["channels"].glob("channel_*.emb"))) == 4
    assert _train(dirs, extra=["--epochs", "1"]) == 0


def test_embed_four_channel_reruns_are_byte_identical(pipeline_dirs, tmp_path):
    """Every file of the skip-gram, co-occurrence and subword channels, and
    channels.json, comes out the same on a second run."""
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert run([
            "embed", "--corpus", dirs["corpus"], "--mode", "4ch", "--out", out,
            "--seed", "3", "--k", "8", "--embed-epochs", "1",
        ]) == 0
    first, second = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs)
    assert sorted(first) == ["channel_0.emb", "channel_1.emb", "channel_2.emb",
                             "channel_3.emb", "channels.json"]
    assert first == second


@pytest.mark.parametrize("bad", ["x7", "999999", "-5"])
def test_malformed_embed_corpus_exits_3(pipeline_dirs, capsys, bad):
    """A training token that is not a vocabulary word (these once were
    ids: one not an integer, one past the vocabulary, one negative) is a
    data error at its line, whichever trainer would have read it."""
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    path = dirs["corpus"] / "embed_corpus.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = f"{lines[1]} {bad}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = run([
        "embed", "--corpus", dirs["corpus"], "--mode", "4ch",
        "--out", dirs["channels"], "--k", "8", "--embed-epochs", "1",
    ])
    assert rc == 3
    assert "embed_corpus.txt:2:" in capsys.readouterr().err


def test_last_checkpoint_loadable_after_each_epoch(pipeline_dirs):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "2"]) == 0
    params, channels, meta = load_checkpoint(dirs["run"] / "last.ckpt")
    assert meta["extra"]["epoch"] == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_4(pipeline_dirs, capsys):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    rc = _train(dirs, extra=["--lr", "1e25", "--epochs", "20"])
    assert rc == 4
    assert "divergence" in capsys.readouterr().err


def test_prepare_without_data_exits_2(pipeline_dirs, capsys):
    dirs = pipeline_dirs
    rc = run(["prepare", "--data-format", "csv", "--out", dirs["corpus"], "--d", "12"])
    assert rc == 2
    assert "--data is required" in capsys.readouterr().err
    assert not dirs["corpus"].exists()


def test_topwords_empty_test_split_exits_3(pipeline_dirs):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "1"]) == 0
    (dirs["corpus"] / "test.tsv").write_text("", encoding="utf-8")
    rc = run([
        "topwords", "--checkpoint", dirs["run"] / "checkpoint.ckpt",
        "--vocab", dirs["corpus"] / "vocab.tsv", "--corpus", dirs["corpus"],
        "--out", dirs["reports"],
    ])
    assert rc == 3


def _save_tiny(path, fmt):
    """Save a tiny checkpoint (k=4, d=5, heights (2,), 3 filters, one 9x4
    channel) or that channel alone, built from counting arrays so that its
    bytes do not depend on numpy's random streams; return its loader."""
    table = np.arange(36, dtype=np.float32).reshape(9, 4) / 8
    table[0] = 0.0
    if fmt == "emb":
        save_channel(EmbeddingChannel(table, trainable=True, source=Source.RAND), path)
        return load_channel
    params = ModelParams.zeros(ModelHyper(k=4, d=5, heights=(2,), n_filters=3))
    for _, arr in params.named_arrays():
        arr[...] = np.arange(arr.size).reshape(arr.shape) / 16
    save_checkpoint(path, params, assemble(InputMode.RAND, rand=table), vocab_hash="abc")
    return load_checkpoint


def _rewrite_header(path, change, **arrays):
    """Rewrite a channel file's or checkpoint's header through ``change``,
    keeping its arrays but those given by name: a well-formed file whose
    fields ``change`` sets."""
    magic = channels_module._MAGIC if path.suffix == ".emb" else model_module._CKPT_MAGIC
    header, kept = channels_module.read_container(path, magic, "an artifact")
    change(header)
    channels_module.write_container(path, magic, header, list({**kept, **arrays}.items()))


# header fields of the wrong JSON type, which a loader must refuse, not coerce
_MISTYPED = {
    "k-float": ("ckpt", lambda h: h["hyper"].update(k=4.0)),
    "d-bool": ("ckpt", lambda h: h["hyper"].update(d=True)),
    "filters-float": ("ckpt", lambda h: h["hyper"].update(n_filters=3.0)),
    "classes-float": ("ckpt", lambda h: h["hyper"].update(n_classes=2.0)),
    "height-float": ("ckpt", lambda h: h["hyper"].update(heights=[2.0])),
    "trainable-string": ("emb", lambda h: h.update(trainable="no")),
}


def _header_span(blob):
    """Start and end of the JSON header: after the magic line and a u32 length."""
    at = blob.index(b"\n") + 1 + 4
    return at, at + int.from_bytes(blob[at - 4 : at], "little")


_DAMAGES = ["cut-12", "cut-header", "cut-payload", "bad-header", "renamed-key",
            "hyper-mismatch", "non-finite", "missing", "directory"]


@pytest.mark.parametrize("fmt,damage", [
    (fmt, damage) for damage in _DAMAGES for fmt in ("ckpt", "emb")
] + [
    (fmt, damage) for damage, (fmt, _) in _MISTYPED.items()
] + [("emb", "old-magic")])
def test_damaged_artifact_is_a_data_error(tmp_path, fmt, damage):
    path = tmp_path / f"artifact.{fmt}"
    load = _save_tiny(path, fmt)
    blob = path.read_bytes()
    header_at, header_end = _header_span(blob)
    if damage == "bad-header":
        blob = blob[:header_at] + b"\xff" + blob[header_at + 1 :]
    elif damage in ("renamed-key", "hyper-mismatch"):  # valid JSON of the same length
        key, new = {
            ("ckpt", "renamed-key"): (b'"hyper"', b'"hypex"'),
            ("emb", "renamed-key"): (b'"manifest"', b'"manifesx"'),
            ("ckpt", "hyper-mismatch"): (b'"k": 4', b'"k": 5'),
            ("emb", "hyper-mismatch"): (b'[9, 4]', b'[9, 5]'),
        }[fmt, damage]
        assert blob.count(key, header_at, header_end) == 1
        blob = blob.replace(key, new, 1)
    elif damage == "non-finite":  # the fifth stored value: conv_w[2], or table row 1
        nan_at = header_end + 16
        blob = blob[:nan_at] + np.float32(np.nan).tobytes() + blob[nan_at + 4 :]
    elif damage == "old-magic":  # a channel file in the layout before the manifest
        old = json.dumps({"k": 4, "source": "rand", "trainable": True, "v": 9},
                         sort_keys=True).encode("utf-8")
        blob = b"WEMB1\n" + len(old).to_bytes(4, "little") + old + blob[header_end:]
    elif damage.startswith("cut-"):
        blob = blob[: {"cut-12": 12, "cut-header": header_end - 3,
                       "cut-payload": len(blob) - 3}[damage]]
    elif damage in _MISTYPED:
        _rewrite_header(path, _MISTYPED[damage][1])
        blob = path.read_bytes()
    path.unlink()
    if damage == "directory":
        path.mkdir()
    elif damage != "missing":
        path.write_bytes(blob)
    with pytest.raises(DataError):
        load(path)
    if fmt == "ckpt":
        assert run(["evaluate", "--checkpoint", path, "--corpus", tmp_path]) == 3


def _forward_on(fmt, loaded):
    """Logits of forward on ids 1, 2, 3 (cut to d) with a loaded checkpoint,
    or with a zero model around a loaded channel."""
    if fmt == "ckpt":
        params, config, _ = loaded
    else:
        params = ModelParams.zeros(ModelHyper(k=loaded.dim, d=5, heights=(2,), n_filters=3))
        config = assemble(InputMode.RAND, rand=loaded.table)
    return forward([1, 2, 3][: params.hyper.d], params, config).logits


@pytest.mark.parametrize("fmt", ["ckpt", "emb"])
def test_every_cut_and_header_bit_flip_is_caught(tmp_path, fmt):
    """Every truncation, and every single-bit flip before the payload (a flip
    inside it only changes a float), either raises DataError or loads into
    something forward runs on."""
    path = tmp_path / f"artifact.{fmt}"
    load = _save_tiny(path, fmt)
    blob = path.read_bytes()
    damaged = [(f"cut to {n} bytes", blob[:n]) for n in range(len(blob))]
    for i in range(_header_span(blob)[1]):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            damaged.append((f"bit {bit} of byte {i} flipped", bytes(flipped)))
    escaped = []
    for what, data in damaged:
        path.write_bytes(data)
        try:
            loaded = load(path)
        except DataError:
            continue
        except Exception as exc:
            escaped.append(f"{what}: load raised {exc!r}")
            continue
        try:
            assert np.all(np.isfinite(_forward_on(fmt, loaded)))
        except Exception as exc:
            escaped.append(f"{what}: loaded, then forward raised {exc!r}")
    assert not escaped


@pytest.mark.parametrize("fmt", ["ckpt", "emb"])
def test_failed_write_keeps_the_previous_artifact(tmp_path, monkeypatch, fmt):
    path = tmp_path / f"artifact.{fmt}"
    load = _save_tiny(path, fmt)
    before = path.read_bytes()

    class DiskFull:
        """A file whose write that would complete the artifact fails."""

        def __init__(self, fh):
            self.fh, self.written = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.written += memoryview(data).nbytes
            if self.written >= len(before):
                raise OSError(errno.ENOSPC, "no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(channels_module, "open",
                        lambda p, mode="r": DiskFull(open(p, mode)), raising=False)
    with pytest.raises(OSError):
        _save_tiny(path, fmt)
    monkeypatch.undo()
    assert path.read_bytes() == before
    load(path)
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_artifact_layout_is_pinned(tmp_path):
    """The bytes of both artifact kinds for fixed inputs, so that a change to
    the layout is made on purpose. The checkpoint's header stores the mode
    and no channel roles, which the mode's stack gives."""
    digests = {}
    for fmt in ("ckpt", "emb"):
        path = tmp_path / f"artifact.{fmt}"
        _save_tiny(path, fmt)
        digests[fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == {
        "ckpt": "79c5994502eeacd71d920c99b24593d7637d6c6e2d5317ee3f16d01024f93515",
        "emb": "31218846f8fe9680c6c6386f16468fbb808c1145fe193957ad102214ce69f528",
    }


# a channels.json that names no mode, and the fault its reader reports
_BAD_CHANNEL_METADATA = {
    "{not json": "JSONDecodeError",
    "{}": "KeyError('mode')",
    '{"mode": "3ch", "files": []}': "'3ch' is not a valid InputMode",
}


@pytest.mark.parametrize("meta", list(_BAD_CHANNEL_METADATA))
def test_malformed_channel_metadata_exits_3(pipeline_dirs, capsys, meta):
    """The reader refuses the file itself: none of these has a
    vocab_sha256, so the vocabulary check after it would exit 3 too."""
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    path = dirs["channels"] / "channels.json"
    path.write_text(meta, encoding="utf-8")
    capsys.readouterr()
    assert _train(dirs, extra=["--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: malformed channel metadata (" in err, err
    assert _BAD_CHANNEL_METADATA[meta] in err, err


def _flip_trainable(path):
    channel = load_channel(path)
    save_channel(EmbeddingChannel(channel.table, not channel.trainable, channel.source), path)


@pytest.mark.parametrize("edit, named, message", [
    (lambda d: (d / "channel_1.emb").unlink(), "channel_1.emb", "cannot read"),
    (lambda d: _flip_trainable(d / "channel_0.emb"), "channel_0.emb",
     "(skipgram, trainable=True), but mode 2ch channel 0 is (skipgram, trainable=False)"),
    (lambda d: (d / "channel_0.emb").write_bytes((d / "channel_1.emb").read_bytes()),
     "channel_0.emb", "but mode 2ch channel 0 is (skipgram, trainable=False)"),
], ids=["deleted", "flipped-header", "repeated-file"])
def test_channel_file_off_its_stack_exits_3(pipeline_dirs, capsys, edit, named, message):
    """Each channel_<i>.emb must hold channel i of the mode's stack: a
    missing file, a static channel re-saved as trainable, or the trainable
    channel's file in the static one's place exits 3 naming the file,
    before anything is trained."""
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs, mode="2ch") == 0
    edit(dirs["channels"])
    capsys.readouterr()
    assert _train(dirs, extra=["--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert f"{dirs['channels'] / named}: " in err and message in err, err
    assert not dirs["run"].exists()


def test_channels_of_another_vocabulary_exit_3(pipeline_dirs, capsys):
    """Channels whose channels.json records another vocabulary digest than
    the corpus's meta.json: exit 3, naming both files."""
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    path = dirs["channels"] / "channels.json"
    meta = json.loads(path.read_text(encoding="utf-8"))
    meta["vocab_sha256"] = "0" * 64
    path.write_text(json.dumps(meta), encoding="utf-8")
    capsys.readouterr()
    assert _train(dirs, extra=["--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: " in err and f"{dirs['corpus'] / 'meta.json'}" in err, err
    assert not dirs["run"].exists()


def test_channel_files_list_is_not_read(pipeline_dirs):
    """channels.json no longer lists files; an older one whose list repeats
    the trainable channel still loads the mode's stack, so the static
    channel stays frozen."""
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs, mode="2ch") == 0
    path = dirs["channels"] / "channels.json"
    meta = json.loads(path.read_text(encoding="utf-8"))
    meta["files"] = ["channel_1.emb", "channel_1.emb"]
    path.write_text(json.dumps(meta), encoding="utf-8")
    assert _train(dirs, extra=["--epochs", "1"]) == 0
    _, channels, _ = load_checkpoint(dirs["run"] / "checkpoint.ckpt")
    assert [ch.trainable for ch in channels.channels] == [False, True]
    frozen = load_channel(dirs["channels"] / "channel_0.emb")
    assert np.array_equal(channels.channels[0].table, frozen.table)


def _edit_vocab_line(field, value):
    def edit(dirs):
        path = dirs["corpus"] / "vocab.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split("\t")
        cells[field] = value
        lines[1] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return edit


def _edit_meta(change):
    def edit(dirs):
        path = dirs["corpus"] / "meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        change(meta)
        path.write_text(json.dumps(meta), encoding="utf-8")
    return edit


def _edit_corpus_line(name, lineno, edit):
    def apply(dirs):
        path = dirs["corpus"] / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return apply


def _swap_two_vocab_tokens(dirs):
    path = dirs["corpus"] / "vocab.tsv"
    lines = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    lines[1][0], lines[2][0] = lines[2][0], lines[1][0]
    path.write_text("\n".join("\t".join(c) for c in lines) + "\n", encoding="utf-8")


def _edit_checkpoint(change):
    def edit(dirs):
        (dirs["tmp"] / "in.txt").write_text("a delight\n", encoding="utf-8")
        _rewrite_header(dirs["run"] / "checkpoint.ckpt", change)
    return edit


def _mistyped_trainable_in_4ch(dirs):
    assert _embed(dirs, mode="4ch") == 0
    _rewrite_header(dirs["channels"] / "channel_1.emb", lambda h: h.update(trainable="no"))


def _three_class_checkpoint(dirs):
    """A well-formed checkpoint of a 3-class model: its header says
    n_classes 3, and its FC arrays have a third row, whose bias makes the
    third class every sentence's prediction."""
    path = dirs["run"] / "checkpoint.ckpt"
    params, _, _ = load_checkpoint(path)
    _rewrite_header(path, lambda h: h["hyper"].update(n_classes=3),
                    fc_w=np.vstack([params.fc_w, np.zeros_like(params.fc_w[:1])]),
                    fc_b=np.append(params.fc_b, np.float32(100.0)))


def _zero_width_channel(dirs):
    """A rand channel file whose table is (V, 0)."""
    assert _embed(dirs) == 0
    path = dirs["channels"] / "channel_0.emb"
    v = load_channel(path).table.shape[0]
    _rewrite_header(path, lambda h: None, table=np.zeros((v, 0), dtype="<f4"))


def _old_three_field_line(line):
    label, tokens = line.split("\t")
    return f"{label}\t{','.join('1' for _ in tokens.split())}\t{tokens}"


_EMBED = ["embed", "--corpus", "{corpus}", "--out", "{channels}", "--k", "4"]
_ATTEND = ["attend", "--checkpoint", "{run}/checkpoint.ckpt", "--input", "{tmp}/in.txt",
           "--out", "{reports}"]
_PREPARE = ["prepare", "--data", "{tmp}/latin1.csv", "--data-format", "csv",
            "--out", "{tmp}/fresh"]
_EVALUATE = ["evaluate", "--checkpoint", "{run}/checkpoint.ckpt", "--corpus", "{corpus}"]
_PREPARE_CSV = ["prepare", "--data", "{data}", "--data-format", "csv", "--out", "{tmp}/fresh"]
_EMBED_FRESH = ["embed", "--corpus", "{corpus}", "--mode", "4ch", "--k", "8",
                "--out", "{tmp}/fresh"]
_TRAIN_FRESH = ["train", "--corpus", "{corpus}", "--channels", "{channels}",
                "--out", "{tmp}/fresh"]
_ATTEND_FRESH = ["attend", "--checkpoint", "{run}/checkpoint.ckpt", "--sentence", "a film",
                 "--out", "{tmp}/fresh"]
_TOPWORDS = ["topwords", "--checkpoint", "{run}/checkpoint.ckpt", "--corpus", "{corpus}",
             "--out", "{tmp}/top"]
# the label set has two classes, and a checkpoint of another count is malformed
_THREE_CLASSES = "checkpoint.ckpt: malformed header (ConfigError('n_classes must be 2"


@pytest.mark.parametrize("edit, argv, code, names", [
    (_edit_vocab_line(1, "one"), _EMBED, 3, "vocab.tsv:2"),
    (_edit_vocab_line(2, "many"), _EMBED, 3, "vocab.tsv:2"),
    (lambda dirs: (dirs["corpus"] / "meta.json").write_text("{not json"), _EMBED, 3,
     "meta.json"),
    (_edit_meta(lambda meta: meta.pop("seed")), _EMBED, 3, "meta.json"),
    (lambda dirs: (dirs["corpus"] / "vocab.tsv").unlink(), _EMBED, 3, "vocab.tsv"),
    (lambda dirs: (dirs["corpus"] / "train.tsv").unlink(), _EMBED, 3, "train.tsv"),
    (lambda dirs: (dirs["tmp"] / "bad.cfg").write_text("mode=rand\nk=abc\n"),
     _EMBED + ["--config", "{tmp}/bad.cfg"], 2, "bad.cfg:2"),
    (lambda dirs: (dirs["tmp"] / "bad.cfg").write_bytes(b"# caf\xe9\nk=4\n"),
     _EMBED + ["--config", "{tmp}/bad.cfg"], 2, "bad.cfg"),
    (lambda dirs: (dirs["tmp"] / "in.txt").write_bytes(b"a caf\xe9 delight\n"), _ATTEND, 3,
     "in.txt"),
    (lambda dirs: (dirs["tmp"] / "latin1.csv").write_bytes(b"text,rating\ncaf\xe9 night,9\n"),
     _PREPARE, 3, "latin1.csv"),
    (_edit_corpus_line("test.tsv", 1, lambda l: "excluded\t" + l.split("\t", 1)[1]),
     _EVALUATE, 3, "test.tsv:1: label 'excluded'"),
    (_swap_two_vocab_tokens, _EMBED, 3, "vocab.tsv"),
    (lambda dirs: (dirs["corpus"] / "embed_corpus.txt").unlink(), _EMBED, 3,
     "embed_corpus.txt"),
    (_edit_corpus_line("train.tsv", 2, lambda l: l + " unseenword"), _EMBED, 3,
     "train.tsv:2:"),
    (_edit_corpus_line("train.tsv", 1, _old_three_field_line), _EMBED, 3, "train.tsv:1:"),
    (_edit_meta(lambda meta: meta.update(d=-1)), _TOPWORDS, 3,
     "meta.json: d must be >= 1"),
    (_edit_meta(lambda meta: meta.update(d=0)), _EMBED, 3, "meta.json: d must be >= 1"),
    (_edit_meta(lambda meta: meta.update(d=True)), _EVALUATE, 3,
     "meta.json: d and seed must be integers"),
    (_edit_meta(lambda meta: meta.update(seed=False)), _EMBED, 3,
     "meta.json: d and seed must be integers"),
    (_edit_checkpoint(lambda h: h["hyper"].update(k=12.0)), _ATTEND, 3,
     "checkpoint.ckpt: malformed header"),
    (_edit_checkpoint(lambda h: h["hyper"].update(k=12.0)), _EVALUATE, 3,
     "checkpoint.ckpt: malformed header"),
    (_edit_checkpoint(lambda h: h["hyper"].update(k=12.0)), _TOPWORDS, 3,
     "checkpoint.ckpt: malformed header"),
    (_edit_checkpoint(lambda h: h["hyper"].update(d=True)), _EVALUATE, 3,
     "checkpoint.ckpt: malformed header"),
    (_mistyped_trainable_in_4ch, _TRAIN_FRESH, 3,
     "channel_1.emb: trainable must be true or false, got 'no'"),
    (_three_class_checkpoint, _ATTEND_FRESH, 3, _THREE_CLASSES),
    (_three_class_checkpoint, _EVALUATE, 3, _THREE_CLASSES),
    (_three_class_checkpoint, _TOPWORDS, 3, _THREE_CLASSES),
    (_zero_width_channel, _TRAIN_FRESH, 3,
     "channel_0.emb: malformed header (ConfigError('embedding table must be (V, k) "
     "with V, k >= 1"),
], ids=["vocab-id", "vocab-count", "meta-not-json", "meta-no-seed", "no-vocab",
        "no-train", "config-value", "config-not-utf8", "attend-input-not-utf8",
        "csv-not-utf8", "test-excluded-label", "vocab-not-meta-digest", "no-embed-corpus",
        "train-unknown-token", "train-old-three-fields", "meta-d-negative", "meta-d-zero",
        "meta-d-bool", "meta-seed-bool", "ckpt-k-float-attend", "ckpt-k-float-evaluate",
        "ckpt-k-float-topwords", "ckpt-d-bool", "emb-trainable-string",
        "ckpt-three-classes-attend", "ckpt-three-classes-evaluate",
        "ckpt-three-classes-topwords", "emb-zero-width-train"])
def test_malformed_input_exits_without_traceback(
    pipeline_dirs, tmp_path, edit, argv, code, names
):
    """Each bad input file ends in its exit code and a one-line message on
    stderr that names the file, run as a separate process so that a
    traceback would show."""
    dirs = dict(pipeline_dirs, tmp=tmp_path)
    assert _prepare(dirs) == 0
    if argv in (_ATTEND, _ATTEND_FRESH, _EVALUATE, _TOPWORDS):
        assert _embed(dirs) == 0
        assert _train(dirs, extra=["--epochs", "1"]) == 0
    edit(dirs)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "wordcam.cli", *(a.format(**dirs) for a in argv)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and names in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv, message", [
    (_PREPARE_CSV + ["--d", "0"], "d must be >= 1"),
    (_PREPARE_CSV + ["--d", "-5"], "d must be >= 1"),
    (_TOPWORDS + ["--top-k", "0"], "top_k must be >= 1"),
    (_TOPWORDS + ["--top-k", "-1"], "top_k must be >= 1"),
    (_EMBED_FRESH + ["--embed-epochs", "-1"], "epochs must be >= 0"),
    (_TRAIN_FRESH + ["--lr", "nan"], "learning rate must be finite and >= 0"),
    (_TRAIN_FRESH + ["--lr", "inf"], "learning rate must be finite and >= 0"),
    (_TRAIN_FRESH + ["--lam", "nan"], "lambda must be finite and >= 0"),
    (_TRAIN_FRESH + ["--lam", "inf"], "lambda must be finite and >= 0"),
    (_ATTEND_FRESH + ["--formats", "html,pdf"], "unknown output format 'pdf'"),
], ids=["d-0", "d-negative", "top-k-0", "top-k-negative", "embed-epochs-negative",
        "lr-nan", "lr-inf", "lam-nan", "lam-inf", "attend-format-unknown"])
def test_out_of_range_d_or_top_k_exits_2(pipeline_dirs, tmp_path, argv, message):
    """A sentence length or a per-sentence word count below 1, a negative
    number of embedding epochs, or a learning rate or L2 weight that is not
    a finite number >= 0, or an unknown attend format, is a configuration
    error (exit 2, one line naming the setting), not an empty result, a
    silent no-op or a data error or divergence further on."""
    dirs = dict(pipeline_dirs, tmp=tmp_path)
    if argv[0] != "prepare":
        assert _prepare(dirs) == 0
    if argv[0] in ("train", "topwords", "attend"):
        assert _embed(dirs) == 0
        assert _train(dirs, extra=["--epochs", "1"]) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "wordcam.cli", *(a.format(**dirs) for a in argv)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and message in proc.stderr, proc.stderr
    assert not (tmp_path / "fresh").exists() and not (tmp_path / "top").exists()


@pytest.mark.parametrize("extra, message", [
    (["--sentence", "a film", "--input", "in.txt"], "pass exactly one of --sentence or --input"),
    ([], "pass exactly one of --sentence or --input"),
    (["--sentence", "a film", "--formats", "pdf"], "unknown output format 'pdf'"),
    (["--sentence", "a film", "--label", "neutral"], "--label must be auto, positive, or negative"),
    (["--sentence", "a film", "--bottom-fraction", "2"], "--bottom-fraction must be in (0, 1]"),
    (["--sentence", "a film", "--bottom-fraction", "0"], "--bottom-fraction must be in (0, 1]"),
    (["--sentence", "a film", "--formats", ","], "--formats names no format"),
    (["--sentence", "a film", "--formats", ""], "--formats names no format"),
], ids=["sentence-and-input", "no-sentence-or-input", "format-unknown", "label-unknown",
        "bottom-fraction-2", "bottom-fraction-0", "formats-none", "formats-empty"])
def test_attend_configuration_error_precedes_artifact_reads(tmp_path, capsys, extra, message):
    """A bad attend setting exits 2 before the checkpoint is read, so a
    missing checkpoint does not hide it behind exit 3."""
    argv = ["attend", "--checkpoint", tmp_path / "nothere.ckpt", "--out", tmp_path / "out"]
    assert run(argv + extra) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--lr", "-1"], "learning rate must be finite and >= 0"),
    (["train", "--heights", "0"], "heights must be distinct and >= 1"),
    (["train", "--batch-size", "0"], "batch_size must be >= 1"),
    (["train", "--epochs", "-1"], "epochs must be >= 0"),
    (["embed", "--mode", "bogus"], "unknown input mode 'bogus'"),
    (["prepare", "--d", "0"], "d must be >= 1"),
    (["prepare", "--ratio", "1.5"], "split ratio must be in (0, 1)"),
    (["embed", "--k", "0"], "embedding dimension must be >= 1"),
    (["embed", "--embed-epochs", "-1"], "embedding epochs must be >= 0"),
    (["train", "--n-filters", "0"], "k, d, and n_filters must all be >= 1"),
    (["topwords", "--top-k", "0"], "top_k must be >= 1"),
], ids=["train-lr-negative", "train-heights-0", "train-batch-size-0",
        "train-epochs-negative", "embed-mode-unknown", "prepare-d-0", "prepare-ratio-1.5",
        "embed-k-0", "embed-epochs-negative", "train-n-filters-0", "topwords-top-k-0"])
def test_configuration_error_precedes_corpus_reads(tmp_path, capsys, argv, message):
    """A bad setting exits 2 before any input is read, so a missing dataset,
    corpus, channel directory or checkpoint does not hide it behind exit 3."""
    paths = ["--out", tmp_path / "out"]
    if argv[0] == "prepare":
        paths += ["--data", tmp_path / "nothere", "--data-format", "csv"]
    else:
        paths += ["--corpus", tmp_path / "nothere"]
    if argv[0] == "train":
        paths += ["--channels", tmp_path / "nothere"]
    if argv[0] == "topwords":
        paths += ["--checkpoint", tmp_path / "nothere.ckpt"]
    assert run(argv + paths) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_topwords_top_k_0_exits_2_before_any_forward_pass(pipeline_dirs, monkeypatch, capsys):
    dirs = pipeline_dirs
    assert _prepare(dirs) == 0
    assert _embed(dirs) == 0
    assert _train(dirs, extra=["--epochs", "1"]) == 0
    calls = []

    def no_forward(*args):
        calls.append(args)
        raise AssertionError("forward pass")

    monkeypatch.setattr("wordcam.attention.infer", no_forward)
    argv = ["topwords", "--checkpoint", dirs["run"] / "checkpoint.ckpt",
            "--corpus", dirs["corpus"], "--out", dirs["reports"]]
    capsys.readouterr()
    assert run(argv + ["--top-k", "0"]) == 2
    assert "top_k must be >= 1" in capsys.readouterr().err
    assert calls == [] and not dirs["reports"].exists()
    # the patched function is the one topwords runs its sentences through
    with pytest.raises(AssertionError, match="forward pass"):
        run(argv + ["--top-k", "1"])
    assert len(calls) == 1
