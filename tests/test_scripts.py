"""The example scripts import against the library, and run_imdb_subset runs
end to end on a fabricated ``aclImdb`` tree (the real archive is not needed),
so that a library name they use cannot be renamed or deleted unnoticed."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["run_synthetic", "run_imdb_subset"])
def test_script_imports(name):
    assert callable(_load(name).main)


def _fabricated_imdb(root: Path, per_side: int = 10) -> Path:
    """``{train,test}/{pos,neg}/<id>_<rating>.txt`` with ``per_side`` reviews
    each; a positive review carries "wonderful", a negative one "dreadful"."""
    rng = np.random.default_rng(0)
    filler = "the film was a story of people and places seen at night".split()
    i = 0
    for part in ("train", "test"):
        for side, word, ratings in (("pos", "wonderful", (7, 10)),
                                    ("neg", "dreadful", (1, 4))):
            d = root / part / side
            d.mkdir(parents=True)
            for _ in range(per_side):
                words = [filler[int(j)] for j in rng.integers(0, len(filler), size=12)]
                words[int(rng.integers(0, 12))] = word
                rating = ratings[i % 2]
                (d / f"{i}_{rating}.txt").write_text(" ".join(words) + ".",
                                                      encoding="utf-8")
                i += 1
    return root


def test_run_imdb_subset_end_to_end(tmp_path, monkeypatch):
    imdb = _fabricated_imdb(tmp_path / "aclImdb")
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [
        "run_imdb_subset.py", "--imdb", str(imdb), "--out", str(out),
        "--per-class", "12", "--epochs", "1", "--embed-epochs", "1",
        "--modes", "rand,4ch",
    ])
    assert _load("run_imdb_subset").main() == 0
    for name in ("accuracy.txt", "accuracy.csv"):
        assert (out / name).is_file()
    assert "4ch" in (out / "accuracy.csv").read_text(encoding="utf-8")
