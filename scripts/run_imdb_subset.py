#!/usr/bin/env python3
"""Desk-scale IMDB experiment: stratified 5000/1000 subset, one or more
input modes, accuracy table plus attention samples.

Expects the unpacked archive (see scripts/download_imdb.py), or any tree of
its ``{train,test}/{pos,neg}/<id>_<rating>.txt`` layout. It samples
``--per-class`` reviews of each class, then ``corpus.prepare`` splits them
5/6 : 1/6, builds the vocabulary and encodes. The full run with the default
two modes takes a few minutes on one core; tests/test_scripts.py runs it on
a fabricated 40-review tree in under a second.

Usage:
    python scripts/run_imdb_subset.py --imdb data/aclImdb --modes rand,static
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wordcam.attention import attend_sentences
from wordcam.corpus import IMDB_SCHEME, label_reviews, load_imdb_dir, prepare
from wordcam.embed import InputMode, assemble, train_sources
from wordcam.model import ModelHyper
from wordcam.report import accuracy_table, aggregate_top_words, render_highlight
from wordcam.train import TrainConfig, evaluate, train_epochs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--imdb", default="data/aclImdb")
    parser.add_argument("--out", default="runs/imdb_subset")
    parser.add_argument("--modes", default="rand,static",
                        help="comma list from " + ",".join(m.value for m in InputMode))
    parser.add_argument("--per-class", type=int, default=3000,
                        help="reviews sampled per class before the 5/6 split")
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--embed-epochs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    modes = [InputMode.parse(m) for m in args.modes.split(",") if m.strip()]

    t0 = time.time()
    print(f"loading {args.imdb} ...")
    examples, stats = label_reviews(load_imdb_dir(args.imdb), IMDB_SCHEME)
    print(f"{stats['kept']} labeled reviews ({stats['excluded']} excluded)")
    rng = np.random.default_rng(args.seed)
    pos = [e for e in examples if e.label.value == 1]
    neg = [e for e in examples if e.label.value == 0]
    subset = [pos[i] for i in rng.permutation(len(pos))[: args.per_class]]
    subset += [neg[i] for i in rng.permutation(len(neg))[: args.per_class]]
    d = 100
    prepared = prepare(subset, d=d, ratio=5 / 6, seed=args.seed)
    vocab, train_set, test_set = prepared.vocab, prepared.train, prepared.test
    sentences = prepared.train_sentences
    print(f"{len(train_set)} train / {len(test_set)} test, vocab {vocab.n_tokens}")

    print("training embedding sources ...")
    sources = train_sources(
        sentences, vocab.id_to_token, modes, k=100, epochs=args.embed_epochs,
        seed=args.seed,
    )

    config = TrainConfig(epochs=args.epochs, seed=args.seed)
    reports = {}
    best = {}
    for mode in modes:
        print(f"== {mode.value} ==")
        channels = assemble(mode, **sources)
        hyper = ModelHyper(k=100, d=d, n_channels=len(channels))
        result = train_epochs(train_set, test_set, channels, hyper, config)
        for rec in result.history:
            print(f"  epoch {rec.epoch}: loss={rec.train_loss:.4f} "
                  f"acc={rec.test_accuracy:.4f}")
        reports[mode.value] = evaluate(result.best_params, result.best_channels,
                                       test_set)
        best[mode.value] = result

    text, csv_text = accuracy_table(reports)
    print()
    print(text)
    (out / "accuracy.txt").write_text(text, encoding="utf-8")
    (out / "accuracy.csv").write_text(csv_text, encoding="utf-8")

    # attention samples and frequent attended words for the first mode
    mode = modes[0].value
    params = best[mode].best_params
    channels = best[mode].best_channels
    results = list(attend_sentences(
        params, channels, [(ex.tokens, ex.token_ids) for ex in test_set]
    ))
    for i, res in enumerate(results[:6]):
        (out / f"{mode}_sample_{i}.html").write_bytes(render_highlight(res, "html"))
    table = aggregate_top_words(results, k=5)
    (out / f"{mode}_topwords.txt").write_text(table.to_text(), encoding="utf-8")
    print(f"finished in {time.time() - t0:.0f}s; outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
