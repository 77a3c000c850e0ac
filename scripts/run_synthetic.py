#!/usr/bin/env python3
"""End-to-end demo on a synthetic planted-token corpus.

Generates sentences whose label is decided by a single planted token, trains
the CNN from random embeddings, then writes attention reports showing that
the model's word scores recover the planted token. Everything runs in a few
seconds on one core.

Usage:
    python scripts/run_synthetic.py --out runs/synthetic
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wordcam.attention import attend_sentences
from wordcam.corpus import prepare
from wordcam.embed import InputMode, assemble, init_random
from wordcam.model import ModelHyper, save_checkpoint
from wordcam.report import aggregate_top_words, render_highlight
from wordcam.synthetic import planted_corpus
from wordcam.train import TrainConfig, train_epochs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/synthetic")
    parser.add_argument("--sentences", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    corpus = planted_corpus(n_sentences=args.sentences, seed=args.seed)
    d = 16
    prepared = prepare(corpus.examples, d=d, ratio=0.7, seed=args.seed)
    vocab, train_set, test_set = prepared.vocab, prepared.train, prepared.test
    print(f"corpus: {len(train_set)} train / {len(test_set)} test, "
          f"vocab {vocab.n_tokens}")

    hyper = ModelHyper(k=24, d=d, heights=(3, 4, 5), n_filters=16, n_channels=1)
    channels = assemble(
        InputMode.RAND, rand=init_random(len(vocab), 24, seed=args.seed + 1)
    )
    config = TrainConfig(epochs=args.epochs, lam=1e-3, seed=args.seed)
    result = train_epochs(train_set, test_set, channels, hyper, config)
    for rec in result.history:
        print(f"epoch {rec.epoch}: loss={rec.train_loss:.4f} "
              f"acc={rec.test_accuracy:.4f}")
    params, trained = result.best_params, result.best_channels
    print(f"best accuracy: {result.best_accuracy:.4f}")

    vocab.save(out / "vocab.tsv")
    save_checkpoint(out / "checkpoint.ckpt", params, trained, vocab.digest())

    results = list(attend_sentences(
        params, trained, [(ex.tokens, ex.token_ids) for ex in test_set]
    ))

    for i, res in enumerate(results[:8]):
        (out / f"sentence_{i}.html").write_bytes(render_highlight(res, "html"))
        sys.stdout.buffer.write(render_highlight(res, "ansi"))

    table = aggregate_top_words(results, k=5)
    (out / "topwords.txt").write_text(table.to_text(), encoding="utf-8")
    print()
    print(table.to_text())
    hit = sum(
        1 for res in results
        if {corpus.positive_token, corpus.negative_token}
        & {res.tokens[p] for p in res.selected}
    )
    print(f"planted token inside the top-10% set: {hit}/{len(results)} "
          f"({hit / len(results):.1%})")
    print(f"reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
