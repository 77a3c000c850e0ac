"""Command-line pipeline: prepare data, train embeddings, train/evaluate
the classifier, and emit attention reports.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
divergence. All randomness funnels through the single --seed value, which
every command logs; reruns with identical inputs and seed produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from wordcam import corpus as corpus_mod
from wordcam.attention import attend_sentences
from wordcam.corpus import CLASS_NAMES
from wordcam.embed import (
    STACKS,
    ChannelConfig,
    InputMode,
    assemble,
    check_sources,
    load_channel,
    save_channel,
    train_sources,
)
from wordcam.errors import ConfigError, DataError, DivergenceError, malformed, read_text
from wordcam.model import (
    BATCH_SIZE,
    ModelHyper,
    ModelParams,
    load_checkpoint,
    params_digest,
    save_checkpoint,
)
from wordcam.report import FORMATS, aggregate_top_words, check_top_k, from_attention, render_highlight
from wordcam.train import TrainConfig, evaluate, history_csv, train_epochs


@dataclass(frozen=True)
class RunConfig:
    """Every knob the pipeline exposes; flags and config files share keys."""

    # inputs and outputs
    data: str | None = None
    data_format: str = "imdb"  # imdb | csv | tsv
    scheme: str = "imdb"  # imdb | watcha
    out: str = "run"
    corpus: str | None = None
    channels: str | None = None
    checkpoint: str | None = None
    vocab: str | None = None
    mode: str = "rand"
    seed: int = 0
    # corpus
    d: int = 100
    ratio: float = 0.7
    # embeddings
    k: int = 100
    embed_epochs: int = 5
    # model
    heights: str = "3,4,5"
    n_filters: int = 128
    # training
    batch_size: int = BATCH_SIZE
    epochs: int = 5
    lr: float = 1e-3
    lam: float = 0.1
    # attention and reports
    sentence: str | None = None
    input: str | None = None
    label: str = "auto"  # auto | positive | negative
    bottom_fraction: float | None = None
    formats: str = "html,json"
    top_k: int = 5


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _declared_type(hint) -> type:
    """A field's one value type: ``X | None`` reads as ``X``."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if args else hint


# the type that both a flag and a config-file value parse to
_TYPES = {
    name: _declared_type(hint) for name, hint in typing.get_type_hints(RunConfig).items()
}


def _coerce(name: str, value: str):
    """Parse a config-file string into the field's declared type."""
    kind = _TYPES[name]
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(
            f"config key {name}: expected {kind.__name__}, got {value!r}"
        ) from exc


def read_config_file(path: str) -> dict:
    """Flat ``key=value`` lines; '#' starts a comment; unknown keys rejected."""
    out: dict = {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = read_text(p, "config file")
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = body.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _coerce(key, value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < explicit CLI flags."""
    merged = dataclasses.asdict(RunConfig())
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for name in _FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    cfg = RunConfig(**merged)
    if cfg.seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    return cfg


def _add(parser: argparse.ArgumentParser, name: str, help: str = "") -> None:
    """Add a RunConfig-backed option; default stays None so the merge can
    tell 'unset' from 'explicitly set to the default'."""
    field = _FIELDS[name]
    flag = "--" + name.replace("_", "-")
    suffix = "" if field.default is None else f" (default: {field.default})"
    parser.add_argument(flag, dest=name, type=_TYPES[name], default=None,
                        help=help + suffix)


def _parse_heights(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in spec.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse heights {spec!r}") from exc


def _scheme_from_config(cfg: RunConfig) -> corpus_mod.LabelScheme:
    if cfg.scheme in corpus_mod.SCHEMES:
        return corpus_mod.SCHEMES[cfg.scheme]
    raise ConfigError(f"unknown rating scheme {cfg.scheme!r}")


def _out_dir(cfg: RunConfig) -> Path:
    """``cfg.out``, made with its parents. A path that is a file, lies under
    one, or cannot be made is a ConfigError naming it."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {cfg.out}: {exc.strerror}") from exc
    return out


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def cmd_prepare(cfg: RunConfig) -> int:
    if not cfg.data:
        raise ConfigError("--data is required")
    corpus_mod.check_prepare(cfg.d, cfg.ratio)
    print(f"seed: {cfg.seed}")
    scheme = _scheme_from_config(cfg)
    if cfg.data_format == "imdb":
        reviews = corpus_mod.load_imdb_dir(cfg.data)
    elif cfg.data_format in ("csv", "tsv"):
        delim = "\t" if cfg.data_format == "tsv" else ","
        reviews = corpus_mod.load_delimited(cfg.data, delimiter=delim)
    else:
        raise ConfigError(f"unknown data format {cfg.data_format!r}")
    prepared = corpus_mod.prepare(
        reviews, scheme, d=cfg.d, ratio=cfg.ratio, seed=cfg.seed
    )
    corpus_mod.save_prepared(prepared, _out_dir(cfg))
    s = prepared.stats
    print(f"reviews: {s['kept']} kept, {s['excluded']} excluded, {s['empty']} empty")
    print(f"train: {s['train']} ({s['train_pos']} pos / {s['train_neg']} neg)")
    print(f"test:  {s['test']} ({s['test_pos']} pos / {s['test_neg']} neg)")
    print(f"vocabulary: {s['vocab_size']} tokens")
    print(f"wrote corpus artifacts to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def cmd_embed(cfg: RunConfig) -> int:
    if not cfg.corpus:
        raise ConfigError("--corpus is required (output directory of prepare)")
    mode = InputMode.parse(cfg.mode)
    check_sources(cfg.k, cfg.embed_epochs)
    print(f"seed: {cfg.seed}")
    prepared = corpus_mod.load_prepared(cfg.corpus)
    sources = train_sources(
        prepared.train_sentences, prepared.vocab.id_to_token, [mode], k=cfg.k,
        epochs=cfg.embed_epochs, seed=cfg.seed,
    )
    config = assemble(mode, **sources)
    out = _out_dir(cfg)
    for i, ch in enumerate(config.channels):
        save_channel(ch, out / f"channel_{i}.emb")
        print(f"channel {i}: source={ch.source.value} trainable={ch.trainable} "
              f"shape={ch.table.shape}")
    meta = {
        "mode": config.mode.value,
        "k": config.dim,
        "vocab_sha256": prepared.vocab.digest(),
        "seed": cfg.seed,
    }
    (out / "channels.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(config)} channel file(s) to {cfg.out}")
    return 0


def load_channels_dir(path: str) -> tuple[ChannelConfig, dict]:
    """``channels.json`` and ``channel_<i>.emb`` for each channel i of its
    mode's stack. A missing file, one of another role, or a ``k`` in
    ``channels.json`` other than the tables' width raises DataError."""
    meta_path = Path(path) / "channels.json"
    if not meta_path.is_file():
        raise DataError(f"no channels at {path} (missing channels.json)")
    with malformed(meta_path, "channel metadata"):
        meta = json.loads(read_text(meta_path, "channel metadata"))
        mode = InputMode(meta["mode"])
    chans = []
    for i, want in enumerate(STACKS[mode]):
        file = Path(path) / f"channel_{i}.emb"
        ch = load_channel(file)
        if (ch.source, ch.trainable) != want:
            raise DataError(f"{file}: ({ch.source.value}, trainable={ch.trainable}), but mode "
                            f"{mode.value} channel {i} is ({want[0].value}, trainable={want[1]})")
        chans.append(ch)
    config = ChannelConfig(mode, tuple(chans))
    k = meta.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k != config.dim:
        raise DataError(f"{meta_path}: k must be the channel tables' width, {config.dim}, "
                        f"got {k!r}")
    return config, meta


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        lr=cfg.lr,
        lam=cfg.lam,
        seed=cfg.seed,
    )


def cmd_train(cfg: RunConfig) -> int:
    if not cfg.corpus:
        raise ConfigError("--corpus is required")
    if not cfg.channels:
        raise ConfigError("--channels is required (output directory of embed)")
    heights = _parse_heights(cfg.heights)
    # the command line's part of the model, checked before any input is
    # read; the channels and the corpus then give k, d and the channel count
    hyper = ModelHyper(k=1, d=1, heights=heights, n_filters=cfg.n_filters)
    tconfig = _train_config(cfg)
    print(f"seed: {cfg.seed}")
    prepared = corpus_mod.load_prepared(cfg.corpus)
    channels, channels_meta = load_channels_dir(cfg.channels)
    if channels_meta.get("vocab_sha256") != prepared.vocab.digest():
        raise DataError(f"{Path(cfg.channels) / 'channels.json'}: channels were trained against "
                        f"another vocabulary than {Path(cfg.corpus) / 'meta.json'} records")
    hyper = dataclasses.replace(
        hyper, k=channels.dim, d=prepared.d, n_channels=len(channels.channels)
    )
    echo = {
        "mode": channels.mode.value,
        "heights": "/".join(str(h) for h in heights),
        "n_filters": cfg.n_filters,
        "batch_size": tconfig.batch_size,
        "epochs": tconfig.epochs,
        "lr": tconfig.lr,
        "lambda": tconfig.lam,
        "dropout_keep": tconfig.keep,
        "d": prepared.d,
        "k": channels.dim,
    }
    print("config: " + " ".join(f"{k}={v}" for k, v in echo.items()))

    out = _out_dir(cfg)
    # written first, so an interrupted run's last.ckpt is usable without --vocab
    prepared.vocab.save(out / "vocab.tsv")
    vocab_hash = prepared.vocab.digest()
    initial_digest = params_digest(ModelParams.init(hyper, seed=cfg.seed))

    def checkpoint_epoch(epoch: int, state) -> None:
        save_checkpoint(out / "last.ckpt", state.params, state.channels, vocab_hash,
                        extra={"epoch": epoch})

    result = train_epochs(
        prepared.train, prepared.test, channels, hyper, tconfig,
        on_epoch_end=checkpoint_epoch,
    )
    (out / "history.csv").write_text(history_csv(result.history), encoding="utf-8")
    save_checkpoint(
        out / "checkpoint.ckpt", result.best_params, result.best_channels,
        vocab_hash, extra={"best_accuracy": result.best_accuracy},
    )
    for rec in result.history:
        print(f"epoch {rec.epoch}: train_loss={rec.train_loss:.4f} "
              f"test_acc={rec.test_accuracy:.4f}")
    if params_digest(result.params) == initial_digest:
        print("warning: parameters unchanged by training (lr=0?)")
    print(f"best test accuracy: {result.best_accuracy:.4f}")
    last = ", last.ckpt" if result.history else ""  # written after each epoch
    print(f"wrote checkpoint.ckpt{last}, history.csv, vocab.tsv to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# attend
# ---------------------------------------------------------------------------


def _load_model(cfg: RunConfig):
    if not cfg.checkpoint:
        raise ConfigError("--checkpoint is required")
    params, channels, meta = load_checkpoint(cfg.checkpoint)
    vocab_path = cfg.vocab or str(Path(cfg.checkpoint).parent / "vocab.tsv")
    if not Path(vocab_path).is_file():
        raise DataError(
            f"vocabulary not found at {vocab_path}; pass --vocab explicitly"
        )
    vocab = corpus_mod.Vocabulary.load(vocab_path)
    if vocab.digest() != meta["vocab_sha256"]:
        raise DataError(f"vocabulary at {vocab_path} does not match the checkpoint")
    return params, channels, vocab


def _load_model_and_corpus(cfg: RunConfig):
    """The checkpoint's model and the prepared corpus, which must have been
    encoded with the checkpoint's vocabulary and at its d."""
    if not cfg.corpus:
        raise ConfigError("--corpus is required")
    params, channels, vocab = _load_model(cfg)
    prepared = corpus_mod.load_prepared(cfg.corpus)
    if prepared.vocab.digest() != vocab.digest():
        raise DataError(
            f"corpus {cfg.corpus} was prepared with a different vocabulary "
            f"than checkpoint {cfg.checkpoint}"
        )
    if prepared.d != params.hyper.d:
        raise DataError(f"corpus {cfg.corpus} was prepared at d={prepared.d}, "
                        f"checkpoint {cfg.checkpoint} at d={params.hyper.d}")
    return params, channels, prepared


def _class_index(label: str) -> int | None:
    if label == "auto":
        return None
    if label in CLASS_NAMES:
        return CLASS_NAMES.index(label)
    raise ConfigError(f"--label must be auto, positive, or negative, got {label!r}")


def cmd_attend(cfg: RunConfig) -> int:
    if (cfg.sentence is None) == (cfg.input is None):
        raise ConfigError("pass exactly one of --sentence or --input")
    formats = list(dict.fromkeys(f.strip() for f in cfg.formats.split(",") if f.strip()))
    if not formats:
        raise ConfigError(f"--formats names no format ({', '.join(FORMATS)})")
    for fmt in formats:
        if fmt not in FORMATS:
            raise ConfigError(f"unknown output format {fmt!r} ({', '.join(FORMATS)})")
    class_index = _class_index(cfg.label)
    if cfg.bottom_fraction is not None and not 0.0 < cfg.bottom_fraction <= 1.0:
        raise ConfigError(f"--bottom-fraction must be in (0, 1], got {cfg.bottom_fraction}")
    params, channels, vocab = _load_model(cfg)
    print(f"seed: {cfg.seed}")
    if cfg.sentence is not None:
        lines = [cfg.sentence]
    else:
        path = Path(cfg.input)
        if not path.is_file():
            raise DataError(f"input file not found: {path}")
        lines = [l for l in read_text(path, "input file").splitlines() if l.strip()]
        if not lines:
            raise DataError(f"input file has no sentences: {path}")

    out = _out_dir(cfg)
    d = params.hyper.d
    sentences = []
    for i, line in enumerate(lines):
        tokens = corpus_mod.tokenize(line)[:d]
        if not tokens:
            raise DataError(f"sentence {i} has no tokens after tokenization")
        sentences.append((tokens, vocab.encode(tokens, d)))
    results = attend_sentences(params, channels, sentences, class_index=class_index)
    written = []
    for i, result in enumerate(results):
        result = from_attention(result, bottom_fraction=cfg.bottom_fraction)
        stem = f"attend_{i:04d}"
        for fmt in formats:
            (out / f"{stem}.{FORMATS[fmt]}").write_bytes(render_highlight(result, fmt))
        written.append(stem)
        top = [result.tokens[p] for p in result.selected]
        print(f"{stem}: {CLASS_NAMES[result.class_index]} top={top}")
    print(f"wrote {len(written)} report(s) x {len(formats)} format(s) to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# topwords
# ---------------------------------------------------------------------------


def cmd_topwords(cfg: RunConfig) -> int:
    check_top_k(cfg.top_k)
    params, channels, prepared = _load_model_and_corpus(cfg)
    print(f"seed: {cfg.seed}")
    if not prepared.test:
        raise DataError("prepared corpus has an empty test split")
    results = attend_sentences(
        params, channels, [(ex.tokens, ex.token_ids) for ex in prepared.test]
    )
    table = aggregate_top_words(results, k=cfg.top_k)
    out = _out_dir(cfg)
    (out / "topwords.txt").write_text(table.to_text(), encoding="utf-8")
    (out / "topwords.csv").write_text(table.to_csv(), encoding="utf-8")
    print(table.to_text(), end="")
    print(f"wrote topwords.txt and topwords.csv to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate (report the accuracy of a checkpoint on the test split)
# ---------------------------------------------------------------------------


def cmd_evaluate(cfg: RunConfig) -> int:
    params, channels, prepared = _load_model_and_corpus(cfg)
    report = evaluate(params, channels, prepared.test)
    print(f"accuracy: {report.accuracy:.4f}  loss: {report.loss:.4f}")
    for cls in (1, 0):
        print(
            f"{CLASS_NAMES[cls]}: precision={report.precision[cls]:.4f} "
            f"recall={report.recall[cls]:.4f}"
        )
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordcam",
        description="Sentence sentiment CNN with per-word attention reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="tokenize, label, split, and encode a dataset")
    p.add_argument("--config", help="key=value config file")
    _add(p, "data", help="dataset path (IMDB directory or CSV/TSV file)")
    _add(p, "data_format", help="imdb, csv, or tsv")
    _add(p, "scheme", help="rating scheme: imdb or watcha")
    _add(p, "out", help="output directory for corpus artifacts")
    _add(p, "seed", help="split shuffling seed")
    _add(p, "d", help="maximum words per sentence")
    _add(p, "ratio", help="train fraction of the stratified split")

    p = sub.add_parser("embed", help="train embedding channels for a mode")
    p.add_argument("--config", help="key=value config file")
    _add(p, "corpus", help="prepared corpus directory")
    _add(p, "mode", help=", ".join(m.value for m in InputMode))
    _add(p, "out", help="output directory for channel files")
    _add(p, "seed", help="embedding training seed")
    _add(p, "k", help="embedding dimension")
    _add(p, "embed_epochs", help="embedding training epochs")

    p = sub.add_parser("train", help="train the CNN classifier")
    p.add_argument("--config", help="key=value config file")
    _add(p, "corpus", help="prepared corpus directory")
    _add(p, "channels", help="embedded channels directory")
    _add(p, "out", help="output directory for checkpoints and history")
    _add(p, "seed", help="training seed")
    _add(p, "heights", help="comma-separated filter heights")
    _add(p, "n_filters", help="filters per height")
    _add(p, "batch_size", help="mini-batch size")
    _add(p, "epochs", help="training epochs")
    _add(p, "lr", help="Adam learning rate")
    _add(p, "lam", help="L2 weight penalty")

    p = sub.add_parser("attend", help="score words of sentences with a checkpoint")
    p.add_argument("--config", help="key=value config file")
    _add(p, "checkpoint", help="model checkpoint path")
    _add(p, "vocab", help="vocabulary TSV (default: next to the checkpoint)")
    _add(p, "sentence", help="one sentence to score")
    _add(p, "input", help="file with one sentence per line")
    _add(p, "label", help="class to score: auto, positive, or negative")
    _add(p, "bottom_fraction",
         help="also mark this bottom fraction in the opposite color")
    _add(p, "formats", help="comma-separated output formats: " + ",".join(FORMATS))
    _add(p, "out", help="output directory for reports")
    _add(p, "seed", help="logged for provenance; attention is deterministic")

    p = sub.add_parser("topwords", help="frequent attended words over the test split")
    p.add_argument("--config", help="key=value config file")
    _add(p, "checkpoint", help="model checkpoint path")
    _add(p, "vocab", help="vocabulary TSV (default: next to the checkpoint)")
    _add(p, "corpus", help="prepared corpus directory")
    _add(p, "top_k", help="words taken from each sentence")
    _add(p, "out", help="output directory for the tables")
    _add(p, "seed", help="logged for provenance")

    p = sub.add_parser("evaluate", help="accuracy of a checkpoint on the test split")
    p.add_argument("--config", help="key=value config file")
    _add(p, "checkpoint", help="model checkpoint path")
    _add(p, "vocab", help="vocabulary TSV (default: next to the checkpoint)")
    _add(p, "corpus", help="prepared corpus directory")

    return parser


_COMMANDS = {
    "prepare": cmd_prepare,
    "embed": cmd_embed,
    "train": cmd_train,
    "attend": cmd_attend,
    "topwords": cmd_topwords,
    "evaluate": cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
