"""The two benchmark workloads: set-up, timed passes, and output checks.

Set-up stages run as child processes (``stage.py``, which times the stage
net of interpreter start-up), so the peak memory of this process is that of
the timed stages alone. Timed stages run in this process through
``wordcam.cli.main``. Every stage run and every check counts one operation
in ``Ops``; checks run outside the timed interval.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpusgen
from corpusgen import CorpusSpec
from tracer import Target, Tracer

# The program's own seed is fixed: prepare's split then picks the same
# sentence positions for every workload seed, and since the generator fixes
# the lengths per position, every seed trains on the same number of tokens.
PROGRAM_SEED = "0"
# Set-up repeats until it has run SETUP_MIN_REPS times and SETUP_BUDGET_S of
# wall time is spent, at most SETUP_MAX_REPS times; setup_s is the median.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_BUDGET_S = 5.0
MIN_PASSES = 2
GAP_TOL = 1e-5  # the float32 bound of the score/logit identity
STAGE_TIMEOUT_S = 170


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


@dataclass
class Pass:
    seconds: float  # wall time of the timed stages
    items: int  # work units of the main stage
    item_seconds: float  # time of the main stage alone
    digest: str  # hash of everything the pass wrote
    traced: bool
    ok: bool
    stage: str
    latencies_ms: list[float] = field(default_factory=list)
    rates: dict[str, float] = field(default_factory=dict)  # further items/s, printed


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    smoke: bool
    ops: Ops = field(default_factory=Ops)
    tracer: Tracer | None = None
    setup_stage_s: dict[str, list[float]] = field(default_factory=dict)  # in-child times

    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        return env

    def child_cli(self, argv: list[str]) -> float | None:
        """Run one CLI stage in a child process; its in-child seconds, or None
        on failure."""
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("stage.py")), *argv],
                cwd=self.root, env=self.env(), capture_output=True, text=True,
                timeout=STAGE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.ops.record(f"setup {argv[0]}", False, "timed out")
            return None
        last = proc.stdout.strip().rsplit("\n", 1)[-1].split()
        ok = self.ops.record(
            f"setup {argv[0]}", proc.returncode == 0 and last[:1] == ["stage_seconds"],
            f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        if not ok:
            return None
        dt = float(last[1])
        self.setup_stage_s.setdefault(argv[0], []).append(dt)
        return dt

    def cli(self, argv: list[str], traced: bool) -> tuple[bool, float]:
        """Run one CLI stage in this process, stdout captured; (ok, seconds)."""
        from wordcam import cli

        t0 = time.perf_counter()
        span = self.tracer.begin(f"cli.{argv[0]}") if traced else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            detail = f"exit {rc}"
        except Exception:  # a traceback is a failed stage, not a crashed benchmark
            rc, detail = None, traceback.format_exc(limit=3)
        finally:
            if span is not None:
                self.tracer.end(span)
        dt = time.perf_counter() - t0
        return self.ops.record(f"stage {argv[0]}", rc == 0, detail), dt


def tree_digest(path: Path) -> str:
    """SHA-256 over relative paths and bytes of every file under ``path``."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        with open(f, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Workload:
    name = ""
    items = ""  # workload-specific name of items_per_s, printed beside it
    spec: CorpusSpec
    smoke_spec: CorpusSpec
    prepare_flags: tuple[str, ...] = ()
    vocab_range: tuple[int, int]  # intended realised types of the full spec

    def corpus_spec(self, ctx: Context) -> CorpusSpec:
        return self.smoke_spec if ctx.smoke else self.spec

    def setup_stages(self, data: Path, out: Path) -> list[list[str]]:
        return [[
            "prepare", "--data", str(data), "--data-format", "csv",
            "--out", str(out / "corpus"), "--seed", PROGRAM_SEED, *self.prepare_flags,
        ]]

    def after_setup(self, ctx: Context, base: Path) -> None:
        """Read what the timed passes need from the set-up artifacts."""
        self.meta = json.loads((base / "corpus" / "meta.json").read_text(encoding="utf-8"))

    def run_pass(self, ctx: Context, base: Path, i: int, traced: bool) -> Pass:
        raise NotImplementedError


class Train2ch(Workload):
    """Paper mode, then the read side of the model it trained.

    Training has a frozen and a trainable skip-gram table over a wide
    vocabulary, so model.backward (einsum over C=2 channels), the dense V x k
    Adam step and the embedding-gradient scatter dominate. Then topwords runs
    infer-mode forward at B=256 over the test split, and a closed loop with
    one client runs forward (B=1) -> attend -> render over held-out text.
    """

    name = "train-2ch"
    items = "train.examples_per_s"
    # 256 train / 1024 test sentences of up to 1500 words; ~14.7k train types.
    spec = CorpusSpec(1280, 20, 1500, 250)
    smoke_spec = CorpusSpec(60, 5, 200, 40)
    vocab_range = (13_000, 18_000)
    prepare_flags = ("--ratio", "0.2")
    loop_ops = 500
    smoke_loop_ops = 20

    def setup_stages(self, data, out):
        return super().setup_stages(data, out) + [[
            "embed", "--corpus", str(out / "corpus"), "--mode", "2ch",
            "--embed-epochs", "0", "--out", str(out / "channels"), "--seed", PROGRAM_SEED,
        ]]

    def after_setup(self, ctx, base):
        super().after_setup(ctx, base)
        n = self.smoke_loop_ops if ctx.smoke else self.loop_ops
        # held-out text: same word law, a stream no corpus sentence comes from
        held_out = dataclasses.replace(self.corpus_spec(ctx), n_sentences=n)
        self.sentences = [text for text, _ in corpusgen.sentences(held_out, ctx.seed + 1_000_003)]

    def run_pass(self, ctx, base, i, traced):
        out = ctx.work / f"pass{i}"
        ckpt = out / "checkpoint.ckpt"
        vocab_path = base / "corpus" / "vocab.tsv"
        ok, t_train = ctx.cli([
            "train", "--corpus", str(base / "corpus"), "--channels", str(base / "channels"),
            "--out", str(out), "--epochs", "1", "--seed", PROGRAM_SEED,
        ], traced)
        if ok:
            ok = self._check_training(ctx, base, out, first=i == 0)
        t_top = t_loop = 0.0
        latencies: list[float] = []
        rendered = ""
        if ok:
            ok, t_top = ctx.cli([
                "topwords", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                "--corpus", str(base / "corpus"), "--out", str(out / "topwords"),
                "--seed", PROGRAM_SEED,
            ], traced)
        if ok:
            ok, t_loop, latencies, rendered = self._closed_loop(ctx, ckpt, vocab_path)
        if ok and i == 0:
            ok = self._check_topwords_identity(ctx, base, ckpt)
        digest = hashlib.sha256((tree_digest(out) + rendered).encode()).hexdigest() if ok else ""
        shutil.rmtree(out, ignore_errors=True)
        return Pass(t_train + t_top + t_loop, self.meta["stats"]["train"], t_train, digest,
                    traced, ok, "train", latencies,
                    {"topwords.sentences_per_s": self.meta["stats"]["test"] / t_top if ok else 0.0})

    def _check_training(self, ctx, base, out, first):
        from wordcam.embed import load_channel
        from wordcam.model import load_checkpoint

        lines = (out / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
        losses = [float(line.split(",")[1]) for line in lines]
        ok = ctx.ops.record("train loss finite", bool(losses) and all(map(math.isfinite, losses)),
                            f"losses {losses}")
        if not first:  # later passes are held to pass 0 by the rerun digest
            return ok
        _, channels, _ = load_checkpoint(out / "checkpoint.ckpt")
        frozen = [c for c, ch in enumerate(channels.channels) if not ch.trainable]
        same = bool(frozen) and all(
            channels.channels[c].table.tobytes()
            == load_channel(base / "channels" / f"channel_{c}.emb").table.tobytes()
            for c in frozen
        )
        return ctx.ops.record("frozen channel bit-identical", same, f"frozen {frozen}") and ok

    def _closed_loop(self, ctx, ckpt, vocab_path):
        """One client: each held-out sentence is sent after the previous one
        is rendered. Returns (ok, seconds net of checks, latencies in ms, hex
        digest of everything rendered)."""
        from wordcam import attention, corpus, model, report

        t0 = time.perf_counter()
        # Called through the module objects, so a traced pass sees the wrappers.
        params, channels, _ = model.load_checkpoint(ckpt)
        vocab = corpus.Vocabulary.load(vocab_path)
        d = params.hyper.d
        rendered = hashlib.sha256()
        latencies = []
        check_s = 0.0
        ok = True
        for line in self.sentences:
            s0 = time.perf_counter()
            tokens = corpus.tokenize(line)[:d]
            trace = model.forward(
                vocab.encode(tokens, d), params, channels, mode="infer",
                n_words=np.asarray([len(tokens)], dtype=np.int64),
            )
            result = attention.attend(trace, params, tokens)
            doc = report.from_attention(result)
            html = report.render_highlight(doc, "html")
            js = report.render_highlight(doc, "json")
            s1 = time.perf_counter()
            latencies.append((s1 - s0) * 1e3)
            gap = attention.consistency_gap(trace, params, result.class_index)
            ok &= ctx.ops.record("attend score/logit identity", gap <= GAP_TOL, f"gap {gap:.3g}")
            rendered.update(html)
            rendered.update(js)
            check_s += time.perf_counter() - s1
        return ok, time.perf_counter() - t0 - check_s, latencies, rendered.hexdigest()

    def _check_topwords_identity(self, ctx, base, ckpt):
        """Every test sentence topwords attended meets the identity."""
        from wordcam import attention, corpus, model
        from wordcam.train import batch_arrays

        params, channels, _ = model.load_checkpoint(ckpt)
        test = corpus.load_prepared(base / "corpus").test
        ok = True
        for start in range(0, len(test), 256):
            ids, lengths, _ = batch_arrays(test[start : start + 256], params.hyper.d)
            trace = model.forward(ids, params, channels, mode="infer", n_words=lengths)
            for j in range(len(ids)):
                cls = int(np.argmax(trace.logits[j]))
                gap = attention.consistency_gap(trace, params, cls, item=j)
                ok &= ctx.ops.record("topwords score/logit identity", gap <= GAP_TOL,
                                     f"gap {gap:.3g}")
        return ok


class Embed4ch(Workload):
    """Skip-gram, co-occurrence factorisation and hashed subword training:
    pair building, update arithmetic and np.add.at scatters, no CNN code."""

    name = "embed-4ch"
    items = "embed.tokens_per_s"
    # 70 train / 930 test sentences; 9,712 training tokens, ~3.5k types. The
    # test split is unused by embed; it gives prepare, the set-up, ~0.13 s of
    # real work, where 100 sentences gave ~0.03 s, mostly cold-start cost.
    spec = CorpusSpec(1000, 10, 600, 100)
    smoke_spec = CorpusSpec(200, 5, 120, 15)
    vocab_range = (2_800, 4_200)
    prepare_flags = ("--ratio", "0.07")
    epochs = 1

    def after_setup(self, ctx, base):
        super().after_setup(ctx, base)
        text = (base / "corpus" / "embed_corpus.txt").read_text(encoding="utf-8")
        self.train_tokens = len(text.split())

    def run_pass(self, ctx, base, i, traced):
        out = ctx.work / f"pass{i}"
        ok, dt = ctx.cli([
            "embed", "--corpus", str(base / "corpus"), "--mode", "4ch",
            "--embed-epochs", str(self.epochs), "--out", str(out), "--seed", PROGRAM_SEED,
        ], traced)
        if ok and i == 0:
            from wordcam.embed import load_channel

            files = sorted(out.glob("channel_*.emb"))
            finite = len(files) == 4 and all(
                np.isfinite(load_channel(f).table).all() for f in files
            )
            ok = ctx.ops.record("four finite channels", finite, f"{len(files)} files")
        digest = tree_digest(out) if ok else ""
        shutil.rmtree(out, ignore_errors=True)
        return Pass(dt, self.train_tokens * self.epochs, dt, digest, traced, ok, "embed")


WORKLOADS = {w.name: w for w in (Train2ch(), Embed4ch())}


def run(wl: Workload, ctx: Context) -> tuple[list[float], list[Pass]]:
    """Set up repeatedly (see SETUP_BUDGET_S), then time passes until
    ``ctx.seconds`` is spent.

    Returns the set-up durations and the passes. In a traced run, odd passes
    are traced and even passes are not, so the overhead is measured in-run.
    """
    data = ctx.work / "data.csv"
    corpusgen.write_csv(wl.corpus_spec(ctx), ctx.seed, data)
    setup_s: list[float] = []
    digests: list[str] = []
    spent = 0.0
    while len(setup_s) < SETUP_MIN_REPS or (
        spent < SETUP_BUDGET_S and len(setup_s) < SETUP_MAX_REPS
    ):
        rep = len(setup_s)
        out = ctx.work / f"setup{rep}"
        t0 = time.perf_counter()
        times = [ctx.child_cli(argv) for argv in wl.setup_stages(data, out)]
        spent += time.perf_counter() - t0
        if any(t is None for t in times):
            return setup_s, []
        setup_s.append(sum(times))
        digests.append(tree_digest(out))
        if rep:
            ctx.ops.record("setup rerun byte-identical", digests[rep] == digests[0])
            shutil.rmtree(out)
    base = ctx.work / "setup0"
    wl.after_setup(ctx, base)

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        i = len(passes)
        traced = ctx.tracer is not None and i % 2 == 1
        if traced:
            ctx.tracer.install(TRACE_TARGETS)
            root = ctx.tracer.begin("pass")
        try:
            p = wl.run_pass(ctx, base, i, traced)
        finally:
            if traced:
                ctx.tracer.end(root)
                ctx.tracer.uninstall()
        passes.append(p)
        if i and p.ok:
            ctx.ops.record(f"{p.stage} rerun byte-identical", p.digest == passes[0].digest)
        if not p.ok:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.seconds for q in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > ctx.seconds:
            break
    return setup_s, passes


# ---------------------------------------------------------------------------
# Trace targets: the public functions of each layer, by module
# ---------------------------------------------------------------------------


def _batch(ids) -> int:
    if getattr(ids, "ndim", 1) == 2:
        return ids.shape[0]
    return 1 if not len(ids) or np.isscalar(ids[0]) else len(ids)


def _conv_macs(hyper, batch: int) -> int:
    """Multiply-adds of the forward convolution, from shapes."""
    return sum(
        batch * hyper.fmap_len(h) * hyper.n_filters * hyper.n_channels * h * hyper.k
        for h in hyper.heights
    )


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "infer")
    if mode == "train":
        return "model.forward_train"
    return "model.forward_b1" if _batch(args[0]) == 1 else "model.forward_infer"


TRACE_TARGETS = [
    Target("wordcam.corpus", "load_prepared", "corpus.load_prepared"),
    Target("wordcam.embed.skipgram", "train_skipgram", "embed.skipgram"),
    Target("wordcam.embed.cooccur", "train_cooc_factor", "embed.cooc"),
    Target("wordcam.embed.subword", "train_subword", "embed.subword"),
    Target("wordcam.embed.skipgram", "context_pairs", "embed.context_pairs",
           lambda a, k, r: {"pairs": len(r)}),
    Target("wordcam.embed.cooccur", "build_cooc", "embed.build_cooc"),
    Target("wordcam.embed.channels", "save_channel", "embed.save_channel"),
    Target("wordcam.model", "forward", _forward_name,
           lambda a, k, r: {"conv_macs": _conv_macs(a[1].hyper, r.batch_size)}),
    Target("wordcam.model", "backward", "model.backward",
           lambda a, k, r: {"conv_macs": 2 * _conv_macs(a[1].hyper, a[0].batch_size)}),
    Target("wordcam.model", "save_checkpoint", "model.save_checkpoint"),
    Target("wordcam.model", "load_checkpoint", "model.load_checkpoint"),
    # Adam reads param, grad, m, v and writes param, m, v: 7 arrays per step.
    Target("wordcam.train", "Adam.step", "train.optimizer_step",
           lambda a, k, r: {"bytes": 7 * sum(g.nbytes for g in a[1].values())}),
    Target("wordcam.train", "batch_arrays", "train.batch_arrays"),
    Target("wordcam.train", "evaluate", "train.evaluate"),
    Target("wordcam.train", "train_epochs", "train.train_epochs"),
    Target("wordcam.attention", "attend", "attention.attend"),
    Target("wordcam.report", "render_highlight", "report.render"),
    Target("wordcam.report", "aggregate_top_words", "report.aggregate_top_words"),
]
