"""wordcam benchmark: drives the real CLI stages on generated corpora.

    python3 perfbench/run.py --workload train-2ch --seed 1 --seconds 55 --trace 0

Run from the repository root. Prints one line per metric, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. ``--smoke`` shrinks every input
so a workload runs end to end in seconds. Full results, with the machine
details and, for a traced run, every span, go to
``perfbench/.work/results/``.
"""

import os

# Pin BLAS before numpy loads anywhere: this process and the set-up child
# processes, which inherit the environment. One thread is also the faster
# setting for these shapes on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
    }


def _median(xs, default=0.0):
    xs = list(xs)
    return statistics.median(xs) if xs else default


def end_to_end(setup_s, passes) -> dict:
    timed = [p for p in passes if not p.traced]
    return {
        "setup_s": (_median(setup_s), "s", len(setup_s)),
        "wall_s": (_median(p.seconds for p in timed), "s", len(timed)),
        "items_per_s": (_median(p.items / p.item_seconds for p in timed), "1/s", len(timed)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(tr, ctx, meta, passes) -> dict:
    """Per-layer metrics from the spans of the traced passes, each with its
    sample count.

    ``*_ms`` is the median of one call, over that many calls; ``*_s`` is the
    median over traced passes of the time summed per pass. ``setup.*_s`` is
    the median in-child time of a set-up stage, over the set-ups. A layer
    the workload never calls reads 0, with 0 samples.
    """
    n_traced = sum(1 for p in passes if p.traced)

    def one_call(name, parent=None):
        return tr.median_ms(name, parent), "ms", len(tr.named(name, parent))

    def per_pass(name, value=lambda s: s.duration, unit="s"):
        return tr.per_root(name, value), unit, n_traced if tr.named(name) else 0

    train_steps = tr.named("model.forward_train") + tr.named("model.backward")
    step_time = sum(s.duration for s in train_steps)
    gflops = 2 * sum(s.attrs["conv_macs"] for s in train_steps) / step_time / 1e9 if step_time else 0.0
    steps = []  # one step: batch_arrays start to the end of the next optimizer step
    for loop in tr.named("train.train_epochs"):
        begin = None
        for child in tr.children(loop):
            if child.name == "train.batch_arrays":
                begin = child.start
            elif child.name == "train.optimizer_step" and begin is not None:
                steps.append((child.end - begin) * 1e3)
                begin = None
    optimizer = tr.named("train.optimizer_step")
    loops = tr.named("train.train_epochs")
    traced = [p.seconds for p in passes if p.traced]
    untraced = [p.seconds for p in passes if not p.traced]
    overhead = (_median(traced) / _median(untraced) - 1.0) * 100 if traced and untraced else 0.0
    m = {
        "model.forward_train_ms": one_call("model.forward_train"),
        "model.backward_ms": one_call("model.backward"),
        "model.forward_infer_ms": one_call("model.forward_infer"),
        "model.forward_b1_ms": one_call("model.forward_b1"),
        "model.conv_gflops": (gflops, "GFLOP/s", len(train_steps)),
        "model.save_checkpoint_s": per_pass("model.save_checkpoint"),
        "model.load_checkpoint_s": per_pass("model.load_checkpoint"),
        "train.optimizer_step_ms": one_call("train.optimizer_step"),
        "train.optimizer_bytes_per_step": (
            _median(s.attrs["bytes"] for s in optimizer), "bytes", len(optimizer)),
        "train.step_ms": (_median(steps), "ms", len(steps)),
        "train.batch_arrays_ms": one_call("train.batch_arrays", "train.train_epochs"),
        "train.evaluate_s": per_pass("train.evaluate"),
        "train.loop_self_ms": (
            _median(tr.self_time(s) * 1e3 for s in loops), "ms", len(loops)),
        "embed.skipgram_s": per_pass("embed.skipgram"),
        "embed.cooc_s": per_pass("embed.cooc"),
        "embed.subword_s": per_pass("embed.subword"),
        "embed.context_pairs_s": per_pass("embed.context_pairs"),
        "embed.build_cooc_s": per_pass("embed.build_cooc"),
        "embed.save_channel_s": per_pass("embed.save_channel"),
        "embed.pairs": per_pass("embed.context_pairs", lambda s: s.attrs["pairs"], "count"),
        "attention.attend_ms": one_call("attention.attend"),
        "report.render_ms": one_call("report.render"),
        "report.aggregate_top_words_s": per_pass("report.aggregate_top_words"),
        "corpus.load_prepared_s": per_pass("corpus.load_prepared"),
        "corpus.vocab_size": (meta["stats"]["vocab_size"], "count", None),
    }
    for stage in ("embed", "train", "topwords"):  # timed in this process
        m[f"cli.{stage}_s"] = per_pass(f"cli.{stage}")
    for stage in ("prepare", "embed"):  # set-up, in child processes
        times = ctx.setup_stage_s.get(stage, [])
        m[f"setup.{stage}_s"] = (_median(times), "s", len(times))
    m["trace_overhead_pct"] = (overhead, "%", n_traced)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wordcam" / "cli.py").is_file():
        print(f"error: no wordcam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(ROOT, work, args.seed, args.seconds, args.smoke,
                            tracer=Tracer() if args.trace else None)
    import wordcam.cli  # noqa: F401  bound before tracing patches module names

    try:
        setup_s, passes = workloads.run(wl, ctx)
        ok = bool(passes) and all(p.ok for p in passes)
        if ok and args.trace:
            metrics = per_layer(ctx.tracer, ctx, wl.meta, passes)
        elif ok:
            metrics = end_to_end(setup_s, passes)
        else:
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = machine()
    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          + (" smoke" if args.smoke else ""))
    print("# " + " ".join(f"{k}={v!r}" if isinstance(v, str) and " " in v else f"{k}={v}"
                          for k, v in info.items()))
    extra = {}
    if passes and not args.trace:
        timed = [p for p in passes if not p.traced]
        extra[wl.items] = (_median(p.items / p.item_seconds for p in timed), "1/s", len(timed))
        for name in timed[0].rates:
            extra[name] = (_median(p.rates[name] for p in timed), "1/s", len(timed))
        lat = [x for p in timed for x in p.latencies_ms]
        if lat:
            q = statistics.quantiles(lat, n=100)
            extra["attend.p50_ms"] = (statistics.median(lat), "ms", len(lat))
            extra["attend.p99_ms"] = (q[98], "ms", len(lat))
    for name, (value, unit, n) in {**metrics, **extra}.items():
        samples = "" if n is None else f"  n={n}"
        print(f"{name:32s} {value:14.6f} {unit}{samples}")
    print(f"{'error_rate':32s} {ctx.ops.failed / max(ctx.ops.attempted, 1):14.6f} "
          f"({ctx.ops.failed} of {ctx.ops.attempted} operations failed)")
    for failure in ctx.ops.failures[:10]:
        print(f"# failed: {failure}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": info,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in {**metrics, **extra}.items()},
        "setup_s": setup_s, "passes": [p.seconds for p in passes],
        "attempted": ctx.ops.attempted, "failed": ctx.ops.failed, "failures": ctx.ops.failures,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if ctx.tracer is not None:
        spans = [s.to_dict() for s in ctx.tracer.spans]
        (results / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    correct = ok and ctx.ops.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(ctx.ops.attempted, 1),
        "failed": ctx.ops.failed if ctx.ops.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
