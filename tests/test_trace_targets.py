"""The benchmark's tracer resolves every function it wraps by name, so a
renamed or deleted function breaks each ``--trace 1`` run. Installing and
uninstalling its targets here, as such a run first does, catches that in
this suite. ``perfbench/`` is only read."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(target):
    owner = importlib.import_module(target.module)
    for part in target.attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_benchmark_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    targets = workloads.TRACE_TARGETS
    tracer = workloads.Tracer()
    try:  # a target that fails to resolve leaves the earlier ones patched
        tracer.install(targets)
        unwrapped = [t.attr for t in targets if not hasattr(_resolve(t), "__wrapped__")]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    assert [t.attr for t in targets if hasattr(_resolve(t), "__wrapped__")] == []
