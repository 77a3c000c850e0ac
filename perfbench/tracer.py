"""In-memory spans around calls into wordcam's public functions.

The tracer patches functions from the outside: every loaded ``wordcam``
module that bound the original function object (``from wordcam.model import
forward`` in ``cli`` and ``train``, say) gets the wrapper, so calls are seen
wherever they come from. ``uninstall`` restores the originals, so untraced
passes run unpatched code. No file under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
        }


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr`` or ``module.Class.method``.

    ``name`` may be a callable of the call's arguments, to split one function
    into several spans (forward by mode and batch size). ``attrs`` derives
    counts from the arguments and the result.
    """

    module: str
    attr: str
    name: str | Callable[[tuple, dict], str]
    attrs: Callable[[tuple, dict, object], dict] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._kids: dict[int, list[Span]] | None = None

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._kids = None
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn, target: Target):
        tracer = self

        def wrapper(*args, **kwargs):
            name = target.name if isinstance(target.name, str) else target.name(args, kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if target.attrs is not None:
                span.attrs.update(target.attrs(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets: list[Target]) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in targets:
            owner = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, target)
            if path:  # a method: the class object is shared, patch it once
                self._patch(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name.split(".")[0] == "wordcam" and getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ---------------------------------------------------------

    def children(self, span: Span) -> list[Span]:
        """Direct children in call order."""
        if self._kids is None:
            self._kids = {}
            for s in self.spans:
                if s.parent is not None:
                    self._kids.setdefault(s.parent, []).append(s)
        return self._kids.get(span.id, [])

    def self_time(self, span: Span) -> float:
        """Duration minus the time covered by direct children."""
        return span.duration - sum(c.duration for c in self.children(span))

    def named(self, name: str, parent: str | None = None) -> list[Span]:
        out = [s for s in self.spans if s.name == name]
        if parent is not None:
            out = [s for s in out if s.parent is not None and self.spans[s.parent].name == parent]
        return out

    def root_of(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def median_ms(self, name: str, parent: str | None = None) -> float:
        spans = self.named(name, parent)
        return statistics.median(s.duration for s in spans) * 1e3 if spans else 0.0

    def per_root(self, name: str, value: Callable[[Span], float] = lambda s: s.duration) -> float:
        """Median over root spans (timed passes) of ``value`` summed over the
        ``name`` spans under each; 0 when no span has that name."""
        roots = [s for s in self.spans if s.parent is None]
        named = self.named(name)
        if not roots or not named:
            return 0.0
        totals = {r.id: 0.0 for r in roots}
        for s in named:
            totals[self.root_of(s).id] += value(s)
        return statistics.median(totals.values())
