"""In-memory spans around pvit's public calls, plus a GC pause monitor.

A span has a name ``<layer>.<call>``, a start and end on the
``time.perf_counter`` clock, the index of its parent span and the run
id.  Spans stay in a list until the run ends.  A disabled tracer
records nothing, so the untraced and traced runs share one code path.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    run_id: str = ""
    n: Optional[int] = None  # records handled by the call, where that sets its cost

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    @property
    def span(self) -> Span:
        return self.tracer.spans[self.index]

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()


class _NullSpan:
    """Stand-in while tracing is off; attribute writes are accepted and dropped."""

    n: Optional[int] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL = _NullSpan()


@dataclass
class Tracer:
    run_id: str = ""
    enabled: bool = True
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str):
        """Context manager timing one call; nested spans get it as parent."""
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run_id=self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return _OpenSpan(self, index)

    def add(self, name: str, start: float, end: float) -> None:
        """Record an interval measured elsewhere as a child of the open span."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, start, end, parent, self.run_id))

    def self_times(self, root: int) -> tuple[dict[str, float], float]:
        """Self time per layer under span ``root``, and the root's own
        remainder (time covered by no child span)."""
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children.setdefault(s.parent, []).append(i)
        per_layer: dict[str, float] = {}
        remainder = 0.0
        todo = [root]
        while todo:
            i = todo.pop()
            kids = children.get(i, [])
            own = self.spans[i].duration - sum(self.spans[k].duration for k in kids)
            if i == root:
                remainder = own
            else:
                layer = self.spans[i].layer
                per_layer[layer] = per_layer.get(layer, 0.0) + own
            todo.extend(kids)
        return per_layer, remainder

    def descendants(self, root: int) -> list[Span]:
        inside = {root}
        out = []
        for i, s in enumerate(self.spans):
            if s.parent in inside:
                inside.add(i)
                out.append(s)
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run_id": s.run_id, "n": s.n}
            for s in self.spans
        ]


class GcMonitor:
    """Collector pauses and generation-2 collections, from ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
