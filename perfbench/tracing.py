"""Spans and counters recorded from outside the library.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span in ``Tracer.spans`` (or None) and ``op`` is the id of the
benchmark op that caused it.  Spans are kept in memory and written out once,
when the run ends.  Library functions are traced by replacing every module
attribute of the ``cliquellt`` package that holds the original function, so
callers that re-imported a name (``cli``, ``sampling``, ``decoupling``) go
through the wrapper too.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """Span stack plus named counters; ``active`` is False in untraced runs."""

    def __init__(self, active: bool):
        self.active = active
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, key: str, amount: int = 1) -> None:
        if self.active:
            self.counts[key] += amount

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``counter(args, kwargs, result)`` returns counter increments."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.count(key, amount)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans],
            "counts": dict(self.counts),
        }


@contextmanager
def patched(tracer: Tracer, targets: Iterable[tuple[str, Callable, Callable | None]]) -> Iterator[None]:
    """Route every ``cliquellt`` module attribute bound to a target through a span.

    ``targets`` holds (span name, original function, counter).  Attributes are
    restored on exit, so one process can run untraced, then traced, then
    untraced again.
    """
    wrappers = {id(fn): tracer.wrap(name, fn, counter) for name, fn, counter in targets}
    originals = {id(fn): fn for _, fn, _ in targets}
    swapped = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "cliquellt" or modname.startswith("cliquellt.")):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in wrappers and originals[id(value)] is value:
                swapped.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    try:
        yield
    finally:
        for module, attr, value in swapped:
            setattr(module, attr, value)


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        clipped = [
            (max(lo, s.start), min(hi, s.end)) for lo, hi in children[idx] if min(hi, s.end) > max(lo, s.start)
        ]
        out.append((s.end - s.start) - _union_length(clipped))
    return out


def is_outermost(spans: list[Span], idx: int) -> bool:
    """True unless an ancestor span has the same name (recursion or nested re-entry)."""
    name = spans[idx].name
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``calls``, ``busy_s`` (outermost spans only) and ``self_s`` per span name."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for idx, s in enumerate(spans):
        agg = out[s.name]
        agg["calls"] += 1
        agg["self_s"] += selfs[idx]
        if is_outermost(spans, idx):
            agg["busy_s"] += s.end - s.start
    return out
