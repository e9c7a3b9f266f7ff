"""In-memory spans and counts around the layers of sortdist.

Spans are recorded from outside the package: while a traced phase runs, the
module attributes through which one layer calls the next are replaced by
wrappers that open a span around the call and may record counts from its
arguments and result.  The attributes are restored when the phase ends.
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in Tracer.spans, -1 for a root
    op: int


class NullTracer:
    """Stand-in used by untimed and untraced runs: records nothing."""

    op = -1

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Spans with parent links and per-op count events, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.events: list[tuple[int, str, float]] = []
        self.op = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.events.append((self.op, name, float(value)))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus that of direct children.

        Calls are synchronous, so the children of a span never overlap and
        their durations add up to the part of the span they cover.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, covered):
            out[s.name] += (s.end - s.start) - c
        return out

    def span_counts(self, ops: int) -> dict[str, int]:
        """Number of spans per name opened by ops 0 .. ops-1."""
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if 0 <= s.op < ops:
                out[s.name] += 1
        return out

    def values(self, name: str, ops: int) -> list[float]:
        """Values counted under `name` by ops 0 .. ops-1."""
        return [v for op, n, v in self.events if n == name and 0 <= op < ops]

    def write_spans(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "op"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, repr(s.start), repr(s.end), s.parent, s.op])


def _wrap(tracer: Tracer, fn: Callable, name: str, observe) -> Callable:
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return traced


@contextlib.contextmanager
def patched(tracer: Tracer, hooks: list[tuple]):
    """Route each hooked attribute through a span for the duration of the block.

    A hook is (module, attribute, span name, observer); the observer, if not
    None, is called as observer(tracer, args, result) after each call.
    """
    saved = []
    try:
        for module, attr, name, observe in hooks:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, observe))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
