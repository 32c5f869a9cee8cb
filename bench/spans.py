"""Span and work-count recording for the traced runs.

Spans are recorded from the benchmark's own files, around the calls into
each layer of the engine; nothing inside the engine is instrumented.  A span
is named after the layer it times (``formula.assemble``, ``graph.jacquet``,
...).  Per name, the tracer keeps running totals of the spans' inclusive
time and of their self time, which leaves out the time of the spans opened
inside them.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Iterator

_NO_SPAN = nullcontext()


class NullTracer:
    """The untraced side: the same calls with no recording."""

    enabled = False

    def span(self, name: str):
        return _NO_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    enabled = True  # callers compute costly count arguments only when set

    def __init__(self) -> None:
        self.own: Counter[str] = Counter()  # self time per span name, in seconds
        self.inclusive: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # per open span, the time of the spans inside it

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            inner = self._open.pop()
            self.own[name] += took - inner
            self.inclusive[name] += took
            if self._open:
                self._open[-1] += took

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n
