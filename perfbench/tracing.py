"""Spans, self time and the order statistics the benchmark reports.

Stdlib only.  A span covers one call from the benchmark into versorlab (or
one whole op); spans live in memory and are written out once the run ends.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple, Optional


class Span(NamedTuple):
    name: str  # "<layer>.<function>", or "op.<workload>" for a whole op
    tag: str  # what the call worked on, e.g. "E8" or "Cl(3,0)"
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in the span list
    op_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Untraced runs: calls go straight through, counters still add up."""

    def __init__(self):
        self.counts: dict = {}

    def call(self, name, fn, /, *args, tag="", **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def begin_op(self, name: str, op_id: int) -> None:
        pass

    def end_op(self) -> None:
        pass


class Tracer(NullTracer):
    """Records a span around every call and op."""

    def __init__(self):
        super().__init__()
        self._rows: list = []  # [name, tag, start, end, parent, op_id], closed in place
        self._stack: list = []
        self._op_id = -1

    @property
    def spans(self) -> list:
        return [Span(*row) for row in self._rows]

    def _open(self, name: str, tag: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self._rows))
        self._rows.append([name, tag, time.perf_counter(), 0.0, parent, self._op_id])

    def _close(self) -> None:
        self._rows[self._stack.pop()][3] = time.perf_counter()

    def call(self, name, fn, /, *args, tag="", **kwargs):
        self._open(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def begin_op(self, name: str, op_id: int) -> None:
        self._op_id = op_id
        self._open("op." + name, "")

    def end_op(self) -> None:
        self._close()


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def quartiles(xs) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(xs) < 2:
        v = float(xs[0]) if xs else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return float(q1), float(q2), float(q3)


def tail(xs) -> tuple:
    """(value, percentile, samples beyond) for the highest percentile that
    has at least ten samples beyond it.

    Below 20 samples that percentile would sit at or under the median, so
    the maximum is reported instead, with nothing beyond it.
    """
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 20:
        return float(s[-1]), 100.0, 0
    k = n - 10
    return float(s[k - 1]), 100.0 * k / n, n - k
