"""Ops, passes and failure accounting.

An op is one request in a workload's mix: ``run`` makes the calls into
versorlab and returns what they produced, ``check`` compares that against
constants held in the benchmark.  Only ``run`` is timed.  An exception in
either, or a mismatch, makes the op a failed op; the pass goes on.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, NamedTuple


class Mismatch(Exception):
    """A result that differs from the benchmark's expected value."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


class Op(NamedTuple):
    name: str  # op kind, e.g. "group" or "cli.verify"
    tag: str  # what it works on, e.g. "D4"
    run: Callable  # run(tracer) -> result
    check: Callable  # check(result) -> None, raises on a wrong result


class OpRecord(NamedTuple):
    name: str
    tag: str
    latency: float
    error: str  # "" when the op succeeded


def run_pass(ops, tracer, first_op_id: int = 0, between=None) -> list:
    """Run every op once, in order; returns one OpRecord per op.

    ``between()``, if given, runs before each op, outside its timing."""
    records = []
    for i, op in enumerate(ops):
        if between is not None:
            between()
        tracer.begin_op(op.name, first_op_id + i)
        error = ""
        t0 = time.perf_counter()
        try:
            result = op.run(tracer)
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        tracer.end_op()
        if not error:
            try:
                op.check(result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        records.append(OpRecord(op.name, op.tag, latency, error))
    return records


def failed_frac(records) -> float:
    return sum(1 for r in records if r.error) / len(records) if records else 0.0


def typical_latencies(passes, scales) -> list:
    """Each op's median over the passes of its latency times its pass's scale.

    Bursts of load on a shared machine hit a few ops in a few passes; the
    per-op median drops them, where a median of pass totals would not."""
    return [statistics.median(p[i].latency * k for p, k in zip(passes, scales))
            for i in range(len(passes[0]))]
