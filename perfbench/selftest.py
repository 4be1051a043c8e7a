"""Checks of the benchmark's own arithmetic on synthetic spans and samples.

    python3 perfbench/selftest.py

run.py runs these before every measurement and refuses to report if any
fails.  Each check returns a list of problems; empty means it passed.
"""

from __future__ import annotations

import sys

from runner import Op, OpRecord, expect, failed_frac, run_pass, typical_latencies
from tracing import NullTracer, Span, Tracer, self_times, tail


def check_tail() -> list:
    problems = []
    value, pct, beyond = tail(list(range(1, 101)))
    if (value, pct, beyond) != (90.0, 90.0, 10):
        problems.append(f"tail of 1..100 gave {(value, pct, beyond)}, want (90, 90, 10)")
    value, pct, beyond = tail([5.0, 1.0] + [2.0] * 20)  # 22 samples, 12th smallest
    if (value, round(pct, 6), beyond) != (2.0, round(100 * 12 / 22, 6), 10):
        problems.append(f"tail of 22 samples gave {(value, pct, beyond)}")
    if tail([3.0, 9.0, 1.0]) != (9.0, 100.0, 0):
        problems.append("tail below 20 samples is not the maximum")
    return problems


def check_self_time() -> list:
    # op [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9];
    # d [20, 21] is a separate root.
    spans = [
        Span("op.x", "", 0.0, 10.0, None, 0),
        Span("roots.a", "", 1.0, 4.0, 0, 0),
        Span("groups.c", "", 2.0, 3.0, 1, 0),
        Span("groups.b", "", 5.0, 9.0, 0, 0),
        Span("op.y", "", 20.0, 21.0, None, 1),
    ]
    got = self_times(spans)
    want = [3.0, 2.0, 1.0, 4.0, 1.0]
    return [] if got == want else [f"self times {got}, want {want}"]


def check_tracer_nesting() -> list:
    tr = Tracer()
    tr.begin_op("outer", 7)
    tr.call("roots.a", lambda: tr.call("groups.b", lambda: None))
    tr.end_op()
    parents = [s.parent for s in tr.spans]
    names = [s.name for s in tr.spans]
    if names != ["op.outer", "roots.a", "groups.b"] or parents != [None, 0, 1]:
        return [f"tracer recorded {list(zip(names, parents))}"]
    if any(s.op_id != 7 or s.end < s.start for s in tr.spans):
        return ["tracer spans lost their op id or end time"]
    return []


def check_failed_frac() -> list:
    def op(value, want):
        def check(got):
            expect(got == want, f"{got} != {want}")
        return Op("synthetic", str(value), lambda tr: value, check)

    def crash(tr):
        raise ValueError("boom")

    ops = [op(i, i) for i in range(9)] + [op(41, 42)]  # one injected wrong result
    records = run_pass(ops, NullTracer())
    problems = []
    if failed_frac(records) != 0.1 or [r.tag for r in records if r.error] != ["41"]:
        problems.append(f"failed_frac {failed_frac(records)} with one wrong result in ten")
    records = run_pass([op(1, 1), Op("synthetic", "crash", crash, lambda r: None)], Tracer())
    if failed_frac(records) != 0.5 or "ValueError" not in records[1].error:
        problems.append("a raising op is not counted as one failed op")
    return problems


def check_typical_latencies() -> list:
    # three passes over two ops; the second pass ran at half speed (scale 0.5)
    passes = [[OpRecord("a", "", 1.0, ""), OpRecord("b", "", 10.0, "")],
              [OpRecord("a", "", 2.0, ""), OpRecord("b", "", 20.0, "")],
              [OpRecord("a", "", 1.2, ""), OpRecord("b", "", 90.0, "")]]
    got = typical_latencies(passes, [1.0, 0.5, 1.0])
    return [] if got == [1.0, 10.0] else [f"typical latencies {got}, want [1.0, 10.0]"]


def run_all() -> list:
    return (check_tail() + check_self_time() + check_tracer_nesting()
            + check_failed_frac() + check_typical_latencies())


if __name__ == "__main__":
    problems = run_all()
    print("\n".join(problems) or "selftest: all checks pass")
    sys.exit(1 if problems else 0)
