"""versorlab benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Run from the root of a versorlab checkout; versorlab is imported from its
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the run's metadata, quartiles, sample counts, failures and cli digests.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One thread everywhere, the measuring process and the set-up probes alike.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import selftest  # noqa: E402
from calib import Calibrator, scale  # noqa: E402
from runner import failed_frac, run_pass, typical_latencies  # noqa: E402
from tracing import NullTracer, Tracer, median, quartiles, self_times, tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("cli", "closure", "induction", "words")
PROBES = 5  # fresh-interpreter set-ups per run; setup_s is their median
LAYERS = ("algebra", "roots", "groups", "induction", "mckay", "cga2d", "cli")

# Baseline rows of ROADMAP.md and the per-layer metric that measures each.
BASELINE_ROWS = {
    "one product, Cl(3,0)": ("words", "algebra.gp_cl3_us"),
    "one product, Cl(8,0)": ("words", "algebra.gp_cl8_us"),
    "Cl(8,0) kernel build, cold": ("closure", "algebra.kernel_build_cl8_s"),
    "E8 root closure": ("closure", "roots.close_roots_E8_s"),
    "check_axioms(E8)": ("closure", "roots.check_axioms_E8_s"),
    "Spin(H3)": ("closure", "groups.generate_spin_H3_s"),
    "Pin(H3)": ("closure", "groups.generate_pin_H3_s"),
    "Pin(D4)": ("closure", "groups.generate_pin_D4_s"),
    "2I cayley_table": ("induction", "mckay.cayley_table_2I_s"),
    "2I irrep_dimensions": ("induction", "mckay.irrep_dimensions_2I_s"),
    "exhaustive H4 sweep": ("induction", "induction.sweep_H4_s"),
    "mckay_table()": ("induction", "mckay.mckay_table_s"),
    "12-letter modular word": ("words", "cga2d.word12_ms"),
    "versorlab verify": ("cli", "cli.verify_s"),
}
LEFT_OUT = {
    "Spin(F4)": "33 s per closure today, longer than a run",
    "Spin(E6) (group E6 --kind spin)": "does not finish today; add once closures are bounded",
    "batch of products (gp_elemwise)": "no public batched call; it runs inside the closure spans",
    "Tier-1 pytest run": "the benchmark drives the library, not the test suite",
}


# -- set-up ------------------------------------------------------------------------


def probe_setup(workload: str) -> dict:
    """Time import + warm-up in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def plan_passes(nominal_pass_s: float, seconds: int) -> int:
    """Whole passes: as many as fill ``seconds`` at the nominal pass time, at
    least two.  The count depends only on the arguments, so a parent and a
    change run the same passes and the same number of op samples."""
    return max(2, math.ceil(seconds / nominal_pass_s))


def metadata(args, passes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"  # an exported tree has no .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "setup_probes": PROBES,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit, "machine": platform.machine(),
    }


# -- metrics -----------------------------------------------------------------------


def end_to_end(passes, scales, probes, run_scale) -> tuple:
    """(metrics, report): the metrics line, and raw times, quartiles and
    sample counts for the report.  Op latencies are scaled by their pass's
    speed scale; the probes, which sit between passes, by the run's."""
    lat = typical_latencies(passes, scales)
    raw = typical_latencies(passes, [1.0] * len(passes))
    setups = [run_scale * p["setup_s"] for p in probes]
    t_val, t_pct, t_beyond = tail(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "pass_s": (sum(lat), "s"),
        "op_p50_ms": (1e3 * median(lat), "ms"),
        "op_tail_ms": (1e3 * t_val, "ms"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report = {
        "pass_s": {"passes": len(passes), "wall_s": sum(raw), "speed_scales": scales,
                   "pass_totals_wall_q1_median_q3": quartiles(
                       [sum(r.latency for r in p) for p in passes])},
        "op_p50_ms": {"ops": len(lat), "passes": len(passes), "wall_ms": 1e3 * median(raw),
                      "q1_median_q3": [1e3 * x for x in quartiles(lat)]},
        "op_tail_ms": {"percentile": t_pct, "beyond": t_beyond, "ops": len(lat),
                       "wall_ms": 1e3 * tail(raw)[0]},
        "setup_s": {"probes": probes, "q1_median_q3": quartiles(setups),
                    "wall_s": median([p["setup_s"] for p in probes]), "run_scale": run_scale},
        "peak_rss_mb": {"samples": 1},
    }
    return metrics, report


def per_layer(spans, counts, traced_passes, overhead_frac, probes, run_scale) -> tuple:
    """(metrics, sample counts) from the traced passes' spans and counters."""
    selfs = self_times(spans)
    total = sum(s.duration for s in spans if s.parent is None)
    m, n = {}, {}

    def put(name, unit, value_and_samples):
        m[name] = (value_and_samples[0], unit)
        n[name] = value_and_samples[1]

    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, tag=None):
        return [s for s in by_name.get(name, ()) if tag is None or s.tag == tag]

    def per_pass(*names):
        got = [s for nm in names for s in named(nm)]
        return sum(s.duration for s in got) / traced_passes, len(got)

    def per_call(name, tag, scale=1.0):
        got = named(name, tag)
        return scale * median([s.duration for s in got]), len(got)

    def rate(counter, *names):
        seconds, calls = per_pass(*names)
        work = counts.get(counter, 0) / traced_passes
        return (work / seconds if seconds else 0.0), calls

    for layer in LAYERS:
        own = [t for s, t in zip(spans, selfs) if s.layer == layer]
        put(f"{layer}.calls", "count", (len(own) / traced_passes, len(own)))
        put(f"{layer}.self_s", "s", (sum(own) / traced_passes, len(own)))
        put(f"{layer}.share", "frac", (sum(own) / total if total else 0.0, len(own)))

    for key, sig in (("gp_cl3_us", "Cl(3,0)"), ("gp_cl31_us", "Cl(3,1)"), ("gp_cl8_us", "Cl(8,0)")):
        put(f"algebra.{key}", "us", per_call("algebra.geometric_product", sig, 1e6))
    put("algebra.sandwich_us", "us", per_call("algebra.sandwich", None, 1e6))
    builds = [p["kernel_build_cl8_s"] for p in probes if "kernel_build_cl8_s" in p]
    put("algebra.kernel_build_cl8_s", "s", (run_scale * median(builds), len(builds)))

    put("roots.close_roots_s", "s", per_pass("roots.close_roots"))
    put("roots.roots_per_s", "1/s", rate("roots.roots", "roots.close_roots"))
    put("roots.check_axioms_s", "s", per_pass("roots.check_axioms"))
    put("roots.cartan_diagram_s", "s", per_pass("roots.cartan_matrix", "roots.diagram"))
    put("roots.close_roots_E8_s", "s", per_call("roots.close_roots", "E8"))
    put("roots.check_axioms_E8_s", "s", per_call("roots.check_axioms", "E8"))

    for fn in ("generate_pin", "generate_spin", "conjugacy_classes", "quotient_by_sign",
               "element_order", "group_table_dict", "coxeter_number"):
        put(f"groups.{fn}_s", "s", per_pass("groups." + fn))
    put("groups.elements_per_s", "1/s",
        rate("groups.elements", "groups.generate_pin", "groups.generate_spin"))
    put("groups.generate_spin_H3_s", "s", per_call("groups.generate_spin", "H3"))
    put("groups.generate_pin_H3_s", "s", per_call("groups.generate_pin", "H3"))
    put("groups.generate_pin_D4_s", "s", per_call("groups.generate_pin", "D4"))

    for fn in ("spinorial_automorphisms", "induce_4d", "reflection_agreement"):
        put(f"induction.{fn}_s", "s", per_pass("induction." + fn))
    put("induction.sweep_pairs_per_s", "1/s",
        rate("induction.sweep_pairs", "induction.spinorial_automorphisms"))
    put("induction.sweep_H4_s", "s", per_call("induction.spinorial_automorphisms", "H3"))

    for fn in ("cayley_table", "abelianization_order", "irrep_dimensions", "mckay_table"):
        put(f"mckay.{fn}_s", "s", per_pass("mckay." + fn))
    put("mckay.table_cells_per_s", "1/s", rate("mckay.table_cells", "mckay.cayley_table"))
    put("mckay.cayley_table_2I_s", "s", per_call("mckay.cayley_table", "H3"))
    put("mckay.irrep_dimensions_2I_s", "s", per_call("mckay.irrep_dimensions", "H3"))

    put("cga2d.apply_word_s", "s", per_pass("cga2d.apply_word"))
    put("cga2d.letters_per_s", "1/s", rate("cga2d.letters", "cga2d.apply_word"))
    put("cga2d.mobius_oracle_s", "s", per_pass("cga2d.mobius_oracle"))
    put("cga2d.conformal_apply_s", "s", per_pass("cga2d.apply"))
    put("cga2d.word12_ms", "ms", per_call("cga2d.apply_word", "12", 1e3))

    for sub in ("verify", "mckay", "induce", "classes", "roots", "group", "modular"):
        put(f"cli.{sub}_s", "s", per_call("cli." + sub, None))

    put("trace.overhead_frac", "frac", (overhead_frac, traced_passes))
    return m, n


# -- running -----------------------------------------------------------------------


def import_versorlab():
    """Import versorlab from this checkout's src/, or exit without a result."""
    if not (SRC / "versorlab" / "__init__.py").is_file():
        sys.exit(f"error: no versorlab sources under {SRC}; run from a versorlab checkout")
    sys.path.insert(0, str(SRC))
    import versorlab

    if Path(versorlab.__file__).resolve().parent != (SRC / "versorlab").resolve():
        sys.exit(f"error: imported versorlab from {versorlab.__file__}, not from {SRC}")


def run_workload(args) -> tuple:
    import_versorlab()
    import warm
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    passes = plan_passes(workload.nominal_pass_s, args.seconds)
    meta = metadata(args, passes)
    warm.warm_up(args.workload)

    # The machine's speed drifts over tens of seconds, so the set-up probes
    # are spread between the passes rather than run in one block, and each
    # pass gets its own speed scale from the calibration kernel timed between
    # its ops.  Traced runs alternate untraced and traced passes for the same
    # reason; the difference between the two is the tracing overhead.
    tracer = Tracer()
    probes, scales = [], {}
    untraced, traced = ([], []), ([], [])  # (passes of records, their scales)
    for i in range(passes):
        while len(probes) < math.ceil(PROBES * (i + 1) / passes):
            probes.append(probe_setup(args.workload))
        on = bool(args.trace) and i % 2 == 1
        calibrate = Calibrator()
        recs = run_pass(workload.ops, tracer if on else NullTracer(), i * len(workload.ops),
                        between=calibrate)
        calibrate(force=True)
        scales[i] = scale(calibrate.samples)
        side = traced if on else untraced
        side[0].append(recs)
        side[1].append(scales[i])

    records = [r for p in untraced[0] + traced[0] for r in p]
    failures = [f"{r.name} {r.tag}: {r.error}" for r in records if r.error]
    run_scale = median(list(scales.values()))
    e2e, e2e_report = end_to_end(*untraced, probes, run_scale)
    report = {"meta": meta, "end_to_end": e2e_report, "failures": failures[:20],
              "failed_frac": failed_frac(records), "attempted": len(records)}
    if args.workload == "cli":
        report["cli_sha256"] = workload.digests
    if args.trace:
        n_ops = len(workload.ops)
        spans = [s._replace(start=s.start * scales[s.op_id // n_ops],
                            end=s.end * scales[s.op_id // n_ops]) for s in tracer.spans]
        overhead = sum(typical_latencies(*traced)) / e2e["pass_s"][0] - 1.0
        metrics, samples = per_layer(spans, tracer.counts, len(traced[0]), overhead, probes,
                                     run_scale)
        report["samples"] = samples
        report["baseline_rows"] = {row: f"{w}: {name}" for row, (w, name) in BASELINE_ROWS.items()}
        report["baseline_rows_left_out"] = LEFT_OUT
        report["spans_file"] = write_spans(args, tracer.spans, scales)
    else:
        metrics = e2e
        n = len(untraced[0]) * len(workload.ops)
        report["samples"] = {"pass_s": n, "op_p50_ms": n, "op_tail_ms": n,
                             "setup_s": len(probes), "peak_rss_mb": 1}
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def write_spans(args, spans, scales) -> str:
    """Raw spans (wall seconds) plus each pass's speed scale."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "tag", "start", "end", "parent", "op_id"],
                   "speed_scale_by_pass": scales, "spans": [list(s) for s in spans]}, fh)
    return str(path.relative_to(ROOT))


def run_all(args) -> dict:
    """Each workload in its own process; prints one table of end-to-end metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':10s} {'metric':12s} {'value':>12s} unit  samples  failed_frac")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
        *_, report_line, result_line = proc.stdout.splitlines()
        report, result = json.loads(report_line), json.loads(result_line)
        for metric, v in result["metrics"].items():
            print(f"{name:10s} {metric:12s} {v['value']:12.4f} {v['unit']:4s} "
                  f"{report['samples'][metric]:8d}  {report['failed_frac']:.4f}")
            total["metrics"][f"{name}.{metric}"] = v
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    problems = selftest.run_all()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    report, result = run_workload(args)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
