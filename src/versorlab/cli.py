"""Command-line front end: every pipeline as a batch subcommand.

    versorlab roots H3                 root listing, Cartan matrix, diagram
    versorlab group A3 --kind spin     group table (2T)
    versorlab classes A3 --kind spin   conjugacy classes of 2T
    versorlab induce B3                spinor induction report (F4)
    versorlab mckay                    the ADE numerology table
    versorlab modular STt 0.25 1.5     versor route vs Mobius oracle
    versorlab verify                   full invariant battery

Output is JSON by default (``--format csv|markdown`` for tables) and is
byte-identical across runs: element orderings are canonical upstream and
floats are rounded to 12 decimals before serialization.  Randomized checks
in ``verify`` read VERSORLAB_SEED (default 42).  Failures print a one-line
JSON object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .algebra import DEFAULT_EPS, row_keys
from .errors import UnknownCatalogName, VersorlabError
from .groups import MAX_GROUP, generate_pin, generate_spin, group_table_dict, quotient_by_sign
from .induction import induce_4d, reflection_agreement, spinorial_automorphisms
from .mckay import mckay_table
from .roots import (
    MAX_ROOTS,
    cartan_matrix,
    catalog,
    catalog_names,
    check_axioms,
    diagram,
    rootsystem_from_dict,
)
from .cga2d import word_report
from .verify import run_battery

DEFAULT_SEED = 42


def _seed() -> int:
    return int(os.environ.get("VERSORLAB_SEED", str(DEFAULT_SEED)))


def _clean(obj):
    """Round floats to 12 decimals (normalizing -0.0) for stable output."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return round(float(obj), 12) + 0.0
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, (float, np.floating)):
        return f"{round(float(x), 12) + 0.0:.12g}"
    return str(x)


def _md_table(headers, rows) -> list:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(c) for c in row) + " |")
    return lines


def _render(payload, headers, rows, md_lines, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_clean(payload), indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])
        return buf.getvalue()
    return "\n".join(md_lines) + "\n"


def _cap(args, default: int) -> int:
    """--max-closure if given, else the closure's own default cap."""
    return default if args.max_closure is None else args.max_closure


def _load_rootsystem(args):
    spec, eps, max_roots = args.system, args.tolerance, _cap(args, MAX_ROOTS)
    try:
        return catalog(spec, eps=eps, max_roots=max_roots)
    except UnknownCatalogName:
        pass
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return rootsystem_from_dict(data, eps=eps, max_roots=max_roots)
    raise UnknownCatalogName(
        f"{spec!r} is not a catalog name ({', '.join(catalog_names())}) "
        f"or a readable file")


def _resolve_group(args):
    generate = generate_pin if args.kind in ("pin", "full") else generate_spin
    g = generate(_load_rootsystem(args), max_elements=_cap(args, MAX_GROUP))
    return g if args.kind in ("pin", "spin") else quotient_by_sign(g)


def _cmd_roots(args):
    rs = _load_rootsystem(args)
    cm = cartan_matrix(rs)
    edges = diagram(rs, eps=args.tolerance)
    report = check_axioms(rs, eps=args.tolerance)
    payload = {
        "name": rs.name,
        "signature": [rs.sig.p, rs.sig.q],
        "rank": rs.rank,
        "root_count": rs.root_count,
        "simple_roots": rs.simple_coords.tolist(),
        "roots": rs.coords.tolist(),
        "cartan_matrix": cm.entries.tolist(),
        "cartan_integral": cm.is_integral(args.tolerance),
        "diagram_edges": [{"i": e.i, "j": e.j, "m": e.m} for e in edges],
        "axioms_ok": report.ok,
    }
    simple = set(row_keys(rs.simple_coords).tolist())
    headers = ["index"] + [f"x{i+1}" for i in range(rs.sig.dim)] + ["simple"]
    rows = [[i] + list(r) + [key in simple]
            for i, (r, key) in enumerate(zip(rs.coords, row_keys(rs.coords).tolist()))]
    label = rs.name or "root system"
    md = [f"# {label}: {rs.root_count} roots, rank {rs.rank} in Cl({rs.sig.p},{rs.sig.q})", ""]
    md += ["## Simple roots", ""]
    md += _md_table([f"x{i+1}" for i in range(rs.sig.dim)],
                    [list(r) for r in rs.simple_coords])
    md += ["", "## Cartan matrix" + (" (integral)" if payload["cartan_integral"] else ""), ""]
    md += _md_table([f"a{j+1}" for j in range(rs.rank)], [list(r) for r in cm.entries])
    md += ["", "## Diagram edges (Coxeter labels m > 2)", ""]
    md += _md_table(["i", "j", "m"], [[e.i, e.j, e.m] for e in edges])
    md += ["", f"## All {rs.root_count} roots", ""]
    md += _md_table([f"x{i+1}" for i in range(rs.sig.dim)], [list(r) for r in rs.coords])
    return payload, headers, rows, md, 0


def _cmd_group(args):
    g = _resolve_group(args)
    elements = g.elements
    payload = {
        "name": args.system,
        "kind": g.kind,
        "signature": [g.sig.p, g.sig.q],
        "order": g.order,
        "elements": [v.mv.to_json_dict(args.tolerance) for v in elements],
    }
    headers = ["index", "element"]
    rows = [[i, str(v.mv)] for i, v in enumerate(elements)]
    md = [f"# {g.kind} group over {args.system}: order {g.order}", ""]
    md += _md_table(headers, rows)
    return payload, headers, rows, md, 0


def _cmd_classes(args):
    g = _resolve_group(args)
    table = group_table_dict(g, eps=args.tolerance)
    table["name"] = args.system
    classes = g.conjugacy_classes()
    headers = ["class", "size", "element_order", "representative", "members"]
    rows = []
    for i, cl in enumerate(classes):
        rows.append([i, cl.size, cl.element_order, str(cl.representative.mv),
                     "; ".join(str(m.mv) for m in cl.members)])
    md = [f"# Conjugacy classes of the {g.kind} group over {args.system} "
          f"(order {g.order}, {len(classes)} classes)", ""]
    md += _md_table(headers, rows)
    return table, headers, rows, md, 0


def _cmd_induce(args):
    rs = _load_rootsystem(args)
    spin = generate_spin(rs, max_elements=_cap(args, MAX_GROUP))
    ind = induce_4d(spin)
    agreement = reflection_agreement(spin)
    if spin.order <= 48:
        sweep = spinorial_automorphisms(ind)
    else:
        sweep = spinorial_automorphisms(ind, pairs=2000, seed=_seed())
    payload = {
        "source": args.system,
        "source_root_count": rs.root_count,
        "spin_order": spin.order,
        "identification": ind.identification,
        "root_count": ind.root_count,
        "simple_roots_4d": ind.base.simple_coords.tolist(),
        "axioms_ok": check_axioms(ind.base, eps=args.tolerance).ok,
        "reflection_agreement": {
            "pairs_tested": agreement.pairs_tested,
            "max_deviation": agreement.max_deviation,
            "all_in_group": agreement.all_in_group,
        },
        "automorphism_sweep": {
            "pairs_tested": sweep.pairs_tested,
            "exhaustive": sweep.exhaustive,
            "distinct_images": sweep.distinct_images,
        },
    }
    headers = ["source", "3d_roots", "spin_order", "induced", "4d_roots",
               "agreement_pairs", "max_deviation", "sweep_pairs"]
    rows = [[args.system, rs.root_count, spin.order, ind.identification,
             ind.root_count, agreement.pairs_tested, agreement.max_deviation,
             sweep.pairs_tested]]
    md = [f"# Spinor induction from {args.system}", ""]
    md += _md_table(headers, rows)
    md += ["", "## Induced simple roots", ""]
    md += _md_table(["a0", "a1", "a2", "a3"], [list(r) for r in ind.base.simple_coords])
    return payload, headers, rows, md, 0


def _cmd_mckay(args):
    rows_data = mckay_table()
    payload = {"rows": [{
        "threeD": r.threeD, "fourD": r.fourD, "lie": r.lie,
        "binary_group": r.binary_group, "phi_count": r.phi_count,
        "sum_dims": r.sum_dims, "coxeter_h": r.coxeter_h,
        "irrep_dims": list(r.irrep_dims),
    } for r in rows_data]}
    headers = ["3D", "4D", "affine", "binary group", "|Phi|", "sum d_i", "h",
               "irrep dims"]
    rows = [[r.threeD, r.fourD, r.lie, r.binary_group, r.phi_count, r.sum_dims,
             r.coxeter_h, "+".join(str(d) for d in r.irrep_dims)] for r in rows_data]
    md = ["# McKay numerology: |Phi| = sum of irrep dims = Coxeter number", ""]
    md += _md_table(headers, rows)
    return payload, headers, rows, md, 0


def _cmd_modular(args):
    if not (math.isfinite(args.x1) and math.isfinite(args.x2)):
        raise VersorlabError("tau must be finite")
    payload = word_report(args.word, (args.x1, args.x2), eps=args.tolerance)
    headers = ["word", "x1", "x2", "versor_x1", "versor_x2",
               "oracle_x1", "oracle_x2", "max_deviation"]
    rows = [[payload["word"], payload["input"][0], payload["input"][1],
             payload["versor_result"][0], payload["versor_result"][1],
             payload["oracle_result"][0], payload["oracle_result"][1],
             payload["max_deviation"]]]
    md = [f"# Modular word `{payload['word'] or '(identity)'}` at "
          f"({_fmt(payload['input'][0])}, {_fmt(payload['input'][1])})", ""]
    md += _md_table(headers, rows)
    return payload, headers, rows, md, 0


def _cmd_verify(args):
    report = run_battery(seed=_seed(), tolerance=args.tolerance)
    payload = {
        "seed": report.seed,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "failed": report.failed,
        "ok": report.ok,
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                   for r in report.results],
    }
    headers = ["check", "result", "detail"]
    rows = [[r.name, "PASS" if r.passed else "FAIL", r.detail] for r in report.results]
    md = [f"# Verification battery: {report.passed} passed, {report.failed} failed "
          f"(seed {report.seed})", ""]
    md += _md_table(headers, rows)
    return payload, headers, rows, md, (0 if report.ok else 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="versorlab",
        description="Root systems, versor groups, spinor induction, and the "
                    "conformal modular group, from the command line.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, closure=True):
        p.add_argument("--format", choices=("json", "csv", "markdown"),
                       default="json", help="output format (default json)")
        p.add_argument("--tolerance", type=float, default=DEFAULT_EPS,
                       help="numerical comparison tolerance (default 1e-9)")
        if closure:
            p.add_argument("--max-closure", type=int, default=None,
                           help="cap on closure enumeration size")

    p = sub.add_parser("roots", help="close a root system and report it")
    p.add_argument("system", help="catalog name (A3, B3, H3, E8, I2(n), ...) or JSON file")
    common(p)
    p.set_defaults(fn=_cmd_roots)

    for cmd, fn, help_text in (("group", _cmd_group, "list a versor group"),
                               ("classes", _cmd_classes, "conjugacy class table")):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("system", help="catalog name or JSON file")
        p.add_argument("--kind", choices=("pin", "spin", "chiral", "full"),
                       default="spin",
                       help="pin/spin versor group, or its chiral (rotation) / "
                            "full (reflection) quotient")
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("induce", help="induce the 4D root system of a spin group")
    p.add_argument("system", help="rank-3 catalog name or JSON file")
    common(p)
    p.set_defaults(fn=_cmd_induce)

    p = sub.add_parser("mckay", help="the four-row ADE numerology table")
    common(p, closure=False)
    p.set_defaults(fn=_cmd_mckay)

    p = sub.add_parser("modular", help="evaluate a modular word two ways")
    p.add_argument("word", help="word over S, T, t (t = T^-1); may be empty")
    p.add_argument("x1", type=float, help="real part of tau")
    p.add_argument("x2", type=float, help="imaginary part of tau (> 0)")
    common(p, closure=False)
    p.set_defaults(fn=_cmd_modular)

    p = sub.add_parser("verify", help="run the invariant battery")
    common(p, closure=False)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, headers, rows, md, code = args.fn(args)
    except (VersorlabError, OSError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 2
    sys.stdout.write(_render(payload, headers, rows, md, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
