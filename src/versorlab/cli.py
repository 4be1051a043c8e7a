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
floats are rounded to 12 decimals (-0.0 as 0.0).  ``group`` and ``classes``
are written straight from the element arrays, JSON in ``json.dumps(indent=2)``'s
layout and csv and markdown as each element's ``str``; every format lists each
coefficient with |c| > 1e-9.  No subcommand takes a tolerance: every check runs at
DEFAULT_EPS.  Randomized checks in ``verify`` and ``induce`` read VERSORLAB_SEED, a
non-negative integer (default 42).
Failures print one JSON line on stderr and exit 2, even if its reader has left; a reader
that closes stdout early gets exit 141 (as SIGPIPE), stderr empty.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .algebra import DEFAULT_EPS, _term_rows, _text_rows, kernel_for
from .errors import UnknownCatalogName, VersorlabError
from .groups import MAX_GROUP, generate_pin, generate_spin, quotient_by_sign
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
    raw = os.environ.get("VERSORLAB_SEED", str(DEFAULT_SEED))
    if not (raw.isascii() and raw.isdigit()):
        raise VersorlabError(f"VERSORLAB_SEED must be a non-negative integer, got {raw!r}")
    return int(raw)


def _clean(obj):
    """Round floats to 12 decimals (normalizing -0.0): payloads hold only plain Python types."""
    if isinstance(obj, float):
        return round(float(obj), 12) + 0.0
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{round(float(x), 12) + 0.0:.12g}"
    return str(x)


def _cells(rows):
    """Each row as its printed cells; a float array's distinct values are formatted once."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        values, at = np.unique(rows, return_inverse=True)
        return np.array([_fmt(x) for x in values.tolist()], object)[at.reshape(rows.shape)].tolist()
    return ([_fmt(c) for c in row] for row in rows)


def _json_rows(sig, rows: np.ndarray, pad: str) -> list:
    """Each row of (n, D) coefficients as ``json.dumps(_clean(mv.to_json_dict()), indent=2)``
    writes it, at indent ``pad``."""
    inner, deep = pad + "  ", pad + "    "
    keys = [f"\n{deep}{_quote(name)}: " for name in kernel_for(sig).blade_names]
    head = f'{{\n{inner}"sig": [\n{deep}{sig.p},\n{deep}{sig.q}\n{inner}],\n{inner}"coeffs": {{'
    tail, empty = f"\n{inner}}}\n{pad}}}", f"}}\n{pad}}}"

    def table(prefixes, values, firsts):  # each value once; NaN, Infinity as json.dumps writes them
        text = {c: repr(round(c, 12) + 0.0).replace("inf", "Infinity").replace("nan", "NaN")
                for c in set(values)}
        return [prefix + text[c] for prefix, c in zip(prefixes, values)]

    return _term_rows(keys, rows, table,
                      lambda terms: head + (",".join(terms) + tail if terms else empty))


def _render(fmt: str, title: str, tables, payload, code: int = 0, csv_table=None):
    """(text, code) for ``fmt``, building only what that format prints.

    ``tables`` is a list of ``(heading or None, headers, rows)``; markdown
    prints the title and then each table, csv the first table or
    ``csv_table``, and json the result of calling ``payload`` (if not yet text).
    """
    if fmt == "json":
        body = payload()
        return (body if isinstance(body, str) else json.dumps(_clean(body), indent=2)) + "\n", code
    if fmt == "csv":
        _, headers, rows = csv_table or tables[0]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(_cells(rows))
        return buf.getvalue(), code
    lines = [f"# {title}"]
    for heading, headers, rows in tables:
        lines += [""] + ([f"## {heading}", ""] if heading else [])
        lines += ["| " + " | ".join(headers) + " |",
                  "| " + " | ".join("---" for _ in headers) + " |"]
        lines += ["| " + " | ".join(row) + " |" for row in _cells(rows)]
    return "\n".join(lines) + "\n", code


def _cap(args, default: int) -> int:
    """--max-closure if given, else the closure's own default cap."""
    return default if args.max_closure is None else args.max_closure


def _load_rootsystem(args):
    spec, max_roots = args.system, _cap(args, MAX_ROOTS)
    try:
        return catalog(spec, max_roots=max_roots)
    except UnknownCatalogName:
        pass
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return rootsystem_from_dict(data, max_roots=max_roots)
    raise UnknownCatalogName(f"{spec!r} is not a catalog name "
                             f"({', '.join(catalog_names())}) or a readable file")


def _resolve_group(args):
    generate = generate_pin if args.kind in ("pin", "full") else generate_spin
    g = generate(_load_rootsystem(args), max_elements=_cap(args, MAX_GROUP))
    return g if args.kind in ("pin", "spin") else quotient_by_sign(g)


def _cmd_roots(args):
    rs = _load_rootsystem(args)
    cm, edges = cartan_matrix(rs), diagram(rs)
    integral = bool((rs.coxeter_matrix <= 3).all())  # unit roots: -2cos(pi/m) is whole iff m <= 3
    coord_headers, simple = [f"x{i+1}" for i in range(rs.sig.dim)], set(rs.simple.tolist())
    label = rs.name or "root system"
    return _render(
        args.format,
        f"{label}: {rs.root_count} roots, rank {rs.rank} in Cl({rs.sig.p},{rs.sig.q})",
        [("Simple roots", coord_headers, rs.simple_coords),
         ("Cartan matrix" + (" (integral)" if integral else ""),
          [f"a{j+1}" for j in range(rs.rank)], cm.entries),
         ("Diagram edges (Coxeter labels m > 2)", ["i", "j", "m"], edges),
         (f"All {rs.root_count} roots", coord_headers, rs.coords)],
        lambda: {
            "name": rs.name,
            "signature": [rs.sig.p, rs.sig.q],
            "rank": rs.rank,
            "root_count": rs.root_count,
            "simple_roots": rs.simple_coords.tolist(),
            "roots": rs.coords.tolist(),
            "cartan_matrix": cm.entries.tolist(),
            "cartan_integral": integral,
            "diagram_edges": [e._asdict() for e in edges],
            "axioms_ok": check_axioms(rs).ok,
        },
        csv_table=(None, ["index", *coord_headers, "simple"],
                   ([i, *r, i in simple] for i, r in enumerate(_cells(rs.coords)))))


def _cmd_group(args):
    g = _resolve_group(args)

    def listing():
        yield from enumerate(_text_rows(g.sig, g.element_arr()))

    def payload():
        elements = ",\n    ".join(_json_rows(g.sig, g.element_arr(), "    "))
        return (f'{{\n  "name": {_quote(args.system)},\n  "kind": {_quote(g.kind)},\n'
                f'  "signature": [\n    {g.sig.p},\n    {g.sig.q}\n  ],\n  "order": {g.order},\n'
                f'  "elements": [\n    {elements}\n  ]\n}}')

    return _render(
        args.format, f"{g.kind} group over {args.system}: order {g.order}",
        [(None, ["index", "element"], listing())],
        payload)


def _cmd_classes(args):
    g = _resolve_group(args)
    classes = g.conjugacy_classes()

    def listing():
        text = _text_rows(g.sig, g.element_arr())
        for i, cl in enumerate(classes):
            yield (i, cl.size, cl.element_order, text[cl.indices[0]],
                   "; ".join([text[j] for j in cl.indices.tolist()]))

    def payload():
        members = _json_rows(g.sig, g.element_arr(), " " * 8)
        # each representative is a member, written once: two spaces less on every line
        reps = [members[cl.indices[0]].replace("\n  ", "\n") for cl in classes]
        listed = [f'{{\n      "size": {cl.size},\n      "order": {cl.element_order},\n'
                  f'      "representative": {rep},\n      "members": [\n        '
                  + ",\n        ".join([members[j] for j in cl.indices.tolist()])
                  + "\n      ]\n    }"
                  for cl, rep in zip(classes, reps)]
        return (f'{{\n  "kind": {_quote(g.kind)},\n  "order": {g.order},\n  "classes": [\n    '
                + ",\n    ".join(listed) + f'\n  ],\n  "name": {_quote(args.system)}\n}}')

    return _render(
        args.format, f"Conjugacy classes of the {g.kind} group over {args.system} "
                     f"(order {g.order}, {len(classes)} classes)",
        [(None, ["class", "size", "element_order", "representative", "members"], listing())],
        payload)


def _cmd_induce(args):
    rs = _load_rootsystem(args)
    spin = generate_spin(rs, max_elements=_cap(args, MAX_GROUP))
    ind = induce_4d(spin)
    agreement = reflection_agreement(spin)
    if spin.order <= 48:
        sweep = spinorial_automorphisms(ind)
    else:
        sweep = spinorial_automorphisms(ind, pairs=2000, seed=_seed())
    return _render(
        args.format, f"Spinor induction from {args.system}",
        [(None, ["source", "3d_roots", "spin_order", "induced", "4d_roots",
                 "agreement_pairs", "max_deviation", "sweep_pairs"],
          [[args.system, rs.root_count, spin.order, ind.identification, ind.root_count,
            agreement.pairs_tested, agreement.max_deviation, sweep.pairs_tested]]),
         ("Induced simple roots", ["a0", "a1", "a2", "a3"], ind.base.simple_coords)],
        lambda: {
            "source": args.system,
            "source_root_count": rs.root_count,
            "spin_order": spin.order,
            "identification": ind.identification,
            "root_count": ind.root_count,
            "simple_roots_4d": ind.base.simple_coords.tolist(),
            "axioms_ok": check_axioms(ind.base).ok,
            "reflection_agreement": agreement._asdict(),
            "automorphism_sweep": {"pairs_tested": sweep.pairs_tested,
                                   "exhaustive": sweep.exhaustive,
                                   "distinct_images": sweep.distinct_images},
        })


def _cmd_mckay(args):
    table = mckay_table()
    return _render(
        args.format, "McKay numerology: |Phi| = sum of irrep dims = Coxeter number",
        [(None, ["3D", "4D", "affine", "binary group", "|Phi|", "sum d_i", "h", "irrep dims"],
          ((*r[:-1], "+".join(str(d) for d in r.irrep_dims)) for r in table))],
        lambda: {"rows": [r._asdict() for r in table]})


def _cmd_modular(args):
    if not (math.isfinite(args.x1) and math.isfinite(args.x2)):
        raise VersorlabError("tau must be finite")
    report = word_report(args.word, (args.x1, args.x2))
    x1, x2 = report["input"]
    return _render(
        args.format, f"Modular word `{report['word'] or '(identity)'}` at ({_fmt(x1)}, {_fmt(x2)})",
        [(None, ["word", "x1", "x2", "versor_x1", "versor_x2",
                 "oracle_x1", "oracle_x2", "max_deviation"],
          [[report["word"], x1, x2, *report["versor_result"], *report["oracle_result"],
            report["max_deviation"]]])],
        lambda: report)


def _cmd_verify(args):
    report = run_battery(seed=_seed())
    return _render(
        args.format, f"Verification battery: {report.passed} passed, {report.failed} failed "
                     f"(seed {report.seed})",
        [(None, ["check", "result", "detail"],
          ((r.name, "PASS" if r.passed else "FAIL", r.detail) for r in report.results))],
        lambda: {
            "seed": report.seed,
            "tolerance": DEFAULT_EPS,
            "passed": report.passed,
            "failed": report.failed,
            "ok": report.ok,
            "checks": [r._asdict() for r in report.results],
        },
        code=0 if report.ok else 1)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # -1e-05, -inf and -nan are values, as -1 and -.5 are
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # a usage error is main's one JSON line, not argparse's usage text
        raise VersorlabError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="versorlab",
        description="Root systems, versor groups, spinor induction, and the "
                    "conformal modular group, from the command line.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, closure=True):
        p.add_argument("--format", choices=("json", "csv", "markdown"),
                       default="json", help="output format (default json)")
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


_PARSER = _build_parser()  # built once per process: argparse parses without changing it


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "max_closure", None) is not None and args.max_closure < 1:
            raise VersorlabError(f"--max-closure must be >= 1, got {args.max_closure}")
        text, code = args.fn(args)
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: point stdout at devnull for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (VersorlabError, OSError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        try:
            sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        except BrokenPipeError:  # the reader left stderr too: devnull likewise, still exit 2
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
