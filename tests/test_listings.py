"""``group`` and ``classes`` listings, written straight from the element arrays,
against the route they replace.

The references live here only: each element's coefficient dict, rounded and
through ``json.dumps(..., indent=2)``, and the text form of a multivector, in
blade order with magnitudes to 6 significant digits.  Both keep one set of
coefficients, every c with |c| > DEFAULT_EPS, a NaN included.  Every catalog group within the caps is checked in all
four kinds, except H4's, whose listings CI pins by digest.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from versorlab import (
    Multivector,
    Signature,
    catalog,
    generate_pin,
    generate_spin,
    group_table_dict,
    quotient_by_sign,
)
from versorlab.algebra import DEFAULT_EPS, _json_dicts, _text_rows, blade_name
from versorlab.cli import _clean, _json_rows, main

NAMES = ("A1", "A1^3", "A1^4", "A3", "B3", "D4", "F4", "H3", "I2(5)", "I2(7)")
KINDS = ("pin", "spin", "chiral", "full")


def clean(obj):
    """Floats rounded to 12 decimals, -0.0 as 0.0, as the CLI's ``_clean`` rounds them."""
    if isinstance(obj, float):
        return round(obj, 12) + 0.0
    if isinstance(obj, dict):
        return {k: clean(v) for k, v in obj.items()}
    return [clean(v) for v in obj] if isinstance(obj, list) else obj


def reference_dict(sig, values):
    return {"sig": [sig.p, sig.q],
            "coeffs": {blade_name(m): c for m, c in enumerate(values) if not abs(c) <= DEFAULT_EPS}}


def reference_str(sig, values):
    terms = []
    for m, c in enumerate(values):
        if abs(c) <= DEFAULT_EPS:
            continue
        name, mag = blade_name(m), f"{abs(c):.6g}"
        body = mag if name == "1" else (name if mag == "1" else f"{mag}{name}")
        if not terms:
            terms.append(f"-{body}" if c < 0 else body)
        else:
            terms.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(terms) if terms else "0"


def reference_table(g):
    rows = g.element_arr().tolist()
    return {"kind": g.kind, "order": g.order,
            "classes": [{"size": cl.size, "order": cl.element_order,
                         "representative": reference_dict(g.sig, rows[cl.indices[0]]),
                         "members": [reference_dict(g.sig, rows[j]) for j in cl.indices]}
                        for cl in g.conjugacy_classes()]}


def build(name, kind):
    g = (generate_pin if kind in ("pin", "full") else generate_spin)(catalog(name))
    return g if kind in ("pin", "spin") else quotient_by_sign(g)


def cli_out(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", NAMES)
def test_listings_match_the_reference_route(name, kind, capsys):
    g = build(name, kind)
    rows = g.element_arr().tolist()
    text = [reference_str(g.sig, values) for values in rows]
    classes = g.conjugacy_classes()
    want_json = {
        "group": {"name": name, "kind": g.kind, "signature": [g.sig.p, g.sig.q], "order": g.order,
                  "elements": [reference_dict(g.sig, values) for values in rows]},
        "classes": {**reference_table(g), "name": name},
    }
    want_cells = {
        "group": [[str(i), t] for i, t in enumerate(text)],
        "classes": [[str(i), str(cl.size), str(cl.element_order), text[cl.indices[0]],
                     "; ".join(text[j] for j in cl.indices)] for i, cl in enumerate(classes)],
    }
    for cmd in ("group", "classes"):
        out = cli_out(capsys, cmd, name, "--kind", kind)
        assert out == json.dumps(clean(want_json[cmd]), indent=2) + "\n"
        cells = list(csv.reader(io.StringIO(cli_out(capsys, cmd, name, "--kind", kind,
                                                    "--format", "csv"))))
        assert cells[1:] == want_cells[cmd]
        markdown = cli_out(capsys, cmd, name, "--kind", kind, "--format", "markdown")
        assert markdown.splitlines()[4:] == ["| " + " | ".join(c) + " |" for c in cells[1:]]
    assert [str(v.mv) for v in g.elements] == text
    assert group_table_dict(g) == reference_table(g)
    assert _json_rows(g.sig, g.element_arr(), "") == [
        json.dumps(_clean(v.mv.to_json_dict()), indent=2) for v in g.elements]


SIG3 = Signature(3, 0)
PLANTED = np.array([
    [-0.0, 1e-9, -1e-9, math.nextafter(1e-9, 0.0), 0.1234567890123456, -0.0, 1 / 3, -2.0],
    [0.0] * 8,
    [-0.0] * 8,
    [1.0, -1.0, 0.5, -0.5, 1e-12, -1e-12, 123456.789, math.nextafter(1e-9, 1.0)],
])
NAN_ROW = [math.nan, -1e-9, -math.nan, 0.0, -math.nextafter(1e-9, 1.0), -0.0, 1e-9, 0.25]
INF_ROWS = [[math.inf, -0.0, -math.inf, 1e-9, math.nan, 0.25, -math.inf, 0.0],
            [-math.inf, math.inf, 0.0, 0.0, 0.0, 0.0, 0.0, math.nan]]


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 0.5])
@pytest.mark.parametrize("pad", ["", "  ", " " * 8])
def test_the_writer_keeps_signed_zeros_and_the_eps_boundary_as_the_reference(eps, pad):
    # one rule, |c| > DEFAULT_EPS: exactly 1e-9 is dropped and the next float up
    # kept, and a signed zero is never listed; a coefficient at a tolerance eps,
    # or just above it, is listed by that rule and not by eps
    planted = np.vstack([PLANTED, [eps, -eps, math.nextafter(eps, 1.0), -0.0,
                                   1e-9, -math.nextafter(1e-9, 1.0), 0.0, 0.0]])
    want = json.dumps(clean([reference_dict(SIG3, values) for values in planted.tolist()]),
                      indent=2).replace("\n", "\n" + pad)
    rows = _json_rows(SIG3, planted, pad + "  ")
    got = f"[\n{pad}  " + f",\n{pad}  ".join(rows) + f"\n{pad}]"
    assert got == want
    assert _json_rows(SIG3, planted, "") == [
        json.dumps(_clean(Multivector(SIG3, values).to_json_dict()), indent=2) for values in planted]
    coeffs = [row["coeffs"] for row in json.loads(got)]
    assert list(coeffs[0]) == ["e3", "e23", "e123"] and coeffs[1] == coeffs[2] == {}
    assert list(coeffs[3]) == ["1", "e1", "e2", "e12", "e23", "e123"]
    assert coeffs[3]["e123"] == 1e-9 and "-0.0" not in got  # rounded to 12 decimals
    above = ["1", "e1", "e2"] if eps > DEFAULT_EPS else ["e2"] if eps == DEFAULT_EPS else []
    assert list(coeffs[4]) == above + ["e13"]


def test_the_text_writer_matches_the_reference_and_str():
    rows = np.vstack([PLANTED, NAN_ROW, *INF_ROWS])
    want = [reference_str(SIG3, values) for values in rows.tolist()]
    assert _text_rows(SIG3, rows) == want
    assert [str(Multivector(SIG3, values)) for values in rows] == want
    # coefficients at DEFAULT_EPS and signed zeros are not printed, a NaN is, unsigned
    assert want[:3] == ["0.123457e3 + 0.333333e23 - 2e123", "0", "0"]
    assert want[4:] == ["nan + nane2 - 1e-09e3 + 0.25e123",
                        "inf - infe2 + nane3 + 0.25e13 - infe23", "-inf + infe1 + nane123"]
    # the dict form keeps the same coefficients as the text form, a NaN among them
    assert ([list(Multivector(SIG3, values).to_json_dict()["coeffs"]) for values in rows]
            == [list(reference_dict(SIG3, values)["coeffs"]) for values in rows.tolist()])


def test_the_json_writer_writes_non_finite_coefficients_as_json_dumps():
    # NaN, Infinity and -Infinity, as json.dumps writes them, not Python's nan and inf
    rows = np.array([NAN_ROW, *INF_ROWS])
    got = _json_rows(SIG3, rows, "")
    assert got == [json.dumps(_clean(reference_dict(SIG3, values)), indent=2)
                   for values in rows.tolist()]
    assert '"1": NaN' in got[0] and '"1": Infinity' in got[1] and '"1": -Infinity' in got[2]


EMPTY = np.arange(0, 2000, 25)  # rows with nothing listed: 0.0, -0.0, eps and -eps in turn


def _planted_table():
    """A seeded (2 000, 16) Cl(3,1) table whose values repeat across rows and blades, with
    NaN, +-inf, +-DEFAULT_EPS and their neighbours, signed zeros and all-zero rows planted,
    and values that are the first term of some rows and a later term of others."""
    rng = np.random.default_rng(2024)
    eps = DEFAULT_EPS
    special = [math.nan, -math.nan, math.inf, -math.inf, eps, -eps, -0.0, 0.0,
               math.nextafter(eps, 0.0), math.nextafter(eps, 1.0),
               -math.nextafter(eps, 0.0), -math.nextafter(eps, 1.0)]
    pool = np.array(special + [0.5, -0.5, 1.0, -1.0, 1 / 3, 1e-6, 123456.789]
                    + rng.standard_normal(20).tolist())
    rows = np.where(rng.random((2000, 16)) < 0.5, 0.0, rng.choice(pool, (2000, 16)))
    rows[rng.random((2000, 16)) < 0.1] = -0.0
    # 0.5 and -0.5 on e2 (blade 2): the first term of some rows, a later term of others
    rows[3::7, :2] = 0.0
    rows[3::7, 2] = 0.5
    rows[4::7, 0] = 1.0
    rows[4::7, 2] = 0.5
    rows[5::7, :2] = 0.0
    rows[5::7, 2] = -0.5
    rows[6::7, 1] = 1.0
    rows[6::7, 2] = -0.5
    rows[EMPTY] = [[0.0], [-0.0], [eps], [-eps]] * (len(EMPTY) // 4)
    return rows


def test_the_gathered_listings_match_the_reference_writers_row_by_row():
    sig, rows = Signature(3, 1), _planted_table()
    values = rows.tolist()
    text, dicts = _text_rows(sig, rows), _json_dicts(sig, rows)
    assert text == [reference_str(sig, v) for v in values]
    assert _json_rows(sig, rows, "  ") == [json.dumps(_clean(reference_dict(sig, v)), indent=2)
                                           .replace("\n", "\n  ") for v in values]
    # json.dumps writes each float by its repr, so equal dumps are equal keys and floats
    want = [json.dumps(reference_dict(sig, v)) for v in values]
    assert [json.dumps(d) for d in dicts] == want
    mvs = [Multivector(sig, row) for row in rows]
    assert [str(mv) for mv in mvs] == text
    assert [json.dumps(mv.to_json_dict()) for mv in mvs] == want
    # the plants are there: rows with nothing listed, each special value kept or dropped
    # by |c| > DEFAULT_EPS, and 0.5 and -0.5 on e2 as a row's first term and a later one
    assert [text[j] for j in EMPTY] == ["0"] * len(EMPTY)
    kept = {repr(c) for d in dicts for c in d["coeffs"].values()}
    above = math.nextafter(DEFAULT_EPS, 1.0)
    assert {"nan", "inf", "-inf", repr(above), repr(-above)} <= kept
    assert not {"0.0", "-0.0", repr(DEFAULT_EPS), repr(math.nextafter(DEFAULT_EPS, 0.0))} & kept
    assert all(any(t.startswith(head) for t in text) for head in ("0.5e2 ", "-0.5e2 "))
    assert all(any(f" {term} " in t for t in text) for term in ("+ 0.5e2", "- 0.5e2"))
