"""Tests for Cayley tables, abelianization, irrep dimensions, and the ADE table."""

import subprocess
import sys

import numpy as np
import pytest

import versorlab.mckay
from versorlab import (
    abelianization_order,
    catalog,
    cayley_table,
    generate_pin,
    generate_spin,
    irrep_dimensions,
    mckay_table,
    quotient_by_sign,
)
from versorlab.algebra import kernel_for
from versorlab.mckay import _dimension_multisets

SPIN_SOURCES = ("A1", "A1^3", "A3", "B3", "H3")


def spin(name):
    return generate_spin(catalog(name))


def test_mckay_does_not_import_numpy_ma():
    # np.unique without options imports numpy.ma, 15-25 ms once per process
    code = ("import contextlib, io, sys\nfrom versorlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main(['mckay']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_cayley_table_is_a_latin_square():
    for g in (spin("A1^3"), quotient_by_sign(spin("A3")), generate_pin(catalog("H3")),
              spin("D4"), quotient_by_sign(generate_pin(catalog("B3")))):
        table = cayley_table(g)
        n = g.order
        assert table.shape == (n, n)
        for i in range(n):
            assert sorted(table[i]) == list(range(n))
            assert sorted(table[:, i]) == list(range(n))


def test_cayley_table_matches_float_products():
    # most entries follow by associativity from a few float rows; every one
    # must equal the lookup of the float product g_i g_j
    for g in (generate_pin(catalog("A3")), spin("H3"), quotient_by_sign(spin("B3"))):
        arr = g.element_arr()
        n = g.order
        kern = kernel_for(g.sig)
        ref = g.indices_of(kern.gp_elemwise(arr[:, None], arr[None]).reshape(n * n, -1)).reshape(n, n)
        assert np.array_equal(cayley_table(g), ref)


def test_cayley_table_is_read_only():
    table = cayley_table(spin("A3"))
    assert table.dtype == np.int16  # the smallest signed type that holds n
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_cayley_table_identity_row():
    g = spin("A3")
    table = cayley_table(g)
    e = int(np.where([str(v.mv) == "1" for v in g.elements])[0][0])
    assert np.array_equal(table[e], np.arange(g.order))
    assert np.array_equal(table[:, e], np.arange(g.order))


def test_abelianization_orders():
    expected = {"A1": 2, "A1^3": 4, "A3": 3, "B3": 2, "H3": 1}
    for name, ab in expected.items():
        assert abelianization_order(spin(name)) == ab, name


def test_irrep_dimensions_of_binary_polyhedral_groups():
    expected = {
        "A1": (1, 1),
        "A1^3": (1, 1, 1, 1, 2),          # quaternion group Q8
        "A3": (1, 1, 1, 2, 2, 2, 3),      # binary tetrahedral
        "B3": (1, 1, 2, 2, 2, 3, 3, 4),   # binary octahedral
        "H3": (1, 2, 2, 3, 3, 4, 4, 5, 6),  # binary icosahedral
    }
    for name, dims in expected.items():
        got = irrep_dimensions(spin(name))
        assert got.dims == dims, name
        assert got.sum == sum(dims)
        assert sum(d * d for d in got.dims) == got.group_order
        assert got.class_count == len(dims)


def test_irrep_dimensions_of_rotation_quotients():
    expected = {
        "A1^3": (1, 1, 1, 1),        # V4
        "A3": (1, 1, 1, 3),          # A4
        "B3": (1, 1, 2, 3, 3),       # S4
        "H3": (1, 3, 3, 4, 5),       # A5
    }
    for name, dims in expected.items():
        assert irrep_dimensions(quotient_by_sign(spin(name))).dims == dims, name


def test_counting_alone_is_ambiguous_for_binary_icosahedral():
    # 8 dims >= 2 with squares summing to 119: divisibility by |G| leaves 3
    # multisets, the center-index refinement leaves 2, and only the lift
    # constraint from the A5 quotient singles out the true one.
    raw = _dimension_multisets(119, 8, 120)
    assert len(raw) == 3
    ito = _dimension_multisets(119, 8, 60)
    assert len(ito) == 2
    assert (2, 2, 3, 3, 4, 4, 5, 6) in ito


def test_counting_is_unique_for_binary_tetrahedral():
    assert _dimension_multisets(21, 4, 24) == [(2, 2, 2, 3)]


def test_mckay_table_rows():
    rows = mckay_table()
    assert [(r.threeD, r.fourD, r.lie) for r in rows] == [
        ("A1^3", "A1^4", "D4+"),
        ("A3", "D4", "E6+"),
        ("B3", "F4", "E7+"),
        ("H3", "H4", "E8+"),
    ]
    assert [(r.phi_count, r.sum_dims, r.coxeter_h) for r in rows] == [
        (6, 6, 6), (12, 12, 12), (18, 18, 18), (30, 30, 30),
    ]
    assert [r.binary_group for r in rows] == ["Q8", "2T", "2O", "2I"]


def test_mckay_table_uses_the_callers_spin_groups(monkeypatch):
    want = mckay_table()
    groups = {name: spin(name) for name in ("A1^3", "A3", "B3", "H3")}
    built = []
    monkeypatch.setattr(versorlab.mckay, "generate_spin",
                        lambda rs: built.append(rs) or generate_spin(rs))
    assert mckay_table(groups) == want
    assert built == []  # nothing closed again
    assert mckay_table({"A3": groups["A3"]}) == want
    assert len(built) == 3  # the names the mapping lacks are built


def test_mckay_table_dims_are_recomputed():
    rows = mckay_table()
    by_name = {r.binary_group: r.irrep_dims for r in rows}
    assert by_name["2T"] == (1, 1, 1, 2, 2, 2, 3)
    assert by_name["2I"] == (1, 2, 2, 3, 3, 4, 4, 5, 6)
