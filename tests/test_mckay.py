"""Tests for Cayley tables, abelianization, irrep dimensions, and the ADE table."""

import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import versorlab.groups
import versorlab.induction
import versorlab.mckay
import versorlab.roots
from versorlab import (
    abelianization_order,
    catalog,
    cayley_table,
    coxeter_number,
    generate_pin,
    generate_spin,
    irrep_dimensions,
    mckay_table,
    quotient_by_sign,
)
from versorlab.algebra import find_ids, kernel_for
from versorlab.errors import AmbiguousIrrepDims, McKayMismatch

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
        ref = find_ids(kern.gp_elemwise(arr[:, None], arr[None]).reshape(n * n, -1), g._lookup)
        assert (ref >= 0).all()
        ref = ref.reshape(n, n)
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


def test_abelianization_builds_no_n_by_n_array():
    # the commutators [g, s_k] are n m entries and H is closed by breadth-first
    # right products: Pin(F4), n = 2304, stays far below one n x n intp array (42 MB)
    g = generate_pin(catalog("F4"))
    g.table, g.inverses()
    tracemalloc.start()
    try:
        assert abelianization_order(g) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_irrep_dimensions_builds_no_table():
    # the class of z_m x^-1 is read off one n x r replay of the representatives'
    # left products: Pin(F4), n = 2304, stays far below its n x n table (10.6 MB)
    g = generate_pin(catalog("F4"))
    g.conjugacy_classes(), g.inverses()
    tracemalloc.start()
    try:
        dims = irrep_dimensions(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert "table" not in g.__dict__
    assert sum(d * d for d in dims.dims) == g.order


def test_one_inverse_replay_serves_every_answer(monkeypatch):
    # inverses() is replayed down the tree once per group, then read by
    # irrep_dimensions and abelianization_order alike; irrep_dimensions reads
    # the class representatives' left products the class split replayed
    calls = []
    real = versorlab.groups.VersorGroup._left_products
    for g in (generate_pin(catalog("F4")), quotient_by_sign(spin("B3"))):
        g.table, g.conjugacy_classes()
        calls.clear()
        monkeypatch.setattr(versorlab.groups.VersorGroup, "_left_products",
                            lambda self, starts, **k: calls.append((starts.size, "hops" in k))
                            or real(self, starts, **k))
        first = g.inverses()
        irrep_dimensions(g), abelianization_order(g)
        assert g.inverses() is first and not first.flags.writeable
        assert calls == [(1, True)], g
        monkeypatch.undo()


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


@pytest.mark.parametrize("name", ["A1", "A1^3", "A1^4", "A3", "B3", "H3", "D4", "F4",
                                  "I2(5)", "I2(7)", "I2(12)"])
def test_irrep_dimensions_obey_the_counting_theorems(name):
    # Pin, Spin and their quotients by -1: as many irreps as classes, squares
    # summing to |G|, |G / [G,G]| linear ones, each dividing |G / Z(G)| (Ito),
    # and the quotient's irreps pulled back among the cover's
    for cover in (generate_pin(catalog(name)), spin(name)):
        quotient = quotient_by_sign(cover)
        for g in (cover, quotient):
            got = irrep_dimensions(g)
            center = sum(1 for c in g.conjugacy_classes() if c.size == 1)
            assert len(got.dims) == got.class_count == len(g.conjugacy_classes()), g
            assert sum(d * d for d in got.dims) == got.group_order == g.order, g
            assert got.dims.count(1) == abelianization_order(g), g
            assert all((g.order // center) % d == 0 for d in got.dims), g
        unlifted = Counter(irrep_dimensions(quotient).dims) - Counter(irrep_dimensions(cover).dims)
        assert not unlifted, cover


def test_irrep_dimensions_match_the_literature():
    # Geck & Pfeiffer (2000): the Weyl groups of D4 and F4.  e123 is central in
    # Pin(H3) with e123^2 = -1, so each irrep of 2I extends twice (e123 acting
    # as either square root of -1's sign); W(H3) = A5 x {+-1}
    two_i, a5 = (1, 2, 2, 3, 3, 4, 4, 5, 6), (1, 3, 3, 4, 5)
    twice = lambda dims: tuple(sorted(dims * 2))
    assert irrep_dimensions(quotient_by_sign(generate_pin(catalog("D4")))).dims == (
        1, 1, 2, 3, 3, 3, 3, 3, 3, 4, 4, 6, 8)
    assert irrep_dimensions(quotient_by_sign(generate_pin(catalog("F4")))).dims == (
        (1,) * 4 + (2,) * 4 + (4,) * 5 + (6,) * 2 + (8,) * 4 + (9,) * 4 + (12, 16))
    pin_h3 = generate_pin(catalog("H3"))
    assert irrep_dimensions(pin_h3).dims == twice(two_i)
    assert irrep_dimensions(quotient_by_sign(pin_h3)).dims == twice(a5)


def test_irrep_dimensions_raise_where_eigenvectors_mix(monkeypatch):
    # two eigenvectors mixed, as a repeated eigenvalue would leave them, give
    # no irreps: the integrality and orthogonality checks raise
    eig = np.linalg.eig

    def mixing(m):
        w, v = eig(m)
        return w, np.hstack([v[:, :1] + v[:, 1:2], v[:, :1] - v[:, 1:2], v[:, 2:]])

    monkeypatch.setattr(np.linalg, "eig", mixing)
    with pytest.raises(AmbiguousIrrepDims, match=r"^order 24, 7 classes: dimensions \["):
        irrep_dimensions(spin("A3"))


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


def test_mckay_table_closes_only_the_3d_systems(monkeypatch):
    versorlab.induction._catalog_coxeter_matrices()  # the 4D catalog matrices, closed once
    closed = []
    close_roots = versorlab.roots.close_roots
    monkeypatch.setattr(versorlab.roots, "close_roots",
                        lambda *a, **k: closed.append(k["name"]) or close_roots(*a, **k))
    mckay_table()
    assert Counter(closed) == Counter(["A1^3", "A3", "B3", "H3"])  # no D4, E6, E7 or E8


@pytest.mark.parametrize("name", ["A1", "A1^3", "A1^4", "A3", "D4", "E6", "E7", "E8"])
def test_integer_coxeter_element_order_is_the_closures_coxeter_number(name):
    assert versorlab.mckay._coxeter_h(name) == coxeter_number(catalog(name))


@pytest.mark.parametrize("name", ["B3", "F4", "H3"])
def test_integer_coxeter_element_needs_a_simply_laced_seed(name):
    with pytest.raises(McKayMismatch, match=f"^{name} is not simply laced"):
        versorlab.mckay._coxeter_h(name)


def test_mckay_table_dims_are_recomputed():
    rows = mckay_table()
    by_name = {r.binary_group: r.irrep_dims for r in rows}
    assert by_name["2T"] == (1, 1, 1, 2, 2, 2, 3)
    assert by_name["2I"] == (1, 2, 2, 3, 3, 4, 4, 5, 6)
