"""Tests for Pin/Spin generation, conjugacy structure, and Coxeter numbers."""

import math
from collections import Counter

import numpy as np
import pytest

from versorlab import (
    Multivector,
    Signature,
    Versor,
    VersorlabError,
    blade,
    catalog,
    close_roots,
    conjugacy_classes,
    coxeter_number,
    element_order,
    exp_decomposition,
    generate_pin,
    generate_spin,
    group_table_dict,
    quotient_by_sign,
    scalar_mv,
    vector,
)

SIG3 = Signature(3, 0)

# name -> (|Pin|, |Spin|)
GROUP_ORDERS = {
    "A1": (4, 2),
    "A1^3": (16, 8),
    "A3": (48, 24),
    "B3": (96, 48),
    "H3": (240, 120),
}


def test_pin_spin_orders():
    for name, (pin_n, spin_n) in GROUP_ORDERS.items():
        rs = catalog(name)
        assert generate_pin(rs).order == pin_n, name
        assert generate_spin(rs).order == spin_n, name


def test_spin_of_a1_cubed_is_quaternion_group():
    g = generate_spin(catalog("A1^3"))
    expected = set()
    for b in ("1", "e12", "e13", "e23"):
        expected.add(blade(SIG3, b))
        expected.add(-blade(SIG3, b))
    assert {v.mv for v in g.elements} == expected


def test_spin_elements_are_even_pin_mixed():
    rs = catalog("A3")
    spin = generate_spin(rs)
    assert all(v.is_even for v in spin.elements)
    pin = generate_pin(rs)
    parities = {v.parity for v in pin.elements}
    assert parities == {0, 1}


def test_pin_contains_all_root_vectors():
    rs = catalog("B3")
    pin = generate_pin(rs)
    for row in rs.coords:
        assert pin.contains(vector(SIG3, row))


def test_membership_and_index_errors():
    g = generate_spin(catalog("A1^3"))
    with pytest.raises(VersorlabError):
        g.index_of(blade(SIG3, "e1"))  # odd element, not in spin
    assert not g.contains(vector(SIG3, [1.0, 0.0, 0.0]))
    assert g.contains(scalar_mv(SIG3, -1.0))


def test_element_orders():
    g = generate_spin(catalog("A3"))
    assert g.element_order(scalar_mv(SIG3, 1.0)) == 1
    assert g.element_order(scalar_mv(SIG3, -1.0)) == 2
    assert g.element_order(blade(SIG3, "e12")) == 4
    half = 0.5 * (scalar_mv(SIG3, 1.0) + blade(SIG3, "e12")
                  + blade(SIG3, "e13") + blade(SIG3, "e23"))
    assert g.element_order(half) == 6
    assert element_order(g, half) == 6  # module-level alias


def test_spin_a3_conjugacy_classes():
    g = generate_spin(catalog("A3"))
    classes = conjugacy_classes(g)
    assert [c.size for c in classes] == [1, 1, 4, 4, 4, 4, 6]
    # the size-6 class is exactly the +-basis-bivector set
    six = [c for c in classes if c.size == 6][0]
    expected = set()
    for b in ("e12", "e13", "e23"):
        expected |= {blade(SIG3, b), -blade(SIG3, b)}
    assert {v.mv for v in six.members} == expected
    assert six.element_order == 4
    # class equation
    assert sum(c.size for c in classes) == 24


def test_pin_a3_conjugacy_classes():
    rs = catalog("A3")
    g = generate_pin(rs)
    classes = conjugacy_classes(g)
    assert [c.size for c in classes] == [1, 1, 6, 6, 6, 8, 8, 12]
    twelve = [c for c in classes if c.size == 12][0]
    got = {v.mv for v in twelve.members}
    expected = {vector(SIG3, row) for row in rs.coords}
    assert got == expected


def test_quotients_by_sign():
    rs = catalog("A3")
    spin, pin = generate_spin(rs), generate_pin(rs)
    rot = quotient_by_sign(spin)
    full = quotient_by_sign(pin)
    assert rot.order == 12 and full.order == 24
    assert [c.size for c in conjugacy_classes(rot)] == [1, 3, 4, 4]
    assert [c.size for c in conjugacy_classes(full)] == [1, 3, 6, 6, 8]
    # R and -R hit the same quotient element
    e12 = blade(SIG3, "e12")
    assert rot.index_of(e12) == rot.index_of(-e12)


# (system, kind) -> (class sizes in table order, element-order census), as
# computed by float power loops and float ~G R G products; pin and spin are
# the covers, full and chiral their quotients by sign
CENSUS = {
    ("H3", "pin"): ([1, 1, 1, 1] + [12] * 8 + [20] * 4 + [30, 30],
                    {1: 1, 2: 31, 3: 20, 4: 32, 5: 24, 6: 20, 10: 24, 12: 40, 20: 48}),
    ("H3", "spin"): ([1, 1, 12, 12, 12, 12, 20, 20, 30],
                     {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}),
    ("H3", "full"): ([1, 1, 12, 12, 12, 12, 15, 15, 20, 20],
                     {1: 1, 2: 31, 3: 20, 5: 24, 6: 20, 10: 24}),
    ("H3", "chiral"): ([1, 12, 12, 15, 20], {1: 1, 2: 15, 3: 20, 5: 24}),
    ("D4", "pin"): ([1, 1, 2, 12, 12, 12, 12, 12, 24, 24, 32, 32, 32, 32, 48, 48, 48],
                    {1: 1, 2: 27, 3: 32, 4: 84, 6: 96, 8: 144}),
    ("D4", "spin"): ([1, 1, 1, 1, 6, 6, 6, 6, 12, 12, 12] + [16] * 8,
                     {1: 1, 2: 3, 3: 32, 4: 60, 6: 96}),
    ("D4", "full"): ([1, 1, 6, 6, 6, 12, 12, 12, 24, 24, 24, 32, 32],
                     {1: 1, 2: 43, 3: 32, 4: 84, 6: 32}),
    ("D4", "chiral"): ([1, 1, 6, 6, 6, 6, 6, 16, 16, 16, 16],
                       {1: 1, 2: 19, 3: 32, 4: 12, 6: 32}),
}


@pytest.mark.parametrize("name,kind", sorted(CENSUS))
def test_element_order_census_and_class_sizes(name, kind):
    rs = catalog(name)
    g = (generate_pin if kind in ("pin", "full") else generate_spin)(rs)
    if kind in ("full", "chiral"):
        g = quotient_by_sign(g)
    sizes, census = CENSUS[name, kind]
    classes = conjugacy_classes(g)
    assert [c.size for c in classes] == sizes
    assert Counter(g.element_order(row) for row in g.element_arr()) == census
    # a class's listed order is that of each of its members
    for c in classes:
        assert {g.element_order(m) for m in c.members} == {c.element_order}


def test_quotient_requires_versor_group():
    q = quotient_by_sign(generate_spin(catalog("A1^3")))
    with pytest.raises((VersorlabError, AttributeError, TypeError)):
        quotient_by_sign(q)


def test_exp_decomposition_structure():
    g = generate_spin(catalog("A3"))
    dec = exp_decomposition(g)
    assert len(dec.terms) == 24
    assert len(dec.scalars()) == 2
    assert dec.angle_counts() == {round(math.pi / 3, 9): 16, round(math.pi / 2, 9): 6}
    # the 16 angle-pi/3 bivectors are the eight (+-e12 +-e23 +-e13)/sqrt3 axes
    axes = set()
    for t in dec.at_angle(math.pi / 3):
        b = t.bivector
        key = tuple(int(round(c * math.sqrt(3))) for c in
                    (b.coeff("e12"), b.coeff("e13"), b.coeff("e23")))
        assert all(abs(k) == 1 for k in key)
        axes.add(key)
    assert len(axes) == 8


def test_exp_decomposition_reconstructs_elements():
    g = generate_spin(catalog("A3"))
    for t in exp_decomposition(g).terms:
        if t.kind == "scalar":
            assert t.element.close_to(scalar_mv(SIG3, float(t.sign)))
        else:
            recon = float(t.sign) * (math.cos(t.theta) * scalar_mv(SIG3, 1.0)
                                     + math.sin(t.theta) * t.bivector)
            assert t.element.close_to(recon)
            assert (t.bivector * t.bivector).scalar == pytest.approx(-1.0)


def test_exp_decomposition_rejects_pin():
    with pytest.raises(VersorlabError):
        exp_decomposition(generate_pin(catalog("A3")))


def test_coxeter_numbers():
    expected = {"A1": 2, "A3": 4, "B3": 6, "D4": 6, "F4": 12, "H3": 10}
    for name, h in expected.items():
        assert coxeter_number(catalog(name)) == h, name
    # h * rank = root count for each of these
    for name, h in expected.items():
        rs = catalog(name)
        assert h * rs.rank == rs.root_count


def test_coxeter_number_needs_full_rank():
    a2_in_3d = close_roots([[1.0, 0.0, 0.0], [-0.5, math.sqrt(3) / 2, 0.0]],
                           sig=SIG3, name="A2 embedded")
    with pytest.raises(VersorlabError):
        coxeter_number(a2_in_3d)


def test_group_table_dict_shape():
    g = generate_spin(catalog("A1^3"))
    d = group_table_dict(g)
    assert d["kind"] == "spin"
    assert d["order"] == 8
    sizes = [c["size"] for c in d["classes"]]
    assert sizes == [1, 1, 2, 2, 2]  # Q8
    for c in d["classes"]:
        assert len(c["members"]) == c["size"]
        assert isinstance(c["representative"], dict)  # multivector JSON form


def test_closure_is_reverse_closed():
    g = generate_spin(catalog("B3"))
    for v in g.elements[:10]:
        assert g.contains(v.reverse())
