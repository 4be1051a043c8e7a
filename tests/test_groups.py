"""Tests for Pin/Spin generation, conjugacy structure, and Coxeter numbers."""

import functools
import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import versorlab.algebra
import versorlab.cli
import versorlab.groups
import versorlab.roots
from versorlab import (
    ClosureCapExceeded,
    Multivector,
    Signature,
    Versor,
    VersorlabError,
    blade,
    catalog,
    catalog_names,
    close_roots,
    conjugacy_classes,
    coxeter_number,
    element_order,
    generate_pin,
    generate_spin,
    group_table_dict,
    quotient_by_sign,
    rootsystem_from_dict,
    scalar_mv,
    spinor_coords,
    vector,
)
from versorlab.algebra import (BLOCK, blade_name, find_ids, kernel_for, lex_sorted, orbit,
                               quantize, row_keys, vector_rows)
from versorlab.cli import main
from versorlab.groups import MAX_GROUP

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
    assert all(v.parity == 0 for v in spin.elements)
    pin = generate_pin(rs)
    parities = {v.parity for v in pin.elements}
    assert parities == {0, 1}


def test_pin_contains_all_root_vectors():
    rs = catalog("B3")
    pin = generate_pin(rs)
    for row in rs.coords:
        pin.index_of(vector(SIG3, row))  # raises unless an element


def test_membership_and_index_errors():
    g = generate_spin(catalog("A1^3"))
    with pytest.raises(VersorlabError):
        g.index_of(blade(SIG3, "e1"))  # odd element, not in spin
    arr = g.element_arr()
    assert arr[g.index_of(scalar_mv(SIG3, -1.0))].tolist() == [-1.0] + [0.0] * 7
    assert find_ids(arr[[3, 0]], g._lookup).tolist() == [3, 0]
    assert find_ids(np.eye(1, 8, 1), g._lookup).tolist() == [-1]  # e1
    # a vector, a short row and a table of rows are no element
    for bad in (vector(SIG3, [1.0, 0.0, 0.0]), arr[0, :4], arr, arr[None]):
        with pytest.raises(VersorlabError, match="not in the group"):
            g.index_of(bad)


LOOKUP_NAMES = ["A1^3", "A3", "B3", "H3", "D4"]
KINDS = ["pin", "spin", "full", "chiral"]


def count_keys(mp) -> list:
    """Record every row ``groups.qkey`` quantizes, by monkeypatching."""
    keyed = []
    mp.setattr(versorlab.groups, "qkey", lambda row, _f=versorlab.groups.qkey:
               keyed.append(row) or _f(row))
    return keyed


@pytest.mark.parametrize("name", LOOKUP_NAMES)
def test_a_census_of_the_groups_own_rows_quantizes_nothing(name, monkeypatch):
    keyed = count_keys(monkeypatch)
    for g in (group_of(name, kind) for kind in KINDS):
        orders = np.empty(g.order, dtype=int)
        for c in conjugacy_classes(g):
            orders[c.indices] = c.element_order
        assert [g.element_order(row) for row in g.element_arr()] == orders.tolist()
        assert [g.element_order(v) for v in g.elements] == orders.tolist()
        assert [g.index_of(v) for v in g.elements] == list(range(g.order))
    assert keyed == []
    g.index_of(g.element_arr()[0] * (1 + 1e-12))  # the counter counts: other bytes are keyed
    assert len(keyed) == 1


@pytest.mark.parametrize("name", LOOKUP_NAMES)
def test_the_key_decides_every_value_that_is_not_a_rows_own_bytes(name, monkeypatch):
    keyed = count_keys(monkeypatch)
    for g in (group_of(name, kind) for kind in KINDS):
        arr, n, calls = g.element_arr(), g.order, len(keyed)
        signed = arr.copy()
        signed[arr == 0] *= -1  # each zero's sign flipped: other bytes, the same key
        # moved by under a quarter cell: the same key unless a coefficient crosses a cell boundary
        moved = arr + 0.24 * versorlab.algebra.HASH_GRID * (-1.0) ** np.arange(arr.shape[1])
        same = (quantize(moved) == quantize(arr)).all(axis=1)
        for i in range(n):
            assert signed[i].tobytes() != arr[i].tobytes() and g.index_of(signed[i]) == i
            if same[i]:
                assert g.index_of(moved[i]) == i
            else:
                with pytest.raises(VersorlabError, match="not in the group"):
                    g.index_of(moved[i])
            # -g_i is g's row n-1-i, bytes and all; in a quotient only its key finds [g_i]
            assert g.index_of(-arr[i]) == g._negatives[i]
        with pytest.raises(VersorlabError, match="not in the group"):
            g.index_of(arr[:2])  # a 2-row array is no element, though it starts with one
        assert len(keyed) - calls == 2 * n + 1 + (n if g.kind in ("reflection", "rotation") else 0)


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


@pytest.mark.parametrize("name,kind", [("H3", "pin"), ("D4", "spin"), ("A3", "full"),
                                       ("A3", "chiral")])
def test_elements_and_members_equal_the_validated_versors(name, kind):
    """Rows the library closed are wrapped unchecked; the checked constructor agrees."""
    g = (generate_pin if kind in ("pin", "full") else generate_spin)(catalog(name))
    if kind in ("full", "chiral"):
        g = quotient_by_sign(g)
    read = list(g.elements)
    for c in conjugacy_classes(g):
        read += [*c.members, c.representative]
        assert c.representative.mv.key() == c.members[0].mv.key()
    assert len(read) == 2 * g.order + len(conjugacy_classes(g))
    for v in read:
        checked = Versor(Multivector(g.sig, v.mv.coeffs))
        assert np.array_equal(v.mv.coeffs, checked.mv.coeffs)
        assert (v.parity, v.norm_sign) == (checked.parity, checked.norm_sign)
        assert type(v.parity) is type(v.norm_sign) is int
    assert {v.parity for v in g.elements} == ({0} if kind in ("spin", "chiral") else {0, 1})


def test_quotient_requires_versor_group():
    q = quotient_by_sign(generate_spin(catalog("A1^3")))
    with pytest.raises(VersorlabError, match="^quotient_by_sign expects a pin or spin group$"):
        quotient_by_sign(q)


def test_a_versor_group_of_another_kind_is_refused():
    g = generate_spin(catalog("A1^3"))
    with pytest.raises(ValueError, match="bad versor group kind 'chiral'"):
        versorlab.groups.VersorGroup("chiral", g.source, g.element_arr(), g._graph,
                                     (g._e, *g._tree, g._layers))


def _spin_a3_exponentials():
    # every element of 2T as sign (cos theta + B sin theta), read off its spinor
    # coordinates (a0, b): theta = atan2(|b|, |a0|), the sign of a0, B along b / |b|;
    # theta and B are None for the two scalars
    g = generate_spin(catalog("A3"))
    e23, e31, e12 = blade(SIG3, "e23"), -blade(SIG3, "e13"), blade(SIG3, "e12")
    for v in g.elements:
        a0, *b = spinor_coords(v).tolist()
        sign, bmag = math.copysign(1.0, a0), math.hypot(*b)
        if bmag <= 1e-9:
            yield v, sign, None, None, None
            continue
        B = (sign / bmag) * (b[0] * e23 + b[1] * e31 + b[2] * e12)
        axis = tuple(c * sign / bmag for c in b)
        yield v, sign, math.atan2(bmag, abs(a0)), B, axis


def test_exp_decomposition_structure():
    terms = list(_spin_a3_exponentials())
    assert len(terms) == 24
    assert sum(theta is None for _, _, theta, _, _ in terms) == 2
    angles, axes = Counter(), {}
    for _, sign, theta, _, axis in terms:
        if theta is None:
            continue
        angles[round(theta, 9)] += 1
        if math.isclose(theta, math.pi / 3):  # B on one of the 8 axes (+-1, +-1, +-1)/sqrt3
            axes.setdefault(tuple(round(c * math.sqrt(3.0), 9) for c in axis), set()).add(sign)
    assert angles == {round(math.pi / 3, 9): 16, round(math.pi / 2, 9): 6}
    assert axes == {axis: {-1.0, 1.0} for axis in itertools.product((1.0, -1.0), repeat=3)}


def test_exp_decomposition_reconstructs_elements():
    one = scalar_mv(SIG3, 1.0)
    for v, sign, theta, B, _ in _spin_a3_exponentials():
        if theta is None:
            assert v.mv.close_to(sign * one)
            continue
        assert B.is_grade(2) and (B * B).close_to(-1.0 * one)
        assert v.mv.close_to(sign * (math.cos(theta) * one + math.sin(theta) * B))


_CAP_TAKERS = {
    "generate_pin": ("max_elements", lambda cap: generate_pin(catalog("A3"), max_elements=cap)),
    "generate_spin": ("max_elements", lambda cap: generate_spin(catalog("A3"), max_elements=cap)),
    "close_roots": ("max_roots", lambda cap: close_roots(np.eye(3), max_roots=cap)),
    "catalog": ("max_roots", lambda cap: catalog("A3", max_roots=cap)),
    "rootsystem_from_dict": ("max_roots", lambda cap: rootsystem_from_dict(
        {"simple_roots": [[1.0, 0.0], [0.0, 1.0]]}, max_roots=cap)),
}


@pytest.mark.parametrize("cap", [0, -5, 2.5, math.nan, True, None, "100"])
@pytest.mark.parametrize("taker", sorted(_CAP_TAKERS))
def test_every_cap_taker_checks_its_cap_where_it_enters(taker, cap):
    # before: max_elements=-5 said "versor closure exceeded -5 elements" and
    # max_roots=0 "seed is likely not a finite system"
    name, take = _CAP_TAKERS[taker]
    with pytest.raises(VersorlabError, match=rf"^{name} must be an integer >= 1, got "
                                             rf"{re.escape(repr(cap))}$"):
        take(cap)
    take(np.int64(100))  # any integer type


def test_coxeter_numbers():
    # every full-rank catalog system
    expected = {"A1": 2, "A1^3": 2, "A1^4": 2, "A3": 4, "B3": 6, "D4": 6, "F4": 12,
                "E6": 12, "E7": 18, "E8": 30, "H3": 10, "H4": 30,
                "I2(5)": 5, "I2(7)": 7, "I2(12)": 12}
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


WITHIN_CAPS = ("A1", "A1^3", "A1^4", "A3", "B3", "D4", "F4", "H3", "I2(5)", "I2(7)", "I2(12)")


def test_closures_and_coxeter_number_key_no_root_again(monkeypatch):
    # Pin, Spin and h read the reflection graph close_roots kept: with the roots'
    # key helpers and reflections broken after closing, every one still answers
    systems = {name: catalog(name) for name in catalog_names() if name != "I2(n)"}
    systems.update((name, catalog(name)) for name in WITHIN_CAPS)

    def broken(*args):
        raise AssertionError("the roots were keyed or reflected again")
    for name in ("_reflect_pairs", "key_ids", "find_ids"):
        monkeypatch.setattr(versorlab.roots, name, broken)
    for name, rs in systems.items():
        assert coxeter_number(rs) * rs.rank == rs.root_count, name
    for name in WITHIN_CAPS:
        assert generate_pin(systems[name]).order == 2 * generate_spin(systems[name]).order, name
    assert generate_spin(systems["H4"]).order == 14_400  # Pin(H4), E6, E7 and E8 pass MAX_GROUP


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
    for i, v in enumerate(g.elements[:10]):
        assert g.index_of(v.reverse()) == g.inverses()[i]


def test_closure_cap_boundary():
    # the cap is checked before every block, partway through a layer
    h3 = catalog("H3")
    assert close_roots(h3.simple_coords, max_roots=30).root_count == 30
    assert generate_spin(h3, max_elements=120).order == 120
    with pytest.raises(ClosureCapExceeded):
        close_roots(h3.simple_coords, max_roots=29)
    with pytest.raises(ClosureCapExceeded):
        generate_spin(h3, max_elements=119)  # a cap of 59 on W+(H3), whose 60 rows are all reached


def test_closure_is_independent_of_block_size(monkeypatch):
    def closures():  # the roots and reflections, and each group's rows, graph and tree
        out = [a for rs in map(catalog, ("E8", "H4")) for a in (rs.coords, rs.reflections)]
        for g in (generate_pin(catalog("H3")), generate_spin(catalog("D4"))):
            out += [g.element_arr(), g._graph, np.array(g._e), *g._tree, g._layers]
        return out

    default = closures()
    # an orbit block is max(1, BLOCK // gens.size) rows, and the smallest
    # generator set of the four is H4's 4 x 4 mirrors; a lift block is
    # max(1, BLOCK // (|gens| * D)) rows: one row per block for all four at
    # 16, and at 1024 blocks that split layers and sign checks that hold several
    for block in (16, 1024):
        monkeypatch.setattr(versorlab.algebra, "BLOCK", block)
        monkeypatch.setattr(versorlab.groups, "BLOCK", block)
        for small, big in zip(closures(), default, strict=True):
            assert small.dtype == big.dtype and small.shape == big.shape
            assert small.tobytes() == big.tobytes()
    with pytest.raises(ClosureCapExceeded):  # the seed of test_closure_cap_trips_on_irrational_angle
        close_roots([[1.0, 0.0], [-math.cos(1.0), math.sin(1.0)]], sig=Signature(2, 0),
                    max_roots=500)


@pytest.fixture(scope="module")
def spin_h4():
    """Spin(H4) and its class split's peak traced memory and float products.

    The split is made once here, traced: a 14 400-element group whose
    (n, n) table alone would be 415 MB.
    """
    g = generate_spin(catalog("H4"))
    with pytest.MonkeyPatch.context() as mp:
        counted = count_products(mp)
        tracemalloc.start()
        try:
            conjugacy_classes(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return g, peak, counted


def test_spin_h4_order(spin_h4):
    assert spin_h4[0].order == 14_400


def test_spin_h4_class_count(spin_h4):
    # Spin(H4) is 2I x 2I, and 2I has 9 classes
    assert len(conjugacy_classes(spin_h4[0])) == 81


def test_spin_h4_class_split_is_small_and_integer(spin_h4):
    g, peak, products = spin_h4
    assert peak < 64 << 20
    assert products == []
    # orders in 2I x 2I are lcm(a, b) of orders a, b in 2I
    in_2i = (1, 2, 3, 4, 5, 6, 10)
    assert {c.element_order for c in conjugacy_classes(g)} == {
        math.lcm(a, b) for a in in_2i for b in in_2i}


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "F4"])
def test_coefficients_near_quarters_are_quarters(name):
    # closure does no rounding of its own, so a coefficient that should be a
    # multiple of 1/4 is one to a few ulps (Spin(D4) is the worst, at 6 ulps
    # of 1.0 from its 1/sqrt(2) seeds); per-layer rounding left 2e-12
    rs = catalog(name)
    for g in (generate_pin(rs), generate_spin(rs)):
        c = g.element_arr().ravel()
        gap = np.abs(c - np.round(4 * c) / 4)
        assert gap[gap <= 1e-9].max() <= 8 * np.finfo(float).eps, (name, g.kind)


@pytest.mark.parametrize("name,kind,edges", [
    ("F4", "pin", 2304 * 4),
    ("F4", "spin", 1152 * 6),
    ("H3", "spin", 120 * 3),
    ("A1", "spin", 0),
])
def test_closure_products_are_order_times_generators(name, kind, edges, monkeypatch):
    # the cover's graph has |G| * |gens| edges, and W's half as many: each
    # element of W is multiplied once by each generator, |W| * |gens|
    # products, and each of Spin's generators is the product of two vectors
    rs = catalog(name)
    counted = []
    gp_elemwise = versorlab.algebra._Kernel.gp_elemwise

    def counting(self, A, B):
        counted.append(int(np.prod(np.broadcast_shapes(A.shape, B.shape)[:-1])))
        return gp_elemwise(self, A, B)

    monkeypatch.setattr(versorlab.algebra._Kernel, "gp_elemwise", counting)
    g = (generate_pin if kind == "pin" else generate_spin)(rs)
    gens = rs.rank if kind == "pin" else rs.rank * (rs.rank - 1) // 2
    assert g.order * gens == g._graph.size == edges
    assert sum(counted) == edges // 2 + (0 if kind == "pin" else gens)


def count_products(mp) -> list:
    """Name every float product call the kernel makes, by monkeypatching."""
    counted = []
    kernel = versorlab.algebra._Kernel
    for name in ("gp", "gp_elemwise", "scalar_part"):
        def counting(self, A, B, _f=getattr(kernel, name), _name=name):
            counted.append(_name)
            return _f(self, A, B)
        mp.setattr(kernel, name, counting)
    return counted


# -- the float reference: the table multiplied out and the table-based class split


def reference_table(g) -> np.ndarray:
    """The (n, n) table with generator rows as float products, looked up by key."""
    arr, n, kern = g.element_arr(), g.order, kernel_for(g.sig)
    e = g.index_of(np.eye(1, kern.D)[0])
    t = np.empty((n, n), dtype=np.int16 if n <= np.iinfo(np.int16).max else np.int32)
    t[e] = np.arange(n)
    filled = np.arange(n) == e
    step = max(1, BLOCK // n)
    rows = []
    while not filled.all():
        s = int(np.argmin(filled))
        rows.append(find_ids(kern.gp_elemwise(arr[s], arr), g._lookup))
        assert (rows[-1] >= 0).all()
        frontier = np.flatnonzero(filled)
        while frontier.size:
            grown = []
            for row in rows:
                src = frontier[~filled[row[frontier]]]
                dst = row[src]
                for k in range(0, src.size, step):
                    t[dst[k:k + step]] = row[t[src[k:k + step]]]
                filled[dst] = True
                grown.append(dst)
            frontier = np.concatenate(grown)
    return t


def reference_split(g, t):
    """Inverses by scanning the table, classes as g^-1 x g over all g, and element orders."""
    arr, n = g.element_arr(), g.order
    e = g.index_of(np.eye(1, kernel_for(g.sig).D)[0])
    inv, every = np.argmax(t == e, axis=1), np.arange(n)
    orders = np.zeros(n, dtype=int)
    acc = every
    for k in range(1, n + 1):  # acc[i] = g_i^k
        orders[(acc == e) & (orders == 0)] = k
        acc = t[acc, every]
    assigned = np.zeros(n, dtype=bool)
    classes = []
    for idx in range(n):
        if not assigned[idx]:
            members = np.unique(t[t[inv, idx], every])
            assigned[members] = True
            classes.append(members)
    classes.sort(key=lambda m: (m.size, tuple(quantize(arr[m[0]]))))
    return inv, classes, orders


def reference_json(sig, row, eps=1e-9) -> dict:
    return {"sig": [sig.p, sig.q],
            "coeffs": {blade_name(m): float(row[m]) for m in range(row.size) if abs(row[m]) >= eps}}


GRAPH_GROUPS = ([(name, kind) for name in ("A1", "A1^3", "A1^4", "A3", "B3", "D4", "F4", "H3",
                                          "I2(5)", "I2(7)") for kind in ("pin", "spin")]
                + [(name, kind) for name in ("A3", "B3") for kind in ("full", "chiral")])


def group_of(name, kind):
    g = (generate_pin if kind in ("pin", "full") else generate_spin)(catalog(name))
    return quotient_by_sign(g) if kind in ("full", "chiral") else g


def test_the_class_split_keeps_each_representatives_left_products():
    # one replay serves element orders and irrep_dimensions: powers[j, c] is the index of
    # z_c g_j for the representative z_c of ranked class c
    for g in (group_of("H3", "spin"), group_of("F4", "pin"), group_of("B3", "full")):
        classes, label, powers = g._class_split
        assert np.array_equal(powers, g.table[[cl.indices[0] for cl in classes]].T)
        assert all((label[cl.indices] == c).all() for c, cl in enumerate(classes))


def test_building_the_table_peaks_at_most_two_and_a_half_tables():
    # the negated half is written in the table's own dtype: an int64 temporary
    # of n/2 x n took Pin(F4)'s int16 table build to 3.5 tables
    g = generate_pin(catalog("F4"))
    g.inverses()
    tracemalloc.start()
    try:
        table = g.table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int16 and peak <= 2.5 * table.nbytes, peak / table.nbytes


@pytest.mark.parametrize("name,kind", GRAPH_GROUPS)
def test_graph_answers_equal_the_float_reference(name, kind):
    g = group_of(name, kind)
    t = reference_table(g)
    assert np.array_equal(g.table, t) and g.table.dtype == t.dtype
    inv, classes, orders = reference_split(g, t)
    assert np.array_equal(g.inverses(), inv)
    got = conjugacy_classes(g)
    assert [c.indices.tolist() for c in got] == [m.tolist() for m in classes]
    assert [c.element_order for c in got] == [int(orders[m[0]]) for m in classes]
    assert [g.element_order(row) for row in g.element_arr()] == orders.tolist()
    arr = g.element_arr()
    assert group_table_dict(g) == {
        "kind": g.kind, "order": g.order,
        "classes": [{"size": m.size, "order": int(orders[m[0]]),
                     "representative": reference_json(g.sig, arr[m[0]]),
                     "members": [reference_json(g.sig, r) for r in arr[m]]} for m in classes]}


def assert_spanning_tree(g):
    """The closure's breadth-first tree: each edge g_j = g_p s_k is a graph edge, the layers
    list each element of W but the identity once, each parent sits in the layer before, and
    the tree from +-1 reaches every element."""
    (j, p, k), layers, e, neg = g._tree, g._layers, g._e, g._negatives
    assert np.array_equal(g._graph[p, k], j)
    w = np.append(j, e)  # one element of each +-pair: W
    assert np.unique(w).size == w.size == np.unique(np.minimum(neg, np.arange(g.order))).size
    assert layers[0] == 0 and layers[-1] == j.size and np.all(np.diff(layers) > 0)
    depth = np.full(g.order, -1)
    depth[e] = 0
    for t, (lo, hi) in enumerate(zip(layers, layers[1:])):
        assert np.all(depth[p[lo:hi]] == t) and np.all(depth[j[lo:hi]] == -1)
        depth[j[lo:hi]] = t + 1
    depth[neg[w]] = depth[w]
    assert depth.min() == 0


@pytest.mark.parametrize("name,kind", GRAPH_GROUPS)
def test_the_stored_tree_spans_the_group(name, kind):
    assert_spanning_tree(group_of(name, kind))


def test_the_stored_tree_spans_spin_h4(spin_h4):
    g = spin_h4[0]
    assert_spanning_tree(g)
    assert_spanning_tree(quotient_by_sign(g))


@pytest.mark.parametrize("name,generate", [("F4", generate_pin), ("H3", generate_spin)])
def test_integer_answers_build_no_key_dict(name, generate):
    g = generate(catalog(name))
    q = quotient_by_sign(g)
    for h in (g, q):
        h.table
        conjugacy_classes(h)
        h.inverses()
    assert not {"_rows", "_lookup"} & (g.__dict__.keys() | q.__dict__.keys())
    assert q.index_of(-g.element_arr()[1]) == q.index_of(g.element_arr()[1])
    assert {"_rows", "_lookup"} <= q.__dict__.keys() and "_lookup" not in g.__dict__


@pytest.mark.parametrize("kind", ["pin", "spin", "full", "chiral"])
@pytest.mark.parametrize("command", ["group", "classes"])
def test_listings_build_no_key_dict(command, kind, monkeypatch, capsys):
    built = []
    for name in ("generate_pin", "generate_spin", "quotient_by_sign"):
        def recording(*args, _f=getattr(versorlab.cli, name), **kwargs):
            built.append(_f(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(versorlab.cli, name, recording)
    for fmt in ("json", "csv", "markdown"):
        assert main([command, "H3", "--kind", kind, "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert len(built) == (3 if kind in ("pin", "spin") else 6)
    assert not [h for h in built if {"_rows", "_lookup"} & h.__dict__.keys()]


@pytest.mark.parametrize("name,kind", [("F4", "pin"), ("H3", "spin"), ("B3", "full"), ("A1", "spin")])
def test_table_classes_orders_and_coxeter_number_make_no_float_product(name, kind, monkeypatch):
    g = group_of(name, kind)
    rs = catalog(name)
    counted = count_products(monkeypatch)
    g.table
    conjugacy_classes(g)
    [g.element_order(row) for row in g.element_arr()]
    coxeter_number(rs)
    assert counted == []


# -- the construction: W closed in integers, lifted to {+-v_w}


def reference_closure(kind, rs):
    """The group as a float orbit of +-1 under right products with its versor
    generators, lex-sorted: each element the value of its first path."""
    kern = kernel_for(rs.sig)
    s = vector_rows(rs.sig, rs.simple_coords)
    i, j = np.triu_indices(rs.rank, 1)
    gens = s if kind == "pin" else kern.gp_elemwise(s[i], s[j])
    arr, graph, _, _ = orbit(np.eye(1, kern.D) * [[1.0], [-1.0]], gens,
                             lambda A, B: kern.gp_elemwise(A[:, None], B[None]), MAX_GROUP, "{cap}")
    return lex_sorted(arr, graph)


LIFTED = ([(name, kind) for name in ("A1", "A1^3", "A1^4", "A3", "B3", "D4", "F4", "H3",
                                     "I2(5)", "I2(7)", "I2(12)") for kind in ("pin", "spin")]
          + [("H4", "spin")])


@pytest.mark.parametrize("name,kind", LIFTED)
def test_lifted_closure_equals_the_float_versor_orbit(name, kind):
    rs = catalog(name)
    g = (generate_pin if kind == "pin" else generate_spin)(rs)
    arr, graph = reference_closure(kind, rs)
    assert np.array_equal(row_keys(g.element_arr()), row_keys(arr))
    assert np.array_equal(g._graph, graph)
    assert np.abs(g.element_arr() - arr).max() <= 1e-14
    # every antipode exact, where the float orbit reaches g and -g by different paths
    assert np.array_equal(g.element_arr()[g._negatives], -g.element_arr())
    # -g_i is row n-1-i, and in the quotient [-g] = [g]: what a lookup of -arr finds
    q = quotient_by_sign(g)
    assert np.array_equal(g._negatives, np.arange(g.order)[::-1])
    assert np.array_equal(q._negatives, np.arange(q.order))
    for h in (g, q):
        assert np.array_equal(h._negatives, find_ids(-h.element_arr(), h._lookup))


# the degrees d_i of W: prod (1 + q + ... + q^(d_i - 1)) counts its elements by length
DEGREES = {"A3": (2, 3, 4), "B3": (2, 4, 6), "H3": (2, 6, 10), "D4": (2, 4, 4, 6), "I2(5)": (2, 5)}


@pytest.mark.parametrize("name", DEGREES)
def test_orbit_layers_of_w_count_its_elements_by_length(name):
    # under Pin's generators, the simple reflections, W's breadth-first layer L holds the
    # elements of length L, counted by the Poincare polynomial (Humphreys 1990, 1.11)
    rs = catalog(name)
    _, graph, first, layers = orbit(rs.simple[None], rs.reflections,
                                    lambda b, p: p[:, b].swapaxes(0, 1), MAX_GROUP, "{cap}")
    counts = functools.reduce(np.convolve, [np.ones(d, dtype=int) for d in DEGREES[name]])
    assert np.diff(layers).tolist() == counts.tolist()
    assert name != "A3" or counts.tolist() == [1, 3, 5, 6, 5, 3, 1]
    # the tree: each row but e is first hit by edge first[i - 1] = j m + k, from the layer before
    assert np.array_equal(first, np.unique(graph, return_index=True)[1][1:])
    rows = np.arange(1, graph.shape[0])
    assert np.array_equal(np.searchsorted(layers, first // graph.shape[1], side="right"),
                          np.searchsorted(layers, rows, side="right") - 1)
    # Pin, and its quotient, keep those layers as bounds on the tree's edges, e's row left out
    g = generate_pin(rs)
    for group in (g, quotient_by_sign(g)):
        assert np.array_equal(group._layers, layers[1:] - 1)


@pytest.mark.parametrize("kind", ["pin", "spin"])
def test_generators_that_disagree_with_the_permutations_are_refused(kind):
    rs = catalog("A3")
    perms, s = rs.reflections, vector_rows(rs.sig, rs.simple_coords)
    i, j = np.triu_indices(rs.rank, 1)
    if kind == "pin":  # s_1 and s_2 swapped (reversing all three is A3's diagram automorphism)
        factors = s[[1, 0, 2], None]
    else:  # s_j s_i where the permutations say s_i first, then s_j
        perms, factors = perms[j[:, None], perms[i]], np.stack([s[j], s[i]], 1)
    with pytest.raises(VersorlabError, match="^the versor generators do not lift the root "
                                             "permutations$"):
        versorlab.groups._generate(kind, rs, perms, factors, MAX_GROUP)


@pytest.mark.parametrize("name,generate", [("E6", generate_spin), ("E8", generate_pin)])
def test_a_group_past_the_cap_fails_before_any_float_product(name, generate, monkeypatch):
    rs = catalog(name)
    counted = count_products(monkeypatch)
    with pytest.raises(ClosureCapExceeded, match=f"^versor closure exceeded {MAX_GROUP} elements$"):
        generate(rs)
    assert counted == []
