"""Acceptance suite: ten numbered criteria, one test (one pass/fail line) each.

Run with ``pytest tests/test_acceptance.py -v`` to get the per-criterion
verdict lines.  Every quantitative claim is pinned with its tolerance:
integer counts are exact, element-level matches use 1e-9, and modular-word
agreement with the Mobius oracle uses 1e-6 relative error.
"""

import math

import numpy as np
import pytest

from versorlab import (
    EPLUS,
    Signature,
    Versor,
    blade,
    catalog,
    close_roots,
    conjugacy_classes,
    coxeter_number,
    embed,
    exp_bivector,
    exp_decomposition,
    generate_pin,
    generate_spin,
    geometric_product,
    induce_4d,
    irrep_dimensions,
    mckay_table,
    mobius_oracle,
    modular_S,
    modular_T,
    quotient_by_sign,
    reflect,
    reflection_agreement,
    reverse,
    sandwich,
    scalar_mv,
    spinorial_automorphisms,
    translator,
    vector,
)
from versorlab.cga2d import apply_word
from versorlab.mckay import _dimension_multisets

TOL = 1e-9          # element-level numerical tolerance
WORD_TOL = 1e-6     # relative tolerance for modular-word evaluation
SEED = 42

SIG3 = Signature(3, 0)


def _match_elements(members, expected_rows, tol=TOL):
    """Each expected coefficient row must match exactly one member within tol."""
    arrs = [m.mv.coeffs if isinstance(m, Versor) else m.coeffs for m in members]
    used = set()
    for row in expected_rows:
        hits = [i for i, a in enumerate(arrs)
                if i not in used and np.max(np.abs(a - row)) <= tol]
        if len(hits) != 1:
            return False
        used.add(hits[0])
    return len(used) == len(arrs)


def _bivector_rows(names):
    rows = []
    for name in names:
        for s in (+1.0, -1.0):
            rows.append(s * blade(SIG3, name).coeffs)
    return rows


def test_criterion_01_root_counts():
    expected = {"A1^3": 6, "A3": 12, "B3": 18, "H3": 30}
    got = {}
    for name, count in expected.items():
        rs = close_roots(catalog(name).simple_coords, sig=SIG3, name=name)
        got[name] = rs.root_count
        assert rs.root_count == count, f"{name}: {rs.root_count} != {count}"
    print(f"criterion 01 PASS - reflection closure counts {got} (exact)")


def test_criterion_02_group_orders():
    rs = catalog("A3")
    spin, pin = generate_spin(rs), generate_pin(rs)
    chiral, full = quotient_by_sign(spin), quotient_by_sign(pin)
    assert spin.order == 24
    assert pin.order == 48
    assert chiral.order == 12
    assert full.order == 24
    print("criterion 02 PASS - |Spin|=24 |Pin|=48 chiral=12 full=24 (exact)")


def test_criterion_03_conjugacy_tables():
    rs = catalog("A3")
    spin, pin = generate_spin(rs), generate_pin(rs)

    spin_classes = conjugacy_classes(spin)
    assert [c.size for c in spin_classes] == [1, 1, 4, 4, 4, 4, 6]
    six = next(c for c in spin_classes if c.size == 6)
    assert _match_elements(six.members, _bivector_rows(["e12", "e13", "e23"]))

    pin_classes = conjugacy_classes(pin)
    assert [c.size for c in pin_classes] == [1, 1, 6, 6, 6, 8, 8, 12]
    twelve = next(c for c in pin_classes if c.size == 12)
    root_rows = [vector(SIG3, row).coeffs for row in rs.coords]
    assert _match_elements(twelve.members, root_rows)

    assert [c.size for c in conjugacy_classes(quotient_by_sign(spin))] == [1, 3, 4, 4]
    assert [c.size for c in conjugacy_classes(quotient_by_sign(pin))] == [1, 3, 6, 6, 8]
    print("criterion 03 PASS - class sizes {1,1,4,4,4,4,6}/{1,1,6,6,6,8,8,12}, "
          "size-6 and size-12 classes matched element-by-element at 1e-9")


def test_criterion_04_exponential_structure():
    dec = exp_decomposition(generate_spin(catalog("A3")))

    third = dec.at_angle(math.pi / 3)
    assert len(third) == 16
    patterns = {}
    for t in third:
        b = t.bivector
        key = tuple(int(round(c * math.sqrt(3)))
                    for c in (b.coeff("e12"), b.coeff("e13"), b.coeff("e23")))
        assert all(abs(k) == 1 for k in key), key
        assert np.max(np.abs(np.asarray(key) / math.sqrt(3)
                             - np.array([b.coeff("e12"), b.coeff("e13"), b.coeff("e23")]))) <= TOL
        patterns.setdefault(key, []).append(t.sign)
    assert len(patterns) == 8
    assert all(sorted(v) == [-1, 1] for v in patterns.values())

    half = dec.at_angle(math.pi / 2)
    assert len(half) == 6
    assert _match_elements([t.element for t in half],
                           _bivector_rows(["e12", "e13", "e23"]))
    print("criterion 04 PASS - 16 elements at angle pi/3 over all 8 sign patterns "
          "of sqrt(3)B, 6 pure bivectors at pi/2 (exact)")


def test_criterion_05_induction_theorem():
    expected = {"A1^3": (8, "A1^4"), "A3": (24, "D4"),
                "B3": (48, "F4"), "H3": (120, "H4")}
    for src, (count, label) in expected.items():
        ind = induce_4d(generate_spin(catalog(src)))
        assert ind.root_count == count, src
        assert ind.identification == label, src

    rep_2t = reflection_agreement(generate_spin(catalog("A3")))
    assert rep_2t.pairs_tested == 24 ** 2
    assert rep_2t.max_deviation <= TOL
    assert rep_2t.all_in_group

    rep_2i = reflection_agreement(generate_spin(catalog("H3")))
    assert rep_2i.pairs_tested == 120 ** 2  # all pairs, comfortably >= 10^4
    assert rep_2i.max_deviation <= TOL
    assert rep_2i.all_in_group
    print(f"criterion 05 PASS - induced sizes (8,24,48,120) as (A1^4,D4,F4,H4); "
          f"reflection formulas agree on 576 pairs (2T, max dev {rep_2t.max_deviation:.2e}) "
          f"and 14400 pairs (2I, max dev {rep_2i.max_deviation:.2e})")


def test_criterion_06_spinorial_symmetries():
    ind_2t = induce_4d(generate_spin(catalog("A3")))
    sweep_2t = spinorial_automorphisms(ind_2t)  # exhaustive
    assert sweep_2t.exhaustive
    assert sweep_2t.pairs_tested == 24 ** 2
    assert sweep_2t.failures == 0

    for src, n, distinct in (("B3", 48, 1152), ("H3", 120, 7200)):
        ind = induce_4d(generate_spin(catalog(src)))
        sweep = spinorial_automorphisms(ind)
        assert sweep.exhaustive
        assert sweep.pairs_tested == n ** 2
        assert sweep.distinct_images == distinct
        assert sweep.failures == 0
        # the float witness: 32 seeded pairs multiplied out against the table
        assert spinorial_automorphisms(ind, pairs=32, seed=SEED).failures == 0
    print("criterion 06 PASS - all 576 pairs permute the 2T-induced roots; "
          "all 2304/14400 pairs for 2O/2I (1152/7200 distinct), zero failures")


def test_criterion_07_mckay_numerology():
    rows = mckay_table()
    triples = [(r.phi_count, r.sum_dims, r.coxeter_h) for r in rows]
    assert triples == [(6, 6, 6), (12, 12, 12), (18, 18, 18), (30, 30, 30)]
    assert [r.lie for r in rows] == ["D4+", "E6+", "E7+", "E8+"]
    # h is computed geometrically from the Coxeter versor, not looked up
    assert coxeter_number(catalog("E6")) == 12
    print("criterion 07 PASS - (|Phi|, sum d_i, h) = (6,6,6) (12,12,12) "
          "(18,18,18) (30,30,30) with geometric Coxeter numbers")


def test_criterion_08_irrep_dimensions_2t():
    dims = irrep_dimensions(generate_spin(catalog("A3")))
    assert dims.dims == (1, 1, 1, 2, 2, 2, 3)
    # uniqueness: the counting constraints admit exactly one multiset here
    assert _dimension_multisets(21, 4, 24) == [(2, 2, 2, 3)]
    print("criterion 08 PASS - 2T irrep dimensions uniquely {1,1,1,2,2,2,3}")


def test_criterion_09_conformal_modular():
    sig = Signature(3, 1)
    minus_one = scalar_mv(sig, -1.0)

    e1e = blade(sig, "e1") * EPLUS
    assert (e1e * e1e).close_to(minus_one, eps=TOL)
    S, T = modular_S().mv, modular_T().mv
    ST = S * T
    assert (S * S).close_to(minus_one, eps=TOL)
    assert (ST * ST * ST).close_to(minus_one, eps=TOL)

    rng = np.random.default_rng(SEED)
    worst_t = 0.0
    for _ in range(1000):
        x = rng.uniform(-3, 3, size=2)
        a = rng.uniform(-3, 3, size=2)
        moved = translator(*a).apply_raw(embed(*x).X)
        target = embed(*(x + a)).X
        scale = max(1.0, float(np.max(np.abs(target.coeffs))))
        worst_t = max(worst_t, float(np.max(np.abs(moved.coeffs - target.coeffs))) / scale)
    assert worst_t <= TOL

    worst_w = 0.0
    letters = np.array(["S", "T", "t"])
    for _ in range(1000):
        word = "".join(rng.choice(letters, size=int(rng.integers(1, 13))))
        tau = (float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2.0)))
        got = apply_word(word, tau)
        want = mobius_oracle(word, tau)
        assert got[1] > 0.0  # image stays in the upper half-plane
        rel = abs(complex(*got) - complex(*want)) / max(1.0, abs(complex(*want)))
        worst_w = max(worst_w, rel)
    assert worst_w <= WORD_TOL
    print(f"criterion 09 PASS - (e1 e)^2 = (S T)^3 = S^2 = -1 exactly; 1000 "
          f"translations (worst {worst_t:.2e}) and 1000 modular words vs Mobius "
          f"oracle (worst rel {worst_w:.2e}), upper half-plane preserved")


def test_criterion_10_kernel_properties():
    rng = np.random.default_rng(SEED)
    sig31 = Signature(3, 1)

    def unit3(r):
        v = r.normal(size=3)
        return vector(SIG3, v / np.linalg.norm(v))

    worst = {"reflection": 0.0, "isometry": 0.0, "reversal": 0.0, "exp": 0.0}
    for _ in range(1000):
        # reflection-formula equivalence: -a v a == v - 2 (v|a) a
        alpha = unit3(rng)
        v = vector(SIG3, rng.normal(size=3))
        lhs = reflect(v, alpha).vector_coords()
        a, x = alpha.vector_coords(), v.vector_coords()
        rhs = x - 2.0 * float(x @ a) * a
        worst["reflection"] = max(worst["reflection"], float(np.max(np.abs(lhs - rhs))))

        # sandwich isometry
        V = Versor.from_vectors([unit3(rng) for _ in range(int(rng.integers(1, 5)))])
        u, w = vector(SIG3, rng.normal(size=3)), vector(SIG3, rng.normal(size=3))
        before = (u * w + w * u).scalar / 2.0
        u2, w2 = sandwich(u, V), sandwich(w, V)
        after = (u2 * w2 + w2 * u2).scalar / 2.0
        worst["isometry"] = max(worst["isometry"], abs(after - before))

        # reversal anti-automorphism in the mixed-signature algebra
        A = type(EPLUS)(sig31, rng.normal(size=16))
        B = type(EPLUS)(sig31, rng.normal(size=16))
        dev = np.max(np.abs(reverse(geometric_product(A, B)).coeffs
                            - geometric_product(reverse(B), reverse(A)).coeffs))
        worst["reversal"] = max(worst["reversal"], float(dev))

        # exponential additivity on a random unit bivector
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        barr = np.zeros(8)
        barr[0b011], barr[0b101], barr[0b110] = axis[2], -axis[1], axis[0]
        Bv = type(EPLUS)(SIG3, barr)
        s, t = rng.uniform(-3, 3, size=2)
        dev = np.max(np.abs((exp_bivector(Bv, s).mv * exp_bivector(Bv, t).mv).coeffs
                            - exp_bivector(Bv, s + t).mv.coeffs))
        worst["exp"] = max(worst["exp"], float(dev))

    for name, w in worst.items():
        assert w <= TOL, (name, w)
    print("criterion 10 PASS - 1000 random inputs per kernel property, worst "
          + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
