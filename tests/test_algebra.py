"""Tests for the dense Clifford-algebra kernel."""

import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versorlab import (
    HASH_GRID,
    Multivector,
    NotAVersor,
    Signature,
    SignatureMismatch,
    Versor,
    VersorlabError,
    basis,
    blade,
    catalog,
    exp_bivector,
    geometric_product,
    reflect,
    sandwich,
    scalar_mv,
    vector,
)
import versorlab.algebra
from versorlab import cga2d
from versorlab.algebra import DEFAULT_EPS, KEY_BOUND, find_ids, kernel_for, key_ids, orbit, quantize
from versorlab.cli import _clean, _json_rows
from versorlab.roots import _reflect_pairs

RNG = np.random.default_rng(20260814)

SIG3 = Signature(3, 0)
SIG31 = Signature(3, 1)


def random_mv(sig, scale=1.0):
    return Multivector(sig, RNG.normal(size=1 << sig.dim) * scale)


def random_unit_vector(sig_p):
    """Unit vector in a positive-definite Cl(p, 0)."""
    v = RNG.normal(size=sig_p.dim)
    return vector(sig_p, v / np.linalg.norm(v))


# ---------------------------------------------------------------- products

def test_basis_vector_squares_match_signature():
    e = basis(SIG31)
    for i, ei in enumerate(e):
        sq = (ei * ei).scalar
        expected = 1.0 if i < 3 else -1.0
        assert sq == pytest.approx(expected)


def test_orthogonal_vectors_anticommute():
    e1, e2, e3, e4 = basis(SIG31)
    for a, b in [(e1, e2), (e1, e4), (e3, e4)]:
        assert (a * b + b * a).close_to(scalar_mv(SIG31, 0.0))


def test_known_blade_products():
    e1, e2, e3 = basis(SIG3)
    assert (e1 * e2 * e3).close_to(blade(SIG3, "e123"))
    # e12 * e23 = e13
    assert (blade(SIG3, "e12") * blade(SIG3, "e23")).close_to(blade(SIG3, "e13"))
    # pseudoscalar square in Cl(3,0) is -1
    I = blade(SIG3, "e123")
    assert (I * I).scalar == pytest.approx(-1.0)


def test_product_is_associative_and_distributive():
    for _ in range(50):
        a, b, c = (random_mv(SIG31) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-9)
        assert np.allclose(((a + b) * c).coeffs, (a * c + b * c).coeffs, atol=1e-9)


def test_scalar_multiplication_and_division():
    a = random_mv(SIG3)
    assert np.allclose((2.5 * a).coeffs, (a * 2.5).coeffs)
    assert np.allclose((a / 2.0).coeffs, a.coeffs / 2.0)


def test_geometric_product_function_matches_operator():
    a, b = random_mv(SIG31), random_mv(SIG31)
    assert geometric_product(a, b) == a * b


def test_signature_mismatch_raises():
    a = random_mv(SIG3)
    b = random_mv(SIG31)
    with pytest.raises(SignatureMismatch):
        a * b


# ---------------------------------------------------------------- grades

def test_grade_projection_partitions_the_element():
    a = random_mv(SIG31)
    total = scalar_mv(SIG31, 0.0)
    for k in range(5):
        total = total + a.grade(k)
    assert np.allclose(total.coeffs, a.coeffs)
    for k in (-1, 5):
        with pytest.raises(ValueError, match=f"grade {k} out of range for Cl\\(3, 1\\)"):
            a.grade(k)
    with pytest.raises(ValueError):
        scalar_mv(SIG3, 1.0).grade(4)


def test_grades_present_and_is_grade():
    x = vector(SIG3, [1.0, 2.0, 0.0]) + blade(SIG3, "e12")
    assert x.grades_present() == {1, 2}
    assert not x.is_grade(1)
    assert vector(SIG3, [0.5, 0, 0]).is_grade(1)


def test_vector_coords_roundtrip():
    coords = [0.25, -1.5, 3.0, 0.125]
    v = vector(SIG31, coords)
    assert np.allclose(v.vector_coords(), coords)


# ---------------------------------------------------------------- reversal

def test_reverse_sign_by_grade():
    # reversal flips sign on grades 2 and 3, fixes 0, 1 and 4
    signs = {0: 1, 1: 1, 2: -1, 3: -1, 4: 1}
    for k, s in signs.items():
        a = random_mv(SIG31).grade(k)
        assert np.allclose((~a).coeffs, s * a.coeffs)
        assert np.allclose(a.reverse().coeffs, s * a.coeffs)


def test_reverse_is_antiautomorphism():
    for _ in range(30):
        a, b = random_mv(SIG31), random_mv(SIG31)
        assert np.allclose((~(a * b)).coeffs, (~b * ~a).coeffs, atol=1e-9)
        assert np.allclose((a * b).reverse().coeffs, (b.reverse() * a.reverse()).coeffs,
                           atol=1e-9)


def test_tilde_operator_is_reverse():
    a = random_mv(SIG3)
    assert (~a) == a.reverse()
    assert np.array_equal((~a).coeffs, a.reverse().coeffs)


# ---------------------------------------------------------------- versors

def test_versor_from_vectors_and_parity():
    vs = [random_unit_vector(SIG3) for _ in range(3)]
    V = Versor.from_vectors(vs)
    assert V.parity == 1
    W = Versor.from_vectors(vs + [random_unit_vector(SIG3)])
    assert W.parity == 0


def test_versor_rejects_mixed_parity_and_non_unit():
    with pytest.raises(NotAVersor):
        Versor(scalar_mv(SIG3, 1.0) + vector(SIG3, [1, 0, 0]))
    with pytest.raises(NotAVersor):
        Versor(vector(SIG3, [2.0, 0, 0]))


def test_versor_rejects_nan_and_names_the_failing_scalar():
    # every comparison with NaN is False: both tests must fail closed
    for coeffs in ([math.nan] * 8, [math.nan] + [0.0] * 7, [0.0, math.nan] + [0.0] * 6,
                   [1.0] + [0.0] * 6 + [math.nan], [math.inf] + [0.0] * 7):
        with pytest.raises(NotAVersor):
            Versor(Multivector(SIG3, coeffs))
    with pytest.raises(NotAVersor, match=r"\(scalar part 1\.0000001\)$"):
        Versor(scalar_mv(SIG3, math.sqrt(1.0000001)))


def test_versor_check_scales_eps_only_where_sum_c2_passes_1():
    # in Cl(p, 0) the scalar part of mv * ~mv is sum c^2, so the bound eps max(1, sum c^2)
    # moves a verdict only where |s - 1| is within eps^2 of eps: the first c e1 whose
    # c^2 passes 1 + eps is refused, as by an absolute eps, and the last within it passes
    eps, e1 = DEFAULT_EPS, blade(SIG3, "e1")
    c = math.sqrt(1.0 + eps)
    while c * c - 1.0 <= eps:
        c = math.nextafter(c, 2.0)
    while c * c - 1.0 > eps:
        c = math.nextafter(c, 0.0)
    assert Versor(c * e1).norm_sign == 1
    past = math.nextafter(c, 2.0)
    with pytest.raises(NotAVersor, match=rf"\(scalar part {re.escape(repr(past * past))}\)$"):
        Versor(past * e1)
    # 102 000 seeded Euclidean candidates next to the bound: unit versors scaled by
    # sqrt(1 + d), |d| <= 1.1 eps, plus noise up to eps/2 on one blade of either parity;
    # Versor's verdict is an absolute eps's, on the same floats of mv * ~mv, wherever no
    # |s| - 1 and no other coefficient of mv * ~mv is within 2 eps^2 of eps in magnitude
    rng, compared, passed = np.random.default_rng(52), 0, 0
    for sig in (Signature(2, 0), SIG3, Signature(4, 0)):
        k, n = kernel_for(sig), 34_000
        pool = np.array([Versor.from_vectors(_unit_vectors(rng, sig, 1 + i % 4)).mv.coeffs
                         for i in range(64)])
        scale = np.sqrt(1.0 + rng.uniform(-1.1 * eps, 1.1 * eps, n))
        rows = pool[rng.integers(0, 64, n)] * scale[:, None]
        rows[np.arange(n), rng.integers(0, k.D, n)] += rng.uniform(-eps / 2, eps / 2, n)
        norms = np.array([k.gp(row, k.rev(row)) for row in rows])  # Versor's own floats
        off = np.abs(np.abs(norms) - np.eye(k.D)[0])  # | |s| - 1 | and |x|
        pure = ((np.abs(rows[:, k.odd]) <= eps).all(axis=1)
                | (np.abs(rows[:, k.even]) <= eps).all(axis=1))
        before = pure & (off <= eps).all(axis=1)
        clear = (np.abs(off - eps) > 2 * eps * eps).all(axis=1)
        for row, was in zip(rows[clear], before[clear].tolist()):
            try:
                now = Versor(Multivector(sig, row)).norm_sign == 1
            except NotAVersor:
                now = False
            assert now == was, (sig, row.tolist())
            passed += now
        compared += int(clear.sum())
    assert compared >= 100_000 and 10_000 <= passed <= compared - 10_000, (compared, passed)


def test_versor_check_fails_closed_where_eps_sum_c2_reaches_half():
    # in Cl(3,1) terms of mv * ~mv cancel, so where eps sum c^2 reaches 1/2 the bound would
    # pass an mv * ~mv of 9, 0 or -1 for +1: such an mv is refused, whatever its mv * ~mv;
    # below it 1 + c (e13 + e14), whose mv * ~mv is exactly 1, passes with norm_sign +1
    one, e1n = scalar_mv(SIG31, 1.0), blade(SIG31, "e13") + blade(SIG31, "e14")
    for c in (1.0, 1e3, 1e4, 15_811.0):  # eps (1 + 2 c^2) < 1/2 up to c = 15 811.38
        assert (Versor(one + c * e1n).parity, Versor(one + c * e1n).norm_sign) == (0, 1), c
    undecided = r"^mv \* ~mv = \+-1 is not decided: eps sum c\^2 reaches 1/2$"
    # the bound would pass 3 + 1e5 (e13 + e14), whose mv * ~mv is 9, the null 1e5 (e13 + e14),
    # and the translator by 3e8, whose floats give mv * ~mv a scalar part <= 0
    for mv in [one + c * e1n for c in (15_812.0, 3e8, 1e153, 1e154, 1e200)] + [
            3.0 * one + 1e5 * e1n, 1e5 * e1n, cga2d.translator(3e8, 0.0).mv]:
        with pytest.raises(NotAVersor, match=undecided):
            Versor(mv)
    with pytest.raises(NotAVersor, match=undecided):
        sandwich(blade(SIG31, "e2"), 3.0 * one + 1e5 * e1n)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NotAVersor):
            Versor(Multivector(SIG31, [1.0, 0, 0, 0, 0, bad, 0, 0, 0, bad] + [0.0] * 6))


def test_a_key_past_key_bound_names_it():
    # the int64 cast would wrap or warn ("invalid value encountered in cast")
    for c in (1e13, -1e13, 1e300, math.inf, math.nan):
        mv = Multivector(Signature(2, 0), [0.0, c, 0.0, 0.0])
        for use in (mv.key, lambda: hash(mv), lambda: mv == mv):
            with pytest.raises(VersorlabError, match=r"^Multivector\.key\(\) needs coefficients "
                                                     r"within KEY_BOUND = 4\.612e\+12, got one"):
                use()
    at_bound = Multivector(Signature(2, 0), [KEY_BOUND, -KEY_BOUND, 0.0, 0.0])
    assert at_bound == Multivector(Signature(2, 0), [KEY_BOUND, -KEY_BOUND, 0.0, 0.0])


def test_versor_inverse_undoes_product():
    V = Versor.from_vectors([random_unit_vector(SIG3) for _ in range(2)])
    assert (V * V.inverse()).mv.close_to(scalar_mv(SIG3, 1.0))


def test_versor_norm_sign_in_mixed_signature():
    # e4 * ~e4 = e4^2 = -1 in Cl(3,1)
    V = Versor(blade(SIG31, "e4"))
    assert V.norm_sign == -1
    assert (V * V.inverse()).mv.close_to(scalar_mv(SIG31, 1.0))


def _unit_vectors(rng, sig, count):
    """count seeded vectors of sig scaled to v^2 = +-1, none from a draw with |v^2| <= 0.25."""
    out = []
    while len(out) < count:
        v = vector(sig, rng.normal(size=sig.dim))
        if abs(n2 := (v * v).scalar) > 0.25:
            out.append(v * (1.0 / math.sqrt(abs(n2))))
    return out


def test_the_checked_constructor_is_the_reference_for_unchecked_versors():
    # a versor built from versors is not checked again: on over 100 000 seeded draws each one
    # (products, reverses and inverses in five signatures, exp_bivector, the conformal
    # constructors and their products) keeps the parity and norm_sign that Versor(result.mv)
    # gives wherever that check passes, and every conformal constructor's versor passes it
    rng, signs, passed = np.random.default_rng(50), set(), [0]

    def agree(V, must_pass=False):
        try:
            W = Versor(V.mv)
        except NotAVersor:
            assert not must_pass, V
            return
        assert (V.parity, V.norm_sign) == (W.parity, W.norm_sign), V
        signs.add(V.norm_sign)
        passed[0] += 1

    for sig in (Signature(2, 0), SIG3, Signature(4, 0), SIG31, Signature(2, 2)):
        pool = [Versor.from_vectors(_unit_vectors(rng, sig, 1 + i % 4)) for i in range(64)]
        for i, j in rng.integers(0, 64, size=(4000, 2)).tolist():
            A, B = pool[i], pool[j]
            for V in (A * B, (A * B).reverse(), A.reverse(), A.inverse(), A * B.inverse() * A):
                agree(V)
    for sig in (SIG3, Signature(4, 0), SIG31):
        for theta in rng.uniform(-10, 10, 1500).tolist():
            u, w = _unit_vectors(rng, sig, 2)
            B = (u * w).grade(2)
            if (B * B).scalar < -0.25:  # a simple bivector: B^2 = -|B|^2
                R = exp_bivector(B * (1.0 / math.sqrt(-(B * B).scalar)), theta)
                for V in (R, R.inverse() * R * R, R.reverse()):
                    agree(V)
    for i in range(1500):  # |a| from 1e-9 to about 977
        t, r = rng.uniform(-4, 4), 10.0 ** rng.uniform(-9, 2.99)
        maps = [cga2d.translator(r * math.cos(t), r * math.sin(t)),
                cga2d.special_conformal(r * math.cos(t), r * math.sin(t)),
                cga2d.rotation(rng.uniform(-50, 50)), cga2d.dilator(rng.uniform(-15, 15)),
                cga2d.inversion_versor(), cga2d.modular_S(),
                cga2d.reflection(*(rng.normal(size=2) * 10.0 ** rng.uniform(-6, 8)))]
        for c in maps:
            agree(c.v, must_pass=True)
        for c in (maps[i % 7] * maps[(i + 3) % 7], maps[i % 7].reverse(), maps[i % 7].inverse()):
            agree(c.v)
    assert passed[0] >= 100_000 and signs == {1, -1}, (passed, signs)
    # before, both were refused with NotAVersor (scalar part 0.9999999850988388)
    D = cga2d.dilator(10)
    for V in (D.v * D.v, (D * D).v.reverse()):
        assert (V.parity, V.norm_sign) == (0, 1)


def test_a_versor_is_checked_once_where_it_enters(monkeypatch):
    # Versor's check runs once for from_vectors and for sandwich of a raw multivector, and
    # never for a versor the library builds: a re-check cannot creep back unnoticed
    vs, u = _unit_vectors(np.random.default_rng(51), SIG3, 3), vector(SIG3, [0.5, -1.0, 2.0])
    alpha = vector(SIG3, [0.0, 0.6, 0.8])
    A, B = Versor.from_vectors(vs), Versor.from_vectors(vs[:2])
    T, R = cga2d.translator(0.5, -2.0), cga2d.rotation(0.3)
    init, calls = Versor.__init__, []
    monkeypatch.setattr(Versor, "__init__", lambda self, mv: calls.append(mv) or init(self, mv))

    def checks(fn):
        calls.clear()
        fn()
        return len(calls)

    unchecked = {
        "translator": lambda: cga2d.translator(0.5, -2.0),
        "rotation": lambda: cga2d.rotation(0.3),
        "dilator": lambda: cga2d.dilator(-1.5),
        "special_conformal": lambda: cga2d.special_conformal(1.0, 2.0),
        "reflection": lambda: cga2d.reflection(0.3, -0.4),
        "inversion_versor": cga2d.inversion_versor,
        "modular_S": cga2d.modular_S,
        "modular_T": cga2d.modular_T,
        "*": lambda: A * B,
        "reverse": A.reverse,
        "inverse": A.inverse,
        "exp_bivector": lambda: exp_bivector(blade(SIG3, "e12"), 0.3),
        "reflect": lambda: reflect(u, alpha),
        "sandwich(v, versor)": lambda: sandwich(u, A),
        "conformal *": lambda: T * R,
        "conformal reverse": T.reverse,
        "conformal inverse": T.inverse,
    }
    assert {name: checks(fn) for name, fn in unchecked.items()} == dict.fromkeys(unchecked, 0)
    assert checks(lambda: Versor.from_vectors(vs)) == 1
    assert checks(lambda: sandwich(u, A.mv)) == 1


# ---------------------------------------------------------------- sandwich

def test_single_vector_sandwich_is_a_reflection():
    for _ in range(40):
        alpha = random_unit_vector(SIG3)
        v = vector(SIG3, RNG.normal(size=3))
        got = sandwich(v, Versor(alpha))
        want = reflect(v, alpha)
        assert got.close_to(want)
        # classical formula: v - 2 (v|a) a
        x, a = v.vector_coords(), alpha.vector_coords()
        assert np.allclose(got.vector_coords(), x - 2 * (x @ a) * a, atol=1e-12)


def test_sandwich_preserves_inner_products():
    V = Versor.from_vectors([random_unit_vector(SIG3) for _ in range(3)])
    for _ in range(20):
        u = vector(SIG3, RNG.normal(size=3))
        w = vector(SIG3, RNG.normal(size=3))
        before = (u * w + w * u).scalar / 2
        u2, w2 = sandwich(u, V), sandwich(w, V)
        after = (u2 * w2 + w2 * u2).scalar / 2
        assert after == pytest.approx(before, abs=1e-9)


def test_sandwich_rejects_non_vector_argument():
    V = Versor(random_unit_vector(SIG3))
    with pytest.raises(ValueError):
        sandwich(blade(SIG3, "e12"), V)


def test_reflect_requires_unit_mirror():
    with pytest.raises(ValueError):
        reflect(vector(SIG3, [1, 0, 0]), vector(SIG3, [0.5, 0, 0]))


def test_reflect_refuses_a_nan_mirror():
    # the unit test on alpha^2 fails closed: before, a NaN mirror passed it and the
    # reflection came back as nane1 + nane2 + nane3
    nan_mirror = Multivector(SIG3, [0, math.nan, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"^mirror vector must be unit, got alpha\^2 = nan$"):
        reflect(vector(SIG3, [1, 0, 0]), nan_mirror)


def test_versor_checks_take_one_product_and_a_sandwich_two(monkeypatch):
    # Versor's check is one product, m ~m; a sandwich is two; from_vectors of m vectors
    # multiplies m - 1 raw rows and wraps one Multivector, the versor's own
    vs = [random_unit_vector(SIG3) for _ in range(3)]
    V, u = Versor.from_vectors(vs), vector(SIG3, [0.5, -1.0, 2.0])
    gp, wrap = versorlab.algebra._Kernel.gp, Multivector._wrap
    calls = []
    monkeypatch.setattr(versorlab.algebra._Kernel, "gp",
                        lambda self, a, b: calls.append("gp") or gp(self, a, b))
    monkeypatch.setattr(Multivector, "_wrap",
                        classmethod(lambda cls, sig, arr: calls.append("wrap") or wrap(sig, arr)))
    Versor(V.mv)
    assert calls == ["gp"]
    calls.clear()
    sandwich(u, V)
    assert calls == ["gp", "gp", "wrap"]
    calls.clear()
    Versor.from_vectors(vs)
    assert calls == ["gp", "gp", "wrap", "gp"]


def test_from_vectors_gives_the_operators_floats_and_errors():
    # the raw-row products are the * chain's floats, checked once; an entry that is not a
    # Multivector (before, a float or a Versor went through the * chain) is refused by type,
    # and mixed signatures keep the operators' message
    def outcome(fn):
        try:
            V = fn()
        except Exception as exc:  # the error's type and message are the outcome
            return type(exc), str(exc)
        return V.parity, V.norm_sign, V.mv.coeffs.tobytes()

    rng = np.random.default_rng(49)
    for sig in (Signature(2, 0), SIG3, Signature(4, 0), SIG31, Signature(2, 2)):
        for m in range(1, 5):
            vs = [vector(sig, c) for c in rng.normal(size=(m, sig.dim))]
            vs = [v * (1.0 / math.sqrt(abs((v * v).scalar))) for v in vs]
            want = outcome(lambda: Versor(functools.reduce(lambda a, b: a * b, vs)))
            assert outcome(lambda: Versor.from_vectors(vs)) == want, (sig, m)
            assert outcome(lambda: Versor.from_vectors(tuple(vs))) == want, (sig, m)
    e1, f1 = vector(SIG3, [1, 0, 0]), vector(SIG31, [1, 0, 0, 0])
    with pytest.raises(SignatureMismatch, match=r"^cannot combine Cl\(3, 0\) with Cl\(3, 1\)$"):
        Versor.from_vectors([e1, f1, "e2"])
    for vectors, name in (([e1, "e2"], "str"), ([2.0], "float"), ([Versor(e1), e1], "Versor"),
                          ([e1, 1.0], "float")):
        with pytest.raises(TypeError, match=rf"^from_vectors takes Multivectors, got {name}$"):
            Versor.from_vectors(vectors)
    with pytest.raises(ValueError, match=r"^need at least one vector$"):
        Versor.from_vectors([])


# ---------------------------------------------------------------- exponentials

def test_exp_bivector_closed_form():
    B = blade(SIG3, "e12")
    R = exp_bivector(B, math.pi / 2)
    assert R.mv.close_to(B)  # cos(pi/2) + sin(pi/2) e12
    R6 = exp_bivector(B, math.pi / 6)
    assert R6.mv.coeffs[0] == pytest.approx(math.sqrt(3) / 2)  # the scalar
    assert R6.mv.coeffs[0b011] == pytest.approx(0.5)  # e12


def test_exp_bivector_rotates_the_plane():
    theta = 0.3
    R = exp_bivector(blade(SIG3, "e12"), theta / 2)
    out = sandwich(vector(SIG3, [1, 0, 0]), R).vector_coords()
    # exp(e12 t/2) sandwich turns e1 by angle t in the e1e2 plane
    assert abs(abs(out[0]) - abs(math.cos(theta))) < 1e-12
    assert abs(abs(out[1]) - abs(math.sin(theta))) < 1e-12
    assert out[2] == pytest.approx(0.0, abs=1e-15)


def test_exp_bivector_additivity():
    B = blade(SIG3, "e23")
    for _ in range(25):
        s, t = RNG.uniform(-3, 3, size=2)
        lhs = exp_bivector(B, s).mv * exp_bivector(B, t).mv
        assert lhs.close_to(exp_bivector(B, s + t).mv)


def test_exp_bivector_rejects_bad_arguments():
    with pytest.raises(ValueError):
        exp_bivector(vector(SIG3, [1, 0, 0]), 1.0)
    with pytest.raises(ValueError):
        exp_bivector(2.0 * blade(SIG3, "e12"), 1.0)  # B^2 = -4, not -1


def test_exp_bivector_refuses_a_nan_bivector_itself():
    # the B^2 = -1 test fails closed: before, a NaN bivector passed it and only the
    # rotor's own Versor check refused it, with NotAVersor
    nan_e12 = Multivector(SIG3, [0, 0, 0, math.nan, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"^bivector must square to -1, got B\^2 = nan"):
        exp_bivector(nan_e12, 0.5)


@pytest.mark.parametrize("call,arg", [
    (lambda a: vector(SIG31, [1, 2, 3, 4]).grade(a), 1.5),
    (lambda a: vector(SIG31, [1, 2, 3, 4]).grade(a), True),
    (lambda a: vector(SIG31, [1, 2, 3, 4]).grade(a), np.float64(1.0)),
    pytest.param(lambda a: vector(SIG31, [1, 2, 3, 4]).is_grade(a), 1.5, id="is_grade-1.5"),
    pytest.param(lambda a: vector(SIG31, [1, 2, 3, 4]).is_grade(a), True, id="is_grade-True"),
    pytest.param(lambda a: vector(SIG31, [1, 2, 3, 4]).is_grade(a), np.float64(1.0), id="is_grade-1.0"),
    pytest.param(lambda a: vector(SIG31, [1, 2, 3, 4]).is_grade(a), -1, id="is_grade--1"),
    pytest.param(lambda a: vector(SIG31, [1, 2, 3, 4]).is_grade(a), 5, id="is_grade-5"),
    (lambda a: exp_bivector(blade(SIG3, "e12"), a), math.inf),
    (lambda a: exp_bivector(blade(SIG3, "e12"), a), -math.inf),
    (lambda a: exp_bivector(blade(SIG3, "e12"), a), math.nan),
])
def test_grade_and_angle_arguments_are_checked_where_they_enter(call, arg):
    # a grade is an integer 0..n (not a bool) and an angle is finite; before, grade(1.5) and
    # is_grade(1.5) leaked a TypeError about tuple indices, grade(True) and is_grade(True) were
    # grade 1, is_grade(5) asked whether the vector is 0, and exp_bivector raised
    # "math domain error" at inf and NotAVersor at nan
    with pytest.raises(ValueError, match=re.escape(repr(arg))):
        call(arg)


# ---------------------------------------------------------------- kernel reference

REFERENCE_SIGS = [(1, 0), (3, 0), (3, 1), (2, 3), (5, 0), (4, 4), (8, 0)]


def reference_blade_sign(a, b, p):
    """Sign of e_a e_b from the blade bitmaps, independent of the kernel.

    Merging the ascending factors of a and b into ascending order takes one
    transposition per pair (i in a, j in b) with i > j; each shared generator
    e_{i+1} then contracts to its square, -1 for i >= p.
    """
    total = 0
    shifted = a >> 1
    while shifted:
        total += bin(shifted & b).count("1")
        shifted >>= 1
    total += bin(a & b & ~((1 << p) - 1)).count("1")
    return -1.0 if total & 1 else 1.0


@functools.lru_cache(maxsize=None)
def reference_sign_table(p, q):
    """ref[a, b] = sign of e_a e_b (indexed by the second factor, not by a ^ b)."""
    D = 1 << (p + q)
    return np.array([[reference_blade_sign(a, b, p) for b in range(D)] for a in range(D)])


def reference_gp(A, B, p, q):
    """Geometric product summed blade pair by blade pair."""
    ref = reference_sign_table(p, q)
    out = np.zeros_like(A)
    blades = np.arange(A.shape[0])
    for a in blades:
        out[a ^ blades] += A[a] * B * ref[a]
    return out


@pytest.mark.parametrize("p,q", REFERENCE_SIGS)
def test_kernel_sign_table_matches_blade_rule(p, q):
    k = kernel_for(Signature(p, q))
    blades = np.arange(k.D)
    assert np.array_equal(k.xor, blades[:, None] ^ blades[None, :])
    # sign[a, k] is the sign of e_a e_(a^k)
    ref = reference_sign_table(p, q)
    assert np.array_equal(k.sign, ref[blades[:, None], k.xor])


@pytest.mark.parametrize("p,q", REFERENCE_SIGS)
def test_kernel_products_match_reference(p, q):
    k = kernel_for(Signature(p, q))
    rng = np.random.default_rng(100 * p + q)
    A = rng.normal(size=(3, k.D))
    B = rng.normal(size=(4, k.D))
    want = np.array([[reference_gp(a, b, p, q) for b in B] for a in A])
    close = dict(atol=1e-12, rtol=0.0)
    assert np.allclose(k.gp_elemwise(A[:, None, :], B[None, :, :]), want, **close)
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            assert np.allclose(k.gp(A[i], B[j]), want[i, j], **close)
    # batched over two leading axes, broadcasting B along the first
    C = rng.normal(size=(2, 4, k.D))
    want_c = np.array([[reference_gp(C[i, j], B[j], p, q) for j in range(4)] for i in range(2)])
    assert np.allclose(k.gp_elemwise(C, B), want_c, **close)


@pytest.mark.parametrize("p,q", REFERENCE_SIGS)
def test_kernel_scalar_part_is_the_products_scalar_bitwise(p, q):
    k = kernel_for(Signature(p, q))
    assert np.array_equal(k.metric, k.sign[:, 0])
    rng = np.random.default_rng(7 * p + q)
    # spread magnitudes, so a different summation order would show
    A, B = rng.normal(size=(2, 200, k.D)) * 10.0 ** rng.integers(-4, 5, size=(2, 200, k.D))
    for a, b in zip(A, B):
        assert k.scalar_part(a, b) == k.gp(a, b)[0]
    # the batched forms give the same floats row by row, B broadcast or not
    assert np.array_equal(k.scalar_part(A, B), [k.scalar_part(a, b) for a, b in zip(A, B)])
    assert np.array_equal(k.scalar_part(A, B[0]), [k.scalar_part(a, B[0]) for a in A])
    # (20 rows: a batched product expands B to rows * D**2 floats)
    assert np.array_equal(k.gp_elemwise(A[:20], B[:20]), [k.gp(a, b) for a, b in zip(A[:20], B)])


SIGNED_SIGS = [(1, 0), (3, 0), (3, 1), (2, 3), (5, 0), (6, 0), (3, 3), (4, 4), (8, 0)]


def spread_rows(rng, shape):
    """Coefficients over twelve decades, a quarter of them +-0.0, and one inf, one -inf and
    one NaN in the first three rows over the leading axes, of at least six; the rest are finite."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    x[rng.random(shape) < 0.25] = np.copysign(0.0, rng.normal())
    x[rng.random(shape) < 0.1] = -0.0
    rows = x.reshape(-1, shape[-1])
    for i, special in zip(range(rows.shape[0] // 2), (math.inf, -math.inf, math.nan)):
        rows[i, rng.integers(shape[-1])] = special
    return x


def same_floats(got, want):
    """Equal bit for bit, the sign of a zero included; a NaN is compared by position."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(np.where(nan, 0.0, got).view(np.int64),
                               np.where(nan, 0.0, want).view(np.int64)))


@pytest.mark.parametrize("p,q", SIGNED_SIGS)
def test_products_equal_gathering_then_signing_bit_for_bit(p, q):
    # the reference is the gather-then-sign operand B[..., xor] * sign: one gather off
    # [B, -1.0 * B] must hand einsum the same floats, so every product is the same
    k = kernel_for(Signature(p, q))
    rng = np.random.default_rng(31 * p + q)
    D = k.D
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf make NaNs on purpose
        A, B = spread_rows(rng, (8, D)), spread_rows(rng, (8, D))
        for a, b in [*zip(A, B), *zip(A, B[::-1])]:
            assert same_floats(k.gp(a, b), np.einsum("a,ak->k", a, b[k.xor] * k.sign))
        assert not np.isnan(k.gp(A[5], B[6])).any()  # finite rows stay finite
        shapes = [((8, D), (8, D)), ((8, D), (D,)), ((8, 1, D), (1, 8, D)), ((6, 1, D), (8, D))]
        for sa, sb in shapes:
            A, B = spread_rows(rng, sa), spread_rows(rng, sb)
            want = np.einsum("...a,...ak->...k", A, B[..., k.xor] * k.sign)
            assert same_floats(k.gp_elemwise(A, B), want), (sa, sb)


def test_a_batched_product_holds_one_operand_table():
    # by count, not clock: gathering B and then signing it held two (rows, D, D) tables
    k = kernel_for(SIG31)
    A, B = RNG.normal(size=(2, 1000, k.D))
    tracemalloc.start()
    try:
        k.gp_elemwise(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 1000 * k.D * k.D * 8


# ---------------------------------------------------------------- hashing / io

def test_equality_and_hash_quantize_consistently():
    a = vector(SIG3, [1.0, 0.0, 0.0])
    b = vector(SIG3, [1.0 + 1e-13, 0.0, 0.0])
    assert a == b and hash(a) == hash(b)
    c = vector(SIG3, [1.0 + 1e-4, 0.0, 0.0])
    assert a != c
    # a pair 2e-12 apart that straddles the grid cell boundary at 3.5e-6:
    # close, but two keys, so unequal, and a set keeps both
    x = 3.5e-6
    lo, hi = vector(SIG3, [x - 1e-12, 0.0, 0.0]), vector(SIG3, [x + 1e-12, 0.0, 0.0])
    assert lo.close_to(hi) and lo != hi and len({lo, hi}) == 2
    # equality is transitive: all three share one key, though the ends are 1.4e-9 apart
    p, q, r = (vector(SIG3, [1.0 + d, 0.0, 0.0]) for d in (0.0, 5e-10, 1.4e-9))
    assert p == q and q == r and p == r and len({p, q, r}) == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(cells=st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=3),
       offsets=st.lists(st.floats(-1e-10, 1e-10), min_size=6, max_size=6))
def test_equality_is_key_identity_at_cell_boundaries(cells, offsets):
    # coordinates on either side of a cell boundary (k + 1/2) * HASH_GRID
    mid = (np.array(cells) + 0.5) * HASH_GRID
    a, b = vector(SIG3, mid + offsets[:3]), vector(SIG3, mid + offsets[3:])
    assert (a == b) == (a.key() == b.key())
    assert a != b or hash(a) == hash(b)


def test_numpy_scalars_are_scalars():
    a = random_mv(SIG3)
    assert np.array_equal((a * np.int64(2)).coeffs, (a * 2).coeffs)
    assert np.array_equal((np.float64(2.0) * a).coeffs, (2.0 * a).coeffs)
    assert np.array_equal((a * np.float32(2)).coeffs, (a * 2.0).coeffs)
    assert np.array_equal((a + np.int64(1)).coeffs, (a + 1).coeffs)
    assert np.array_equal((a - np.float64(0.5)).coeffs, (a - 0.5).coeffs)
    assert np.array_equal((a / np.int64(4)).coeffs, (a / 4).coeffs)
    for bad in ("x", None, [1.0]):
        with pytest.raises(TypeError):
            a * bad
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            a - bad
        with pytest.raises(TypeError):
            a / bad


def test_str_uses_blade_names():
    x = scalar_mv(SIG3, 1.0) + 2.0 * blade(SIG3, "e13")
    assert str(x) == "1 + 2e13"
    assert str(scalar_mv(SIG3, 0.0)) == "0"


def test_str_signs_nan_as_not_negative():
    # a NaN is neither < 0 nor > 0: it prints with a plus, like any coefficient not below zero
    x = Multivector(SIG3, [math.nan, 0, math.nan, 0, 0, 0, 0, 1.0])
    assert str(x) == "nan + nane2 + e123"
    assert str(Multivector(SIG3, [-1.5, 0, 2, 0, 0, 0, 0, -1.0])) == "-1.5 + 2e2 - e123"


def test_to_json_dict_of_a_known_multivector():
    x = 0.5 - 2.0 * blade(SIG31, "e13") + 1e-12 * blade(SIG31, "e2") + 3.0 * blade(SIG31, "e1234")
    x = x + 1e-9 * blade(SIG31, "e3") - math.nextafter(1e-9, 1.0) * blade(SIG31, "e4")
    d = x.to_json_dict()
    # one rule, |c| > 1e-9: exactly 1e-9 is dropped, the next float up is kept
    assert d == {"sig": [3, 1], "coeffs": {"1": 0.5, "e13": -2.0, "e4": -math.nextafter(1e-9, 1.0),
                                           "e1234": 3.0}}
    assert json.loads(json.dumps(d)) == d  # serializable as-is
    # the CLI's writer lists the same coefficients, rounded to 12 decimals
    assert _json_rows(SIG31, x.coeffs[None], "") == [json.dumps(_clean(d), indent=2)]


def test_blade_parsing_variants():
    assert blade(SIG3, "e12") == blade(SIG3, 0b011)
    assert blade(SIG3, "1").scalar == 1.0
    with pytest.raises(ValueError):
        blade(SIG3, "e7")


@pytest.mark.parametrize("spec", [True, False, np.int64(3), 3.0, "e21", "e7", "", 8, -1])
def test_blade_takes_a_name_or_an_integral_mask_only(spec):
    # np.int64(3) is mask 0b011, e12; a bool, a float, an unlisted name or a mask outside
    # 0..7 is refused with one ValueError naming the spec and the algebra
    if isinstance(spec, np.integer):
        assert blade(SIG3, spec) == blade(SIG3, "e12")
        return
    with pytest.raises(ValueError, match=re.escape(f"{spec!r} in Cl(3,0)")):
        blade(SIG3, spec)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(7, 3)  # dimension above 8 unsupported
    assert Signature(3, 1).blade_count == 16
    # numpy integers pass and become ints; a float, a bool or a string does not, as in blade()
    sig = Signature(np.int64(3), np.int32(1))
    assert sig == SIG31 and type(sig.p) is int and type(sig.q) is int
    for p, q in [(2.5, 0), (3, 0.9), (True, 0), (3, False), (np.float64(3.0), 0), ("3", 0)]:
        with pytest.raises(ValueError, match=re.escape(f"got ({p!r}, {q!r})")):
            Signature(p, q)


def test_orbit_graph_is_each_rows_product_looked_up():
    # graph[j, k] names the row that row j times generator k hit, as a fresh
    # lookup of every product finds it, for roots, a group of versors and a
    # group of root permutations alike
    e8, h3 = catalog("E8"), catalog("H3")
    cases = [(e8.simple_coords, _reflect_pairs, np.vstack([e8.simple_coords, -e8.simple_coords]))]
    kern = kernel_for(Signature(3, 0))
    gens = np.zeros((3, 8))
    gens[:, [1, 2, 4]] = h3.simple_coords
    cases.append((gens, lambda A, B: kern.gp_elemwise(A[:, None], B[None]),
                  np.eye(1, 8) * [[1.0], [-1.0]]))
    # the graph close_roots kept
    cases.append((h3.reflections, lambda b, p: p[:, b].swapaxes(0, 1), h3.simple[None]))
    for gens, act, seeds in cases:
        rows, graph, _, _ = orbit(seeds, gens, act, 1000, "cap {cap}")
        assert graph.shape == (rows.shape[0], gens.shape[0])
        products = act(rows, gens).reshape(-1, rows.shape[1])
        # the reference: the one row whose quantized coefficients equal the product's
        same = (quantize(products)[:, None, :] == quantize(rows)[None, :, :]).all(axis=2)
        assert np.all(same.sum(axis=1) == 1)
        assert np.array_equal(graph.ravel(), same.argmax(axis=1))


def test_find_ids_is_a_brute_force_lookup_at_every_block_size(monkeypatch):
    rng = np.random.default_rng(15)
    distinct = rng.normal(size=(35, 3))
    table = np.vstack([distinct, distinct[:5] + 1e-12])  # 5 rows repeat a key
    index = {}
    assert np.array_equal(key_ids(table, index), np.r_[np.arange(35), np.arange(5)])
    rows = np.vstack([table, rng.normal(size=(8, 3))])  # 48 rows, the last 8 absent
    # the reference: the first table row with the row's quantized coordinates,
    # whose id is its index, as the first 35 rows are distinct
    same = (quantize(rows)[:, None, :] == quantize(table)[None, :, :]).all(axis=2)
    want = np.where(same.any(axis=1), same.argmax(axis=1), -1)
    assert np.array_equal(want[35:], np.r_[np.arange(5), [-1] * 8])
    for block in (1, 16, versorlab.algebra.FIND_ROWS):  # 48, 3 and 1 blocks
        monkeypatch.setattr(versorlab.algebra, "FIND_ROWS", block)
        assert np.array_equal(find_ids(rows, index), want)
        assert np.array_equal(find_ids(rows.reshape(6, 8, 3), index), want.reshape(6, 8))
    assert len(index) == 35  # a lookup adds no key


def test_find_ids_memory_is_bounded_by_its_block():
    # E8's 57 600 reflection images, keyed at once, would hold 57 600 key
    # bytes and their quantized copies (about 10 MB); in blocks of FIND_ROWS
    # rows (about 170 bytes each) only the ids grow with the rows
    e8 = catalog("E8")
    index = {}
    key_ids(e8.coords, index)
    images = _reflect_pairs(e8.coords, e8.coords)
    tracemalloc.start()
    try:
        ids = find_ids(images, index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ids.shape == (240, 240) and np.all(ids >= 0)
    assert peak <= ids.nbytes + 256 * versorlab.algebra.FIND_ROWS
