"""Tests for the 2D conformal model and its modular-group action."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versorlab import cga2d, verify
from versorlab import (
    EMINUS,
    EPLUS,
    NBAR,
    NINF,
    ConformalPoint,
    Multivector,
    NotAVersor,
    PointAtInfinity,
    Signature,
    Versor,
    VersorlabError,
    apply_word,
    blade,
    dilator,
    embed,
    extract,
    inversion_versor,
    mobius_oracle,
    modular_S,
    modular_T,
    reflection,
    rotation,
    sandwich,
    scalar_mv,
    special_conformal,
    translator,
    vector,
    word_report,
)
from versorlab.algebra import DEFAULT_EPS, kernel_for

RNG = np.random.default_rng(31415)
SIG31 = Signature(3, 1)


def approx_pt(got, want, tol=1e-9):
    assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol, (got, want)


# ---------------------------------------------------------------- embedding

def test_null_directions():
    assert (NINF * NINF).scalar == pytest.approx(0.0)
    assert (NBAR * NBAR).scalar == pytest.approx(0.0)
    # n . nbar = 2
    assert ((NINF * NBAR + NBAR * NINF) / 2).scalar == pytest.approx(2.0)


def test_embed_origin_and_unit_point():
    assert embed(0.0, 0.0).X.close_to(-0.5 * NBAR)
    X = embed(1.0, 0.0).X
    e1 = blade(SIG31, "e1")
    assert X.close_to(0.5 * (NINF + 2.0 * e1 - NBAR))


def test_embedded_points_are_null_and_normalized():
    for _ in range(50):
        x1, x2 = RNG.normal(scale=5.0, size=2)
        X = embed(x1, x2).X
        assert abs((X * X).scalar) < 1e-9 * max(1.0, x1**2 + x2**2) ** 2
        inner = ((X * NINF + NINF * X) / 2).scalar
        assert inner == pytest.approx(-1.0)


def test_extract_inverts_embed_and_is_homogeneous():
    for _ in range(50):
        x1, x2 = RNG.normal(scale=3.0, size=2)
        approx_pt(extract(embed(x1, x2)), (x1, x2))
        approx_pt(extract(embed(x1, x2).X * -7.25), (x1, x2))


def test_point_distance_from_inner_product():
    # -2 X . Y = |x - y|^2 for normalized points
    for _ in range(25):
        a = RNG.normal(size=2)
        b = RNG.normal(size=2)
        X, Y = embed(*a).X, embed(*b).X
        inner = ((X * Y + Y * X) / 2).scalar
        assert -2.0 * inner == pytest.approx(float(np.sum((a - b) ** 2)))


def test_extract_point_at_infinity():
    # n's images under maps that fix infinity are multiples of n: X . n = 0; vectors whose
    # X . n is rounding-sized beside small e1, e2 fail the point rule once divided by it, and
    # so do vectors off the cone: e, and a point with 1e-6 more e
    maps = [translator(3.0, -2.0), translator(1e8, 3.0), rotation(1.0), reflection(1.0, 2.0),
            dilator(15.0), dilator(700.0), dilator(-700.0)]
    refused = [NINF, -3.0 * NINF] + [sandwich(NINF, V.inverse().v) for V in maps]
    refused += [NINF + 1e-16 * EPLUS + 1e-16 * blade(SIG31, "e1"),
                NINF - 1e-16 * EMINUS + 3e-17 * blade(SIG31, "e2"),
                EPLUS, 2.0 * EPLUS + 0.1 * blade(SIG31, "e1"), embed(0.5, 0.25).X + 1e-6 * EPLUS]
    for X in refused:
        with pytest.raises(PointAtInfinity, match=r"^null vector has X \. n = 0$"):
            extract(X)
    # a pole still extracts: K's and J's
    K = special_conformal(0.5, -0.25)
    assert extract(sandwich(NINF, K.inverse().v)) == pytest.approx((-1.6, 0.8), rel=1e-15)
    assert extract(sandwich(NINF, inversion_versor().v)) == (0.0, 0.0)


def _ulps(got, want):
    """The larger coordinate error, in ulps of want's larger coordinate."""
    return max(abs(g - w) for g, w in zip(got, want)) / math.ulp(max(map(abs, want)))


def test_extract_reads_every_scaled_representative_by_the_point_rule():
    # X over its own -X . n, rescaled from ebar where X . n has lost digits, for |x| up to 9e7:
    # bit for bit where X . n reads -1 exactly, as it does for most of embed's points, and by
    # 2^600 and 2^-600, which scale exactly; -7.25 rounds each coefficient once
    rng = np.random.default_rng(55)
    radius, angle = 10.0 ** rng.uniform(-3, math.log10(9e7), 4000), rng.uniform(0, 2 * np.pi, 4000)
    inexact = []
    for x in zip((radius * np.cos(angle)).tolist(), (radius * np.sin(angle)).tolist()):
        p = embed(*x)
        got = extract(p.X)
        c = p.X.coeffs.tolist()
        if c[4] - c[8] == -1.0:
            assert got == p.coords, x
        else:
            inexact.append(x)
            assert _ulps(got, p.coords) <= 2, x
        assert extract(2.0 ** 600 * p.X) == extract(2.0 ** -600 * p.X) == got, x
        assert _ulps(extract(-7.25 * p.X), p.coords) <= 4, x
    assert len(inexact) < 40
    # the coordinates that an absolute bound on X . n, reaching 1 at a coefficient of 1e9, refused
    assert extract(embed(45000.0, 0.0).X) == (45000.0, 0.0)
    P = dilator(12.0).apply(embed(1.0, 0.0))
    assert extract(P.X) == P.coords
    assert extract(-7.25 * embed(0.3, -0.2).X) == (0.3, -0.2)
    assert extract(2.0 ** -600 * embed(3e7, 1.0).X) == (3e7, 1.0)
    # past |x| = 2^26.5, about 9.49e7, embed's e and ebar, (|x|^2 -+ 1)/2, are one float
    assert extract(embed(9.4e7, 0.0).X) == (9.4e7, 0.0)
    p = embed(9.5e7, 0.0)
    assert p.coords == ConformalPoint(p.X).coords == (9.5e7, 0.0)
    with pytest.raises(PointAtInfinity):
        extract(p.X)


def test_extract_holds_the_points_whose_ebar_rounded():
    # just below |x|^2 = 2^k, embed's (|x|^2 + 1)/2 rounds, so X . n reads -1 +- 2^(k - 54):
    # divided by X . n alone, x = 5792.6 is 1.9e-9 off, past the point rule's bound
    worst = 0.0
    for k in range(20, 53):
        x = math.sqrt(2.0 ** k)
        for _ in range(40):
            x = math.nextafter(x, 0.0)
            worst = max(worst, _ulps(extract(embed(x, 0.0).X), (x, 0.0)))
    assert worst <= 2


def test_extract_refuses_a_coefficient_that_is_not_finite():
    # before, a NaN on e1 or e3 gave (nan, nan) and an inf on e3 gave (-0.0, -0.0)
    X = embed(0.5, 0.25).X.coeffs
    for b, bad in ((1, math.nan), (4, math.nan), (4, math.inf), (2, -math.inf), (8, math.inf),
                   (5, math.nan)):
        coeffs = X.copy()
        coeffs[b] = bad
        with pytest.raises(VersorlabError, match=r"^conformal points must have finite "
                                                 r"coefficients$"):
            extract(Multivector(SIG31, coeffs))


def test_conformal_point_validation():
    with pytest.raises(VersorlabError, match="^conformal points must be null$"):
        ConformalPoint(blade(SIG31, "e1"))
    with pytest.raises(VersorlabError, match=r"^conformal points must satisfy X \. n = -1$"):
        ConformalPoint(NBAR)  # null, but X . n = 2 instead of -1
    with pytest.raises(VersorlabError, match=r"^conformal points are grade-1 vectors of Cl\(3,1\)$"):
        ConformalPoint(scalar_mv(SIG31, 1.0))


def test_a_scaled_or_off_cone_vector_is_not_a_conformal_point():
    # before, the null and X . n tests were bounded by eps max(1, m^2), m the largest
    # coefficient: 2 embed(x).X passed from x of about 178 and read as (2x, 0), and at
    # x = 1e5 a vector 20% off the cone passed; the bound is now eps max(1, |x|^2/2)
    for scale in (2.0, 1.5, 1.0 + 1e-6):
        for x in (200.0, 1e3, 3e4, 1e5):
            with pytest.raises(VersorlabError, match="^conformal points must be null$"):
                ConformalPoint(scale * embed(x, 0.0).X)
    lifted = embed(1e5, 0.0).X.coeffs.copy()
    lifted[[4, 8]] += 1e9  # p raised by 1e9, q = -1/2 kept
    with pytest.raises(VersorlabError, match="^conformal points must be null$"):
        ConformalPoint(Multivector(SIG31, lifted))


def test_the_x_dot_n_bound_is_eps_plus_four_ulps_of_h():
    # q's own rounding in a point is about ulp(h), not eps h: before, |q + 1/2| within
    # eps max(1, h) passed X . n = 0 past h = 1/(2 eps), so 45000 e1 + (45000^2 / 2) n, off the
    # cone by |x|^2 + 4pq = 2.0e9, read as (45000, 0), and with e one ulp up extract read it too
    X = 45000.0 * blade(SIG31, "e1") + (45000.0 ** 2 / 2) * NINF
    nudged = X.coeffs.copy()
    nudged[4] = math.nextafter(nudged[4], math.inf)
    for V in (X, Multivector(SIG31, nudged)):
        with pytest.raises(VersorlabError, match=r"^conformal points must satisfy X \. n = -1$"):
            ConformalPoint(V)
        with pytest.raises(PointAtInfinity, match=r"^null vector has X \. n = 0$"):
            extract(V)
    # at h = 45000^2 / 2, 4 ulp(h) is 8 ulps of embed's e: one ulp inside the bound, at 8 ulps
    # either way, the point passes both, and one ulp outside, at 9, fails both
    for toward in (math.inf, -math.inf):
        coeffs = embed(45000.0, 0.0).X.coeffs.copy()
        for ulps in range(1, 10):
            coeffs[4] = math.nextafter(coeffs[4], toward)
            V = Multivector(SIG31, coeffs.copy())
            if ulps <= 8:
                assert ConformalPoint(V).coords == (45000.0, 0.0)
                assert _ulps(extract(V), (45000.0, 0.0)) <= 8
                continue
            with pytest.raises(VersorlabError, match=r"^conformal points must satisfy X \. n"):
                ConformalPoint(V)
            with pytest.raises(PointAtInfinity):
                extract(V)
    # at x = 0, eps alone: X = -q (e - ebar) = -2q (-nbar / 2) with q one ulp inside and outside
    q = -0.5 + DEFAULT_EPS
    while q + 0.5 > DEFAULT_EPS:
        q = math.nextafter(q, -1.0)
    inside, outside = q, math.nextafter(q, 0.0)
    assert outside + 0.5 > DEFAULT_EPS >= inside + 0.5
    assert ConformalPoint(inside * EPLUS - inside * EMINUS).coords == (0.0, 0.0)
    with pytest.raises(VersorlabError, match=r"^conformal points must satisfy X \. n = -1$"):
        ConformalPoint(outside * EPLUS - outside * EMINUS)


@pytest.mark.parametrize("x1", [1e-9, 1e-3, 0.0])
def test_conformal_point_needs_finite_coefficients(x1):
    # an infinite bound, or a NaN, passes the other three tests, wherever the point sits
    inf_e1 = np.zeros(16)
    inf_e1[1] = math.inf  # X . n = 0
    nan_e1 = embed(x1, 2.0).X.coeffs.copy()
    nan_e1[1] = math.nan  # X . n = -1 but for the NaN
    inf_e4 = embed(x1, 2.0).X.coeffs.copy()
    inf_e4[8] = math.inf  # an infinite bound on a point otherwise at X . n = -1
    for coeffs in (inf_e1, nan_e1, inf_e4):
        with pytest.raises(VersorlabError, match="^conformal points must have finite coefficients$"):
            ConformalPoint(Multivector(SIG31, coeffs))


def test_a_point_whose_squares_overflow_is_refused_by_name():
    # before: a bare OverflowError "(34, 'Numerical result out of range')" from the bound;
    # an x whose |x|^2/2 overflows is named as embed names it, and a coefficient whose
    # square overflows elsewhere is no longer squared: that vector is off the cone
    big_e4 = embed(1.0, 0.0).X.coeffs.copy()
    big_e4[8] = 2e154
    cases = ((1e200 * blade(SIG31, "e1"),
              r"point \(1e\+200, 0\.0\) is too far out to embed: its squares overflow"),
             (Multivector(SIG31, big_e4), "conformal points must be null"))
    for X, message in cases:
        with pytest.raises(VersorlabError, match=f"^{message}$"):
            ConformalPoint(X)
    # an image whose |x|^2/2 is finite passes, however far out: before, its bound overflowed
    for P in (dilator(700).apply(embed(1e-150, 3e-151)), dilator(709).apply(embed(1.5e-154, 0.0))):
        assert ConformalPoint(P.X).coords == P.coords


def test_every_point_embed_accepts_is_a_conformal_point():
    # embed checks only that x is finite and its squares do not overflow: 100 000 seeded
    # points with |x_i| log-uniform in [1e-320, 1e77] and random signs, each accepted by
    # ConformalPoint's four tests, which embed no longer makes
    rng = np.random.default_rng(1977)
    xs = rng.choice([-1.0, 1.0], (100_000, 2)) * 10.0 ** rng.uniform(-320, 77, (100_000, 2))
    for x in xs.tolist():
        ConformalPoint(embed(*x).X)


# ---------------------------------------------------------------- versors

def test_translator_moves_points():
    T = translator(2.0, -1.5)
    approx_pt(T.apply(embed(0.0, 0.0)).coords, (2.0, -1.5))
    approx_pt(T.apply(embed(1.0, 1.0)).coords, (3.0, -0.5))
    # the raw null vector lands on embed(x + a), relative to its largest coefficient
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x, a = rng.uniform(-3, 3, size=2), rng.uniform(-3, 3, size=2)
        moved = sandwich(embed(*x).X, translator(*a).v).coeffs
        target = embed(*(x + a)).X.coeffs
        assert np.max(np.abs(moved - target)) <= 1e-9 * max(1.0, np.max(np.abs(target)))


def test_translators_compose_additively():
    a = translator(1.25, 0.5)
    b = translator(-0.75, 2.0)
    assert (a * b).mv.close_to(translator(0.5, 2.5).mv)


def test_translator_fixes_infinity():
    T = translator(3.0, 4.0)
    img = sandwich(NINF, T.v)
    assert img.close_to(NINF)


def test_rotation_is_counterclockwise():
    R = rotation(math.pi / 2)
    approx_pt(R.apply(embed(1.0, 0.0)).coords, (0.0, 1.0))
    approx_pt(R.apply(embed(0.0, 1.0)).coords, (-1.0, 0.0))


def test_dilator_scales_by_exp_alpha():
    D = dilator(math.log(3.0))
    approx_pt(D.apply(embed(2.0, -1.0)).coords, (6.0, -3.0))
    approx_pt(D.inverse().apply(embed(6.0, -3.0)).coords, (2.0, -1.0))


def test_reflection_in_a_line_through_origin():
    # mirror normal e1: x1 flips
    F = reflection(1.0, 0.0)
    approx_pt(F.apply(embed(2.0, 5.0)).coords, (-2.0, 5.0))
    with pytest.raises(VersorlabError):
        reflection(0.0, 0.0)


def test_inversion_in_the_unit_circle():
    J = inversion_versor()
    approx_pt(J.apply(embed(2.0, 0.0)).coords, (0.5, 0.0))
    approx_pt(J.apply(embed(0.6, 0.8)).coords, (0.6, 0.8))  # unit circle fixed
    # inversion swaps the origin and infinity
    with pytest.raises(PointAtInfinity):
        J.apply(embed(0.0, 0.0))
    assert extract(sandwich(NINF, J.v)) == pytest.approx((0.0, 0.0))


def test_versor_route_reaches_the_oracle_near_zero():
    # null coordinates carry |tau|^2 / 2 on its own, so no image reads as infinite
    # until p underflows: S gives the oracle's floats at 2e-5 i and 1e-9 i
    for x2 in (1e-4, 2e-5, 1e-9):
        assert apply_word("S", (0.0, x2)) == mobius_oracle("S", (0.0, x2))
    assert apply_word("S", (0.0, 2e-5)) == (0.0, 49999.99999999999)
    assert apply_word("S", (0.0, 1e-9)) == (0.0, 999999999.9999999)
    assert apply_word("S", (0.0, 1e-100)) == (0.0, 1e100)
    # where |tau|^2 / 2 underflows to 0, q = 0 in floats, the step is redone exactly: before,
    # S at 1e-170 i and 1e-300 i raised PointAtInfinity; their images, the oracle's at 1e-300 i,
    # are finite and too far out to embed
    assert mobius_oracle("S", (0.0, 1e-300)) == (0.0, 9.999999999999999e+299)
    for x2, image in ((1e-170, "1e+170"), (1e-300, "9.999999999999999e+299")):
        with pytest.raises(VersorlabError, match=rf"^point \(0\.0, {re.escape(image)}\) is too"):
            apply_word("S", (0.0, x2))
    # the oracle refuses only z = 0 or an image that is not finite, so it reaches 1e10 i too
    assert apply_word("S", (0.0, 1e-10)) == (0.0, 9999999999.999998)
    assert mobius_oracle("S", (0.0, 1e-10)) == (0.0, 10000000000.0)


def test_an_image_whose_squares_overflow_is_named_as_embed_names_it():
    # named with embed's message, not "must be null"; |tau|^2 / 2 is subnormal at these starts,
    # so the name comes from the step redone in exact rationals and rounded once: a rational has
    # no -0.0, so the inversion names 0.0 where the float step wrote -0.0
    image = "1e+160"
    cases = ((lambda: apply_word("S", (0.0, 1e-160)), f"(0.0, {image})"),
             (lambda: apply_word("TtS", (0.0, 1e-160)), f"(0.0, {image})"),
             (lambda: apply_word("TS", (-1.0, 1e-160)), f"(0.0, {image})"),
             (lambda: apply_word("S", (0.0, 1e-158)), "(0.0, 1e+158)"),
             (lambda: apply_word("S", (0.0, 1.5e-155)), "(0.0, 6.666666666666667e+154)"),
             (lambda: apply_word("S", (0.0, 1e-170)), "(0.0, 1e+170)"),
             (lambda: apply_word("S", (0.0, 1e-300)), "(0.0, 9.999999999999999e+299)"),
             (lambda: modular_S().apply(embed(0.0, 1e-160)), f"(0.0, {image})"),
             (lambda: inversion_versor().apply(embed(0.0, 1e-160)), f"(0.0, {image})"),
             (lambda: inversion_versor().apply(embed(1e-160, 0.0)), f"({image}, 0.0)"))
    for fn, point in cases:
        with pytest.raises(VersorlabError) as info:
            fn()
        assert str(info.value) == f"point {point} is too far out to embed: its squares overflow"
    assert apply_word("S", (0.0, 1e-154)) == (0.0, 1e154)
    # an image past the float range, -1 / tau at 5e-324 i among them, is named by its coordinate
    for fn in (lambda: apply_word("S", (0.0, 5e-324)), lambda: apply_word("tS", (1.0, 5e-324)),
               lambda: inversion_versor().apply(embed(0.0, 5e-324))):
        with pytest.raises(VersorlabError, match=r"^image\.x2 is too large: it does not convert "
                                                 r"to a float$"):
            fn()


def test_a_refused_image_is_named_within_half_an_ulp():
    # the refused step is redone in exact rationals and rounded once, so a subnormal |x|^2 / 2,
    # or one that underflows to 0, costs the name no digits: S at tau names -1 / tau, the
    # inversion at x names x / |x|^2, each coordinate correctly rounded
    rng = np.random.default_rng(56)
    size = 10.0 ** rng.uniform(-300, -154, (400, 2))
    for x1, x2 in zip((size[:, 0] * rng.uniform(-1, 1, 400)).tolist(), size[:, 1].tolist()):
        n = Fraction(x1) ** 2 + Fraction(x2) ** 2
        for fn, want in ((lambda: apply_word("S", (x1, x2)), (-Fraction(x1) / n, Fraction(x2) / n)),
                         (lambda: inversion_versor().apply(embed(x1, x2)),
                          (Fraction(x1) / n, Fraction(x2) / n))):
            with pytest.raises(VersorlabError) as info:
                fn()
            got = re.fullmatch(r"point \((\S+), (\S+)\) is too far out to embed: its squares "
                               r"overflow", str(info.value)).groups()
            for g, w in zip(map(float, got), want):
                assert abs(Fraction(g) - w) <= Fraction(math.ulp(float(w))) / 2, (x1, x2, got)


def test_special_conformal_matches_inversion_sandwich():
    a1, a2 = 0.7, -0.3
    K = special_conformal(a1, a2)
    J, T = inversion_versor(), translator(a1, a2)
    assert K.mv.close_to((J * T * J).mv) or K.mv.close_to(-(J * T * J).mv)
    # z / (1 + a z) with a = a1 + i a2 conjugate acting on z = 1
    z = 1.0 + 0.0j
    w = z / (1 + complex(a1, -a2) * z)
    approx_pt(K.apply(embed(1.0, 0.0)).coords, (w.real, w.imag), tol=1e-9)


def test_versor_composition_and_kinds():
    # the product acts left factor first: (T * R).apply == R.apply after T.apply
    T, R = translator(1.0, 0.0), rotation(0.3)
    C = T * R
    p = embed(0.4, 1.2)
    step = R.apply(T.apply(p))
    assert np.allclose(C.apply(p).coords, step.coords, atol=1e-12)


# ---------------------------------------------------------------- modular action

def test_modular_generator_relations():
    S, T = modular_S(), modular_T()
    minus_one = scalar_mv(SIG31, -1.0)
    assert (S.mv * S.mv).close_to(minus_one)
    ST = S.mv * T.mv
    assert (ST * ST * ST).close_to(minus_one)


def test_modular_S_action():
    S = modular_S()
    # S: tau -> -1/tau; fixed point i, and 2i -> i/2
    approx_pt(S.apply(embed(0.0, 1.0)).coords, (0.0, 1.0))
    approx_pt(S.apply(embed(0.0, 2.0)).coords, (0.0, 0.5))
    z = complex(2.0, 0.5)
    w = -1.0 / z
    approx_pt(S.apply(embed(z.real, z.imag)).coords, (w.real, w.imag))


def test_modular_T_action():
    approx_pt(modular_T().apply(embed(0.3, 0.9)).coords, (1.3, 0.9))


def test_word_application_reads_left_to_right():
    # "TS" means apply T first, then S
    tau = (0.25, 1.5)
    via_word = apply_word("TS", tau)
    z = complex(*tau) + 1.0
    z = -1.0 / z
    approx_pt(via_word, (z.real, z.imag))


def test_word_inverse_letter():
    approx_pt(apply_word("Tt", (0.7, 0.4)), (0.7, 0.4))
    approx_pt(apply_word("t", (0.0, 1.0)), (-1.0, 1.0))


def test_empty_word_is_identity():
    assert apply_word("", (0.2, 0.8)) == (0.2, 0.8)
    assert apply_word([], (0.2, 0.8)) == (0.2, 0.8)
    assert mobius_oracle("", (0.2, 0.8)) == (0.2, 0.8)
    assert word_report("", (0.2, 0.8))["word"] == ""


def test_word_validation():
    for fn in (apply_word, mobius_oracle, word_report):
        with pytest.raises(VersorlabError) as info:
            fn("SxT", (0.5, 1.0))
        assert str(info.value) == "unknown modular letters ['x']; alphabet is S, T, t"
    # letters are checked before the point
    with pytest.raises(VersorlabError, match="unknown modular letters"):
        apply_word("SxT", (0.5, -1.0))
    with pytest.raises(VersorlabError):
        apply_word("S", (0.5, -1.0))  # lower half-plane input
    with pytest.raises(VersorlabError):
        apply_word("S", (0.5, 0.0))  # boundary


def test_words_agree_with_mobius_oracle():
    letters = np.array(["S", "T", "t"])
    for _ in range(200):
        n = int(RNG.integers(1, 13))
        word = "".join(RNG.choice(letters, size=n))
        tau = (float(RNG.normal()), float(RNG.uniform(0.2, 3.0)))
        try:
            got = apply_word(word, tau)
            want = mobius_oracle(word, tau)
        except PointAtInfinity:
            continue
        scale = max(1.0, abs(complex(*want)))
        assert abs(complex(*got) - complex(*want)) <= 1e-6 * scale
        assert got[1] > 0  # upper half-plane preserved


def test_ss_is_identity_on_points():
    # S^2 = -1 as a versor but acts trivially on the plane
    approx_pt(apply_word("SS", (0.3, 1.7)), (0.3, 1.7))
    approx_pt(apply_word("STSTST", (0.3, 1.7)), (0.3, 1.7))


def test_word_report_wire_format():
    rep = word_report("ST", (0.5, 0.5))
    assert set(rep) == {"input", "word", "versor_result", "oracle_result", "max_deviation"}
    assert rep["word"] == "ST"
    assert rep["input"] == [0.5, 0.5]
    assert rep["max_deviation"] <= 1e-9
    assert rep["versor_result"][1] > 0


# ---------------------------------------------------------------- bit identity

def _reference_image(versor, X):
    """The sandwich the long way, as whole geometric products: ~A X A, negated for an odd A."""
    A = versor.mv
    Y = ~A * X * A
    return (-Y if versor.v.parity == 1 else Y).grade(1)


def _reference_apply(versor, X):
    """One letter or map the long way: the sandwich and every inner product
    (X . X, X . n, the normalizing Y . n) as whole geometric products, and
    coefficient scales from Python max over the coefficients."""
    Y = _reference_image(versor, X)
    scale = max(1.0, float(max(abs(c) for c in Y.coeffs)))
    s = (Y * NINF).scalar
    if s == 0 or abs(s) < DEFAULT_EPS * scale:
        raise PointAtInfinity("image point is at infinity")
    Z = Y * (-1.0 / s)
    scale = max(1.0, float(max(abs(c) for c in Z.coeffs)) ** 2)
    if abs((Z * Z).scalar) > DEFAULT_EPS * scale:
        raise VersorlabError("conformal points must be null")
    if abs((Z * NINF).scalar + 1.0) > DEFAULT_EPS * scale:
        raise VersorlabError("conformal points must satisfy X . n = -1")
    return Z


def _reference_word(word, tau):
    letters = {"S": modular_S(), "T": modular_T(), "t": modular_T().inverse()}  # rebuilt per call
    X = ConformalPoint(embed(*tau).X).X  # the start point checked
    for letter in word:
        X = _reference_apply(letters[letter], X)
    return (float(X.coeffs[0b01]), float(X.coeffs[0b10]))  # e1, e2


def _outcome(fn, *args):
    """The floats with their signs (``==`` does not tell -0.0 from 0.0), or
    the type and message of what was raised."""
    try:
        return [(v, math.copysign(1.0, v)) for v in fn(*args)]
    except (ArithmeticError, VersorlabError) as exc:
        return type(exc), str(exc)


def _random_words(rng, count):
    return ["".join(rng.choice(["S", "T", "t"], size=i % 17)) for i in range(count)]


def test_apply_word_matches_full_product_path():
    # the letter matrices are the kernel's sandwich, exactly: where the long way
    # keeps its digits (x2 >= 0.05), apply_word is within 1e-12 of it, relative
    # to max(1, |image|)
    rng = np.random.default_rng(2718)
    letters = np.array(["S", "T", "t"])
    compared = 0
    for i in range(500):
        word = "".join(rng.choice(letters, size=i % 17))
        tau = (float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2)))
        try:
            want = _reference_word(word, tau)
        except PointAtInfinity:  # the long way's horizon, past |image| ~ 1/sqrt(DEFAULT_EPS)
            continue
        got = apply_word(word, tau)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * max(1.0, *map(abs, want))
        compared += 1
    assert compared >= 450
    # NaN, infinite and overflowing tau raise the long way's error (embed's
    # 0 * inf coefficients warn on the way; the error is what is compared)
    with np.errstate(invalid="ignore", over="ignore"):
        for tau in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.5, math.inf),
                    (1e200, 1.0), (1.0, 1e200), (1e100, 1.0), (1e154, 1e154)):
            for word in ("", "S", "TtS"):
                want = _outcome(_reference_word, word, tau)
                assert isinstance(want, tuple) and _outcome(apply_word, word, tau) == want, tau


def _no_products(monkeypatch):
    """``cga2d`` without ``sandwich``, and every ``Multivector`` product raising."""
    def product(*args):
        raise AssertionError("a Multivector product")

    monkeypatch.delattr(cga2d, "sandwich", raising=False)
    monkeypatch.setattr(Multivector, "__mul__", product)
    monkeypatch.setattr(Multivector, "__rmul__", product)


def test_a_finite_word_makes_no_sandwich(monkeypatch):
    # the letter matrices carry every word, and their floats, or the refused step redone in
    # rationals, raise every error: a finite word and one whose image is too far out go
    # through no Multivector product
    words = _random_words(np.random.default_rng(6), 34)
    cases = [(word, (0.3, 0.7)) for word in words] + [("tS", (1.0, 1e-170))]
    want = [_outcome(apply_word, word, tau) for word, tau in cases]
    assert want[-1] == (VersorlabError, "point (0.0, 1e+170) is too far out to embed: its squares "
                                        "overflow")
    assert not any(isinstance(w, tuple) for w in want[:-1])
    _no_products(monkeypatch)
    for (word, tau), expected in zip(cases, want):
        assert _outcome(apply_word, word, tau) == expected, (word, tau)


def test_a_finite_word_calls_one_step_per_letter_and_no_numpy(monkeypatch):
    # each letter is one matrix product and inline checks on four floats:
    # n letters read n matrices, and make no numpy call at all
    words = _random_words(np.random.default_rng(11), 51)
    want = [_outcome(apply_word, word, (0.3, 0.7)) for word in words]
    assert not any(isinstance(w, tuple) for w in want)
    calls = []

    class Counted(dict):
        def __getitem__(self, letter):
            calls.append(letter)
            return dict.__getitem__(self, letter)

    monkeypatch.setattr(cga2d, "_MATRICES", Counted(cga2d._MATRICES))
    monkeypatch.setattr(cga2d, "np", None)
    for word, expected in zip(words, want):
        calls.clear()
        assert _outcome(apply_word, word, (0.3, 0.7)) == expected, word
        assert calls == list(word)


# ---------------------------------------------------------------- null coordinates

SL2Z = {"S": ((0, -1), (1, 0)), "T": ((1, 1), (0, 1)), "t": ((1, -1), (0, 1))}


def _exact_image(word, tau):
    """The word's image of tau in exact rationals: the product of its letters' SL(2, Z)
    matrices, the last letter leftmost, acting as (a tau + b) / (c tau + d)."""
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        (p, q), (r, s) = SL2Z[letter]
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    x, y = Fraction(tau[0]), Fraction(tau[1])
    den = (c * x + d) ** 2 + (c * y) ** 2
    return ((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den


def _relative_deviation(word, tau):
    """max |apply_word - exact| over x1 and x2, relative to max(1, |x1|, |x2|) of the
    exact image, as verify's words row scales it."""
    got, want = apply_word(word, tau), _exact_image(word, tau)
    return float(max(abs(Fraction(g) - w) for g, w in zip(got, want))
                 / max(1, abs(want[0]), abs(want[1])))


def _near_axis_draws(count, seed=1618):
    """Words of up to 16 letters at Re tau uniform in [-2, 2], Im tau log-uniform in [1e-6, 2]."""
    rng = np.random.default_rng(seed)
    return [("".join(rng.choice(["S", "T", "t"], size=int(rng.integers(0, 17)))),
             (float(rng.uniform(-2, 2)), float(10.0 ** rng.uniform(-6, math.log10(2)))))
            for _ in range(count)]


def _relation_defects():
    """The relations S^2 = (ST)^3 = T t = I that the letter matrices miss, as exact
    integer products."""
    S, T, t = (np.array(cga2d._MATRICES[letter], dtype=np.int64) for letter in "STt")
    products = {"S^2": S @ S, "(ST)^3": np.linalg.matrix_power(S @ T, 3), "Tt": T @ t}
    return [name for name, m in products.items() if not np.array_equal(m, np.eye(4, dtype=int))]


def test_letter_matrices_are_integer():
    # the letters' matrices by float.hex, signed zeros included: every zero is +0.0, where
    # T and t as translators write -0.0 at row 1, column 3
    o, i, j = "0x0.0p+0", "0x1.0000000000000p+0", "-0x1.0000000000000p+0"
    two, minus_two = "0x1.0000000000000p+1", "-0x1.0000000000000p+1"
    held = {"S": ((j, o, o, o), (o, i, o, o), (o, o, o, j), (o, o, j, o)),
            "T": ((i, o, o, minus_two), (o, i, o, o), (i, o, i, j), (o, o, o, i)),
            "t": ((i, o, o, two), (o, i, o, o), (j, o, i, j), (o, o, o, i))}
    assert {letter: tuple(tuple(map(float.hex, row)) for row in matrix)
            for letter, matrix in cga2d._MATRICES.items()} == held


def _integer_steps(matrices, x1, x2):
    """``cga2d._steps`` as it stepped on integer letter matrices: int * float products, and
    ``DEFAULT_EPS`` and ``math.inf`` read as globals; None where a step refuses in floats."""
    p = (x1 * x1 + x2 * x2) * 0.5
    for (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) in matrices:
        q = d0 * x1 + d1 * x2 + d2 * p - 0.5 * d3
        if q == 0:
            return None
        r = -0.5 / q
        y1, y2 = a0 * x1 + a1 * x2 + a2 * p - 0.5 * a3, b0 * x1 + b1 * x2 + b2 * p - 0.5 * b3
        x1, x2, p = y1 * r, y2 * r, (c0 * x1 + c1 * x2 + c2 * p - 0.5 * c3) * r
        h = (x1 * x1 + x2 * x2) * 0.5
        if not abs(p - h) <= DEFAULT_EPS * max(1.0, h) < math.inf:
            return None
        p = h
    return x1, x2, p


_INTEGER_MATRICES = {letter: tuple(tuple(int(m) for m in row) for row in matrix)
                     for letter, matrix in cga2d._MATRICES.items()}


def _integer_word(word, tau):
    """``apply_word`` stepping on the integer letter matrices, a letter whose step refuses taken
    from its float start by ``_exact_image``, each coordinate rounded once, and named as embed
    names a point if its squares overflow."""
    x1, x2 = cga2d._embedding(float(tau[0]), float(tau[1]))[:2]
    for letter in word:
        stepped = _integer_steps([_INTEGER_MATRICES[letter]], x1, x2)
        x1, x2 = stepped[:2] if stepped else map(float, _exact_image(letter, (x1, x2)))
        if math.isinf((x1 * x1 + x2 * x2) * 0.5):
            raise VersorlabError(f"point ({x1!r}, {x2!r}) is too far out to embed: its squares "
                                 f"overflow")
    return x1, x2


def _bits(fn, word, tau):
    """The floats as ``float.hex``, so the sign of zero counts, or what was raised."""
    try:
        return [float.hex(v) for v in fn(word, tau)]
    except (ArithmeticError, VersorlabError) as exc:
        return type(exc), str(exc)


def test_float_letter_step_is_bitwise_the_integer_step():
    # the letters' integer entries held as floats multiply to the same bits: on
    # verify's draws, near the real axis, at x1 = +-0.0, and where S raises
    rng = np.random.default_rng(4242)
    ctx = verify._Ctx(4242)
    draws = verify._word_draws(ctx, 8000)
    draws += _near_axis_draws(6000, seed=4242)
    draws += [("".join(rng.choice(["S", "T", "t"], size=int(rng.integers(0, 17)))),
               (float(rng.choice([0.0, -0.0])), float(10.0 ** rng.uniform(-8, 1))))
              for _ in range(4000)]
    draws += [("S" + "".join(rng.choice(["S", "T", "t"], size=int(rng.integers(0, 5)))),
               (float(rng.choice([0.0, -0.0, 1e-200])), float(rng.choice([1e-170, 1e-160]))))
              for _ in range(2000)]
    assert len(draws) == 20000
    raised = []
    for word, tau in draws:
        want = _bits(_integer_word, word, tau)
        assert _bits(apply_word, word, tau) == want, (word, tau)
        if isinstance(want, tuple):
            raised.append(want)
    assert {kind for kind, _ in raised} == {VersorlabError}
    assert all("too far out to embed" in message for _, message in raised)
    assert {math.copysign(1.0, tau[0]) for _, tau in draws if tau[0] == 0} == {1.0, -1.0}


def test_letter_matrices_satisfy_the_modular_relations_exactly():
    assert _relation_defects() == []


def test_apply_word_is_within_1e_14_of_the_exact_oracle_on_verify_draws():
    ctx = verify._Ctx(2718)
    worst = max(_relative_deviation(*draw) for draw in verify._word_draws(ctx, 2000))
    assert worst <= 1e-14, worst


def test_apply_word_is_within_1e_13_of_the_exact_oracle_near_the_real_axis():
    worst = max(_relative_deviation(word, tau) for word, tau in _near_axis_draws(2000))
    assert worst <= 1e-13, worst


@pytest.mark.parametrize("letter", ["S", "T", "t"])
def test_a_planted_wrong_entry_in_a_letter_matrix_fails_a_check(letter, monkeypatch):
    # every entry of the letter's matrix, off by +1 or -1: the exact relations fail,
    # and some word through that letter leaves the exact oracle or raises
    draws = [(word + letter, tau) for word, tau in _near_axis_draws(40, seed=7)]
    matrix = cga2d._MATRICES[letter]
    for i in range(4):
        for j in range(4):
            for delta in (1, -1):
                planted = [list(row) for row in matrix]
                planted[i][j] += delta
                monkeypatch.setitem(cga2d._MATRICES, letter, tuple(map(tuple, planted)))
                assert _relation_defects() != [], (i, j, delta)
                try:
                    worst = max(_relative_deviation(word, tau) for word, tau in draws)
                except VersorlabError:
                    continue
                assert worst > 1e-13, (i, j, delta)


# ----------------------------------------------------------- maps on their matrices

_MAP_KINDS = {  # constructor, parameter count, parameter reach
    "translator": (translator, 2, 3.0), "rotation": (rotation, 1, 7.0),
    "dilator": (dilator, 1, 3.0), "special_conformal": (special_conformal, 2, 1.5),
    "reflection": (reflection, 2, 3.0), "inversion": (inversion_versor, 0, 0.0),
}
_factor = st.sampled_from(sorted(_MAP_KINDS)).flatmap(lambda kind: st.tuples(
    st.just(kind), st.lists(st.floats(-_MAP_KINDS[kind][2], _MAP_KINDS[kind][2]),
                            min_size=_MAP_KINDS[kind][1], max_size=_MAP_KINDS[kind][1])))


def _bytes_or_error(fn):
    """Every coefficient's bytes of fn(), signed zeros included, or the type and message raised."""
    try:
        return fn().coeffs.tobytes()
    except (ArithmeticError, VersorlabError) as exc:
        return type(exc), str(exc)


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _exact_step(kind, params, u, v):
    """kind's map on tau = u / v, u and v exact complex numbers as pairs of Fractions: a Mobius
    map, or for reflection and inversion one of conj(tau).  math's cos, sin and exp are exact
    inputs, as the versors take them."""
    a = tuple(map(Fraction, params))
    if kind == "translator":
        return (u[0] + a[0] * v[0] - a[1] * v[1], u[1] + a[0] * v[1] + a[1] * v[0]), v
    if kind == "rotation":
        return _cmul((Fraction(math.cos(params[0])), Fraction(math.sin(params[0]))), u), v
    if kind == "dilator":
        e = Fraction(math.exp(params[0]))
        return (e * u[0], e * u[1]), v
    if kind == "special_conformal":  # tau / (1 + conj(a) tau)
        au = _cmul((a[0], -a[1]), u)
        return u, (v[0] + au[0], v[1] + au[1])
    u, v = (u[0], -u[1]), (v[0], -v[1])
    if kind == "inversion":  # 1 / conj(tau)
        return v, u
    a2, n = _cmul(a, a), a[0] * a[0] + a[1] * a[1]  # reflection: -a^2 conj(tau) / |a|^2
    return _cmul((-a2[0], -a2[1]), u), (n * v[0], n * v[1])


def _exact_map_image(factors, x):
    """The image of the point x under the maps in order, in exact rationals, or None at infinity.
    Homogeneous pairs carry a pole between factors as the matrices' product does."""
    u, v = (Fraction(x[0]), Fraction(x[1])), (Fraction(1), Fraction(0))
    for kind, params in factors:
        u, v = _exact_step(kind, params, u, v)
    n = v[0] * v[0] + v[1] * v[1]
    if n == 0:
        return None
    w = _cmul(u, (v[0], -v[1]))
    return w[0] / n, w[1] / n


def _deviation(got, want):
    """max |got - want| over x1 and x2, relative to max(1, |x1|, |x2|) of the exact image."""
    return float(max(abs(Fraction(g) - w) for g, w in zip(got, want))
                 / max(1, abs(want[0]), abs(want[1])))


def _made(factors):
    versor = None
    for kind, params in factors:
        made = _MAP_KINDS[kind][0](*params)
        versor = made if versor is None else versor * made
    return versor


def _judged(factors, versor, point):
    """apply's outcome on point against the exact oracle: "finite" where the image is the exact
    one within 2e-9 relative to max(1, |image|) (the null check's scale, reached only next to a
    pole, where q has lost its digits), or the refusal's type and message, which only a point
    sent to infinity or at least 10 from the origin gets."""
    want = _exact_map_image(factors, point.coords)
    try:
        got = versor.apply(point).coords
    except VersorlabError as exc:
        assert want is None or max(abs(want[0]), abs(want[1])) >= 10, (exc, want)
        message = str(exc)
        return type(exc), ("too far out" if "too far out to embed" in message else message)
    assert want is not None and _deviation(got, want) <= 2e-9, (got, want)
    return "finite"


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(factors=st.lists(_factor, min_size=1, max_size=3),
       x1=st.sampled_from([0.0, -0.0]) | st.floats(-3, 3), x2=st.sampled_from([0.0, -0.0]) | st.floats(-3, 3),
       near_pole=st.booleans(), offset=st.sampled_from([0.0, -0.0, 1e-15, -1e-12, 1e-9, 1e-6, 1e-3]))
def test_apply_matches_the_exact_oracle_for_every_map(factors, x1, x2, near_pole, offset):
    # any conformal versor and product of versors acts by its matrix on null coordinates,
    # checked against the exact homogeneous maps, points next to a pole included
    factors = [(kind, [1.0, params[1]] if kind == "reflection" and math.hypot(*params) < 1e-3
                else params) for kind, params in factors]
    versor = _made(factors)
    if near_pole:  # the point the map sends to infinity, nudged by offset
        try:
            x1, x2 = extract(sandwich(NINF, versor.inverse().v))
        except PointAtInfinity:
            pass
        x1 += offset
    _judged(factors, versor, embed(x1, x2))


def test_maps_reach_every_outcome_of_the_letter_step():
    # one fixed case per outcome, whatever the property draws: dilator(10) at (1e-6, 5e-7)
    # is no longer refused (the sandwich route's rounding made it "not null"); next to K's
    # pole the image's q has lost its digits, and the step redone exactly is finite (before,
    # "must be null"); at 1e-300 dilator(700)'s |x|^2 / 2 underflows, and so does the
    # inversion's at 1e-160, whose image is too far out
    K = special_conformal(0.5, -0.25)
    pole = extract(sandwich(NINF, K.inverse().v))
    cases = {"finite": ([("translator", [1.0, 2.0])], (0.5, 0.5)),
             "dilated": ([("dilator", [10.0])], (1e-6, 5e-7)),
             "inversion's pole": ([("inversion", [])], (0.0, 0.0)),
             "next to K's pole": ([("special_conformal", [0.5, -0.25])], (pole[0] + 1e-6, pole[1])),
             "underflow": ([("dilator", [700.0])], (1e-300, 1e-301)),
             "too far out": ([("inversion", [])], (0.0, 1e-160))}
    seen = {name: _judged(factors, _made(factors), embed(*tau))
            for name, (factors, tau) in cases.items()}
    assert seen == {"finite": "finite", "dilated": "finite",
                    "inversion's pole": (PointAtInfinity, "image point is at infinity"),
                    "next to K's pole": "finite", "underflow": "finite",
                    "too far out": (VersorlabError, "too far out")}
    assert dilator(10.0).apply(embed(1e-6, 5e-7)).coords == pytest.approx((0.0220, 0.0110), rel=2e-3)


def test_a_point_sent_exactly_to_infinity_raises():
    # Y . n = 0 (q = 0 in null coordinates, z = 0 for the oracle) is a point at
    # infinity, not a division by zero: q = 0 in floats refuses the step, which is redone
    # exactly, and an exact q = 0 raises; a NaN q is a refusal, no point at infinity
    cases = [lambda: inversion_versor().apply(embed(0.0, 0.0)),
             lambda: modular_S().apply(embed(0.0, 0.0)),  # S's image of 0
             lambda: inversion_versor().apply(embed(-0.0, -0.0)),
             lambda: mobius_oracle("S", (0.0, 5e-324))]  # -1 / z is not finite
    for case in cases:
        with pytest.raises(PointAtInfinity, match="^image point is at infinity$|^Mobius map"):
            case()
    assert cga2d._steps([cga2d._J], 0.0, 0.0) is None  # inversion's image of 0
    assert cga2d._steps([cga2d._J], 0.0, math.nan) is None


def test_a_finite_map_makes_no_sandwich(monkeypatch):
    # the matrices carry every map, and the letter step's floats raise every error
    # themselves: finite images, a point sent to infinity and a point with stray
    # non-vector parts go through no Multivector product and no kernel product
    rng = np.random.default_rng(23)
    factors = [[("translator", rng.uniform(-2, 2, 2).tolist())], [("rotation", [1.1])],
               [("dilator", [-0.7])], [("special_conformal", [0.2, 0.1])],
               [("reflection", [0.3, -0.4])], [("inversion", [])],
               [("translator", [0.5, 0.5]), ("rotation", [0.3]), ("dilator", [0.2])]]
    stray = ConformalPoint(embed(0.5, 0.5).X + 1e-12)
    cases = ([(f, _made(f), embed(*rng.uniform(0.2, 1.5, 2))) for f in factors]
             + [(factors[5], _made(factors[5]), embed(0.0, 0.0)),
                (factors[0], _made(factors[0]), stray)])
    want = [_judged(*case) for case in cases]
    assert want[:-2] == ["finite"] * len(factors) and want[-1] == "finite"
    assert want[-2] == (PointAtInfinity, "image point is at infinity")
    images = [_bytes_or_error(lambda: versor.apply(point).X) for _, versor, point in cases]

    def product(*args):
        raise AssertionError("a kernel product")

    _no_products(monkeypatch)
    for name in ("gp", "gp_elemwise"):
        monkeypatch.setattr(cga2d._KERNEL, name, product)
    for (_, versor, point), expected in zip(cases, images):
        assert _bytes_or_error(lambda: versor.apply(point).X) == expected, (versor, point)


def test_apply_takes_points_with_stray_off_grade_coefficients():
    # 2 000 seeded points with 1 to 3 stray non-vector coefficients up to 1e-9 (half of
    # those for inversions and special conformal maps at the map's pole): within
    # DEFAULT_EPS, at which ConformalPoint checks, apply reads the point's x1 and x2 alone,
    # so it gives the bytes or error of the same point without strays, which the exact
    # oracle judges (at K's pole, read off the kernel, q is 0 or has lost its digits); a
    # stray part past it is refused where the point is built
    rng = np.random.default_rng(909)
    strays = np.array([1e-12, -1e-12, 3e-10, -3e-10, 1e-9, 5e-7])
    off_grade = [b for b in range(16) if b not in (1, 2, 4, 8)]
    kinds = sorted(_MAP_KINDS)
    seen = set()
    for i in range(2000):
        kind = kinds[i % len(kinds)]
        _, count, reach = _MAP_KINDS[kind]
        params = rng.uniform(-reach, reach, count).tolist()
        factors = [(kind, [1.0, params[1]] if kind == "reflection" else params)]
        versor = _made(factors)
        x = rng.uniform(-2, 2, 2)
        if i // 6 % 2 and kind in ("special_conformal", "inversion"):
            x = extract(sandwich(NINF, versor.inverse().v))
        reach = (1e-9, 1e-6)[i % 2]
        clean = embed(*x)
        coeffs = clean.X.coeffs.copy()
        blades = rng.choice(off_grade, size=int(rng.integers(1, 4)), replace=False)
        coeffs[blades] = rng.choice(strays[np.abs(strays) <= reach], size=len(blades))
        if np.abs(coeffs[off_grade]).max() > DEFAULT_EPS:
            with pytest.raises(VersorlabError, match=r"^conformal points are grade-1 vectors"):
                ConformalPoint(Multivector(SIG31, coeffs))
            seen.add("past eps")
            continue
        point = ConformalPoint(Multivector(SIG31, coeffs))
        want = _bytes_or_error(lambda: versor.apply(clean).X)
        assert _bytes_or_error(lambda: versor.apply(point).X) == want, i
        seen.add(_judged(factors, versor, point))
    assert seen == {"finite", "past eps", (PointAtInfinity, "image point is at infinity"),
                    (VersorlabError, "conformal points must be null")}, seen


def _accuracy_draws(rng, kind):
    """Parameters as in the accuracy claim: a in [-50, 50]^2, theta in [-7, 7], alpha in
    [-15, 15]; and a point with |x_i| log-uniform in [1e-8, 1e3] and random signs."""
    params = {"translator": lambda: rng.uniform(-50, 50, 2), "special_conformal":
              lambda: rng.uniform(-50, 50, 2), "rotation": lambda: rng.uniform(-7, 7, 1),
              "dilator": lambda: rng.uniform(-15, 15, 1)}[kind]().tolist()
    return params, (rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-8, 3, 2)).tolist()


def test_maps_are_within_a_few_ulps_of_the_exact_oracle():
    # 4 000 seeded draws, 1 000 per map, refused nowhere: translator, rotation and dilator
    # within 1e-15 relative to max(1, |image|); special_conformal within 1e-13, or within
    # 1e-15 kappa where the condition of its denominator 1 + 2 a.x + |a|^2 |x|^2, kappa, is
    # past 100 (its q cancels, and the oracle takes x exact)
    rng = np.random.default_rng(2026)
    kinds = ["translator", "rotation", "dilator", "special_conformal"]
    worst = dict.fromkeys(kinds, 0.0)
    for i in range(4000):
        kind = kinds[i % 4]
        params, x = _accuracy_draws(rng, kind)
        dev = _deviation(_MAP_KINDS[kind][0](*params).apply(embed(*x)).coords,
                         _exact_map_image([(kind, params)], x))
        if kind == "special_conformal":
            a, y = np.array(params), np.array(x)
            terms = 1 + 2 * abs(a @ y) + (a @ a) * (y @ y)
            dev /= max(100.0, terms / abs(1 + 2 * (a @ y) + (a @ a) * (y @ y))) / 100
        worst[kind] = max(worst[kind], dev)
    assert max(worst[k] for k in kinds[:3]) <= 1e-15, worst
    assert worst["special_conformal"] <= 1e-13, worst


def test_products_of_up_to_three_maps_are_within_1e_13_of_the_exact_oracle():
    rng = np.random.default_rng(2027)
    kinds = ["translator", "rotation", "dilator", "special_conformal"]
    reach = {"translator": 5.0, "rotation": 7.0, "dilator": 3.0, "special_conformal": 5.0}
    worst = 0.0
    for i in range(1000):
        factors = [(kind, rng.uniform(-reach[kind], reach[kind], _MAP_KINDS[kind][1]).tolist())
                   for kind in rng.choice(kinds, size=1 + i % 3)]
        x = (rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-8, 3, 2)).tolist()
        worst = max(worst, _deviation(_made(factors).apply(embed(*x)).coords,
                                      _exact_map_image(factors, x)))
    assert worst <= 1e-13, worst


def test_no_dilator_refuses_a_point_whose_image_is_finite():
    # before: dilator(5) at (1000, 500), dilator(12) at (1, 0.5) and dilator(10) at
    # (1e-6, 5e-7) were refused; alpha over its whole range at points from 1e-300 to
    # embed's largest, each image e^alpha x within 1e-15 relative to max(1, |image|)
    rng = np.random.default_rng(15)
    draws = [(float(rng.uniform(-15, 15)),
              tuple((rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-300, 76, 2)).tolist()))
             for _ in range(2000)]
    for alpha, x in [(5.0, (1000.0, 500.0)), (12.0, (1.0, 0.5)), (10.0, (1e-6, 5e-7)),
                     (15.0, (1e77, -5e76)), (-15.0, (1e77, -5e76))] + draws:
        got = dilator(alpha).apply(embed(*x)).coords
        assert _deviation(got, _exact_map_image([("dilator", [alpha])], x)) <= 1e-15, (alpha, x)
    # where |x|^2 / 2 underflows to 0 the float step reads p = 0 beside the image's h and
    # refuses it; redone in exact rationals, the image is rounded once, within 2 ulps (before,
    # each raised "conformal points must be null")
    for alpha, x in [(700.0, (1e-300, 1e-301)), (700.0, (1e-200, 0.0)),
                     (700.0, (-3e-250, 2e-170)), (650.0, (5e-324, 0.0))]:
        got = dilator(alpha).apply(embed(*x)).coords
        for g, w in zip(got, _exact_map_image([("dilator", [alpha])], x)):
            assert abs(Fraction(g) - w) <= 2 * Fraction(math.ulp(float(w))), (alpha, x, got)
    assert dilator(700.0).apply(embed(1e-300, 1e-301)).coords == (10142.320547350046,
                                                                  1014.2320547350046)


def test_products_of_maps_are_never_refused():
    # the product of two unit versors is one: before, dilator(10) * dilator(10) raised
    # NotAVersor (scalar part 0.9999999850988388), and 251 of 4 000 products of one to three
    # maps at the accuracy draws' ranges were refused; now each is made, dilator(10) twice
    # acting as e^20 within the exact oracle's 1e-15
    x = (0.75, -0.5)
    factors = [("dilator", [10.0])] * 2
    assert _deviation(_made(factors).apply(embed(*x)).coords, _exact_map_image(factors, x)) <= 1e-15
    rng = np.random.default_rng(2028)
    kinds = ["translator", "rotation", "dilator", "special_conformal"]
    for i in range(4000):
        _made([(kind, _accuracy_draws(rng, kind)[0]) for kind in rng.choice(kinds, size=1 + i % 3)])


def test_reverse_and_inverse_are_the_exact_adjoint():
    # reverse and inverse carry M's adjoint, read off no kernel: over 2 000 seeded draws each
    # map's inverse matrix is the opposite map's, entry for entry
    rng = np.random.default_rng(4)
    for _ in range(2000):
        a, theta, alpha = rng.uniform(-50, 50, 2).tolist(), rng.uniform(-7, 7), rng.uniform(-15, 15)
        for method in (cga2d.ConformalVersor.reverse, cga2d.ConformalVersor.inverse):
            assert method(translator(*a)).M == translator(-a[0], -a[1]).M, a
            assert method(rotation(theta)).M == rotation(-theta).M, theta
            assert method(dilator(alpha)).M == dilator(-alpha).M, alpha
    # before: 1.5e-10 relative off, the kernel's reading of dilator(-15)'s inverse
    assert dilator(-15).inverse().apply(embed(1, 0.5)).coords == (math.exp(15), 0.5 * math.exp(15))


def test_written_matrices_are_the_kernels_reading():
    # each constructor writes its matrix from its parameters; the versor it carries
    # sandwiches to the same matrix, read off the kernel, within a few ulps
    rng = np.random.default_rng(3)
    for kind in ("translator", "rotation", "dilator", "special_conformal", "inversion", "reflection"):
        make, count, _ = _MAP_KINDS[kind]
        for _ in range(50):
            params = rng.uniform(-5, 5, count).tolist()
            versor = make(*params)
            read = np.array(cga2d._reading(versor.v))
            assert np.abs(read - np.array(versor.M)).max() <= 1e-14 * np.abs(read).max(), (kind, params)
    # a product multiplies the matrices, the left factor acting first
    T, R = translator(1.0, 2.0), rotation(0.3)
    assert (T * R).M == cga2d._compose(R.M, T.M)
    # the letters S, T and t: the kernel's reading is the held matrix exactly, every entry
    # is an integer, and every image's coefficient off grade 1 is exactly 0
    # (the kernel's full images, before sandwich masks them to grade 1)
    k = kernel_for(SIG31)
    off_grade = ~k.grade_masks[1]
    for letter, versor in (("S", modular_S()), ("T", modular_T()), ("t", translator(-1.0, 0.0))):
        read = cga2d._reading(versor.v)
        assert read == cga2d._MATRICES[letter], letter
        assert all(m == int(m) for row in read for m in row), letter
        A = versor.v.mv.coeffs
        for b in (cga2d.E1, cga2d.E2, NINF, NBAR):
            assert not k.gp(k.gp(k.rev(A), b.coeffs), A)[off_grade].any(), (letter, b)
    # wide parameters, |a| up to 1e150 and |alpha| up to 700: within 4 ulps of the largest entry
    for _ in range(500):
        a = (rng.normal(size=2) * 10.0 ** rng.uniform(0, 150)).tolist()
        alpha = rng.uniform(-700, 700)
        for versor in (translator(*a), special_conformal(*a), dilator(alpha)):
            read = np.array(cga2d._reading(versor.v))
            assert (np.abs(read - np.array(versor.M)).max()
                    <= 4 * np.spacing(np.abs(read).max())), (versor, a, alpha)


def test_reflection_writes_its_matrix_within_an_ulp_of_the_exact_oracle():
    # reflection writes M from u = a/|a|, -(I - 2 u u^T) on (x1, x2) and -1 on p and q,
    # where before it read M off the kernel: over 4 000 seeded mirrors |a| from 1e-6 to 1e8
    # and points |x_i| from 1e-8 to 1e3, apply is within 1e-15 of the exact oracle
    want = ((-0.28, -0.96, 0, 0), (-0.96, 0.28, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
    assert np.abs(np.array(reflection(0.3, -0.4).M) - want).max() <= 1e-15
    rng = np.random.default_rng(46)
    for _ in range(4000):
        a = (rng.normal(size=2) * 10.0 ** rng.uniform(-6, 8)).tolist()
        x = (rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-8, 3, 2)).tolist()
        got = reflection(*a).apply(embed(*x)).coords
        assert _deviation(got, _exact_map_image([("reflection", a)], x)) <= 1e-15, (a, x)


def test_special_conformal_writes_j_t_j_bit_for_bit():
    # M is written entry by entry: each entry is the float that J T_a J, two _compose
    # calls, makes, by float.hex, signed zeros included, over zero, subnormal, tiny,
    # limit and seeded parameters
    rng, J = np.random.default_rng(12), cga2d._J
    edge = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-160, 1e-8, 700.0, -700.0, 1000.0, -1000.0]
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [tuple(rng.uniform(-r, r, 2).tolist()) for r in (1e-3, 1.0, 700.0) for _ in range(1000)]
    for a1, a2 in pairs:
        want = cga2d._compose(J, cga2d._compose(cga2d._translation(a1, a2), J))
        got = special_conformal(a1, a2).M
        assert [list(map(float.hex, row)) for row in got] == [list(map(float.hex, row))
                                                             for row in want], (a1, a2)


def test_library_points_hold_their_floats_until_x_is_read(monkeypatch):
    # embed, apply and coords make no numpy call and wrap no Multivector: a point the
    # library makes holds its four floats, and writes its X once, when X is first read
    rng = np.random.default_rng(49)
    versors = [_made([(kind, rng.uniform(-reach, reach, count).tolist())])
               for kind, (_, count, reach) in sorted(_MAP_KINDS.items())]
    versors.append(_made([("translator", [0.5, 0.5]), ("rotation", [0.3]), ("dilator", [0.2])]))
    cases = [(versor, rng.uniform(-2, 2, 2).tolist()) for versor in versors for _ in range(5)]
    want = [(_outcome(lambda: embed(*x).coords), _outcome(lambda: v.apply(embed(*x)).coords))
            for v, x in cases]
    assert not any(isinstance(w, tuple) for pair in want for w in pair)
    # a caller's X is decided on its four floats, with no numpy call and no kernel product
    inf_e1 = np.zeros(16)
    inf_e1[1] = math.inf
    callers = [(embed(*x).X, None) for _, x in cases[:5]] + [
        (2.0 * embed(300.0, 0.0).X, "^conformal points must be null$"),
        (NBAR, r"^conformal points must satisfy X \. n = -1$"),
        (blade(SIG31, "e12"), r"^conformal points are grade-1 vectors"),
        (Multivector(SIG31, inf_e1), "^conformal points must have finite coefficients$"),
        (1e200 * blade(SIG31, "e1"), "too far out to embed")]
    extracted = [(X, tuple(X.coeffs[[1, 2]].tolist())) for X, _ in callers[:5]]
    extracted += [(-0.25 * X, want) for X, want in extracted]  # scaled exactly
    extracted += [(2.0 * embed(300.0, 0.0).X, (300.0, 0.0)),
                  (Multivector(SIG31, inf_e1), VersorlabError), (NINF, PointAtInfinity),
                  (1e200 * blade(SIG31, "e1"), PointAtInfinity)]
    wrap, wraps, points = Multivector._wrap, [], []
    monkeypatch.setattr(Multivector, "_wrap",
                        classmethod(lambda cls, sig, arr: wraps.append(sig) or wrap(sig, arr)))
    with monkeypatch.context() as m:
        m.setattr(cga2d, "np", None)
        for (versor, x), expected in zip(cases, want):
            p = embed(*x)
            q = versor.apply(p)
            assert (_outcome(lambda: p.coords), _outcome(lambda: q.coords)) == expected, x
            points += [p, q]
        with pytest.raises(PointAtInfinity):
            inversion_versor().apply(embed(0.0, 0.0))
        with pytest.raises(VersorlabError, match="too far out to embed"):
            embed(1e200, 1.0)
        m.setattr(cga2d._KERNEL, "scalar_part", None)
        for X, refusal in callers:
            if refusal is None:
                assert ConformalPoint(X).coords == tuple(X.coeffs[[1, 2]].tolist())
            else:
                with pytest.raises(VersorlabError, match=refusal):
                    ConformalPoint(X)
        for X, want in extracted:  # extract reads a caller's X by the same rule, scaled or not
            if isinstance(want, tuple):
                assert extract(X) == want
            else:
                with pytest.raises(want) as info:
                    extract(X)
                assert type(info.value) is want
    assert wraps == []
    for p in points:
        X = p.X
        assert X is p.X and X.coeffs[[1, 2]].tolist() == list(p.coords)
        assert ConformalPoint(X).coords == p.coords  # X passes a caller's checks
    assert len(wraps) == len(points)


def _multivector_route(kind, *params):
    """translator, rotation and dilator, and embed's point, as multivector expressions."""
    one = scalar_mv(SIG31, 1.0)
    e1, e2 = cga2d.E1, cga2d.E2
    if kind == "translator":
        return one - 0.5 * (NINF * (float(params[0]) * e1 + float(params[1]) * e2))
    if kind == "embed":
        x1, x2 = map(float, params)
        return ((x1 * x1 + x2 * x2) * NINF + 2.0 * (x1 * e1 + x2 * e2) - NBAR) * 0.5
    h = 0.5 * float(params[0])
    if kind == "rotation":
        return math.cos(h) * one + math.sin(h) * (e1 * e2)
    return math.cosh(h) * one + math.sinh(h) * (EPLUS * EMINUS)


def _exp_is_finite(x):
    try:
        return math.isfinite(math.exp(x))
    except OverflowError:
        return False


def _checked_where_decided(mv):
    """mv, which passes Versor's check where eps sum c^2 < 1/2 decides it, and is refused past."""
    if DEFAULT_EPS * float(np.sum(mv.coeffs * mv.coeffs)) < 0.5:
        return Versor(mv).mv
    with pytest.raises(NotAVersor, match=r"^mv \* ~mv = \+-1 is not decided: "):
        Versor(mv)
    return mv


def test_constructors_and_embed_write_the_multivector_routes_floats():
    # the direct coefficient lists must be the multivector expressions' floats,
    # bit for bit, or raise the same error: random, signed-zero, tiny, huge
    # and pow-sensitive inputs; a dilator whose e^|theta| overflows is named
    rng = np.random.default_rng(88)
    zeros = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]
    xs = [float(x) for x in rng.uniform(-5, 5, size=100_000)]
    pow_off = [x for x in xs if x ** 2 != x * x][:400]
    scalars = (zeros + pow_off + [float(x) for x in rng.normal(scale=3, size=400)]
               + [float(x) for x in rng.uniform(-1, 1, 200) * 10.0 ** rng.uniform(-8, 8, 200)])
    pairs = ([(a, b) for a in zeros for b in zeros] + list(zip(scalars, scalars[::-1]))
             + list(zip(pow_off[0::2], pow_off[1::2])))
    for a1, a2 in pairs:  # every |a|^2 here is finite
        want = _bytes_or_error(lambda: _checked_where_decided(
            _multivector_route("translator", a1, a2)))
        assert not isinstance(want, tuple), (a1, a2, want)
        assert _bytes_or_error(lambda: translator(a1, a2).mv) == want, (a1, a2)
        # special_conformal is e T e's floats
        assert _bytes_or_error(lambda: special_conformal(a1, a2).mv) == _bytes_or_error(
            lambda: EPLUS * translator(a1, a2).mv * EPLUS), (a1, a2)
        if abs(a1) < 1e7 and abs(a2) < 1e7:
            want = _bytes_or_error(lambda: ConformalPoint(_multivector_route("embed", a1, a2)).X)
            assert _bytes_or_error(lambda: embed(a1, a2).X) == want, (a1, a2)
    past = 0
    for theta in scalars:
        assert rotation(theta).mv.coeffs.tobytes() == Versor(
            _multivector_route("rotation", theta)).mv.coeffs.tobytes(), theta
        if _exp_is_finite(abs(theta)):
            assert dilator(theta).mv.coeffs.tobytes() == _checked_where_decided(
                _multivector_route("dilator", theta)).coeffs.tobytes(), theta
        else:
            past += 1
            named = (VersorlabError, f"alpha = {theta!r} is too large: e^|alpha| overflows")
            assert _bytes_or_error(lambda: dilator(theta).mv) == named, theta
    assert 0 < past < len(scalars) // 4


def test_translations_up_to_the_limit_are_versors():
    # 100 000 seeded directions, half at |a| = 1000 (a hair inside), half at log-uniform
    # |a| below it: T ~T, batched as Versor computes it, is 1 within 0.05 DEFAULT_EPS for T and
    # e T e; 20 000 more at log-uniform |a| from 1 to 1e150 are within 1e-15 max(1, sum c^2), a
    # millionth of Versor's relative bound; the 100 worst and 400 more take the public
    # constructors, whose rows and T ~T match the batch bit for bit, and pass Versor's check
    # with norm_sign +1 wherever eps sum c^2 < 1/2 decides it (|a| below about 3.2e4), and are
    # refused past it, where the 1 in T ~T is inside the bound; every 100th wide draw acts
    # within 1e-15 of the exact oracle; a translation by an a with a finite a1^2 + a2^2 is
    # taken, and one where it overflows is named
    rng, kern = np.random.default_rng(27), kernel_for(SIG31)
    theta = rng.uniform(-math.pi, math.pi, 100_000)
    radius = 1000.0 * np.concatenate(
        [np.full(50_000, 1 - 1e-12), 10.0 ** rng.uniform(-6, 0, 50_000)])
    theta = np.append(theta, rng.uniform(-math.pi, math.pi, 20_000))
    radius = np.append(radius, 10.0 ** rng.uniform(0, 150, 20_000))
    a = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], 1)
    c = 0.0 - 0.5 * (0.0 - a)
    undecided = r"^mv \* ~mv = \+-1 is not decided: eps sum c\^2 reaches 1/2$"
    decided = 0
    for make, c_near in ((translator, c), (special_conformal, 0.0 - c)):  # on e13, e23
        rows = np.zeros((a.shape[0], 16))
        rows[:, 0], rows[:, [5, 6]], rows[:, [9, 10]] = 1.0, c_near, c
        norm = np.concatenate([kern.gp_elemwise(b, kern.rev(b)) for b in np.split(rows, 12)])
        scale = np.maximum(1.0, (rows * rows).sum(axis=1))
        dev = np.maximum(np.abs(norm[:, 0] - 1.0), np.abs(norm[:, 1:]).max(axis=1))
        assert dev[:100_000].max() <= 0.05 * DEFAULT_EPS, make  # 3e-11: a 30-fold margin
        dev = dev / scale
        assert dev[100_000:].max() <= 1e-15, make  # 2.8e-16
        for i in np.concatenate([np.argsort(dev)[-100:], np.arange(200), 100_000 + np.arange(200)]):
            got = make(*a[i].tolist()).mv
            assert got.coeffs.tobytes() == rows[i].tobytes(), (make, a[i])
            assert kern.gp(got.coeffs, kern.rev(got.coeffs)).tobytes() == norm[i].tobytes()
            if DEFAULT_EPS * scale[i] < 0.5:
                decided += 1
                assert (Versor(got).parity, Versor(got).norm_sign) == (0, 1), (make, a[i])
            else:
                with pytest.raises(NotAVersor, match=undecided):
                    Versor(got)
    assert 500 < decided < 900, decided  # both sides of the cut are reached
    for i in 100_000 + np.arange(0, 20_000, 100):  # the wide draws act: within 1e-15
        for kind in ("translator", "special_conformal"):
            got = _MAP_KINDS[kind][0](*a[i].tolist()).apply(embed(0.5, -0.25)).coords
            want = _exact_map_image([(kind, a[i].tolist())], (0.5, -0.25))
            assert _deviation(got, want) <= 1e-15, (kind, a[i])
    for a1, a2 in ((1000.0, 0.0), (0.0, -1000.0), (600.0, -800.0), (600.0, 800.000001),
                   (29_999.0, -10_000.0)):  # the last: eps sum c^2 just under 1/2
        approx_pt(translator(a1, a2).apply(embed(0.5, 0.25)).coords, (a1 + 0.5, a2 + 0.25))
        for make in (translator, special_conformal):  # the constructors check no versor
            assert Versor(make(a1, a2).mv).norm_sign == 1
    for a1, a2 in ((30_000.0, -10_000.0), (3e8, 0.0), (1.3e154, 0.0), (-9e153, 9e153),
                   (1e-300, -1.3e154)):  # a1^2 + a2^2 finite, eps sum c^2 past 1/2
        for make in (translator, special_conformal):
            assert all(map(math.isfinite, sum(make(a1, a2).M, ()))), (make, a1, a2)
            with pytest.raises(NotAVersor, match=undecided):
                Versor(make(a1, a2).mv)
    for a1, a2 in ((1.4e154, 0.0), (1e154, -1e154), (0.0, -1e200), (3e300, 1.0)):  # overflows
        message = re.escape(f"(a1, a2) = {(a1, a2)!r} is too large: a1^2 + a2^2 overflows")
        for make in (translator, special_conformal):
            with pytest.raises(VersorlabError, match=f"^{message}$"):
                make(a1, a2)


def test_embed_names_a_point_whose_squares_overflow():
    for tau in ((1e200, 1.0), (1.0, 1e200), (1e154, 1e154), (1e100, 1.0), (-2e77, 0.5)):
        message = f"point {tau!r} is too far out to embed: its squares overflow"
        for fn in (lambda: embed(*tau), lambda: apply_word("S", tau), lambda: apply_word("", tau)):
            with pytest.raises(VersorlabError) as info:
                fn()
            assert str(info.value) == message
    assert embed(1e76, 0.5).coords == (1e76, 0.5)  # the largest squares still check
    # a coordinate that is not finite is refused as such, beside a square that overflows too
    for tau in ((math.inf, 1e200), (1e200, math.nan), (-math.inf, -1e300)):
        with pytest.raises(VersorlabError, match=r"^conformal points are grade-1 vectors of Cl\(3,1\)$"):
            embed(*tau)


@pytest.mark.parametrize("make, params, name", [
    (translator, (math.nan, 0.0), "a1"), (translator, (0.0, math.inf), "a2"),
    (rotation, (math.inf,), "theta"), (rotation, (math.nan,), "theta"),
    (dilator, (-math.inf,), "alpha"), (reflection, (math.nan, 1.0), "a1"),
    (special_conformal, (1.0, -math.inf), "a2")])
def test_conformal_constructors_name_a_parameter_that_is_not_finite(make, params, name):
    bad = [p for p in params if not math.isfinite(p)][0]
    with pytest.raises(VersorlabError, match=rf"^{name} must be finite, got {bad!r}$"):
        make(*params)


@pytest.mark.parametrize("call, args, name", [
    (translator, (10**400, 0), "a1"), (translator, (0, -10**400), "a2"),
    (special_conformal, (1, 10**400), "a2"), (reflection, (10**400, 1), "a1"),
    (rotation, (10**400,), "theta"), (dilator, (-10**5000,), "alpha"),
    (embed, (10**400, 0), "x1"), (embed, (0.5, 10**400), "x2"),
    (apply_word, ("S", (10**400, 1.0)), "tau[0]"), (apply_word, ("T", (0.5, 10**5000)), "tau[1]"),
    (mobius_oracle, ("S", (10**400, 1.0)), "tau[0]"), (mobius_oracle, ("S", (0, 10**400)), "tau[1]"),
    (word_report, ("S", (-10**400, 1.0)), "tau[0]")])
def test_a_number_past_the_float_range_is_named(call, args, name):
    # before: a bare OverflowError "int too large to convert to float"; the number is not
    # written out, since str() refuses an int past 4 300 digits
    with pytest.raises(VersorlabError, match=rf"^{re.escape(name)} is too large: it does not "
                                             r"convert to a float$"):
        call(*args)


def test_dilator_accepts_its_range_and_names_alpha_past_it():
    # cosh^2 - sinh^2 rounds away from 1 by about u cosh(alpha), which Versor's check,
    # relative to sum c^2 = cosh(alpha), allows: a dilator passes it with norm_sign +1
    # wherever eps cosh(alpha) < 1/2 decides the sign (|alpha| up to about 20.7), and is
    # refused past it; every alpha with a finite e^|alpha| makes a dilator with a finite
    # matrix, which scales by e^alpha; past e^|alpha|'s overflow alpha is named
    wide = np.arange(-7000, 7001) * 0.1  # up to |alpha| = 700
    decided = 0
    for alpha in np.concatenate([np.arange(-300, 301) * 0.05, wide, [709.78, -709.78]]).tolist():
        D = dilator(alpha)  # dilator checks no versor: check it here
        assert all(map(math.isfinite, sum(D.M, ()))), alpha
        if DEFAULT_EPS * math.cosh(alpha) < 0.5:
            decided += 1
            assert (Versor(D.mv).parity, Versor(D.mv).norm_sign) == (0, 1), alpha
        else:
            with pytest.raises(NotAVersor, match=r"^mv \* ~mv = \+-1 is not decided: "):
                Versor(D.mv)
    assert decided == 601 + 415, decided  # every |alpha| <= 15, and 20.7 of the wide
    for alpha in (15.0, -15.0):
        D = dilator(alpha)
        assert (D * D.inverse()).mv.close_to(scalar_mv(SIG31, 1.0))
    approx_pt(dilator(-15.0).apply(embed(1.0, 0.5)).coords, (math.exp(-15.0), 0.5 * math.exp(-15.0)))
    # 3 000 seeded alpha in [-700, 700] and seven refused before (past 15), each at a point
    # |x| log-uniform from 1e-153 (its squares stay normal) to 1e76 (embed squares
    # (|x|^2 + 1)/2), or less where the exact image's squares would overflow: apply is
    # within 1e-15 of the exact oracle, relative to max(1, |image|)
    rng = np.random.default_rng(51)
    refused_before = [20.0, -20.0, 37.0, -37.0, 15.5, 700.0, -700.0]
    for alpha in refused_before + rng.uniform(-700, 700, 3000).tolist():
        top = min(76, 153 - alpha / math.log(10))
        x = (10.0 ** rng.uniform(-153, top) * np.array([math.cos(t := rng.uniform(-4, 4)),
                                                        math.sin(t)])).tolist()
        got = dilator(alpha).apply(embed(*x)).coords
        assert _deviation(got, _exact_map_image([("dilator", [alpha])], x)) <= 1e-15, (alpha, x)
    for alpha in (709.79, -709.79, 710.0, 1e6, -1.7e308):
        with pytest.raises(VersorlabError, match=rf"^alpha = {re.escape(repr(alpha))} is too "
                                                 r"large: e\^\|alpha\| overflows$"):
            dilator(alpha)


def test_a_product_or_inverse_whose_matrix_overflows_is_named():
    # before, the product of 61 dilator(15)s carried M[2][2] = nan (e^915 overflows, then
    # inf * 0), and its apply said only "conformal points must be null"; the 47th still acts
    D, product = dilator(15.0), None
    for k in range(1, 62):
        try:
            product = D if product is None else product * D
        except VersorlabError as exc:
            assert (k, str(exc)) == (48, "the product's matrix overflows: an entry is not finite")
            break
        x1, x2 = product.apply(embed(5e-153, 2e-153)).coords
        assert abs(x1 / (5e-153 * math.exp(15.0 * k)) - 1) <= 1e-13, k
    else:
        raise AssertionError("61 dilator(15)s multiplied")
    with pytest.raises(VersorlabError, match=r"^the product's matrix overflows: an entry is not "
                                             r"finite$"):
        dilator(700.0) * dilator(700.0)
    # a translator's reading by ConformalVersor: nbar's image has |a|^2 = 1.44e308 on n, and
    # its half sum and difference with the 1 on nbar overflow
    with pytest.raises(VersorlabError, match=r"^the reading's matrix overflows: an entry is not "
                                             r"finite$"):
        cga2d.ConformalVersor(translator(1.2e154, 0.0).v)
    # the adjoint doubles M[3][0] = -0.9 e^709.5 past the float range
    K = special_conformal(0.9, 0.0) * dilator(-709.5)
    for method in (cga2d.ConformalVersor.reverse, cga2d.ConformalVersor.inverse):
        with pytest.raises(VersorlabError, match=r"^the inverse's matrix overflows: an entry is "
                                                 r"not finite$"):
            method(K)
