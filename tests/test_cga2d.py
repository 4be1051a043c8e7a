"""Tests for the 2D conformal model and its modular-group action."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versorlab import cga2d
from versorlab import (
    EMINUS,
    EPLUS,
    NBAR,
    NINF,
    ConformalPoint,
    Multivector,
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
    with pytest.raises(PointAtInfinity):
        extract(NINF)
    with pytest.raises(PointAtInfinity):
        extract(-3.0 * NINF)


def test_conformal_point_validation():
    with pytest.raises(VersorlabError):
        ConformalPoint(blade(SIG31, "e1"))  # not null
    with pytest.raises(VersorlabError):
        ConformalPoint(NBAR)  # null, but X . n = 2 instead of -1
    with pytest.raises(VersorlabError):
        ConformalPoint(scalar_mv(SIG31, 1.0))  # not grade 1


@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3])
def test_conformal_point_needs_finite_coefficients(eps):
    # an infinite bound, or a NaN, passes the other three tests
    inf_e1 = np.zeros(16)
    inf_e1[1] = math.inf  # X . n = 0
    nan_e1 = embed(0.5, 2.0).X.coeffs.copy()
    nan_e1[1] = math.nan  # X . n = -1 but for the NaN
    for coeffs in (inf_e1, nan_e1):
        with pytest.raises(VersorlabError, match="^conformal points must have finite coefficients$"):
            ConformalPoint(Multivector(SIG31, coeffs), eps=eps)


def test_a_point_whose_squares_overflow_is_refused_by_name():
    # before: a bare OverflowError "(34, 'Numerical result out of range')" from the bound
    big_e4 = embed(1.0, 0.0).X.coeffs.copy()
    big_e4[8] = 2e154  # a coefficient whose square passes the float range
    cases = ((1e200 * blade(SIG31, "e1"), r"1e\+200"), (Multivector(SIG31, big_e4), r"2e\+154"))
    for X, peak in cases:
        with pytest.raises(VersorlabError, match=r"^conformal points must be null: the test's "
                                                 r"bound overflows squaring a coefficient of "
                                                 rf"magnitude {peak}$"):
            ConformalPoint(X)


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


def test_versor_route_reaches_about_one_over_root_eps():
    # at the default eps 1e-9 an image with |tau| past about 1/sqrt(eps) ~ 3.2e4
    # reads as the point at infinity; the oracle has no such limit
    approx_pt(apply_word("S", (0.0, 1e-4)), (0.0, 1e4), tol=1e-5)
    with pytest.raises(PointAtInfinity):
        apply_word("S", (0.0, 2e-5))
    assert mobius_oracle("S", (0.0, 2e-5)) == pytest.approx((0.0, 5e4))
    # a smaller eps moves the limit out
    assert apply_word("S", (0.0, 2e-5), eps=1e-12)[1] == pytest.approx(5e4, rel=1e-6)


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

def _reference_apply(versor, X, eps=1e-9):
    """One letter or map the long way: the sandwich and every inner product
    (X . X, X . n, the normalizing Y . n) as whole geometric products, and
    coefficient scales from Python max over the coefficients."""
    A = versor.mv
    Y = ~A * X * A
    Y = (-Y if versor.v.parity == 1 else Y).grade(1)
    scale = max(1.0, float(max(abs(c) for c in Y.coeffs)))
    s = (Y * NINF).scalar
    if s == 0 or abs(s) < eps * scale:
        raise PointAtInfinity("image point is at infinity")
    Z = Y * (-1.0 / s)
    scale = max(1.0, float(max(abs(c) for c in Z.coeffs)) ** 2)
    if abs((Z * Z).scalar) > eps * scale:
        raise VersorlabError("conformal points must be null")
    if abs((Z * NINF).scalar + 1.0) > eps * scale:
        raise VersorlabError("conformal points must satisfy X . n = -1")
    return Z


def _reference_word(word, tau, eps=1e-9):
    letters = {"S": modular_S(), "T": modular_T(), "t": modular_T().inverse()}  # rebuilt per call
    X = embed(*tau, eps=eps).X
    for letter in word:
        X = _reference_apply(letters[letter], X, eps)
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
    # apply_word sums each letter's sandwich term by term in the kernel's
    # order and makes the route's checks on four floats; every coordinate it
    # returns, and every error it raises, must be the long way's
    rng = np.random.default_rng(2718)
    letters = np.array(["S", "T", "t"])
    compared = 0
    for i in range(500):
        word = "".join(rng.choice(letters, size=i % 17))
        tau = (float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2)))
        try:
            want = _reference_word(word, tau)
        except PointAtInfinity:
            with pytest.raises(PointAtInfinity):
                apply_word(word, tau)
            continue
        assert _outcome(apply_word, word, tau) == _outcome(lambda: want), (word, tau)
        compared += 1
    assert compared >= 450
    # through tau = 0 the image runs off to infinity: both routes must give
    # up at the same points, so the PointAtInfinity thresholds are the same
    outcomes = set()
    for k in range(48):
        d = 10.0 ** (-k / 4)
        for word in ("tS", "tSt", "tSTS"):
            try:
                want = _reference_word(word, (1.0 + d, d))
            except PointAtInfinity:
                with pytest.raises(PointAtInfinity):
                    apply_word(word, (1.0 + d, d))
                outcomes.add("infinity")
                continue
            assert apply_word(word, (1.0 + d, d)) == want, (word, d)
            outcomes.add("finite")
    assert outcomes == {"finite", "infinity"}
    # other tolerances, |x1| to 1e4, x2 down to 1e-9, and signed zeros; at
    # 1e-17 the null and X . n checks fail, the first letter or the point
    wide = np.random.default_rng(1414)
    kinds = set()
    for eps, words in ((1e-6, _random_words(wide, 300)), (1e-13, _random_words(wide, 300)),
                       (1e-17, ["", "S", "T", "t"] * 75)):
        for word in words:
            tau = (float(wide.uniform(-1, 1) * 10.0 ** wide.uniform(-3, 4)),
                   float(10.0 ** wide.uniform(-9, 1)))
            want = _outcome(_reference_word, word, tau, eps)
            assert _outcome(apply_word, word, tau, eps) == want, (word, tau, eps)
            kinds.add(want[1] if isinstance(want, tuple) else "finite")
        for word in ("", "S", "T", "t", "SS", "tT", "STS", "tSt", "STtS"):
            for tau in ((0.0, 1.0), (-0.0, 1.0), (-0.0, 0.5), (1.0, 2.0), (-1.0, 1.0)):
                want = _outcome(_reference_word, word, tau, eps)
                assert _outcome(apply_word, word, tau, eps) == want, (word, tau, eps)
    assert kinds == {"finite", "image point is at infinity", "conformal points must be null",
                     "conformal points must satisfy X . n = -1"}, kinds
    for eps in (-1e-9, math.nan):  # a tolerance no point can meet
        for word in ("", "S", "TtS"):
            want = _outcome(_reference_word, word, (0.5, 1.0), eps)
            assert isinstance(want, tuple) and _outcome(apply_word, word, (0.5, 1.0), eps) == want
    # NaN, infinite and overflowing tau raise the long way's error (embed's
    # 0 * inf coefficients warn on the way; the error is what is compared)
    with np.errstate(invalid="ignore", over="ignore"):
        for tau in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.5, math.inf),
                    (1e200, 1.0), (1.0, 1e200), (1e100, 1.0), (1e154, 1e154)):
            for word in ("", "S", "TtS"):
                want = _outcome(_reference_word, word, tau)
                assert isinstance(want, tuple) and _outcome(apply_word, word, tau) == want, tau
    maps = (translator, rotation, dilator, special_conformal)
    for i in range(200):
        make = maps[i % 4]
        reach = 0.3 if make is special_conformal else 2.0
        params = rng.uniform(-reach, reach, size=2 if make in (translator, special_conformal) else 1)
        versor, point = make(*params), embed(*rng.uniform(-1, 1, size=2))
        want = _reference_apply(versor, point.X)
        got = versor.apply(point).X
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), (make.__name__, params)
        Y = want * (-1.0 / (want * NINF).scalar)  # extract renormalizes once more
        assert extract(got) == (float(Y.coeffs[0b01]), float(Y.coeffs[0b10]))  # e1, e2


def test_apply_word_checks_the_start_point_at_its_eps():
    tau = (0.3, 0.7)  # embed(0.3, 0.7) has X . X = -1.1e-16, not 0
    assert apply_word("", tau) == tau
    with pytest.raises(VersorlabError, match="conformal points must be null"):
        apply_word("", tau, eps=1e-20)
    with pytest.raises(VersorlabError, match="conformal points must be null"):
        embed(*tau, eps=1e-20)


def _no_products(monkeypatch):
    """``cga2d`` without ``sandwich``, and every ``Multivector`` product raising."""
    def product(*args):
        raise AssertionError("a Multivector product")

    monkeypatch.delattr(cga2d, "sandwich", raising=False)
    monkeypatch.setattr(Multivector, "__mul__", product)
    monkeypatch.setattr(Multivector, "__rmul__", product)


def test_a_finite_word_makes_no_sandwich(monkeypatch):
    # the term plans carry every word, and raise every error themselves: a
    # finite word and one sent to infinity go through no Multivector product
    words = _random_words(np.random.default_rng(6), 34)
    cases = [(word, (0.3, 0.7)) for word in words] + [("tS", (1.0, 1e-6))]
    want = [_outcome(_reference_word, word, tau) for word, tau in cases]
    assert want[-1] == (PointAtInfinity, "image point is at infinity")
    _no_products(monkeypatch)
    for (word, tau), expected in zip(cases, want):
        assert _outcome(apply_word, word, tau) == expected, (word, tau)


def test_a_finite_word_calls_one_step_per_letter_and_no_numpy(monkeypatch):
    # each letter is one compiled step and inline checks on four floats:
    # n letters make n step calls, and no numpy call at all
    words = _random_words(np.random.default_rng(11), 51)
    want = [_outcome(_reference_word, word, (0.3, 0.7)) for word in words]
    calls = []
    for letter, step in list(cga2d._PLANS.items()):
        def counted(*z, letter=letter, step=step):
            calls.append(letter)
            return step(*z)
        monkeypatch.setitem(cga2d._PLANS, letter, counted)
    monkeypatch.setattr(cga2d, "np", None)
    for word, expected in zip(words, want):
        calls.clear()
        assert _outcome(apply_word, word, (0.3, 0.7)) == expected, word
        assert calls == list(word)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(word=st.text(alphabet="STt", max_size=16),
       x1=st.sampled_from([0.0, -0.0]) | st.floats(-1e4, 1e4),
       x2=st.floats(1e-9, 1e3), eps=st.sampled_from([1e-6, 1e-9, 1e-13]))
def test_apply_word_matches_the_full_product_path_anywhere(word, x1, x2, eps):
    want = _outcome(_reference_word, word, (x1, x2), eps)
    assert _outcome(apply_word, word, (x1, x2), eps) == want


@pytest.mark.parametrize("make, params", [(inversion_versor, ()), (reflection, (0.6, 0.8)),
                                          (rotation, (0.3,)), (dilator, (0.4,)),
                                          (special_conformal, (0.2, -0.1))])
def test_term_plans_give_any_versors_floats(monkeypatch, make, params):
    # the modular letters are all even; the plan of any conformal versor,
    # odd ones included, must give that versor's own apply, bit for bit
    versor = make(*params)
    monkeypatch.setitem(cga2d._LETTERS, "J", versor)
    monkeypatch.setitem(cga2d._PLANS, "J", cga2d._term_plan(versor))
    for x1, x2 in np.random.default_rng(17).uniform([-2, 0.2], [2, 2], size=(50, 2)):
        want = versor.apply(embed(x1, x2)).coords
        assert _outcome(apply_word, "J", (x1, x2)) == _outcome(lambda: want), (x1, x2)


def test_pow_squares_give_the_same_floats_through_both_routes():
    # embed squares with Python's **, the C library's pow, which is not
    # always x * x; the term plans must square the same way
    xs = [float(x) for x in np.random.default_rng(1675).uniform(-5, 5, size=200_000)]
    off = [x for x in xs if x ** 2 != x * x]
    words = _random_words(np.random.default_rng(9), len(off) // 2)
    for word, x1, x2 in zip(words, off[0::2], off[1::2]):
        tau = (x1, abs(x2))
        assert _outcome(apply_word, word, tau) == _outcome(_reference_word, word, tau), tau


# ---------------------------------------------------------------- maps on the term plans

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


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(factors=st.lists(_factor, min_size=1, max_size=3),
       x1=st.sampled_from([0.0, -0.0]) | st.floats(-3, 3), x2=st.sampled_from([0.0, -0.0]) | st.floats(-3, 3),
       near_pole=st.booleans(), offset=st.sampled_from([0.0, -0.0, 1e-15, -1e-12, 1e-9, 1e-6, 1e-3]),
       eps=st.sampled_from([1e-6, 1e-9, 1e-13, 1e-17]))
def test_apply_matches_the_full_product_path_for_every_map(factors, x1, x2, near_pole, offset, eps):
    # any conformal versor runs its term plan on four floats: every coefficient
    # and every error must be the long way's, points sent to infinity included
    made = []
    for kind, params in factors:
        make = _MAP_KINDS[kind][0]
        if make is reflection and math.hypot(*params) < 1e-3:
            params = [1.0, params[1]]
        made.append(make(*params))
    versor = made[0]
    for other in made[1:]:
        versor = versor * other
    if near_pole:  # the point the map sends to infinity, nudged by offset
        try:
            x1, x2 = extract(sandwich(NINF, versor.inverse().v))
        except PointAtInfinity:
            pass
        x1 += offset
    point = embed(x1, x2)
    assert _bytes_or_error(lambda: versor.apply(point, eps).X) == _bytes_or_error(
        lambda: ConformalPoint(_reference_apply(versor, point.X, eps), eps).X)


def test_maps_reach_every_outcome_of_the_long_way():
    # one fixed case per outcome of the long way, whatever the property draws
    K = special_conformal(0.5, -0.25)
    cases = {"finite": (translator(1.0, 2.0), (0.5, 0.5), 1e-9),
             "inversion's pole": (inversion_versor(), (0.0, 0.0), 1e-9),
             "K's pole": (K, extract(sandwich(NINF, K.inverse().v)), 1e-9),
             "not null": (dilator(0.3), (1.4, 0.7), 1e-17),
             "Y . n = 0 at eps 0": (inversion_versor(), (0.0, 0.0), 0.0)}
    seen = set()
    for name, (versor, tau, eps) in cases.items():
        point = embed(*tau)
        want = _bytes_or_error(lambda: ConformalPoint(_reference_apply(versor, point.X, eps), eps).X)
        assert _bytes_or_error(lambda: versor.apply(point, eps).X) == want, name
        seen.add(want[1] if isinstance(want, tuple) else "finite")
    assert seen == {"finite", "image point is at infinity", "conformal points must be null"}


def test_a_point_sent_exactly_to_infinity_raises_at_eps_zero():
    # Y . n = 0 (or z = 0 for the oracle) is a point at infinity at every eps, 0 included,
    # not a division by zero; a NaN Y . n is no point at infinity
    cases = [lambda: inversion_versor().apply(embed(0.0, 0.0), eps=0.0),
             lambda: apply_word("S", (0.0, 1e-100), eps=0.0),  # S sends it to 1e100 i
             lambda: mobius_oracle("SSS", (0.0, 5e-324), eps=0.0)]  # 5e-324 i, inf i, 0
    for case in cases:
        with pytest.raises(PointAtInfinity):
            case()
    for eps in (0.0, 1e-9):
        with pytest.raises(VersorlabError, match="^conformal points are grade-1 vectors"):
            cga2d._checked((0.0, 0.0, math.nan, 0.0), eps)


def test_a_finite_map_makes_no_sandwich(monkeypatch):
    # the interpreted term plans carry every map, and raise every error
    # themselves: finite images, a point sent to infinity, a point with a
    # stray non-vector part and one with a part past eps go through no
    # Multivector product
    rng = np.random.default_rng(23)
    maps = [translator(*rng.uniform(-2, 2, 2)), rotation(1.1), dilator(-0.7),
            special_conformal(0.2, 0.1), reflection(0.3, -0.4), inversion_versor(),
            translator(0.5, 0.5) * rotation(0.3) * dilator(0.2)]
    stray = ConformalPoint(embed(0.5, 0.5).X + 1e-12)
    cases = ([(versor, embed(*rng.uniform(0.2, 1.5, 2))) for versor in maps]
             + [(inversion_versor(), embed(0.0, 0.0)), (translator(1.0, 0.0), stray)])
    want = [_bytes_or_error(lambda: ConformalPoint(_reference_apply(v, p.X)).X) for v, p in cases]
    assert want[-2] == (PointAtInfinity, "image point is at infinity")
    assert not isinstance(want[-1], tuple)
    _no_products(monkeypatch)
    for (versor, point), expected in zip(cases, want):
        assert _bytes_or_error(lambda: versor.apply(point).X) == expected, (versor, point)
    with pytest.raises(ValueError, match="^sandwich expects a grade-1 argument$"):
        translator(1.0, 0.0).apply(stray, 1e-13)


def test_apply_takes_points_with_stray_off_grade_coefficients():
    # 2 000 seeded points with 1 to 3 stray non-vector coefficients, built at
    # eps 1e-9 or 1e-6 (half of those for inversions and special conformal maps
    # at the map's pole), each applied at four tolerances: within eps the terms
    # of all 16 blades give the long way's bytes or error; a stray part past eps
    # raises sandwich's grade-1 error
    rng = np.random.default_rng(909)
    strays = np.array([1e-12, -1e-12, 3e-10, -3e-10, 1e-9, 5e-7])
    off_grade = [b for b in range(16) if b not in (1, 2, 4, 8)]
    kinds = sorted(_MAP_KINDS)
    seen = set()
    for i in range(2000):
        make, count, reach = _MAP_KINDS[kinds[i % len(kinds)]]
        params = rng.uniform(-reach, reach, count)
        versor = make(*params) if make is not reflection else make(1.0, params[1])
        x = rng.uniform(-2, 2, 2)
        if i // 6 % 2 and make in (special_conformal, inversion_versor):
            x = extract(sandwich(NINF, versor.inverse().v))
        build_eps = (1e-9, 1e-6)[i % 2]
        coeffs = embed(*x).X.coeffs.copy()
        blades = rng.choice(off_grade, size=int(rng.integers(1, 4)), replace=False)
        coeffs[blades] = rng.choice(strays[np.abs(strays) <= build_eps], size=len(blades))
        point = ConformalPoint(Multivector(SIG31, coeffs), build_eps)
        stray = np.abs(coeffs[off_grade]).max()
        for eps in (1e-6, 1e-9, 1e-13, 1e-17):
            if stray > eps:
                with pytest.raises(ValueError, match="^sandwich expects a grade-1 argument$"):
                    versor.apply(point, eps)
                seen.add("past eps")
                continue
            want = _bytes_or_error(
                lambda: ConformalPoint(_reference_apply(versor, point.X, eps), eps).X)
            assert _bytes_or_error(lambda: versor.apply(point, eps).X) == want, (i, eps)
            seen.add(want[1] if isinstance(want, tuple) else "finite")
    assert seen == {"finite", "past eps", "image point is at infinity"}, seen


def _multivector_route(kind, *params):
    """translator, rotation and dilator, and embed's point, as multivector expressions."""
    one = scalar_mv(SIG31, 1.0)
    e1, e2 = cga2d.E1, cga2d.E2
    if kind == "translator":
        return one - 0.5 * (NINF * (float(params[0]) * e1 + float(params[1]) * e2))
    if kind == "embed":
        x1, x2 = map(float, params)
        return ((x1 ** 2 + x2 ** 2) * NINF + 2.0 * (x1 * e1 + x2 * e2) - NBAR) * 0.5
    h = 0.5 * float(params[0])
    if kind == "rotation":
        return math.cos(h) * one + math.sin(h) * (e1 * e2)
    return math.cosh(h) * one + math.sinh(h) * (EPLUS * EMINUS)


def test_constructors_and_embed_write_the_multivector_routes_floats():
    # the direct coefficient lists must be the multivector expressions' floats,
    # bit for bit, or raise the same error: random, signed-zero, tiny, huge
    # and pow-sensitive inputs; a translation past MAX_TRANSLATION is named
    rng = np.random.default_rng(88)
    zeros = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]
    xs = [float(x) for x in rng.uniform(-5, 5, size=100_000)]
    pow_off = [x for x in xs if x ** 2 != x * x][:400]
    scalars = (zeros + pow_off + [float(x) for x in rng.normal(scale=3, size=400)]
               + [float(x) for x in rng.uniform(-1, 1, 200) * 10.0 ** rng.uniform(-8, 8, 200)])
    pairs = ([(a, b) for a in zeros for b in zeros] + list(zip(scalars, scalars[::-1]))
             + list(zip(pow_off[0::2], pow_off[1::2])))
    past = 0
    for a1, a2 in pairs:
        if math.hypot(a1, a2) > cga2d.MAX_TRANSLATION:
            past += 1
            named = (VersorlabError, f"(a1, a2) must be within 1000 of 0, got {(a1, a2)!r}")
            assert _bytes_or_error(lambda: translator(a1, a2).mv) == named, (a1, a2)
            assert _bytes_or_error(lambda: special_conformal(a1, a2).mv) == named, (a1, a2)
        else:
            want = _bytes_or_error(lambda: Versor(_multivector_route("translator", a1, a2)).mv)
            assert not isinstance(want, tuple), (a1, a2, want)
            assert _bytes_or_error(lambda: translator(a1, a2).mv) == want, (a1, a2)
            # special_conformal is e T e's floats
            assert _bytes_or_error(lambda: special_conformal(a1, a2).mv) == _bytes_or_error(
                lambda: EPLUS * translator(a1, a2).mv * EPLUS), (a1, a2)
        if abs(a1) < 1e7 and abs(a2) < 1e7:
            want = _bytes_or_error(lambda: ConformalPoint(_multivector_route("embed", a1, a2)).X)
            assert _bytes_or_error(lambda: embed(a1, a2).X) == want, (a1, a2)
    assert 0 < past < len(pairs) // 4
    for theta in scalars:
        assert rotation(theta).mv.coeffs.tobytes() == Versor(
            _multivector_route("rotation", theta)).mv.coeffs.tobytes(), theta
        if abs(theta) <= cga2d.MAX_DILATION:
            assert dilator(theta).mv.coeffs.tobytes() == Versor(
                _multivector_route("dilator", theta)).mv.coeffs.tobytes(), theta


def test_translations_up_to_the_limit_are_versors():
    # 100 000 seeded directions, half at |a| = MAX_TRANSLATION (a hair inside),
    # half at log-uniform |a| below it: T ~T, batched as Versor computes it, is
    # 1 within DEFAULT_EPS for T and e T e; the 100 worst and 200 more take the
    # public constructors, whose rows and T ~T match the batch bit for bit
    rng, kern = np.random.default_rng(27), kernel_for(SIG31)
    theta = rng.uniform(-math.pi, math.pi, 100_000)
    radius = cga2d.MAX_TRANSLATION * np.concatenate(
        [np.full(50_000, 1 - 1e-12), 10.0 ** rng.uniform(-6, 0, 50_000)])
    a = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], 1)
    c = 0.0 - 0.5 * (0.0 - a)
    for make, c_near in ((translator, c), (special_conformal, 0.0 - c)):  # on e13, e23
        rows = np.zeros((a.shape[0], 16))
        rows[:, 0], rows[:, [5, 6]], rows[:, [9, 10]] = 1.0, c_near, c
        norm = np.concatenate([kern.gp_elemwise(b, kern.rev(b)) for b in np.split(rows, 10)])
        dev = np.maximum(np.abs(norm[:, 0] - 1.0), np.abs(norm[:, 1:]).max(axis=1))
        assert dev.max() <= 0.05 * DEFAULT_EPS, make  # 3e-11: a 30-fold margin
        for i in np.concatenate([np.argsort(dev)[-100:], np.arange(200)]):
            got = make(*a[i].tolist()).mv.coeffs
            assert got.tobytes() == rows[i].tobytes(), (make, a[i])
            assert kern.gp(got, kern.rev(got)).tobytes() == norm[i].tobytes(), (make, a[i])
    for a1, a2 in ((1000.0, 0.0), (0.0, -1000.0), (600.0, -800.0)):  # |a| exactly at the limit
        approx_pt(translator(a1, a2).apply(embed(0.5, 0.25)).coords, (a1 + 0.5, a2 + 0.25))
        assert special_conformal(a1, a2).v.norm_sign == 1
    with pytest.raises(VersorlabError, match=r"^\(a1, a2\) must be within 1000 of 0, "
                                             r"got \(600.0, 800.000001\)$"):
        special_conformal(600.0, 800.000001)


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


_EPS_TAKERS = {
    "embed": lambda eps: embed(0.0, 1.0, eps=eps),
    "ConformalPoint": lambda eps: ConformalPoint(embed(0.0, 1.0).X, eps=eps),
    "apply": lambda eps: translator(1.0, 0.0).apply(embed(0.0, 1.0), eps=eps),  # exact floats
    "apply_word": lambda eps: apply_word("ST", (0.0, 1.0), eps=eps),
    "mobius_oracle": lambda eps: mobius_oracle("ST", (0.0, 1.0), eps=eps),
    "sandwich": lambda eps: sandwich(embed(0.0, 1.0).X, translator(1.0, 0.0).v, eps=eps),
}


@pytest.mark.parametrize("eps", [math.nan, -1e-9, math.inf])
@pytest.mark.parametrize("taker", sorted(_EPS_TAKERS))
def test_every_conformal_eps_taker_checks_eps_where_it_enters(taker, eps):
    # the one message of roots' eps takers, not a verdict on the point
    with pytest.raises(VersorlabError, match=rf"^eps must be finite and >= 0, got {eps}$"):
        _EPS_TAKERS[taker](eps)
    _EPS_TAKERS[taker](0.0)  # the range's floor is accepted


@pytest.mark.parametrize("make, params, name", [
    (translator, (math.nan, 0.0), "a1"), (translator, (0.0, math.inf), "a2"),
    (rotation, (math.inf,), "theta"), (rotation, (math.nan,), "theta"),
    (dilator, (-math.inf,), "alpha"), (reflection, (math.nan, 1.0), "a1"),
    (special_conformal, (1.0, -math.inf), "a2")])
def test_conformal_constructors_name_a_parameter_that_is_not_finite(make, params, name):
    bad = [p for p in params if not math.isfinite(p)][0]
    with pytest.raises(VersorlabError, match=rf"^{name} must be finite, got {bad!r}$"):
        make(*params)


def test_dilator_accepts_its_range_and_names_alpha_past_it():
    # cosh^2 - sinh^2 rounds away from 1 past about 15.45; within +-15 every
    # dilator is a unit versor and scales by e^alpha
    for alpha in np.arange(-300, 301) * 0.05:
        assert dilator(alpha).v.norm_sign == 1
    for alpha in (15.0, -15.0):
        D = dilator(alpha)
        assert (D * D.inverse()).mv.close_to(scalar_mv(SIG31, 1.0))
    approx_pt(dilator(-15.0).apply(embed(1.0, 0.5)).coords, (math.exp(-15.0), 0.5 * math.exp(-15.0)))
    for alpha in (20.0, -20.0, 37.0, -37.0, 15.5):
        with pytest.raises(VersorlabError, match=rf"^alpha must be within \+-15, got {alpha!r}$"):
            dilator(alpha)
