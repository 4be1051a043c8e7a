"""Acceptance suite: ten numbered criteria, one pass/fail line per claim.

The claims, expected values and tolerances are the rows of
``versorlab.verify.CLAIMS``.  The battery runs once, as ``versorlab verify``
does (seed 42, tolerance 1e-9), and each criterion's test is parametrized
over the rows serving it: ``test_criterion_03_conjugacy_tables[groups.conjugacy_tables]``.
The same run counts its catalog closures; a second run, with two residuals
made NaN, checks that a NaN fails its row.  Single rows check that the
batched rows' public-route witness compares bits, that a draw failing a
batched check fails its row with the public route's own error (in the
reflection, isometry, exp and translations twins), that a batch failing where
the public route passes is named (in the isometry, exp and translations twins), that the
batched ``Versor`` check passes exactly the rows ``Versor`` takes, that the words row
evaluates each word through ``apply_word`` alone, failing with its error, and that a
failing row leaves every other row, and the generator's end state, as a passing run has them.
"""

import collections
import math
import re
import types

import numpy as np
import pytest

from versorlab import (
    Multivector,
    NotAVersor,
    Signature,
    Versor,
    VersorlabError,
    apply_word,
    blade,
    dilator,
    sandwich,
    scalar_mv,
    translator,
    verify,
)
from versorlab.algebra import _Kernel, kernel_for
from versorlab.verify import CLAIMS, run_battery

CRITERIA = {
    "01": "root_counts",
    "02": "group_orders",
    "03": "conjugacy_tables",
    "04": "exponential_structure",
    "05": "induction_theorem",
    "06": "spinorial_symmetries",
    "07": "mckay_numerology",
    "08": "irrep_dimensions_2t",
    "09": "conformal_modular",
    "10": "kernel_properties",
}


@pytest.fixture(scope="module")
def closures():
    """``verify.catalog`` calls of one battery, by system name."""
    return collections.Counter()


@pytest.fixture(scope="module")
def battery(closures):
    catalog = verify.catalog

    def counting(name):
        closures[name] += 1
        return catalog(name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "catalog", counting)
        return {r.name: r for r in run_battery().results}


def _criterion_test(number):
    @pytest.mark.parametrize("claim", [c for c in CLAIMS if number in c.criteria],
                             ids=lambda c: c.name)
    def test(battery, claim):
        result = battery[claim.name]
        assert result.passed, result.detail
    return test


# one test function per criterion, so each criterion keeps its name
for _number, _title in CRITERIA.items():
    globals()[f"test_criterion_{_number}_{_title}"] = _criterion_test(_number)


def test_every_claim_serves_a_listed_criterion_and_every_criterion_has_claims():
    assert all(c.criteria and set(c.criteria) <= set(CRITERIA) for c in CLAIMS)
    assert {n for c in CLAIMS for n in c.criteria} == set(CRITERIA)
    assert len({c.name for c in CLAIMS}) == len(CLAIMS)


def test_battery_closes_each_catalog_system_once(battery, closures):
    assert sum(closures.values()) == len(closures) == 13


def test_a_nan_residual_fails_its_row(monkeypatch):
    def nan_reflect(v, a):
        return Multivector(v.sig, np.full_like(v.coeffs, np.nan))

    def nan_translator(a1, a2):
        return types.SimpleNamespace(apply=lambda p: types.SimpleNamespace(coords=[np.nan] * 2))

    monkeypatch.setattr(verify, "reflect", nan_reflect)
    monkeypatch.setattr(verify, "translator", nan_translator)
    failed = {r.name: r.detail for r in run_battery().results if not r.passed}
    # NaN from the public route reaches ``worst`` through the witness, which also
    # counts each witnessed draw as a mismatch: 32 draws in each of three algebras
    assert failed == {"kernel.reflection_formula": "worst nan exceeds 1.00e-09; "
                                                   "witness_mismatches = 96, expected 0",
                      "cga2d.translations": "worst nan exceeds 1.00e-09; "
                                            "witness_mismatches = 32, expected 0"}


def _claim(name):
    return next(c for c in CLAIMS if c.name == name)


def test_the_witness_compares_bits(monkeypatch):
    """One ulp off in the public route's sandwich fails the row on the witness alone."""
    def ulp_off(v, A):
        out = sandwich(v, A)
        return Multivector(out.sig, np.nextafter(out.coeffs, np.inf))

    monkeypatch.setattr(verify, "sandwich", ulp_off)
    result = verify._judge(_claim("kernel.sandwich_isometry"), verify._Ctx(42))
    assert (result.passed, result.detail) == (False, "witness_mismatches = 32, expected 0")


def _passing_state(name):
    """The generator's state after a passing run of row ``name`` at seed 42."""
    reference = verify._Ctx(42)
    assert verify._judge(_claim(name), reference).passed
    return reference.rng.bit_generator.state


def _planted_mirror(monkeypatch, value):
    """Draw 200 of the reflection row's Cl(3,0) block gets its mirror times ``value``; returns
    the list of blocks planted."""
    real, planted = verify._mirror_draws, []

    def draws(ctx, n, sig):
        s, A, V = real(ctx, n, sig)
        if sig == Signature(3, 0):
            A[200] *= value
            planted.append(n)
        return s, A, V

    monkeypatch.setattr(verify, "_mirror_draws", draws)
    return planted


def test_a_failed_batch_check_replays_the_public_route(monkeypatch):
    """A draw the batch rejects fails the row with the public route's own error."""
    planted = _planted_mirror(monkeypatch, 2.0)
    ctx = verify._Ctx(42)
    result = verify._judge(_claim("kernel.reflection_formula"), ctx)
    assert (result.passed, result.detail) == (
        False, "ValueError: mirror vector must be unit, got alpha^2 = 4.0")
    # the replay took the block's own draws, and every block was drawn as a passing run draws
    assert planted == [400]
    monkeypatch.undo()
    assert ctx.rng.bit_generator.state == _passing_state("kernel.reflection_formula")


def test_a_nan_mirror_fails_the_batch_and_the_public_route_alike(monkeypatch):
    """Draw 200 of the Cl(3,0) block gets a NaN mirror: the batch's unit test fails closed as
    ``reflect``'s does, so the replay names reflect's own error, not NaN residuals."""
    _planted_mirror(monkeypatch, np.nan)
    result = verify._judge(_claim("kernel.reflection_formula"), verify._Ctx(42))
    assert (result.passed, result.detail) == (
        False, "ValueError: mirror vector must be unit, got alpha^2 = nan")


def test_the_batched_versor_checks_pass_exactly_where_versor_passes():
    """``_versor_checks`` reads ``Versor``'s own bound, so it passes the rows ``Versor`` takes,
    in Cl(3,1) past eps sum c^2 = 1/2 too, where both refuse 3 + 1e5 (e13 + e14) (m ~m = 9)."""
    sig = Signature(3, 1)
    one, e1n = scalar_mv(sig, 1.0), blade(sig, "e13") + blade(sig, "e14")
    mvs = ([translator(a, 0.0).mv for a in (1.0, 3e4, 3.2e4, 3e8, 1e150)]
           + [dilator(alpha).mv for alpha in (20.0, 21.0)]
           + [3.0 * one + 1e5 * e1n, 1e5 * e1n, Multivector(sig, [math.nan] + [0.0] * 15)])

    def public(mv):
        try:
            return Versor(mv).parity == 0
        except NotAVersor:
            return False

    passes = verify._versor_checks(kernel_for(sig), np.array([mv.coeffs for mv in mvs]))[0]
    assert passes.tolist() == [public(mv) for mv in mvs] == [True, True] + [False] * 3 + [
        True] + [False] * 4


def _planted_unit(monkeypatch, name):
    """The first unit vector of draw 100 of the isometry or exp twin's block, doubled; returns
    the list of blocks planted."""
    attr = {"kernel.sandwich_isometry": "_isometry_draws", "kernel.exp_additivity": "_exp_draws"}
    real, planted = getattr(verify, attr[name]), []

    def draws(ctx, n):
        units, *rest = real(ctx, n)  # (n, 3), or the isometry's (n, 4, 3)
        units.reshape(n, -1, 3)[99, 0] *= 2.0
        planted.append(n)
        return units, *rest

    monkeypatch.setattr(verify, attr[name], draws)
    return planted


@pytest.mark.parametrize("name, error", [
    ("kernel.sandwich_isometry", "NotAVersor: mv * ~mv = 4 is not a unit scalar"),
    ("kernel.exp_additivity", "ValueError: bivector must square to -1, got B^2 = -4")])
def test_a_planted_draw_replays_the_isometry_and_exp_twins(name, error, monkeypatch):
    """The first unit vector of draw 100, doubled, fails the batch; the replay of the block's
    own draws fails the public route, and the generator ends where a passing run's does."""
    planted = _planted_unit(monkeypatch, name)
    ctx = verify._Ctx(42)
    result = verify._judge(_claim(name), ctx)
    assert not result.passed and result.detail.startswith(error), result.detail
    assert planted == [1000]  # drawn once, as one block
    monkeypatch.undo()
    assert ctx.rng.bit_generator.state == _passing_state(name)


def test_a_batch_that_fails_where_the_public_route_passes_is_named(monkeypatch):
    """A batched translation step sent to infinity, which the public route does not reach:
    the whole block is replayed through it, and the row says the batch failed alone."""
    real = verify._translation

    def spoiled(a1, a2):  # draw 500's q row reads 0, so its batched q is 0
        *rows, (d0, d1, d2, d3) = real(a1, a2)
        return (*rows, (d0, d1, d2, np.where(np.arange(len(a1)) == 500, 0.0, d3)))

    monkeypatch.setattr(verify, "_translation", spoiled)
    ctx = verify._Ctx(42)
    result = verify._judge(_claim("cga2d.translations"), ctx)
    assert (result.passed, result.detail) == (
        False, "VersorlabError: a batched check failed where the public route passed")
    monkeypatch.undo()  # the replay took the block's own draws, and drew nothing more
    assert ctx.rng.bit_generator.state == _passing_state("cga2d.translations")


@pytest.mark.parametrize("scale, error", [
    ((1.0, 1.0, 1e200, 1.0), r"VersorlabError: point \(\S+e\+200, \S+\) is too far out to embed: "
                             r"its squares overflow$"),
    ((1e200, 1.0, 1.0, 1.0), r"VersorlabError: \(a1, a2\) = \(\S+e\+199, \S+\) is too large: "
                             r"a1\^2 \+ a2\^2 overflows$")])
def test_a_planted_draw_replays_the_translations_twin(scale, error, monkeypatch):
    """Draw 300, scaled past what embed or translator accepts (squares that overflow), fails
    the batch's own test of it; the replay takes the block's own draws through the public
    route, which raises its own error."""
    real, planted = verify._sampled, []

    def sampled(ctx, blocks, batch, public):
        def draw(c, n, real_draw=blocks[0][1]):
            out = real_draw(c, n)
            out[300] *= scale
            planted.append(n)
            return out
        return real(ctx, [(blocks[0][0], draw)], batch, public)

    monkeypatch.setattr(verify, "_sampled", sampled)
    result = verify._judge(_claim("cga2d.translations"), verify._Ctx(42))
    assert not result.passed and re.match(error, result.detail), result.detail
    assert planted == [1000]  # drawn once, as one block


@pytest.mark.parametrize("name", ["kernel.sandwich_isometry", "kernel.exp_additivity"])
def test_an_isometry_or_exp_batch_that_fails_alone_is_named(name, monkeypatch):
    """A spoiled check on draw 500, the isometry twin's ``Versor`` check or the exp twin's
    B^2 = -1 test, fails the batch; the public route passes every draw, so the row says the
    batch failed alone, drawn as a passing run draws."""
    reference = verify._Ctx(42)
    assert verify._judge(_claim(name), reference).passed
    if name == "kernel.sandwich_isometry":
        real = verify._versor_checks

        def spoiled(kern, R):
            passes, odd = real(kern, R)
            return passes & (np.arange(len(R)) != 500), odd

        monkeypatch.setattr(verify, "_versor_checks", spoiled)
    else:
        real = _Kernel.gp_elemwise

        def spoiled(self, A, B):  # B^2 is the exp twin's one product of an array by itself
            out = real(self, A, B)
            if A is B:
                out[500, 0] += 1.0
            return out

        monkeypatch.setattr(_Kernel, "gp_elemwise", spoiled)
    ctx = verify._Ctx(42)
    result = verify._judge(_claim(name), ctx)
    assert (result.passed, result.detail) == (
        False, "VersorlabError: a batched check failed where the public route passed")
    assert ctx.rng.bit_generator.state == reference.rng.bit_generator.state


_REJECTED_WORD = ("STt", (0.0, 1e-170))  # S's image 1e170 i is too far out to embed


def _planted_word(monkeypatch):
    """Word 500 of the words row's block is ``_REJECTED_WORD``."""
    real = verify._word_draws

    def draws(ctx, n):
        out = real(ctx, n)
        out[500] = _REJECTED_WORD
        return out

    monkeypatch.setattr(verify, "_word_draws", draws)


def test_a_rejected_word_fails_its_row_with_apply_words_error(monkeypatch):
    """The words row takes each draw through ``apply_word``, which raises its own error."""
    with pytest.raises(VersorlabError) as exc:
        apply_word(*_REJECTED_WORD)
    _planted_word(monkeypatch)
    ctx = verify._Ctx(42)
    result = verify._judge(_claim("cga2d.modular_words"), ctx)
    assert (result.passed, result.detail) == (False, f"VersorlabError: {exc.value}")
    assert result.detail == ("VersorlabError: point (0.0, 1e+170) is too far out to embed: its "
                             "squares overflow")
    monkeypatch.undo()  # the row drew its whole block before the word that raised
    assert ctx.rng.bit_generator.state == _passing_state("cga2d.modular_words")


def _rows():
    """Every row's ``CheckResult`` at seed 42, in table order, and the generator's end state."""
    ctx = verify._Ctx(42)
    return [verify._judge(claim, ctx) for claim in CLAIMS], ctx.rng.bit_generator.state


@pytest.mark.parametrize("name", ["kernel.sandwich_isometry", "cga2d.modular_words"])
def test_a_failing_row_leaves_the_rows_after_it_alone(name, monkeypatch):
    """A planted failing draw in the isometry twin's block, or a rejected word, fails its row
    alone: every other row's result, and the generator's end state, are a passing run's."""
    passing, passing_end = _rows()
    if name == "cga2d.modular_words":
        _planted_word(monkeypatch)
    else:
        _planted_unit(monkeypatch, name)
    failing, failing_end = _rows()
    row = [claim.name for claim in CLAIMS].index(name)
    assert not failing[row].passed and passing[row].passed
    assert failing[:row] + failing[row + 1:] == passing[:row] + passing[row + 1:]
    assert failing_end == passing_end


def test_the_words_row_takes_the_public_route_alone(monkeypatch):
    """1000 ``apply_word`` calls, and no batched sandwich or letter step beside them."""
    calls = collections.Counter()

    def counted(*args, **kwargs):
        calls["apply_word"] += 1
        return apply_word(*args, **kwargs)

    def batched(*args):
        raise AssertionError("the words row evaluated a word outside apply_word")

    monkeypatch.setattr(verify, "apply_word", counted)
    monkeypatch.setattr(verify, "_sandwich", batched)
    monkeypatch.setattr(verify, "_translation", batched)
    result = verify._judge(_claim("cga2d.modular_words"), verify._Ctx(42))
    assert result.passed, result.detail
    assert calls == {"apply_word": 1000}


class _CountingGenerator:
    """A generator's proxy that counts the calls of its methods; other attributes pass through."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        attr = getattr(self.rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


def test_each_row_draws_in_one_generator_call_per_distribution_per_draw():
    """Generator calls per row at seed 42, a count no machine moves: one call per distribution
    per block, so the isometry twin's ``integers(1, 5)`` and ``normal``, the exp twin's
    ``normal`` and ``random``, the words row's two ``integers`` and one ``random``, and one
    ``normal`` or ``uniform`` per block elsewhere."""
    ctx, calls = verify._Ctx(42), {}
    rng = ctx.rng
    for claim in CLAIMS:
        ctx.rng = _CountingGenerator(rng)
        assert verify._judge(claim, ctx).passed
        calls[claim.name] = ctx.rng.calls
    assert {name: n for name, n in calls.items() if n} == {
        "kernel.reflection_formula": 3, "kernel.sandwich_isometry": 2,
        "kernel.reversal_antiautomorphism": 2, "kernel.exp_additivity": 2,
        "induction.automorphism_sweeps": 1, "cga2d.translations": 1,
        "cga2d.modular_words": 3}
