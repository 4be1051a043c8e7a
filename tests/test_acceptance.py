"""Acceptance suite: ten numbered criteria, one pass/fail line per claim.

The claims, expected values and tolerances are the rows of
``versorlab.verify.CLAIMS``.  The battery runs once, as ``versorlab verify``
does (seed 42, tolerance 1e-9), and each criterion's test is parametrized
over the rows serving it: ``test_criterion_03_conjugacy_tables[groups.conjugacy_tables]``.
The same run counts its catalog closures; a second run, with two residuals
made NaN, checks that a NaN fails its row.  Single rows check that the
batched rows' public-route witness compares bits, that a draw failing a
batched check fails its row with the public route's own error, and that the
words row evaluates each word through ``apply_word`` alone, failing with its error.
"""

import collections
import types

import numpy as np
import pytest

from versorlab import (DEFAULT_EPS, Multivector, PointAtInfinity, Signature, apply_word, sandwich,
                       verify)
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
    result = verify._judge(_claim("kernel.sandwich_isometry"), verify._Ctx(42, DEFAULT_EPS))
    assert (result.passed, result.detail) == (False, "witness_mismatches = 32, expected 0")


def test_a_failed_batch_check_replays_the_public_route(monkeypatch):
    """A draw the batch rejects fails the row with the public route's own error."""
    real, planted = verify._mirror_draws, []

    def draws(ctx, n, sig):  # draw 200 of the Cl(3,0) block, by its floats, gets a doubled mirror
        out = real(ctx, n, sig)
        if sig == Signature(3, 0) and n > 1:
            planted.append(out[200][1])
        return [(s, 2.0 * a if any(np.array_equal(a, p) for p in planted) else a, v)
                for s, a, v in out]

    monkeypatch.setattr(verify, "_mirror_draws", draws)
    ctx = verify._Ctx(42, DEFAULT_EPS)
    result = verify._judge(_claim("kernel.reflection_formula"), ctx)
    assert (result.passed, result.detail) == (
        False, "ValueError: mirror vector must be unit, got alpha^2 = 4.0")
    assert len(planted) == 1
    # the replay drew as the public route does, stopping at the draw that raised
    reference = verify._Ctx(42, DEFAULT_EPS)
    with pytest.raises(ValueError, match="mirror vector must be unit"):
        for sig in (Signature(2, 0), Signature(3, 0)):
            for _ in range(400):
                verify._reflection_public(draws(reference, 1, sig)[0])
    assert ctx.rng.bit_generator.state == reference.rng.bit_generator.state


def test_a_rejected_word_fails_its_row_with_apply_words_error(monkeypatch):
    """The words row takes each draw through ``apply_word``, which raises its own error."""
    real, planted = verify._word_draw, ("STt", (0.0, 1e-5))  # S sends 1e-5 i to infinity

    def draw(ctx):
        word, tau = real(ctx)
        return planted if 1.9 < tau[0] else (word, tau)

    monkeypatch.setattr(verify, "_word_draw", draw)
    with pytest.raises(PointAtInfinity) as exc:
        apply_word(*planted)
    ctx = verify._Ctx(42, DEFAULT_EPS)
    result = verify._judge(_claim("cga2d.modular_words"), ctx)
    assert (result.passed, result.detail) == (False, f"PointAtInfinity: {exc.value}")
    assert result.detail == "PointAtInfinity: image point is at infinity"
    # the row stopped drawing at the draw that raised
    reference = verify._Ctx(42, DEFAULT_EPS)
    with pytest.raises(PointAtInfinity):
        while True:
            apply_word(*draw(reference))
    assert ctx.rng.bit_generator.state == reference.rng.bit_generator.state


def test_the_words_row_takes_the_public_route_alone(monkeypatch):
    """1000 ``apply_word`` calls, and no batched sandwich or normalization beside them."""
    calls = collections.Counter()

    def counted(*args, **kwargs):
        calls["apply_word"] += 1
        return apply_word(*args, **kwargs)

    def batched(*args):
        raise AssertionError("the words row evaluated a word outside apply_word")

    monkeypatch.setattr(verify, "apply_word", counted)
    monkeypatch.setattr(verify, "_sandwich", batched)
    monkeypatch.setattr(verify, "_normalize", batched)
    result = verify._judge(_claim("cga2d.modular_words"), verify._Ctx(42, DEFAULT_EPS))
    assert result.passed, result.detail
    assert calls == {"apply_word": 1000}
