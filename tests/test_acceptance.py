"""Acceptance suite: ten numbered criteria, one pass/fail line per claim.

The claims, expected values and tolerances are the rows of
``versorlab.verify.CLAIMS``.  The battery runs once, as ``versorlab verify``
does (seed 42, tolerance 1e-9), and each criterion's test is parametrized
over the rows serving it: ``test_criterion_03_conjugacy_tables[groups.conjugacy_tables]``.
The same run counts its catalog closures; a second run, with two residuals
made NaN, checks that a NaN fails its row.
"""

import collections
import types

import numpy as np
import pytest

from versorlab import Multivector, verify
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
    assert failed == {"kernel.reflection_formula": "worst nan exceeds 1.00e-09",
                      "cga2d.translations": "worst nan exceeds 1.00e-09"}
