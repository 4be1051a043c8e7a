"""Acceptance suite: ten numbered criteria, one pass/fail line per claim.

The claims, expected values and tolerances are the rows of
``versorlab.verify.CLAIMS``.  The battery runs once, as ``versorlab verify``
does (seed 42, tolerance 1e-9), and each criterion's test is parametrized
over the rows serving it: ``test_criterion_03_conjugacy_tables[groups.conjugacy_tables]``.
"""

import pytest

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
def battery():
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
