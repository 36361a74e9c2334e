"""Acceptance suite: one test per criterion, all exact (tolerance zero).

The certification battery runs once at full scale on the seeded default
corpus (50 spaces, 2 to 12 points); each criterion asserts its slice and
prints a PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they appear.
"""

import time

import pytest

from freelip.checks import run_check_suite

SEED = 20240521

# stable positions of the battery checks (see checks.run_check_suite)
MOLECULE_NORMS = 0
EXPOSEDNESS = 1
NORMER_SUPPORT = 2
POSITIVE_BALL = 3
POSITIVE_FACTS = 4
WEIGHTING = 5
INTERSECTION = 6
MCSHANE = 7
ALMOST_POSITIVE = 8
MOLECULE_FUNCTION = 9
SUPPORT_ROUTES = 10


@pytest.fixture(scope="module")
def battery():
    t0 = time.perf_counter()
    results = run_check_suite(seed=SEED, max_points=12, scale=1)
    elapsed = time.perf_counter() - t0
    return results, elapsed


# the battery's digest at the CI seed and scale 1: check names and case
# counts, 13,200 cases in all
DIGEST = [
    ("molecule norms (dual = primal = 1)", 2846),
    ("exposedness matches the segment criterion", 1086),
    ("norming faces live inside the metric segment", 2846),
    ("positive-ball extreme points and splits", 154),
    ("positive elements: norm formula, additivity, vanishing", 1400),
    ("weighting operator bound, duality and positivity", 1000),
    ("coordinate-subspace intersection property", 500),
    ("McShane extension, concavity, pairing maximization", 1200),
    ("almost-positive extreme points are molecules; witnesses verify", 782),
    ("molecule norming function: slope, pairing, segments", 1086),
    ("support agrees between basis and functional routes", 300),
]


def _criterion(number: int, result, extra: str = ""):
    mark = "PASS" if result.passed else "FAIL"
    print(f"{mark} criterion {number}: {result.name} [{result.cases} cases]{extra}")
    assert result.passed, f"criterion {number} failures: {result.failures}"


def test_criterion_1_molecule_norms(battery):
    results, _ = battery
    result = results[MOLECULE_NORMS]
    _criterion(1, result, f" in {result.seconds:.1f}s")
    assert result.seconds < 60, "criterion 1 must finish within 60 seconds"


def test_criterion_2_exposedness(battery):
    results, _ = battery
    _criterion(2, results[EXPOSEDNESS])


def test_criterion_3_normer_support(battery):
    results, _ = battery
    _criterion(3, results[NORMER_SUPPORT])


def test_criterion_4_positive_ball(battery):
    results, _ = battery
    _criterion(4, results[POSITIVE_BALL])


def test_criterion_5_positive_facts(battery):
    results, _ = battery
    _criterion(5, results[POSITIVE_FACTS])


def test_criterion_6_weighting(battery):
    results, _ = battery
    _criterion(6, results[WEIGHTING])


def test_criterion_7_intersection(battery):
    results, _ = battery
    _criterion(7, results[INTERSECTION])


def test_criterion_8_mcshane(battery):
    results, _ = battery
    _criterion(8, results[MCSHANE])


def test_criterion_9_almost_positive(battery):
    results, _ = battery
    _criterion(9, results[ALMOST_POSITIVE])


def test_criterion_10_molecule_function(battery):
    results, _ = battery
    _criterion(10, results[MOLECULE_FUNCTION])


def test_criterion_11_runtime(battery):
    results, elapsed = battery
    ok = elapsed < 300 and all(r.passed for r in results)
    mark = "PASS" if ok else "FAIL"
    print(f"{mark} criterion 11: full check-suite in {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300
    assert all(r.passed for r in results)


def test_supporting_property_support_routes(battery):
    # not a numbered criterion: the two support routes must agree everywhere
    results, _ = battery
    result = results[SUPPORT_ROUTES]
    print(f"{'PASS' if result.passed else 'FAIL'} support-route agreement [{result.cases} cases]")
    assert result.passed


def test_the_battery_digest_is_pinned(battery):
    results, _ = battery
    assert [(r.name, r.cases) for r in results] == DIGEST
    assert sum(cases for _, cases in DIGEST) == 13200
