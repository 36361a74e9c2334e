"""The battery records every failing case, in every interpreter mode.

Each check has a fault test here: a plausible fault patched into what the
check covers turns it FAIL with its case count unchanged, on a clause: no
recorded failure names a TypeError or an AttributeError, which would mean
the fault broke the test's own plumbing or the check's code instead.
`tests/test_lint.py` requires one for every check.
"""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from types import SimpleNamespace

import pytest

from freelip import checks, elements, extremal, functions
from freelip.elements import FreeElement
from freelip.extremal import EXPOSED, NOT_EXTREME
from freelip.functions import LipFunction
from freelip.generators import random_corpus
from freelip.metric import PointedMetricSpace, line_space, validate_space
from oracles import replace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CORPUS = random_corpus(3, 6, 2, 6)


def _crashes(failures):
    """Recorded failures that name a crash rather than a false clause."""
    return [f for f in failures if "TypeError" in f or "AttributeError" in f]


def domain_blind(values, rows):
    """A McShane kernel that puts every point at distance 0 from the domain.

    It makes the extension of 0 from any subset vanish everywhere.  Like
    `metric.min_plus`, it takes one value and one distance row per domain
    point and returns one minimum per point.
    """
    return [min(values)] * len(rows[0])


def _segment_of_endpoints(monkeypatch):
    """Every segment keeps its endpoints only, as a strict betweenness test would."""
    real = PointedMetricSpace.segment

    def endpoints_only(self, p, q, epsilon=Fraction(0)):
        return replace(real(self, p, q, epsilon), members=frozenset((p, q)))

    monkeypatch.setattr(PointedMetricSpace, "segment", endpoints_only)


def test_exception_in_a_case_is_a_failure_not_an_abort(monkeypatch):
    def broken(lam, mu):
        raise RuntimeError("expected an optimal LP solution, got infeasible")

    monkeypatch.setattr(checks, "maximize_extended_pairing", broken)
    corpus = random_corpus(3, 4, 2, 5)
    result = checks.check_mcshane(
        corpus, random.Random(4), extension_samples=2, concavity_samples=2, pairing_samples=3
    )
    assert not result.passed
    assert result.cases == 7
    assert len(result.failures) == 3
    assert all("RuntimeError" in f for f in result.failures)
    assert not _crashes(result.failures), result.failures


def test_certifier_raise_fails_its_check_and_the_battery_goes_on(monkeypatch):
    def run():
        return checks.run_check_suite(seed=5, max_points=5, scale=0.05)

    reference = run()

    def broken(space, p, q):
        raise RuntimeError("classification failed")

    monkeypatch.setattr(checks, "classify_molecule", broken)
    results = run()
    assert [(r.name, r.cases) for r in results] == [(r.name, r.cases) for r in reference]
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["exposedness matches the segment criterion"]
    assert failed[0].cases > 0
    assert all("RuntimeError: classification failed" in f for f in failed[0].failures)
    assert not _crashes(failed[0].failures), failed[0].failures


def test_each_case_runs_with_its_own_inputs_in_draw_order(monkeypatch):
    # the cases close over the loop's pair, so a runner that collected them
    # before running any would call every one with the last pair
    real, calls = checks.normers_support_check, []

    def spy(space, p, q):
        calls.append((id(space), p, q))
        return real(space, p, q)

    monkeypatch.setattr(checks, "normers_support_check", spy)
    result = checks.check_normer_support(CORPUS)
    expected = [(id(space), p, q) for space in CORPUS for p, q in space.ordered_pairs()]
    assert result.passed and result.cases == len(expected)
    assert calls == expected


@pytest.mark.parametrize(
    "run",
    [
        checks.check_molecule_norms,
        checks.check_exposedness,
        checks.check_normer_support,
        lambda corpus: checks.check_positive_ball(corpus, random.Random(1)),
        lambda corpus: checks.check_almost_positive(corpus, random.Random(1), pairs_per_space=2),
        checks.check_molecule_function,
    ],
)
def test_a_check_with_no_case_fails(run):
    # the checks that walk the corpus draw nothing from an empty one
    result = run([])
    assert (result.passed, result.cases) == (False, 0)
    assert result.failures == ["no cases: no space of the corpus fits this check"]


@pytest.mark.parametrize(
    "run",
    [
        lambda corpus: checks.check_positive_facts(corpus, random.Random(1), 1, 1),
        lambda corpus: checks.check_weighting(corpus, random.Random(1), 1),
        lambda corpus: checks.check_mcshane(corpus, random.Random(1), 1, 1, 1),
        lambda corpus: checks.check_support_routes(corpus, random.Random(1), 1),
    ],
)
@pytest.mark.parametrize("corpus", [[], [validate_space([[0]])]], ids=["empty", "one-point"])
def test_a_check_that_draws_from_no_usable_space_fails_with_no_case(run, corpus):
    # these checks draw their spaces from those of two or more points; with
    # none, they draw nothing and fail with no case instead of ending the battery
    result = run(corpus)
    assert (result.passed, result.cases) == (False, 0)
    assert result.failures == ["no cases: no space of the corpus fits this check"]


def test_a_mcshane_extension_that_ignores_its_domain_fails_the_intersection_check(
    monkeypatch,
):
    assert checks.check_intersection(random.Random(7), 50).passed
    monkeypatch.setattr(functions, "min_plus", domain_blind)
    result = checks.check_intersection(random.Random(7), 50)
    assert not result.passed and result.cases == 50
    assert not _crashes(result.failures), result.failures
    assert len(result.failures) == checks._MAX_RECORDED_FAILURES


def test_a_one_point_space_adds_no_almost_positive_case():
    # nothing is drawn for it, so the cases are those of the rest
    line = line_space(3)
    alone = checks.check_almost_positive([line], random.Random(8), pairs_per_space=3)
    mixed = checks.check_almost_positive(
        [validate_space([[0]]), line], random.Random(8), pairs_per_space=3
    )
    assert mixed.passed and alone.passed
    assert mixed.cases == alone.cases > 0


def test_the_almost_positive_check_verifies_witnesses(monkeypatch):
    # the check also passes when no witness is ever built, since then each
    # pair is only asked to be extreme; on the small spaces of the CI
    # corpus some witness must be built and pass its own verification
    real, verified = extremal._verify_witness, []

    def counted(*args):
        real(*args)
        verified.append(args)

    monkeypatch.setattr(extremal, "_verify_witness", counted)
    corpus = [s for s in random_corpus(20240521, count=50, min_n=2, max_n=12) if s.n <= 6]
    result = checks.check_almost_positive(corpus, random.Random(7), pairs_per_space=6)
    assert result.passed
    assert len(verified) >= 1


def test_injected_fault_fails_under_optimize():
    # under -O a bare assert vanishes; the battery must still see the fault
    script = textwrap.dedent(
        """
        import random, sys
        from freelip import checks
        from freelip.generators import random_corpus

        real = checks.split_positive

        def faulty(mu):
            m1, _, t = real(mu)
            return m1, m1, t

        checks.split_positive = faulty
        corpus = random_corpus(7, 4, 3, 5)
        result = checks.check_positive_ball(corpus, random.Random(8), splits_per_space=2)
        print(sys.flags.optimize, result.line())
        for failure in result.failures:
            print(failure)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    first, *failures = proc.stdout.strip().splitlines()
    optimize, line = first.split(" ", 1)
    assert optimize == "1"
    assert line.startswith("FAIL"), line
    assert not _crashes(failures), failures


def test_a_mcshane_extension_that_ignores_its_domain_fails_the_support_routes(monkeypatch):
    clean = checks.check_support_routes(CORPUS, random.Random(9), 30)
    monkeypatch.setattr(functions, "min_plus", domain_blind)
    result = checks.check_support_routes(CORPUS, random.Random(9), 30)
    assert clean.passed and not result.passed and result.cases == clean.cases == 30
    assert not _crashes(result.failures), result.failures
    assert len(result.failures) == checks._MAX_RECORDED_FAILURES


def test_a_sum_that_keeps_a_cancelled_coefficient_fails_the_support_routes(monkeypatch):
    # the integer reduction every sum ends in, without dropping zeros or the gcd
    def keeps_zeros(space, den, nums):
        return FreeElement(space, den, tuple(nums))

    clean = checks.check_support_routes(CORPUS, random.Random(9), 100)
    monkeypatch.setattr(elements, "_reduced", keeps_zeros)
    result = checks.check_support_routes(CORPUS, random.Random(9), 100)
    assert clean.passed and not result.passed and result.cases == clean.cases
    assert not _crashes(result.failures), result.failures


def test_a_norm_off_by_one_unit_fails_the_molecule_norms(monkeypatch):
    real = checks.norm_certificate

    def off_by_one(mu):
        cert = real(mu)
        return replace(cert, value=cert.value + Fraction(1, mu.space.scaled[0]))

    clean = checks.check_molecule_norms(CORPUS)
    monkeypatch.setattr(checks, "norm_certificate", off_by_one)
    result = checks.check_molecule_norms(CORPUS)
    assert clean.passed and not result.passed and result.cases == clean.cases
    assert not _crashes(result.failures), result.failures


def _flipped_verdict(verdict):
    return replace(verdict, verdict=EXPOSED if verdict.verdict == NOT_EXTREME else NOT_EXTREME)


def _dropped_tight_molecule(verdict):
    face = verdict.face
    return replace(verdict, face=replace(face, tight_molecules=face.tight_molecules[1:]))


@pytest.mark.parametrize("fault", [_flipped_verdict, _dropped_tight_molecule])
def test_a_wrong_classification_fails_the_exposedness_check(monkeypatch, fault):
    real = checks.classify_molecule
    clean = checks.check_exposedness(CORPUS)
    monkeypatch.setattr(checks, "classify_molecule", lambda space, p, q: fault(real(space, p, q)))
    result = checks.check_exposedness(CORPUS)
    assert clean.passed and not result.passed and result.cases == clean.cases
    assert not _crashes(result.failures), result.failures


def test_a_segment_of_its_endpoints_fails_the_normer_support(monkeypatch):
    clean = checks.check_normer_support(CORPUS)
    _segment_of_endpoints(monkeypatch)
    result = checks.check_normer_support(CORPUS)
    assert clean.passed and not result.passed and result.cases == clean.cases
    assert not _crashes(result.failures), result.failures


def test_a_missing_zero_vertex_fails_the_positive_ball(monkeypatch):
    real = checks.positive_ball_extremes
    clean = checks.check_positive_ball(CORPUS, random.Random(8), splits_per_space=2)
    monkeypatch.setattr(checks, "positive_ball_extremes", lambda space: real(space)[1:])
    result = checks.check_positive_ball(CORPUS, random.Random(8), splits_per_space=2)
    assert clean.passed and not result.passed and result.cases == clean.cases
    assert not _crashes(result.failures), result.failures


def _witness_low_at_a_support_point(monkeypatch):
    real = checks.norm_certificate

    def low(mu):
        cert = real(mu)
        values = list(cert.dual_witness.values)
        values[mu.items[0][0]] -= 1
        return replace(cert, dual_witness=LipFunction(mu.space, tuple(values)))

    monkeypatch.setattr(checks, "norm_certificate", low)


def _norm_without_distances(monkeypatch):
    # linear like the closed form, so sums of norms still add up
    monkeypatch.setattr(checks, "positive_norm", lambda mu: sum(a for _, a in mu.items))


def _order_reversed(monkeypatch):
    real = checks.order_leq
    monkeypatch.setattr(checks, "order_leq", lambda mu, lam: real(lam, mu))


def _order_that_always_holds(monkeypatch):
    monkeypatch.setattr(checks, "order_leq", lambda mu, lam: True)


@pytest.mark.parametrize(
    "fault",
    [
        _witness_low_at_a_support_point,
        _norm_without_distances,
        _order_reversed,
        _order_that_always_holds,
    ],
)
def test_a_fault_in_each_positive_fact_fails_the_check(monkeypatch, fault):
    clean = checks.check_positive_facts(CORPUS, random.Random(5), samples=20, families=10)
    fault(monkeypatch)
    result = checks.check_positive_facts(CORPUS, random.Random(5), samples=20, families=10)
    assert clean.passed and not result.passed and result.cases == clean.cases == 40
    assert not _crashes(result.failures), result.failures


def _weight_by_absolute_value(monkeypatch):
    real = checks.weight_element
    absolute = lambda h: replace(h, values=tuple(map(abs, h.values)))
    monkeypatch.setattr(checks, "weight_element", lambda mu, h: real(mu, absolute(h)))


def _support_of_positive_weights(monkeypatch):
    monkeypatch.setattr(
        functions.WeightFunction,
        "support",
        property(lambda h: frozenset(p for p, v in enumerate(h.values) if v > 0)),
    )


@pytest.mark.parametrize("fault", [_weight_by_absolute_value, _support_of_positive_weights])
def test_a_wrong_weighting_fails_the_weighting_check(monkeypatch, fault):
    clean = checks.check_weighting(CORPUS, random.Random(6), samples=40)
    fault(monkeypatch)
    result = checks.check_weighting(CORPUS, random.Random(6), samples=40)
    assert clean.passed and not result.passed and result.cases == clean.cases == 40
    assert not _crashes(result.failures), result.failures


def test_the_smallest_extension_fails_the_mcshane_extension_clause(monkeypatch):
    def smallest(pf):
        space, vals = pf.space, pf.values
        floor = [max(vals[q] - space.d(q, x) for q in pf.domain) for x in space.points()]
        return LipFunction(space, tuple(floor))

    run = lambda: checks.check_mcshane(
        CORPUS, random.Random(4), extension_samples=20, concavity_samples=0, pairing_samples=0
    )
    clean = run()
    monkeypatch.setattr(checks, "mcshane_extend", smallest)
    result = run()
    assert clean.passed and not result.passed and result.cases == clean.cases == 20
    assert not _crashes(result.failures), result.failures


def _witness_for_every_element(monkeypatch):
    # where there is none, a zero perturbation is claimed
    real = checks.almost_positive_witness
    claimed = lambda lam, mu: real(lam, mu) or SimpleNamespace(v=elements.zero(lam.space))
    monkeypatch.setattr(checks, "almost_positive_witness", claimed)


def _witness_without_the_pairing_equation(monkeypatch):
    # the weights then solve the mass equation only
    monkeypatch.setattr(extremal, "_kernel_vector", lambda u, w: (u[1], -u[0], 0))


def _doubled_perturbation_unverified(monkeypatch):
    # lam - 2v has a negative coefficient; the library's own guard is off too
    real = extremal.weight_element
    monkeypatch.setattr(extremal, "weight_element", lambda lam, h: real(lam, h) * 2)
    monkeypatch.setattr(extremal, "_verify_witness", lambda *args: None)


@pytest.mark.parametrize(
    "fault",
    [
        _witness_for_every_element,
        _witness_without_the_pairing_equation,
        _doubled_perturbation_unverified,
    ],
)
def test_a_wrong_witness_fails_the_almost_positive_check(monkeypatch, fault):
    spaces = [line_space(4), line_space(5)] + [s for s in CORPUS if s.n <= 5]
    clean = checks.check_almost_positive(spaces, random.Random(2), pairs_per_space=3)
    fault(monkeypatch)
    result = checks.check_almost_positive(spaces, random.Random(2), pairs_per_space=3)
    assert clean.passed and not result.passed and result.cases == clean.cases
    assert not _crashes(result.failures), result.failures


def _reversed_molecule_function(monkeypatch):
    real = checks.molecule_norming_function
    monkeypatch.setattr(checks, "molecule_norming_function", lambda space, p, q: real(space, q, p))


@pytest.mark.parametrize("fault", [_reversed_molecule_function, _segment_of_endpoints])
def test_a_wrong_function_or_segment_fails_the_molecule_function_check(monkeypatch, fault):
    clean = checks.check_molecule_function(CORPUS)
    fault(monkeypatch)
    result = checks.check_molecule_function(CORPUS)
    assert clean.passed and not result.passed and result.cases == clean.cases
    assert not _crashes(result.failures), result.failures
