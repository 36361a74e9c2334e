"""The battery records every failing case, in every interpreter mode."""

import os
import random
import subprocess
import sys
import textwrap

from freelip import checks, functions
from freelip.generators import random_corpus
from freelip.metric import line_space, validate_space

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_a_mcshane_extension_that_ignores_its_domain_fails_the_intersection_check(
    monkeypatch,
):
    # a McShane kernel minimizing over every point, with 0 off the domain,
    # makes the annihilator of every subset vanish everywhere
    def domain_blind(space, items):
        values = dict(items)
        unit, lengths = space.scaled
        rows = {q: [values.get(q, 0) * unit + s for s in lengths[q]] for q in space.points()}
        return unit, rows, [min(column) for column in zip(*rows.values())]

    assert checks.check_intersection(random.Random(7), 50).passed
    monkeypatch.setattr(functions, "_mcshane_minima", domain_blind)
    result = checks.check_intersection(random.Random(7), 50)
    assert not result.passed and result.cases == 50
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
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    optimize, line = proc.stdout.strip().split(" ", 1)
    assert optimize == "1"
    assert line.startswith("FAIL"), line
