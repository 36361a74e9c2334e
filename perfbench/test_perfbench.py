"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

from freelip import elements, extremal, functions, generators, lp, norms  # noqa: E402
from measure import NOMINAL_S, Op, SpeedClock, latency_stats, run_ops, tail  # noqa: E402
from spans import Tracer, lp_cells, self_times, summarize  # noqa: E402
from verify import certificate_problems  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 121)]  # 120 samples
    value, pct = tail(values)
    assert value == 110.0
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 110 / 120)
    assert tail([float(i) for i in range(11)]) == (0.0, pytest.approx(100 / 11))


def test_tail_is_the_maximum_without_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([float(i) for i in range(10)]) == (9.0, 100.0)


def test_latency_stats_summarize_each_kind_separately():
    timing = run_ops([Op("a", lambda: 1), Op("b", lambda: 2)], 0, SpeedClock())
    timing.samples = [[0.001], [0.004]]
    stats = latency_stats(timing)
    assert stats["kinds"]["a"]["p50_ms"] == pytest.approx(1.0)
    assert stats["p50_ms"] == pytest.approx(2.0)  # geometric mean of 1 ms and 4 ms


def test_scaled_time_divides_each_stretch_by_its_yardstick():
    speed = SpeedClock()
    # yardstick runs of 1, 2 and 1 s leave work stretches [1,11] and [13,23];
    # each is scaled by the median of the runs around it (1, 2, 1 -> 1)
    speed.starts, speed.ends = [0.0, 11.0, 23.0], [1.0, 13.0, 24.0]
    ms = NOMINAL_S
    assert speed.scaled(2.0, 6.0) == pytest.approx(4.0 * ms)
    assert speed.scaled(13.0, 23.0) == pytest.approx(10.0 * ms)
    # an interval spanning a yardstick run leaves that run out
    assert speed.scaled(10.0, 14.0) == pytest.approx(2.0 * ms)
    speed.starts.append(30.0)  # a fourth run of 3 s: medians of 1, 2, 1, 3
    speed.ends.append(33.0)
    assert speed.scaled(2.0, 6.0) == pytest.approx(4.0 * ms / 1.5)


def _spans(rows):
    names = sorted({r[0] for r in rows})
    return (
        names,
        [names.index(r[0]) for r in rows],
        [r[2] - r[1] for r in rows],
        [r[3] for r in rows],
    )


def test_self_time_subtracts_direct_children():
    # norms [0,10] > lp [1,4] and functions [5,7] > elements [5.5,6]
    rows = [
        ("norms.free_norm_dual", 0.0, 10.0, -1),
        ("lp.maximize", 1.0, 4.0, 0),
        ("functions.mcshane_extend", 5.0, 7.0, 0),
        ("elements.canonicalize", 5.5, 6.0, 2),
    ]
    selfs = self_times(*_spans(rows))
    assert selfs["norms"] == pytest.approx(5.0)
    assert selfs["lp"] == pytest.approx(3.0)
    assert selfs["functions"] == pytest.approx(1.5)
    assert selfs["elements"] == pytest.approx(0.5)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_inclusive_time_counts_nested_calls_of_a_group_once():
    tracer = Tracer()
    outer = tracer.open("checks.is_extreme_in_ball_bruteforce")
    inner = tracer.open("checks.extreme_molecules_bruteforce")
    tracer.close(inner)
    tracer.close(outer)
    calls, inclusive, _ = summarize(tracer)
    assert calls["checks.oracle"] == 2
    assert inclusive["checks.oracle"] == pytest.approx(tracer.end[outer] - tracer.start[outer])


def test_patched_reaches_from_imports_and_counts_each_solve_once():
    original = extremal.norm_certificate
    tracer = Tracer()
    with tracer.patched():
        assert extremal.norm_certificate is not original
        lp.minimize([Fraction(1)], [([Fraction(1)], lp.GEQ, Fraction(2))])
    assert extremal.norm_certificate is original
    calls, _, _ = summarize(tracer)
    assert calls["lp"] == 1


def test_lp_cells_match_the_simplex_tableau():
    c = [Fraction(1), Fraction(-1), Fraction(0)]
    rows = [
        ([Fraction(1), Fraction(1), Fraction(0)], lp.LEQ, Fraction(3)),
        ([Fraction(1), Fraction(0), Fraction(1)], lp.GEQ, Fraction(1)),
        ([Fraction(0), Fraction(1), Fraction(1)], lp.EQ, Fraction(2)),
        ([Fraction(1), Fraction(0), Fraction(0)], lp.LEQ, Fraction(-1)),
    ]
    simplex = lp._Simplex(c, rows, {1})
    assert lp_cells(c, rows, [1]) == len(simplex.A) * simplex.ncols


def test_output_check_rejects_a_corrupted_certificate():
    import random

    rng = random.Random(3)
    space = generators.random_space(rng, 6)
    mu = generators.random_element(rng, space)
    assert elements.support(mu)
    cert = norms.norm_certificate(mu)
    assert certificate_problems(mu, cert) == []

    doubled = functions.LipFunction(space, tuple(2 * v for v in cert.dual_witness.values))
    bad_witness = norms.NormCertificate(cert.value, doubled, cert.primal_witness)
    assert "dual witness is not 1-Lipschitz" in certificate_problems(mu, bad_witness)

    heavier = tuple((m, 2 * w) for m, w in cert.primal_witness)
    bad_decomposition = norms.NormCertificate(cert.value, cert.dual_witness, heavier)
    assert certificate_problems(mu, bad_decomposition)

    inflated = norms.NormCertificate(2 * cert.value, cert.dual_witness, cert.primal_witness)
    assert certificate_problems(mu, inflated)
