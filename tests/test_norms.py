import math
import random
import sys
from fractions import Fraction

import pytest

from freelip import checks, elements, extremal, functions, generators, lp, norms, rationals
from freelip.checks import transport_norm_bruteforce
from freelip.elements import FreeElement, Molecule, canonicalize, delta, support, zero
from freelip.errors import (
    EmptyFace,
    InternalVerificationFailure,
    NotInUnitBall,
    NotPositive,
    ZeroElement,
)
from freelip.extremal import positive_ball_extremes
from freelip.functions import (
    distance_to_base,
    lip_constant,
    lip_function,
    mcshane_extend,
    molecule_norming_function,
    partial_function,
)
from freelip.generators import (
    random_corpus,
    random_element,
    random_line_subset,
    random_lip0,
    random_positive_element,
    random_rational,
    random_space,
    random_weight,
    uniform_space,
)
from freelip.metric import PointedMetricSpace, space_from_points, validate_space
from freelip.norms import (
    NormCertificate,
    free_norm,
    free_norm_dual,
    free_norm_primal,
    norm_certificate,
    norming_face,
    normers_of,
    positive_norm,
)
from oracles import (
    dual_lp_norm,
    dual_rows,
    fraction_certified,
    fraction_molecule_norming_values,
    fraction_norming_face,
    fraction_rebuild,
    fraction_transport_bruteforce,
    networkx_transport_norm,
    normers_by_probes,
    pairing_objective,
    tight_distances,
)
from spaces import coprime_space, ultrametric_space


def test_molecule_norm_is_one(line3, tri):
    for space in (line3, tri):
        for p, q in space.ordered_pairs():
            mol = Molecule(p, q).as_element(space)
            assert free_norm_dual(mol).value == 1
            assert free_norm_primal(mol).value == 1


def test_delta_norm_is_distance_to_base(line4):
    for x in line4.nonbase_points():
        assert free_norm(delta(line4, x)) == line4.d(x, 0)
        assert free_norm(delta(line4, x) - delta(line4, x)) == 0


def test_embedding_is_isometric():
    rng = random.Random(31)
    for _ in range(25):
        space = random_space(rng, rng.randint(2, 7))
        for x, y in space.ordered_pairs():
            diff = delta(space, x) - delta(space, y)
            assert free_norm(diff) == space.d(x, y)


def test_positive_norm_example(line3):
    mu = canonicalize(line3, {1: 1, 2: 1})
    assert positive_norm(mu) == 3
    cert = free_norm_dual(mu)
    assert cert.value == 3
    assert cert.witness.values == distance_to_base(line3).values
    assert positive_norm(zero(line3)) == 0
    with pytest.raises(NotPositive):
        positive_norm(canonicalize(line3, {1: -1}))


def test_primal_example_on_the_line(line3):
    # the long molecule decomposes at value exactly 1
    cert = free_norm_primal(Molecule(0, 2).as_element(line3))
    assert cert.value == 1
    total = sum((abs(w) for _, w in cert.decomposition), Fraction(0))
    assert total == 1


def test_certificates_verify_their_invariants():
    rng = random.Random(32)
    for _ in range(60):
        space = random_space(rng, rng.randint(2, 8))
        mu = random_element(rng, space)
        cert = norm_certificate(mu)
        assert lip_constant(cert.dual_witness) <= 1
        assert mu.pair(cert.dual_witness) == cert.value
        assert fraction_rebuild(space, cert.primal_witness) == mu
        assert sum((abs(w) for _, w in cert.primal_witness), Fraction(0)) == cert.value


def test_zero_duality_gap_and_networkx_oracle():
    rng = random.Random(33)
    for _ in range(40):
        space = random_space(rng, rng.randint(2, 12))
        mu = random_element(rng, space)
        dual = free_norm_dual(mu).value
        primal = free_norm_primal(mu).value
        assert dual == primal
        assert dual == networkx_transport_norm(mu)


def test_restricted_and_full_formulations_agree():
    # the dense dual LP over the whole space, and over the support plus the
    # base point, agree with the one transport solve
    rng = random.Random(34)
    for _ in range(25):
        space = random_space(rng, rng.randint(2, 7))
        mu = random_element(rng, space, max_support=3)
        value = norm_certificate(mu).value
        assert dual_lp_norm(mu, range(space.n)) == value
        assert dual_lp_norm(mu, sorted(support(mu) | {space.base})) == value
        assert free_norm_primal(mu).value == value


def test_norm_axioms_hold_exactly():
    rng = random.Random(35)
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 6))
        mu = random_element(rng, space)
        nu = random_element(rng, space)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        assert free_norm(mu + nu) <= free_norm(mu) + free_norm(nu)
        assert free_norm(mu * c) == abs(c) * free_norm(mu)
        assert (free_norm(mu) == 0) == mu.is_zero()


def test_positive_norm_additivity():
    rng = random.Random(36)
    for _ in range(40):
        space = random_space(rng, rng.randint(2, 7))
        members = [random_positive_element(rng, space) for _ in range(rng.randint(1, 5))]
        total = zero(space)
        for m in members:
            total = total + m
        assert positive_norm(total) == sum(positive_norm(m) for m in members)
        # the closed form agrees with the certified transport norm
        for m in members + [total]:
            assert positive_norm(m) == norm_certificate(m).value


def test_norming_face_unique_for_separated_pair(tri):
    f = molecule_norming_function(tri, 1, 2)
    face = norming_face(f, nominal=Molecule(1, 2))
    assert face.is_unique_normer
    assert face.face_dimension == 0
    assert face.tight_molecules == (Molecule(1, 2),)
    assert face.sample_distinct_normer is None


def test_norming_face_of_distance_to_base(line3):
    face = norming_face(distance_to_base(line3))
    assert not face.is_unique_normer
    assert face.face_dimension >= 1
    assert {(m.p, m.q) for m in face.tight_molecules} == {(1, 0), (2, 0), (2, 1)}
    sample = face.sample_distinct_normer
    assert sample is not None
    assert free_norm(sample) == 1
    assert sample.pair(distance_to_base(line3)) == 1


def test_norming_face_errors(line3):
    # the integer scan and its Fraction reference reject the same functions
    for f, error in (
        (lip_function(line3, [0, 0, 0]), EmptyFace),
        (lip_function(line3, [0, 5, 0]), NotInUnitBall),
        (lip_function(line3, [0, Fraction(1, 3), Fraction(1, 7)]), EmptyFace),
    ):
        for face in (norming_face, fraction_norming_face):
            with pytest.raises(error):
                face(f)


def test_norming_face_is_order_independent(line3):
    # the reported face only depends on the function, not on scan order
    f = distance_to_base(line3)
    reports = [norming_face(f) for _ in range(3)]
    dims = {r.face_dimension for r in reports}
    assert dims == {reports[0].face_dimension}


def test_norm_value_is_constraint_order_independent():
    # shuffling the dual LP rows never changes the computed value
    rng = random.Random(51)
    for _ in range(20):
        space = random_space(rng, rng.randint(2, 6))
        mu = random_element(rng, space)
        nodes = sorted(support(mu) | {space.base})
        var_of, rows = dual_rows(space, nodes)
        objective = pairing_objective(mu, var_of)
        reference = free_norm_dual(mu).value
        for _ in range(3):
            rng.shuffle(rows)
            sol = lp.maximize(objective, rows, free=range(len(var_of)))
            assert sol.value == reference


def test_norm_certificate_solves_no_lp(monkeypatch):
    calls = []
    original = lp.maximize

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lp, "maximize", counted)
    rng = random.Random(52)
    for _ in range(10):
        space = random_space(rng, rng.randint(2, 8))
        mu = random_element(rng, space)
        norm_certificate(mu)
        normers_of(mu)
    assert calls == []


def _coprime_element(rng, space):
    points = rng.sample(list(space.nonbase_points()), rng.randint(1, space.n - 1))
    return canonicalize(
        space, {p: Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.choice((2, 3, 5))) for p in points}
    )


@pytest.mark.parametrize("kind", ["random", "uniform", "line", "coprime"])
def test_normers_of_matches_probe_lps(kind):
    rng = random.Random(53)
    for _ in range(12):
        n = rng.randint(2, 6)
        if kind == "random":
            space = random_space(rng, n)
        elif kind == "uniform":
            space = uniform_space(n, random_rational(rng))
        elif kind == "line":
            space = random_line_subset(rng, n)
        else:
            space = coprime_space(rng, n)
        if kind == "coprime":
            mu = _coprime_element(rng, space)
        elif rng.random() < 0.3:
            mu = random_positive_element(rng, space)
        else:
            mu = random_element(rng, space)
        report = normers_of(mu)
        value, fixed, shared = normers_by_probes(mu)
        assert report.value == value
        assert report.fixed_values == fixed
        assert report.shared_tight_pairs == shared


def _degenerate_case(rng, kind):
    n = rng.randint(30, 40) if kind == "large" else rng.randint(2, 9)
    if kind == "uniform":
        space = uniform_space(n, random_rational(rng))
    elif kind == "line":
        space = random_line_subset(rng, n)
    elif kind == "coprime":
        space = coprime_space(rng, n)
        return space, _coprime_element(rng, space)
    elif kind == "ultrametric":
        space = ultrametric_space(rng, n)
    else:
        space = random_space(rng, n)
    if rng.random() < 0.2:
        return space, random_positive_element(rng, space, max_support=10)
    return space, random_element(rng, space, max_support=10)


@pytest.mark.parametrize("kind", ["uniform", "line", "coprime", "ultrametric", "large"])
def test_flow_solver_matches_the_dense_simplex_and_networkx(kind):
    # tied costs (uniform, line, ultrametric) and coprime denominators stress
    # the shortest-path ties and the integer scaling of the flow solver
    rng = random.Random(54)
    for _ in range(4 if kind == "large" else 15):
        space, mu = _degenerate_case(rng, kind)
        if mu.is_zero():
            continue
        cert = norm_certificate(mu)
        oracle_value, oracle_plan = transport_norm_bruteforce(mu)
        assert cert.value == oracle_value == networkx_transport_norm(mu)
        assert sum(w for _, w in cert.primal_witness) == cert.value
        # every optimal flow pins the same largest tight normer, the one
        # normers_of returns
        nodes = sorted(support(mu) | {space.base})
        D = tight_distances(space, nodes, oracle_plan)
        largest = mcshane_extend(partial_function(space, D[space.base]))
        assert normers_of(mu).witness == largest
        # the certificate's witness is a normer, checked on Fractions
        witness = cert.dual_witness
        assert witness.values[space.base] == 0 and lip_constant(witness) <= 1
        assert mu.pair(witness) == oracle_value


def _assert_raw_plan_is_optimal(nx, mu):
    """The kernel's own output, before `_check_rebuild` and `_certified` check it.

    The sink duals, extended to the sources by their minimum, are tight on
    every flow arc and pair with the supplies to the plan cost, which is
    networkx's min-cost flow cost on the same integer supplies and costs.
    Returns the sources, the nodes of positive supply.
    """
    space = mu.space
    mass, flows, duals = norms._transport_plan(mu)
    lengths = space.scaled[1]
    scaled = {p: a * mass for p, a in mu.items}
    assert all(m.denominator == 1 for m in scaled.values())
    supply = {p: int(m) for p, m in scaled.items()}
    supply[space.base] = -sum(supply.values())
    sources = [p for p, m in supply.items() if m > 0]
    sinks = [p for p, m in supply.items() if m < 0]
    assert sorted(duals) == sorted(sinks)
    f = {s: min(duals[t] + lengths[s][t] for t in sinks) for s in sources}
    f.update(duals)
    assert flows and all(f[s] - f[t] == lengths[s][t] for s, t, _ in flows)
    cost = sum(x * lengths[s][t] for s, t, x in flows)
    assert sum(m * f[p] for p, m in supply.items() if m) == cost
    G = nx.DiGraph()
    for p, m in supply.items():
        G.add_node(p, demand=-m)
    G.add_edges_from((s, t, {"weight": lengths[s][t]}) for s in sources for t in sinks)
    assert cost == nx.min_cost_flow_cost(G)
    return sources


@pytest.mark.parametrize("kind", ["uniform", "line", "coprime", "ultrametric", "large"])
def test_the_raw_transport_plan_is_optimal_on_integers(kind):
    # the tie-heavy corpora stress the order in which the solver breaks ties
    nx = pytest.importorskip("networkx")
    rng = random.Random(61)
    for _ in range(4 if kind == "large" else 15):
        space, mu = _degenerate_case(rng, kind)
        if mu.is_zero():
            continue
        _assert_raw_plan_is_optimal(nx, mu)


def _one_source_element(rng, space):
    """A signed element with one node of positive supply.

    Either every coefficient is negative and the base is the one source, or
    one positive coefficient outweighs the negative ones.
    """
    points = rng.sample(list(space.nonbase_points()), rng.randint(1, space.n - 1))
    coeffs = {p: -random_rational(rng) for p in points}
    if len(points) > 1 and rng.random() < 0.5:
        coeffs[points[0]] = -sum(coeffs.values()) - coeffs[points[0]] + random_rational(rng)
    return canonicalize(space, coeffs)


@pytest.mark.parametrize("kind", ["uniform", "line", "positive", "one-source"])
def test_the_warm_start_leaves_an_optimal_plan(monkeypatch, kind):
    # the start potentials make every column minimum a tight arc, and the
    # fill pushes on the tight arcs before any search.  In a uniform space
    # every source ties for every column minimum, a positive element has
    # the base as its only sink, and an element with one source has it at
    # every column minimum: in those three the fill finishes the plan and
    # no search settles a node (a search picks each node to settle by
    # `min` with a key).  A line subset usually needs searches after it.
    nx = pytest.importorskip("networkx")
    settled = []

    def keyed_min(*args, **kwargs):
        if "key" in kwargs:
            settled.append(args)
        return min(*args, **kwargs)

    monkeypatch.setattr(norms, "min", keyed_min, raising=False)
    rng = random.Random(67)
    searched = 0
    for _ in range(30):
        n = rng.randint(2, 9)
        if kind == "uniform":
            space = uniform_space(n, random_rational(rng))
            mu = random_element(rng, space, max_support=10)
        elif kind == "line":
            space = random_line_subset(rng, n)
            mu = random_element(rng, space, max_support=10)
        elif kind == "positive":
            space = random_space(rng, n)
            mu = random_positive_element(rng, space, max_support=10)
        else:
            space = random_space(rng, n)
            mu = _one_source_element(rng, space)
        if mu.is_zero():
            continue
        settled.clear()
        sources = _assert_raw_plan_is_optimal(nx, mu)
        if kind == "one-source":
            assert len(sources) == 1
        searched += bool(settled)
        assert kind == "line" or not settled
    assert kind != "line" or searched


def test_normers_of_delta(line3):
    report = normers_of(delta(line3, 1))
    assert report.value == 1
    assert report.fixed_values[1] == 1


def test_normers_of_molecule_fixes_its_slope(tri):
    report = normers_of(Molecule(1, 2).as_element(tri))
    assert (1, 2) in report.shared_tight_pairs


def test_normers_of_positive_element_pins_the_support(line3):
    report = normers_of(canonicalize(line3, {1: 1, 2: 1}))
    assert report.fixed_values[1] == 1
    assert report.fixed_values[2] == 2


def test_a_lower_bound_one_unit_off_fails_the_positive_normers(monkeypatch, line3):
    # f(1) >= -D[1][base] one unit too low leaves f(1) unfixed, so a
    # normer could deviate from d(., base) at a support point
    real = norms._all_distances

    def loose(space, decomposition):
        D = real(space, decomposition)
        D[1][space.base] += 1
        return D

    monkeypatch.setattr(norms, "_all_distances", loose)
    with pytest.raises(InternalVerificationFailure, match="may deviate from d"):
        normers_of(canonicalize(line3, {1: 1, 2: 1}))


def test_a_value_fixed_one_unit_above_the_distance_fails_the_positive_normers(
    monkeypatch, line3
):
    # both bounds on f(1) raised by one unit still meet, so f(1) is fixed,
    # but at d(1, base) + 1; the base row is the witness as it stands, with
    # no McShane minimum to cap it at d(1, base), so it is steeper than 1
    # between the base and 1 and pairs above the norm: `_certified` rejects
    # it before the support check
    real = norms._all_distances

    def shifted(space, decomposition):
        D = real(space, decomposition)
        D[space.base][1] += 1
        D[1][space.base] -= 1
        return D

    monkeypatch.setattr(norms, "_all_distances", shifted)
    with pytest.raises(InternalVerificationFailure, match="dual witness failed verification"):
        normers_of(canonicalize(line3, {1: 1, 2: 1}))


def test_the_normers_witness_is_the_base_row_of_the_shortest_paths():
    # `_certified` checks the row it is given and repairs nothing, so the
    # witness is that row over the distance unit, for signed and positive
    # elements alike
    rng = random.Random(68)
    positives = 0
    for _ in range(40):
        space = random_space(rng, rng.randint(2, 9))
        positive = rng.random() < 0.3
        draw = random_positive_element if positive else random_element
        mu = draw(rng, space, max_support=10)
        if mu.is_zero():
            continue
        positives += positive
        D = norms._all_distances(space, norms._transport_plan(mu)[1])
        unit = space.scaled[0]
        expected = lip_function(space, [Fraction(v, unit) for v in D[space.base]])
        assert normers_of(mu).witness == expected
    assert positives > 0


def test_normers_of_rejects_zero(line3):
    with pytest.raises(ZeroElement):
        normers_of(zero(line3))


def test_zero_element_certificate(line3):
    cert = norm_certificate(zero(line3))
    assert cert.value == 0
    assert cert.primal_witness == ()
    assert all(v == 0 for v in cert.dual_witness.values)


def test_the_zero_element_has_the_empty_plan(line3):
    # the solver moves no mass, and the empty plan rebuilds zero
    assert norms._transport_plan(zero(line3)) == (1, [], {})
    assert free_norm_primal(zero(line3)) == norms.PrimalCertificate(Fraction(0), ())
    one = validate_space([[0]])
    assert free_norm_primal(zero(one)).decomposition == ()


def test_one_point_space():
    one = validate_space([[0]])
    cert = norm_certificate(zero(one))
    assert cert.value == 0
    # the generators have no point to put mass on
    rng = random.Random(0)
    assert random_positive_element(rng, one).is_zero()
    assert random_element(rng, one).is_zero()


@pytest.mark.parametrize("kind", ["random", "line", "coprime", "ultrametric", "large"])
def test_integer_shortest_paths_match_the_fraction_floyd_warshall(kind):
    # the integer all-pairs matrix is `unit` times the Fraction
    # Floyd-Warshall of the same tight constraints
    rng = random.Random(55)
    for _ in range(4 if kind == "large" else 15):
        space, mu = _degenerate_case(rng, kind)
        if mu.is_zero():
            continue
        unit = space.scaled[0]
        full = norms._all_distances(space, norms._transport_plan(mu)[1])
        assert all(type(v) is int for row in full for v in row)
        reference = tight_distances(space, range(space.n), norm_certificate(mu).primal_witness)
        assert [[Fraction(v, unit) for v in r] for r in full] == [
            [reference[a][b] for b in space.points()] for a in space.points()
        ]


def _pivot_corpus(rng):
    """A signed and a positive element on each space of `random_corpus` and
    on line subsets, uniform spaces and coprime spaces of 2 to 14 points."""
    spaces = random_corpus(7, 60, 2, 14)
    for n in range(2, 15):
        spaces += [random_line_subset(rng, n), uniform_space(n, random_rational(rng))]
        spaces.append(coprime_space(rng, n))
    for space in spaces:
        for draw in (random_element, random_positive_element):
            mu = draw(rng, space, max_support=10)
            if not mu.is_zero():
                yield space, mu


def test_shortest_paths_through_the_flow_endpoints_equal_the_full_floyd_warshall():
    # `_all_distances` pivots on the endpoints of the flow only; the matrix
    # must be `unit` times the Fraction Floyd-Warshall over every point,
    # also where some point is no endpoint
    rng = random.Random(69)
    cases = partial = 0
    for space, mu in _pivot_corpus(rng):
        flows = norms._transport_plan(mu)[1]
        unit, points = space.scaled[0], range(space.n)
        full = tight_distances(space, points, norm_certificate(mu).primal_witness)
        expected = [[full[a][b] * unit for b in points] for a in points]
        assert norms._all_distances(space, flows) == expected
        cases += 1
        partial += len({p for s, t, _ in flows for p in (s, t)}) < space.n
    assert cases >= 190 and partial >= 100


def _crossed_flow():
    """An element on the line and a flow that rebuilds it at more than its norm.

    Points at 0 (base), 1, 2, 10 and 11; mu = d1 - d2 + d10 - d11 costs 2
    by the flow 1 -> 2, 10 -> 11, and 18 by the crossed flow 1 -> 11,
    10 -> 2, whose constraints hold the negative cycle 1 -> 11 -> 10 -> 2 -> 1.
    """
    space = space_from_points([0, 1, 2, 10, 11])
    mu = canonicalize(space, {1: 1, 2: -1, 3: 1, 4: -1})
    # (mass unit, [(source, sink, integer mass)], sink duals), as
    # `_transport_plan` returns it; the duals are those of the optimal plan
    plan = (1, [(1, 4, 1), (3, 2, 1)], norms._transport_plan(mu)[2])
    return space, mu, plan


def test_a_non_optimal_flow_makes_every_shortest_path_routine_raise(monkeypatch):
    space, mu, plan = _crossed_flow()
    flow = [(Molecule(s, t), f * space.d(s, t)) for s, t, f in plan[1]]
    with pytest.raises(InternalVerificationFailure, match="negative cycle"):
        norms._all_distances(space, plan[1])
    with pytest.raises(InternalVerificationFailure, match="negative cycle"):
        tight_distances(space, range(space.n), flow)
    # the crossed plan rebuilds mu at cost 18, so only the dual side can
    # catch it: no 1-Lipschitz function pairs with mu to that cost, and its
    # tight constraints hold a negative cycle
    norms._check_rebuild(mu, *plan[:2])
    assert sum(w for _, w in flow) == 18
    monkeypatch.setattr(norms, "_transport_plan", lambda _: plan)
    for certify in (free_norm_primal, norm_certificate):
        with pytest.raises(InternalVerificationFailure, match="dual witness failed"):
            certify(mu)
    with pytest.raises(InternalVerificationFailure, match="negative cycle"):
        normers_of(mu)


def _norms_calls(run, mu):
    """Names of the functions of `norms` that run(mu) calls, in call order.

    Comprehensions and generator expressions (`<listcomp>` and the like)
    are left out.
    """
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == norms.__file__ and code.co_name[0] != "<":
            calls.append(code.co_name)

    sys.setprofile(profile)
    try:
        run(mu)
    finally:
        sys.setprofile(None)
    return calls


def test_certificates_run_one_integer_shortest_path_kernel(monkeypatch):
    # pins the cost shape: a norm certificate runs one transport solve and
    # no shortest-path pass after it, so a Floyd-Warshall or any new helper
    # in `norms` (a re-added Bellman-Ford, say) fails here; normers_of runs
    # one solve and one all-pairs pass
    kernels = []
    original = norms.floyd_warshall

    def counted(W, pivots=None):
        kernels.append("floyd_warshall")
        return original(W, pivots)

    monkeypatch.setattr(norms, "floyd_warshall", counted)
    rng = random.Random(56)
    for _ in range(10):
        space = random_space(rng, rng.randint(2, 8))
        mu = random_element(rng, space)
        if mu.is_zero():
            continue
        kernels.clear()
        assert _norms_calls(norm_certificate, mu) == [
            "norm_certificate", "_transport_plan", "_check_rebuild", "_certified", "_of"
        ]
        assert kernels == []
        assert _norms_calls(normers_of, mu) == [
            "normers_of", "_transport_plan", "_check_rebuild", "_all_distances", "_certified",
            "_of",
        ]
        assert kernels == ["floyd_warshall"]


@pytest.mark.parametrize("kind", ["random", "line", "uniform", "coprime", "ultrametric"])
def test_integer_witnesses_equal_the_fraction_certificate(kind):
    # the integer McShane minimum, shift, Lipschitz guard and pairing against
    # the Fraction route they replaced, fed the same sink duals and rows
    rng = random.Random(61)
    for space, mu in _rebuild_corpus(rng, kind):
        base = space.base
        primal = free_norm_primal(mu)
        duals = norms._transport_plan(mu)[2]
        assert all(type(v) is int for v in duals.values())
        cert = norm_certificate(mu)
        assert cert == fraction_certified(mu, primal, duals)
        assert all(type(v) is Fraction for v in cert.dual_witness.values)
        full = norms._all_distances(space, norms._transport_plan(mu)[1])
        reference = fraction_certified(mu, primal, dict(enumerate(full[base])))
        report = normers_of(mu)
        assert (report.value, report.witness) == (reference.value, reference.dual_witness)


def _rows_one_unit_off(values, positions):
    """Copies of a {point: integer} mapping, each one unit off at one position."""
    for i in positions:
        for step in (-1, 1):
            off = dict(values)
            off[i] += step
            yield off


@pytest.mark.parametrize("kind", ["random", "line", "uniform", "coprime"])
def test_a_row_one_unit_off_fails_verification(monkeypatch, kind):
    # a sink dual or a row one unit off may still give a valid witness (it
    # may shift a whole side of a balanced element); each certificate must
    # raise exactly where the Fraction route rejects it, and otherwise
    # return what that route returns
    rng = random.Random(62)
    transport_plan, all_distances = norms._transport_plan, norms._all_distances
    rejected = accepted = 0

    def reference(mu, primal, values):
        try:
            return fraction_certified(mu, primal, values)
        except (InternalVerificationFailure, ValueError):
            return None

    for space, mu in _rebuild_corpus(rng, kind):
        base = space.base
        primal = free_norm_primal(mu)
        mass, flows, duals = transport_plan(mu)
        for off in _rows_one_unit_off(duals, duals):
            plan = (mass, flows, off)
            monkeypatch.setattr(norms, "_transport_plan", lambda _, plan=plan: plan)
            expected = reference(mu, primal, off)
            if expected is None:
                rejected += 1
                with pytest.raises(InternalVerificationFailure, match="dual witness failed"):
                    norm_certificate(mu)
            else:
                accepted += 1
                assert norm_certificate(mu) == expected
        monkeypatch.setattr(norms, "_transport_plan", transport_plan)
        full = all_distances(space, flows)
        for off in _rows_one_unit_off(dict(enumerate(full[base])), support(mu)):
            if reference(mu, primal, off) is None:
                rejected += 1
                D = [list(off.values()) if i == base else r for i, r in enumerate(full)]
                monkeypatch.setattr(norms, "_all_distances", lambda *args, D=D: D)
                with pytest.raises(InternalVerificationFailure, match="dual witness failed"):
                    normers_of(mu)
        monkeypatch.setattr(norms, "_all_distances", all_distances)
    assert rejected >= 50 and accepted >= 1


def test_a_triangle_violation_fires_the_lipschitz_guard():
    # built past `validate_space`: d(0,3) = 3 > d(0,2) + d(2,3) = 2.  The
    # base is the only sink of delta(1), so its witness is d(0, .) =
    # (0, 1, 1, 3): it pairs with delta(1) to its norm 1 and vanishes at
    # the base, but its slope on (2, 3) is 2, one distance unit too steep
    dist = [[0, 1, 1, 3], [1, 0, 1, 10], [1, 1, 0, 1], [3, 10, 1, 0]]
    space = PointedMetricSpace(tuple("abcd"), 0, (1, tuple(map(tuple, dist))))
    mu = delta(space, 1)
    assert norms._transport_plan(mu) == (1, [(1, 0, 1)], {0: -1})
    primal = norms.PrimalCertificate(Fraction(1), ((Molecule(1, 0), Fraction(1)),))
    duals = {0: -1}
    with pytest.raises(InternalVerificationFailure, match="dual witness failed"):
        norm_certificate(mu)
    with pytest.raises(InternalVerificationFailure, match="dual witness failed"):
        fraction_certified(mu, primal, duals)
    witness = lip_function(space, [0, 1, 1, 3])
    assert space.scaled[0] == 1
    assert mu.pair(witness) == 1 and lip_constant(witness) == 2


@pytest.mark.parametrize("kind", ["line", "coprime", "ultrametric", "uniform"])
def test_the_dual_witness_is_a_normer_over_fractions(kind):
    # the witness read off the solver's potentials, checked on Fractions
    # against the dense dual LP: 1-Lipschitz, zero at the base, pairing to
    # the norm; the base is a sink, a source (every coefficient negative)
    # or carries no mass (coefficients summing to 0).  The base is the only
    # sink of a positive element, whose witness is then d(., base)
    rng = random.Random(64)
    base_sides = set()
    for space, mu in _rebuild_corpus(rng, kind):
        p = rng.choice(list(space.nonbase_points()))
        positive = random_positive_element(rng, space, max_support=10)
        balanced = mu - delta(space, p) * sum(mu.coeffs.values(), Fraction(0))
        for nu in (mu, positive, positive * -1, balanced):
            if nu.is_zero():
                continue
            total = sum(nu.coeffs.values(), Fraction(0))
            base_sides.add((total > 0) - (total < 0))
            witness = norm_certificate(nu).dual_witness
            assert witness.values[space.base] == 0
            assert lip_constant(witness) <= 1
            assert nu.pair(witness) == dual_lp_norm(nu, sorted(support(nu) | {space.base}))
        assert norm_certificate(positive).dual_witness == distance_to_base(space)
    assert base_sides == {-1, 0, 1}


def _face_corpus(rng):
    """(function, nominal) pairs with 1-Lipschitz functions whose face is nonempty."""
    for kind in ("random", "uniform", "line", "coprime", "ultrametric"):
        for _ in range(8):
            space, mu = _degenerate_case(rng, kind)
            yield distance_to_base(space), None
            for p, q in rng.sample(space.ordered_pairs(), min(4, space.n * (space.n - 1))):
                yield molecule_norming_function(space, p, q), Molecule(p, q)
            if not mu.is_zero():
                cert = norm_certificate(mu)
                yield cert.dual_witness, cert.primal_witness[0][0]


def test_integer_norming_face_matches_the_fraction_reference():
    rng = random.Random(57)
    dimensions = set()
    touches_base = cycles = 0
    for f, nominal in _face_corpus(rng):
        face = norming_face(f, nominal=nominal)
        assert face == fraction_norming_face(f, nominal=nominal)
        dimensions.add(face.face_dimension)
        base = f.space.base
        touches_base += any(base in (m.p, m.q) for m in face.tight_molecules)
        # a tight graph with a cycle has more edges than union-find merges
        cycles += len(face.tight_molecules) > face.face_dimension + 1
    # the corpus reaches faces of dimension 0, 1 and at least 2, molecules
    # with an endpoint at the base point, and tight graphs with a cycle
    assert {0, 1} <= dimensions and max(dimensions) >= 2
    assert touches_base > 0
    assert cycles > 0


def test_a_function_steeper_by_one_scaled_unit_is_not_in_the_unit_ball():
    # f is 0 but at one point x whose nearest point is the base, where
    # f(x) = a / D exceeds d(x, base) = r / unit by 1 / (D * unit): with D
    # coprime to unit, the integer scan sees (V[x] - V[base]) * unit exceed
    # scaled[x][base] * vscale by exactly 1.  Every other pair is slack, so
    # no molecule is tight and the unit-ball test must come before the
    # empty-face test
    rng = random.Random(63)
    cases = 0
    while cases < 20:
        space = coprime_space(rng, rng.randint(2, 9))
        unit, lengths = space.scaled
        base = space.base
        for x in space.nonbase_points():
            r = lengths[x][base]
            if math.gcd(r, unit) != 1 or any(
                lengths[x][y] <= r for y in space.points() if y not in (x, base)
            ):
                continue
            D = -pow(r, -1, unit) % unit or unit
            f = lip_function(space, {x: Fraction((1 + r * D) // unit, D)})
            vscale, V = rationals.scale_to_integers(f.values)
            gaps = [
                (V[a] - V[b]) * unit - lengths[a][b] * vscale
                for a, b in space.ordered_pairs()
            ]
            assert vscale == D and max(gaps) == 1 and gaps.count(1) == 1
            assert 0 not in gaps
            for face in (norming_face, fraction_norming_face):
                with pytest.raises(NotInUnitBall):
                    face(f)
            cases += 1


def test_integer_mcshane_formula_on_coprime_denominators():
    # value denominators 2, 3, 5 against distance denominators 7, 11, 13;
    # each value is drawn inside the interval the values before it allow,
    # so the partial function is 1-Lipschitz and `mcshane_extend` accepts it
    rng = random.Random(58)
    cases = 0
    for _ in range(30):
        space = coprime_space(rng, rng.randint(2, 9))
        base = space.base
        domain = set(rng.sample(range(space.n), rng.randint(1, space.n))) - {base}
        values = {base: Fraction(0)}
        for q in sorted(domain):
            lo = max(v - space.d(r, q) for r, v in values.items())
            hi = min(v + space.d(r, q) for r, v in values.items())
            den = rng.choice((2, 3, 5))
            choices = range(math.ceil(lo * den), math.floor(hi * den) + 1)
            if choices:
                values[q] = Fraction(rng.choice(choices), den)
        cases += len(values) > 1
        expected = tuple(
            min(v + space.d(q, x) for q, v in values.items()) for x in space.points()
        )
        assert mcshane_extend(partial_function(space, values)).values == expected
    assert cases >= 20


def _rebuild_corpus(rng, kind):
    for _ in range(15):
        space, mu = _degenerate_case(rng, kind)
        if not mu.is_zero():
            yield space, mu


@pytest.mark.parametrize("kind", ["random", "line", "uniform", "coprime"])
def test_every_decomposition_rebuilds_the_element_in_fraction_arithmetic(kind):
    # the integer rebuild check of the solve against the Fraction rebuild of
    # the decomposition the certificate builds on first read
    rng = random.Random(59)
    for space, mu in _rebuild_corpus(rng, kind):
        assert fraction_rebuild(space, free_norm_primal(mu).decomposition) == mu
        assert fraction_rebuild(space, norm_certificate(mu).primal_witness) == mu
        assert fraction_rebuild(space, transport_norm_bruteforce(mu)[1]) == mu


def test_the_integer_transport_oracle_is_the_fraction_lp():
    # the same LP with costs times the unit and masses times the denominator:
    # Bland's rule takes the same pivots, so value and flow come out equal
    corpus = random_corpus(20240521, 50, 2, 12)
    for space in corpus:
        for p, q in space.ordered_pairs():
            mol = Molecule(p, q).as_element(space)
            assert transport_norm_bruteforce(mol) == fraction_transport_bruteforce(mol)
    rng = random.Random(63)
    split = 0
    for space in corpus:
        base_only = canonicalize(space, {space.base: 3})
        lam = random_positive_element(rng, space)
        for mu in (random_element(rng, space), zero(space), base_only, delta(space, space.n - 1)):
            for total in (lam + mu, mu):
                value, plan = transport_norm_bruteforce(total)
                assert (value, plan) == fraction_transport_bruteforce(total)
                split += len(plan) >= 3
    # flows over three or more arcs, not only molecules
    assert split > 100


def test_norm_certificate_builds_the_decomposition_only_when_read(monkeypatch):
    # the certificate keeps the integer plan it checked: the solve builds
    # the value's Fraction and no Molecule, and the first read of
    # `primal_witness` one Molecule and one weight Fraction per flow arc
    built = []
    for name in ("Molecule", "Fraction"):

        def spy(*args, name=name, real=getattr(norms, name)):
            built.append(name)
            return real(*args)

        monkeypatch.setattr(norms, name, spy)
    rng = random.Random(70)
    for space, mu in _rebuild_corpus(rng, "random"):
        built.clear()
        cert = norm_certificate(mu)
        assert built == ["Fraction"]
        decomposition = cert.primal_witness
        arcs = len(norms._transport_plan(mu)[1])
        assert built == ["Fraction"] + ["Molecule", "Fraction"] * arcs
        assert cert.primal_witness is decomposition and len(decomposition) == arcs


@pytest.mark.parametrize("kind", ["random", "line", "uniform", "coprime"])
def test_a_lazy_certificate_equals_the_one_built_positionally(kind):
    rng = random.Random(71)
    for space, mu in _rebuild_corpus(rng, kind):
        read = norm_certificate(mu)
        positional = NormCertificate(read.value, read.dual_witness, read.primal_witness)
        lazy = norm_certificate(mu)
        assert "primal_witness" not in vars(lazy)
        assert hash(lazy) == hash(positional) and lazy == positional
        assert repr(lazy) == repr(positional)
        assert free_norm_primal(mu) == norms.PrimalCertificate(read.value, read.primal_witness)


def _faulty_plans(mu, mass, flows, duals):
    """(fault, plan) pairs: plans near an optimal one that do not rebuild mu.

    Each keeps the optimal plan's sink duals.
    """
    space = mu.space
    s, t, f = flows[0]
    wrong = next(x for x in space.points() if x not in (s, t)) if space.n > 2 else None
    if wrong is not None:
        moved = [(s, t, f - 1), (s, wrong, 1)] if f > 1 else [(s, wrong, 1)]
        yield "one unit to the wrong sink", (mass, moved + flows[1:], duals)
    # same divergence, but no decomposition into nonnegative weights
    yield "a negative flow", (mass, [(t, s, -f)] + flows[1:], duals)
    yield "another mass unit", (2 * mass, flows, duals)
    # every weight negative: the reversed flows rebuild mu over minus the unit
    yield "a negative mass unit", (-mass, [(t, s, f) for s, t, f in flows], duals)
    yield "no flow in a coarse unit", (1, [], duals)
    outside = [x for x in space.nonbase_points() if x not in support(mu)]
    if len(outside) >= 2:
        x, y = outside[:2]
        # balanced at the support and the base, unbalanced elsewhere
        yield "a unit between points off the support", (mass, flows + [(x, y, 1)], duals)
        # balanced everywhere, but off the nodes the certificate runs on
        yield "a cycle off the support", (mass, flows + [(x, y, 1), (y, x, 1)], duals)


@pytest.mark.parametrize("kind", ["random", "line", "uniform", "coprime"])
def test_a_plan_that_does_not_rebuild_the_element_is_rejected(monkeypatch, kind):
    rng = random.Random(60)
    original = norms._transport_plan
    faults = set()
    for space, mu in _rebuild_corpus(rng, kind):
        for fault, plan in _faulty_plans(mu, *original(mu)):
            faults.add(fault)
            monkeypatch.setattr(norms, "_transport_plan", lambda _, plan=plan: plan)
            for certify in (free_norm_primal, norm_certificate, normers_of):
                with pytest.raises(InternalVerificationFailure, match="does not rebuild"):
                    certify(mu)
            monkeypatch.setattr(norms, "_transport_plan", original)
    assert len(faults) == 7


def test_certificates_and_faces_build_no_fraction_elements(monkeypatch):
    # pins the cost shape: a norm certificate checks its plan on integers and
    # builds no element through canonicalize or element arithmetic, and a
    # face and a positive-ball vertex test take their rank without exact
    # elimination; the battery's draws build no element through canonicalize
    # and no function from Fractions, which functions scales to integers
    calls = []

    def forbid(owner, name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(owner, name, called, raising=False)

    for module in (elements, functions, norms, generators, checks):
        forbid(module, "canonicalize")
    forbid(functions, "scale_to_integers")
    forbid(FreeElement, "_binop")
    for module in (rationals, norms, extremal):
        forbid(module, "row_echelon")
    rng, draws = random.Random(61), random.Random(64)
    for _ in range(10):
        space = random_space(rng, rng.randint(2, 8))
        mu = random_element(rng, space)
        if mu.is_zero():
            continue
        cert = norm_certificate(mu)
        norming_face(cert.dual_witness, nominal=cert.primal_witness[0][0])
        norming_face(distance_to_base(space))
        random_positive_element(draws, space, min_support=2)
        random_lip0(draws, space, unit_ball=True)
        random_weight(draws, space, nonneg=draws.random() < 0.5)
        checks._random_partial(draws, space, space.points())
    monkeypatch.undo()
    # delta(x) goes through canonicalize; only the rank is pinned here
    for module in (rationals, extremal):
        forbid(module, "row_echelon")
    for n in (2, 5, 9):
        positive_ball_extremes(random_space(rng, n))
    assert calls == []


@pytest.mark.parametrize("kind", ["random", "coprime", "ultrametric"])
def test_integer_molecule_norming_function_matches_the_fraction_formula(kind):
    rng = random.Random(62)
    for _ in range(12):
        n = rng.randint(2, 9)
        if kind == "coprime":
            space = coprime_space(rng, n)
        elif kind == "ultrametric":
            space = ultrametric_space(rng, n)
        else:
            space = random_space(rng, n)
        for p, q in space.ordered_pairs():
            values = molecule_norming_function(space, p, q).values
            assert values == fraction_molecule_norming_values(space, p, q)
