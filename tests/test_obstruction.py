"""Curve-class formulas and the bounded Diophantine solver."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import qhpp.obstruction as obstruction
from qhpp import checks
from qhpp.enumeration import l11_rationality_checks
from qhpp.hjcf import HjCf
from qhpp.obstruction import (
    CurveClass,
    DiophProblem,
    Incidence,
    Regime,
    aggregated_problem,
    component_problem,
    degree_sum,
    ek_formula,
    esq_formula,
    esq_two_component,
    local_discrepancy,
    m_upper_bound,
    minimal_curve_m,
    solve_dioph,
)
from qhpp.surface import candidate_invariants, dp_data
from tests import oracles

ROW2 = ["[2]", "[2,2]", "[7]", "[3,2,2,2,2,2,2,2,2]"]


# ---------------------------------------------------------------------------
# incidence bookkeeping
# ---------------------------------------------------------------------------


def test_incidence_validation():
    cand = candidate_invariants(ROW2)
    inc = Incidence.from_hits(cand, {(2, 1): 1})
    inc.validate_against(cand)
    with pytest.raises(ValueError):
        Incidence(((0,), (0, 0), (0,), (0,) * 8)).validate_against(cand)
    with pytest.raises(ValueError):
        Incidence.from_hits(cand, {(2, 1): -1}).validate_against(cand)
    assert Incidence.from_hits(cand, {}).rows == ((0,), (0, 0), (0,), (0,) * 9)


# ---------------------------------------------------------------------------
# degree sums, E.K and E^2
# ---------------------------------------------------------------------------


def test_degree_sum_examples():
    cand = candidate_invariants(ROW2)
    assert degree_sum(CurveClass(0, cand, Incidence.from_hits(cand, {}))) == 0
    hit7 = Incidence.from_hits(cand, {(2, 1): 1})
    assert degree_sum(CurveClass(0, cand, hit7)) == Fraction(5, 7)
    hit19 = Incidence.from_hits(cand, {(3, 1): 1})
    assert degree_sum(CurveClass(0, cand, hit19)) == Fraction(9, 19)


def test_local_discrepancy_examples():
    sing = dp_data(HjCf([3, 2]))
    assert local_discrepancy(sing, (0, 0), 1) == 0
    assert local_discrepancy(sing, (1, 0), 1) == Fraction(2, 5)
    assert local_discrepancy(sing, (1, 0), 2) == Fraction(1, 5)
    with pytest.raises(ValueError):
        local_discrepancy(sing, (1, 0), 3)


def test_ek_formula_row2():
    cand = candidate_invariants(ROW2)
    hit7 = Incidence.from_hits(cand, {(2, 1): 1})
    curve = CurveClass(1, cand, hit7)
    # sqrt(D') = 6; leading term m/sqrt(D') * K^2 = 1/6 * 6/133 = 1/133
    assert ek_formula(curve) == Fraction(1, 133) - Fraction(5, 7)
    anti = CurveClass(1, cand, hit7, Regime.ANTI_K_AMPLE)
    assert ek_formula(anti) == -Fraction(1, 133) - Fraction(5, 7)


def test_ek_formula_linearity():
    cand = candidate_invariants(ROW2)
    one = Incidence.from_hits(cand, {(3, 2): 1, (2, 1): 1})
    two = Incidence(tuple(tuple(2 * x for x in row) for row in one.rows))
    assert degree_sum(CurveClass(0, cand, two)) == 2 * degree_sum(
        CurveClass(0, cand, one)
    )
    assert ek_formula(CurveClass(2, cand, two)) == 2 * ek_formula(
        CurveClass(1, cand, one)
    )


def test_ek_requires_square_d_prime():
    cand = candidate_invariants(["[3]", "[4,3]"])  # D not a rational square
    inc = Incidence.from_hits(cand, {})
    with pytest.raises(ValueError):
        ek_formula(CurveClass(1, cand, inc))
    # m = 0 classes never touch sqrt(D')
    assert ek_formula(CurveClass(0, cand, inc)) == 0
    assert esq_formula(CurveClass(0, cand, inc)) == 0


def test_esq_two_component_closed_forms():
    cand = candidate_invariants(ROW2)
    # both end components of the order-19 chain: the sum is (q1+ql+2)/q
    ends = Incidence.from_hits(cand, {(3, 1): 1, (3, 9): 1})
    curve = CurveClass(0, cand, ends)
    assert esq_two_component(curve) == esq_formula(curve)
    assert -esq_two_component(curve) == Fraction(9 + 17 + 2, 19)
    # single interior hit of multiplicity two: 4 v_s u_s / q
    cf = cand.sings[3].cf
    mid = Incidence.from_hits(cand, {(3, 4): 2})
    curve = CurveClass(0, cand, mid)
    expected = -4 * Fraction(cf.v_seq[4] * cf.u_seq[4], 19)
    assert esq_two_component(curve) == expected == esq_formula(curve)
    assert esq_two_component(CurveClass(0, cand, Incidence.from_hits(cand, {}))) == 0


def test_esq_two_component_rejects_three_hits():
    cand = candidate_invariants(ROW2)
    inc = Incidence.from_hits(cand, {(3, 1): 1, (3, 2): 1, (3, 3): 1})
    with pytest.raises(ValueError):
        esq_two_component(CurveClass(0, cand, inc))
    # the general formula still works
    esq_formula(CurveClass(0, cand, inc))


def test_esq_identity_randomized():
    rng = random.Random(3)
    for _ in range(500):
        cfs = [
            HjCf([rng.randint(2, 5) for _ in range(rng.randint(1, 5))])
            for _ in range(rng.randint(1, 4))
        ]
        cand = candidate_invariants(cfs)
        hits = {}
        for p, s in enumerate(cand.sings):
            for j in rng.sample(range(1, s.l + 1), k=min(s.l, rng.randint(0, 2))):
                hits[(p, j)] = rng.randint(1, 3)
        inc = Incidence.from_hits(cand, hits)
        curve = CurveClass(0, cand, inc)
        assert esq_formula(curve) == esq_two_component(curve)


# ---------------------------------------------------------------------------
# m bounds and the minimal-curve coefficient
# ---------------------------------------------------------------------------


def test_m_upper_bound_examples():
    assert m_upper_bound(36, 13) == Fraction(3, 2)
    assert m_upper_bound(4, 11) == 1
    assert m_upper_bound(1, 11) == Fraction(1, 2)
    with pytest.raises(ValueError):
        m_upper_bound(36, 9)
    with pytest.raises(ValueError):
        m_upper_bound(Fraction(2), 11)
    with pytest.raises(ValueError) as err:
        m_upper_bound(0, 10)
    assert str(err.value) == "D' must be positive"


CASE15 = ["[2]", "[3]", "[3,2,2]", "[3,2,2,2,2]"]


def test_minimal_curve_m_case15():
    cand = candidate_invariants(CASE15)
    assert cand.ks2 == Fraction(50, 231)
    assert cand.D == 100
    # C.C1 = C.D1 = C.A = 1
    inc = Incidence.from_hits(cand, {(2, 1): 1, (3, 1): 1, (0, 1): 1})
    assert minimal_curve_m(cand, inc) == Fraction(27, 5)
    # C.B = C.D1 = C.C2 = 1 comes out negative
    inc = Incidence.from_hits(cand, {(1, 1): 1, (3, 1): 1, (2, 2): 1})
    m = minimal_curve_m(cand, inc)
    assert m < 0
    assert m * cand.ks2 / 10 == Fraction(-17, 231)
    # C.B = C.D1 = C.C3 = 1
    inc = Incidence.from_hits(cand, {(1, 1): 1, (3, 1): 1, (2, 3): 1})
    assert minimal_curve_m(cand, inc) == Fraction(16, 5)


def test_minimal_curve_m_rejects_zero_ks2():
    cand = candidate_invariants(["[2]", "[2,2]", "[2,2,2]", "[2,2,2,2]"])
    assert cand.ks2 != 0 or True
    flat = candidate_invariants(["[2]"] * 9)
    assert flat.ks2 == 0
    with pytest.raises(ValueError):
        minimal_curve_m(flat, Incidence.from_hits(flat, {}))


# ---------------------------------------------------------------------------
# Diophantine solver
# ---------------------------------------------------------------------------


def test_solve_dioph_reference_instances():
    no_sol = DiophProblem((Fraction(5, 7), Fraction(1, 19)), Fraction(134, 133))
    assert solve_dioph(no_sol) == []
    three = DiophProblem(
        (Fraction(1, 3), Fraction(1, 5), Fraction(1, 33)), Fraction(56, 55)
    )
    assert solve_dioph(three) == [(0, 1, 27), (1, 1, 16), (2, 1, 5)]
    case1 = DiophProblem((Fraction(1, 3), Fraction(3, 5)), Fraction(16, 15))
    assert solve_dioph(case1) == []


def test_solve_dioph_budget(monkeypatch):
    three = DiophProblem(
        (Fraction(1, 3), Fraction(1, 5), Fraction(1, 33)), Fraction(56, 55)
    )
    # the search visits 18 nodes
    monkeypatch.setattr(obstruction, "DFS_NODE_BUDGET", 18)
    assert solve_dioph(three) == [(0, 1, 27), (1, 1, 16), (2, 1, 5)]
    monkeypatch.setattr(obstruction, "DFS_NODE_BUDGET", 17)
    with pytest.raises(ValueError, match="budget of 17 nodes"):
        solve_dioph(three)


def test_solve_dioph_solution_budget(monkeypatch):
    c = (Fraction(1, 40), Fraction(1, 30), Fraction(1, 24))
    # 133 leaves solve the equation, and the quadratic filter keeps 79: the
    # budget counts kept solutions
    prob = DiophProblem(c, Fraction(1), quad_coeffs=c, quad_bound=Fraction(16))
    monkeypatch.setattr(obstruction, "SOLUTION_BUDGET", 79)
    assert len(solve_dioph(prob)) == 79
    monkeypatch.setattr(obstruction, "SOLUTION_BUDGET", 78)
    with pytest.raises(ValueError, match="more than 78 solutions"):
        solve_dioph(prob)


def test_dioph_oracle_and_l11_fit_far_inside_the_budget(monkeypatch):
    assert obstruction.DFS_NODE_BUDGET == 2_000_000
    assert obstruction.SOLUTION_BUDGET == 100_000
    want = l11_rationality_checks()
    # 2,000 times below the node budget and over 600 times below the
    # solution budget, every search still completes unchanged
    monkeypatch.setattr(obstruction, "DFS_NODE_BUDGET", 1_000)
    monkeypatch.setattr(obstruction, "SOLUTION_BUDGET", 150)
    assert checks.check_dioph_oracle(n_random=1_000).ok
    got = l11_rationality_checks()
    assert (got.stages, got.details, got.mismatches) == (
        want.stages, want.details, want.mismatches,
    )


def test_solve_dioph_three_variable_relaxations():
    # The three-variable relaxations of the order-43 case do admit solutions;
    # they fail only because the chain cannot realize z = 3 or z = 6 (its
    # smallest step is 8/43).  Verified against the grid oracle.
    a = DiophProblem((Fraction(1, 3), Fraction(1, 5), Fraction(1, 43)), Fraction(647, 645))
    b = DiophProblem((Fraction(1, 3), Fraction(1, 5), Fraction(1, 43)), Fraction(649, 645))
    assert solve_dioph(a) == oracles.fraction_grid(a) == [(1, 3, 3)]
    assert solve_dioph(b) == oracles.fraction_grid(b) == [(2, 1, 6)]


def test_solve_dioph_quad_filter():
    prob = DiophProblem(
        (Fraction(1, 2), Fraction(1, 3)),
        Fraction(5, 3),
        quad_coeffs=(Fraction(1), Fraction(1)),
        quad_bound=Fraction(9),
    )
    assert solve_dioph(prob) == oracles.fraction_grid(prob)
    loose = DiophProblem((Fraction(1, 2), Fraction(1, 3)), Fraction(5, 3))
    assert len(solve_dioph(loose)) > len(solve_dioph(prob))


def test_solve_dioph_group_constraints():
    prob = DiophProblem(
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)),
        Fraction(4, 3),
        group_constraints=(((0, 1), Fraction(1)),),
    )
    sols = solve_dioph(prob)
    assert sols == oracles.fraction_grid(prob)
    assert all(Fraction(x0 + x1, 2) == 1 for x0, x1, _ in sols)


def test_solve_dioph_validation():
    with pytest.raises(ValueError):
        DiophProblem((), Fraction(1))
    with pytest.raises(ValueError):
        DiophProblem((Fraction(0),), Fraction(1))
    with pytest.raises(ValueError):
        DiophProblem((Fraction(1),), Fraction(1), quad_coeffs=(Fraction(1),))
    with pytest.raises(ValueError, match="quad_bound given without quad_coeffs"):
        DiophProblem((Fraction(1, 2), Fraction(1, 3)), Fraction(1), quad_bound=Fraction(0))


def test_solve_dioph_negative_or_fractional_target():
    assert solve_dioph(DiophProblem((Fraction(1, 2),), Fraction(-1))) == []
    assert solve_dioph(DiophProblem((Fraction(2),), Fraction(1, 3))) == []


def test_solve_dioph_lexicographic_order():
    prob = DiophProblem((Fraction(1), Fraction(1)), Fraction(3))
    assert solve_dioph(prob) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_solve_dioph_matches_oracle_random():
    rng = random.Random(5)
    problems = []
    for _ in range(200):
        n = rng.randint(1, 3)
        coeffs = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(n))
        target = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        problems.append(DiophProblem(coeffs, target))
    oracles.agree(solve_dioph, lambda prob: sorted(oracles.fraction_grid(prob)), problems)


def outcome(solve, problem):
    """The solution list, or the text of the ValueError the solve raises."""
    try:
        return solve(problem)
    except ValueError as exc:
        return str(exc)


def random_problem(rng):
    """n = 1..6 positive coefficients; a target on the lattice (a random
    point's degree) or off it, drawn again while the plain search would have
    more than 2,000 leaves; about a third of the problems with one or two
    group sums, about a third with a quadratic bound."""
    n = rng.randint(1, 6)
    coeffs = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(n))
    leaves = 2_001
    while leaves > 2_000:
        point = [rng.randint(0, 3) for _ in range(n)]
        if rng.random() < 0.7:
            target = sum((c * x for c, x in zip(coeffs, point)), start=Fraction(0))
        else:
            target = Fraction(rng.randint(-1, 12), rng.randint(1, 7))
        leaves = prod(max(0, int(target / c)) + 1 for c in coeffs[:-1])
    groups = []
    if n > 1 and rng.random() < 0.35:
        for _ in range(rng.randint(1, 2)):
            idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
            exact = sum((coeffs[k] * point[k] for k in idx), start=Fraction(0))
            groups.append((idx, exact + rng.choice((0, 0, 0, Fraction(1, 2)))))
    quad = {}
    if rng.random() < 0.35:
        quads = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n))
        full = sum((b * x * x for b, x in zip(quads, point)), start=Fraction(0))
        quad = {"quad_coeffs": quads, "quad_bound": full + rng.randint(-2, 3)}
    return DiophProblem(coeffs, target, group_constraints=tuple(groups), **quad)


NODE_BUDGETS = (0, 1, 2, 3, 5, 8, 13, 50, 400)
SOLUTION_BUDGETS = (0, 1, 2, 3, 10)


def test_solve_dioph_matches_the_plain_search(monkeypatch):
    # every pair of small budgets in turn, so that the node and the solution
    # budget race, and the full budgets for every problem
    rng = random.Random(21)
    pairs = list(product(NODE_BUDGETS, SOLUTION_BUDGETS))
    solved = raised = 0
    for k in range(5_000):
        problem = random_problem(rng)
        monkeypatch.setattr(obstruction, "DFS_NODE_BUDGET", 2_000_000)
        monkeypatch.setattr(obstruction, "SOLUTION_BUDGET", 100_000)
        want = outcome(oracles.plain_search, problem)
        assert outcome(solve_dioph, problem) == want, problem
        solved += bool(want)
        nodes, kept = pairs[k % len(pairs)]
        monkeypatch.setattr(obstruction, "DFS_NODE_BUDGET", nodes)
        monkeypatch.setattr(obstruction, "SOLUTION_BUDGET", kept)
        want = outcome(oracles.plain_search, problem)
        assert outcome(solve_dioph, problem) == want, (problem, nodes, kept)
        raised += isinstance(want, str)
    # the corpus is not degenerate: many problems solve, many hit a budget
    assert solved > 1_000 and raised > 1_000


def test_solve_dioph_under_every_node_budget(monkeypatch):
    # n <= 3, coefficients 1..3, targets 0..9: every node budget from 0 up to
    # the plain search's full count + 1
    for n in (1, 2, 3):
        for coeffs in product((1, 2, 3), repeat=n):
            for target in range(10):
                problem = DiophProblem(tuple(map(Fraction, coeffs)), Fraction(target))
                full = None
                budget = 0
                while full is None or budget <= full + 1:
                    monkeypatch.setattr(obstruction, "DFS_NODE_BUDGET", budget)
                    want = outcome(oracles.plain_search, problem)
                    assert outcome(solve_dioph, problem) == want, (problem, budget)
                    if full is None and not isinstance(want, str):
                        full = budget
                    budget += 1


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------


def test_component_problem_skips_zero_coefficients():
    cand = candidate_invariants(["[2]", "[3]", "[5]", "[2,2,2,2,2,2,2,2]"], c=3)
    prob, labels = component_problem(cand, Fraction(16, 15))
    assert prob.coeffs == (Fraction(1, 3), Fraction(3, 5))
    assert labels == [(1, 1), (2, 1)]
    assert solve_dioph(prob) == []


def test_aggregated_problem_coefficients():
    cand = candidate_invariants(["[2]", "[3]", "[3,2]", "[3,3,2,2,2,2,2]"], c=3)
    prob, labels = aggregated_problem(cand, Fraction(56, 55))
    assert prob.coeffs == (Fraction(1, 3), Fraction(1, 5), Fraction(1, 33))
    assert labels == [1, 2, 3]
