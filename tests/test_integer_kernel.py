"""The integer paths of the kernel against the Fraction code they replaced.

The reference functions below are the former bodies of the grid oracle
`checks._brute_force_dioph`, of `obstruction.solve_dioph` (which filtered
its solutions in `Fraction`s after the search), of Dp.K and the adjunction
coefficients in `surface.dp_data`, of `surface.candidate_invariants` and
`bmy_status`, of `obstruction.degree_sum`, `esq_formula` and
`esq_two_component`, of the
two bounds of `checks.check_prop_int_inequalities`, of the dense form in
`checks.check_dp_closed_form`, of the unit and pair loop of
`checks.check_uv_inequalities`, of the recurrences in `HjCf.__init__` and of
`enumeration.enumerate_order_tuples` (over the full a/b/c box) and of
`ratio.format_rational`, which copied its argument into a Fraction.  Each works
term by term in `Fraction` arithmetic (or, for the uv loop, through the
general predicate `holds`, and for the chain sequences, by list indexing).
"""

import contextlib
import io
import json
import math
import random
import types
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from types import SimpleNamespace

import pytest

import qhpp.surface
from qhpp import checks, enumeration
from qhpp.cli import main
from qhpp.hjcf import HjCf
from qhpp.obstruction import (
    CurveClass,
    DiophProblem,
    Incidence,
    degree_sum,
    esq_formula,
    esq_two_component,
    local_discrepancy,
    solve_dioph,
)
from qhpp.ratio import _format_over, format_rational
from qhpp.surface import (
    BmyStatus,
    bmy_status,
    candidate_invariants,
    candidate_to_dict,
    dp_data,
)

# ---------------------------------------------------------------------------
# the former Fraction code
# ---------------------------------------------------------------------------


def reference_brute_force_dioph(problem: DiophProblem) -> list[tuple[int, ...]]:
    bounds = [int(problem.target / c) for c in problem.coeffs]
    out = []
    for vec in product(*(range(b + 1) for b in bounds)):
        total = sum((c * x for c, x in zip(problem.coeffs, vec)), start=Fraction(0))
        if total != problem.target:
            continue
        ok = all(
            sum((problem.coeffs[i] * vec[i] for i in idx), start=Fraction(0)) == exact
            for idx, exact in problem.group_constraints
        )
        if ok and problem.quad_coeffs is not None:
            qsum = sum(
                (qc * x * x for qc, x in zip(problem.quad_coeffs, vec)),
                start=Fraction(0),
            )
            ok = qsum <= problem.quad_bound
        if ok:
            out.append(vec)
    return out


def reference_solve_dioph(problem: DiophProblem) -> list[tuple[int, ...]]:
    """Enumerate in cleared integers, then filter every solution in Fractions
    (the node budget left out)."""
    n = len(problem.coeffs)
    den = lcm(problem.target.denominator, *(c.denominator for c in problem.coeffs))
    cleared = [int(c * den) for c in problem.coeffs]
    target = problem.target * den
    if target < 0:
        return []
    solutions: list[tuple[int, ...]] = []
    vec = [0] * n

    def dfs(i: int, remaining: int) -> None:
        if i == n - 1:
            if remaining % cleared[i] == 0:
                vec[i] = remaining // cleared[i]
                solutions.append(tuple(vec))
            return
        step = cleared[i]
        for x in range(remaining // step + 1):
            vec[i] = x
            dfs(i + 1, remaining - x * step)

    dfs(0, int(target))

    def keep(sol: tuple[int, ...]) -> bool:
        for idx, exact in problem.group_constraints:
            got = sum((problem.coeffs[i] * sol[i] for i in idx), start=Fraction(0))
            if got != exact:
                return False
        if problem.quad_coeffs is not None:
            qsum = sum(
                (qc * x * x for qc, x in zip(problem.quad_coeffs, sol)),
                start=Fraction(0),
            )
            if qsum > problem.quad_bound:
                return False
        return True

    return [s for s in solutions if keep(s)]


def reference_coeffs(cf: HjCf) -> tuple[Fraction, ...]:
    """The adjunction coefficients 1 - (v_j + u_j)/q of the chain."""
    return tuple(
        1 - Fraction(cf.v_seq[j] + cf.u_seq[j], cf.q) for j in range(1, cf.l + 1)
    )


def reference_dp_dot_k(cf: HjCf) -> Fraction:
    coeffs = reference_coeffs(cf)
    return sum((c * (n - 2) for c, n in zip(coeffs, cf.entries)), start=Fraction(0))


def reference_candidate_invariants(cfs: list[HjCf], c: int = 1) -> tuple:
    """(K^2, D, e_orb, D', L, det R) as running Fraction sums."""
    data = [dp_data(cf) for cf in cfs]
    L = sum(s.l for s in data)
    det_r = 1
    for s in data:
        det_r *= s.q
    ks2 = (9 - L) + sum((reference_dp_dot_k(s.cf) for s in data), start=Fraction(0))
    e_orb = 3 - sum((1 - Fraction(1, s.q) for s in data), start=Fraction(0))
    return ks2, det_r * ks2, e_orb, Fraction(det_r * ks2, c * c), L, det_r


def reference_bmy_status(ks2: Fraction, e_orb: Fraction) -> BmyStatus:
    if e_orb < 0:
        return BmyStatus.E_ORB_NEGATIVE
    if ks2 <= 0:
        return BmyStatus.OK
    if ks2 <= 3 * e_orb:
        return BmyStatus.OK_K_AMPLE
    return BmyStatus.VIOLATES_K_AMPLE


def reference_chain_sequences(entries: tuple[int, ...]) -> tuple[tuple, tuple]:
    """(u, v) of a chain by the list-indexing recurrences."""
    u = [0, 1]
    for n in entries:
        u.append(n * u[-1] - u[-2])
    w = [0, 1]
    for n in reversed(entries):
        w.append(n * w[-1] - w[-2])
    return tuple(u), tuple(reversed(w))


def reference_degree_sum(curve: CurveClass) -> Fraction:
    total = Fraction(0)
    for sing, row in zip(curve.cand.sings, curve.incidence.rows):
        for coeff, ea in zip(reference_coeffs(sing.cf), row):
            if ea:
                total += coeff * ea
    return total


def _reference_lead(curve: CurveClass) -> Fraction:
    if curve.m == 0:
        return Fraction(0)
    return Fraction(curve.m * curve.m) / curve.cand.d_prime * curve.cand.ks2


def reference_esq_formula(curve: CurveClass) -> Fraction:
    total = Fraction(0)
    for sing, row in zip(curve.cand.sings, curve.incidence.rows):
        for j in range(1, sing.l + 1):
            ea = row[j - 1]
            if ea:
                total += local_discrepancy(sing, row, j) * ea
    return _reference_lead(curve) - total


def reference_esq_two_component(curve: CurveClass) -> Fraction:
    total = Fraction(0)
    for sing, row in zip(curve.cand.sings, curve.incidence.rows):
        support = [j for j in range(1, sing.l + 1) if row[j - 1]]
        assert len(support) <= 2
        cf, q = sing.cf, sing.q
        if len(support) >= 1:
            s = support[0]
            ea_s = row[s - 1]
            total += Fraction(cf.v_seq[s] * cf.u_seq[s], q) * ea_s * ea_s
        if len(support) == 2:
            s, t = support
            ea_s, ea_t = row[s - 1], row[t - 1]
            total += Fraction(cf.v_seq[t] * cf.u_seq[t], q) * ea_t * ea_t
            total += 2 * Fraction(cf.v_seq[t] * cf.u_seq[s], q) * ea_s * ea_t
    return _reference_lead(curve) - total


def reference_relaxed_ek_bound(curve: CurveClass) -> Fraction:
    cand, inc = curve.cand, curve.incidence
    return -sum(
        (1 - Fraction(2, s.cf.entries[j - 1])) * inc.rows[p][j - 1]
        for p, s in enumerate(cand.sings)
        for j in range(1, s.l + 1)
    )


def reference_diagonal_esq_bound(curve: CurveClass) -> Fraction:
    cand, inc = curve.cand, curve.incidence
    return -sum(
        Fraction(s.cf.v_seq[j] * s.cf.u_seq[j], s.q) * inc.rows[p][j - 1] ** 2
        for p, s in enumerate(cand.sings)
        for j in range(1, s.l + 1)
    )


def reference_dense_dp_sq(cf: HjCf) -> Fraction:
    coeffs, n, l = reference_coeffs(cf), cf.entries, cf.l
    dense = Fraction(0)
    for i in range(l):
        for j in range(l):
            if i == j:
                dense += coeffs[i] * coeffs[j] * (-n[i])
            elif abs(i - j) == 1:
                dense += coeffs[i] * coeffs[j]
    return dense


def reference_uv_failures(cf) -> list[str]:
    holds, l, bad = checks._uv_holds, cf.l, []
    for j in range(1, l + 1):
        if not holds(cf, {j: 1}) or not holds(cf, {j: 2}) or not holds(cf, {j: 3}):
            bad.append(f"{cf}: unit z at {j}")
    if l <= 30:
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                if not holds(cf, {i: 1, j: 1}):
                    bad.append(f"{cf}: pair z at {i},{j}")
    return bad


def reference_enumerate_order_tuples() -> list[enumeration.OrderTupleFamily]:
    """The order-tuple families from Fraction sums over the full a/b/c box."""
    families = []
    for a in range(2, 5):
        for b in range(a + 1, 31):
            if gcd(a, b) != 1:
                continue
            for c in range(b + 1, 61):
                if gcd(c, a) != 1 or gcd(c, b) != 1:
                    continue
                s = Fraction(1, a) + Fraction(1, b) + Fraction(1, c)
                modulus = a * b * c
                if s >= 1:
                    free_min = next(
                        q for q in range(c + 1, 10 * modulus) if gcd(q, modulus) == 1
                    )
                    families.append(
                        enumeration.OrderTupleFamily((a, b, c), free_min, None, modulus)
                    )
                    continue
                d_max = math.floor(1 / (1 - s))
                ds = [q for q in range(c + 1, d_max + 1) if gcd(q, modulus) == 1]
                if not ds:
                    continue
                if len(ds) == 1:
                    families.append(enumeration.OrderTupleFamily((a, b, c, ds[0])))
                else:
                    families.append(
                        enumeration.OrderTupleFamily((a, b, c), ds[0], ds[-1], modulus)
                    )
    return families


def reference_format_rational(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def recorded_calls(monkeypatch, module, name: str, run) -> list:
    """The first argument of every call `run` makes to module.name."""
    seen = []
    real = getattr(module, name)

    def record(arg, *rest):
        seen.append(arg)
        return real(arg, *rest)

    monkeypatch.setattr(module, name, record)
    run()
    monkeypatch.setattr(module, name, real)
    return seen


def recorded_results(monkeypatch, module, name: str, run) -> list:
    """The return value of every call `run` makes to module.name."""
    seen = []
    real = getattr(module, name)

    def record(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, record)
    run()
    monkeypatch.setattr(module, name, real)
    return seen


# ---------------------------------------------------------------------------
# the grid oracle
# ---------------------------------------------------------------------------


def test_integer_grid_oracle_matches_the_fraction_grid(monkeypatch):
    # the problems check_dioph_oracle draws, rebuilt by running it with
    # solve_dioph recorded: the 5 recorded instances and 1,000 seeded ones
    problems = recorded_calls(monkeypatch, checks, "solve_dioph", checks.check_dioph_oracle)
    assert len(problems) == len(checks.REFERENCE_DIOPH_INSTANCES) + 1_000
    assert problems[:5] == checks.REFERENCE_DIOPH_INSTANCES
    assert sum(p.quad_coeffs is not None for p in problems) > 200
    assert sum(bool(p.group_constraints) for p in problems) > 100
    for prob in problems:
        assert checks._brute_force_dioph(prob) == reference_brute_force_dioph(prob), prob


def test_integer_grid_oracle_on_edge_cases():
    third, half = Fraction(1, 3), Fraction(1, 2)
    cases = [
        DiophProblem((third, half), Fraction(0)),
        DiophProblem((third, half), Fraction(-1, 6)),
        DiophProblem((third, half), Fraction(7, 6), (((0,), Fraction(1, 3)),)),
        DiophProblem((third, half), Fraction(7, 6), (((0, 1), Fraction(5, 4)),)),
        DiophProblem((third, half), Fraction(3), quad_coeffs=(half, third), quad_bound=Fraction(-1)),
        DiophProblem((third, half), Fraction(3), quad_coeffs=(half, Fraction(2, 7)), quad_bound=Fraction(9, 5)),
    ]
    for prob in cases:
        assert checks._brute_force_dioph(prob) == reference_brute_force_dioph(prob), prob


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def _seeded_problems(seed: int, count: int) -> list[DiophProblem]:
    """Small problems with group sums (reachable ones, and ones over any
    denominator up to 11) and quadratic filters (bound 0 among them)."""
    rng = random.Random(seed)
    problems = []
    for _ in range(count):
        n = rng.randint(1, 4)
        coeffs = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(n))
        # keep the grid oracle's box small: at most 25 values per variable
        target = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        while any(target / c > 24 for c in coeffs):
            target /= 2
        groups = []
        for _ in range(rng.choice((0, 0, 1, 2))):
            idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            if rng.random() < 0.6:
                exact = sum((coeffs[i] * rng.randint(0, 3) for i in idx), start=Fraction(0))
            else:
                exact = Fraction(rng.randint(0, 12), rng.randint(1, 11))
            groups.append((idx, exact))
        quad = bound = None
        if rng.random() < 0.5:
            quad = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(n))
            bound = rng.choice((Fraction(0), Fraction(rng.randint(0, 60), rng.randint(1, 5))))
        problems.append(DiophProblem(coeffs, target, tuple(groups), quad, bound))
    return problems


def test_solver_matches_the_fraction_solver_and_the_grid_on_seeded_problems():
    problems = _seeded_problems(1414, 2_000)
    kept = filtered = 0
    for prob in problems:
        got = solve_dioph(prob)
        assert got == reference_solve_dioph(prob) == sorted(checks._brute_force_dioph(prob)), prob
        unfiltered = solve_dioph(DiophProblem(prob.coeffs, prob.target))
        kept += bool(got) and (bool(prob.group_constraints) or prob.quad_coeffs is not None)
        filtered += len(unfiltered) > len(got)
    # the filters both keep and reject solutions across the corpus
    assert kept > 100 and filtered > 500
    assert sum(p.quad_bound == 0 for p in problems) > 400


def test_solver_on_edge_cases():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        # a group sum over a denominator that no coefficient has
        (DiophProblem((half, half), Fraction(1), (((0,), Fraction(3, 7)),)), []),
        (DiophProblem((half, third), Fraction(3), (((1,), Fraction(2)),)), [(2, 6)]),
        (DiophProblem((half, third), Fraction(3), (((0, 1), Fraction(3)), ((0,), Fraction(1, 3)))), []),
        # a quadratic bound of 0 keeps only the zero vector
        (DiophProblem((half, third), Fraction(0), quad_coeffs=(half, third), quad_bound=Fraction(0)), [(0, 0)]),
        (DiophProblem((half, third), Fraction(3), quad_coeffs=(half, third), quad_bound=Fraction(0)), []),
        (DiophProblem((half, third), Fraction(3), quad_coeffs=(half, third), quad_bound=Fraction(-1)), []),
        (DiophProblem((half, third), Fraction(-1, 6)), []),
    ]
    for prob, want in cases:
        assert solve_dioph(prob) == reference_solve_dioph(prob) == want, prob
        assert sorted(checks._brute_force_dioph(prob)) == want, prob


# ---------------------------------------------------------------------------
# dp_data and the forms built on it
# ---------------------------------------------------------------------------


def test_dp_data_is_a_plain_function_over_a_memo():
    # the tracer wraps plain public functions only
    assert isinstance(qhpp.surface.dp_data, types.FunctionType)
    memo = qhpp.surface._DP_MEMO
    memo.clear()
    cf = HjCf([3, 2, 4])
    record = dp_data(cf)
    assert record is dp_data(HjCf(cf.entries)) is dp_data("[3,2,4]")
    # keyed on the entry tuple; a miss keeps the chain it was given
    assert list(memo) == [(3, 2, 4)]
    assert record.cf is cf
    fresh = HjCf([2, 7, 3, 5])
    assert dp_data(fresh).cf is fresh
    # bounded, least recently used first out
    size = qhpp.surface._DP_MEMO_SIZE
    assert size == 512
    for k in range(2, size + 1):
        dp_data(HjCf([k + 1]))
        dp_data(cf)
    assert len(memo) == size
    assert (3, 2, 4) in memo and fresh.entries not in memo
    assert dp_data(cf) is record


def test_dp_data_matches_the_fraction_sums_on_every_chain():
    for cf in checks._all_cfs(200):
        data = dp_data(cf)
        dot_k = Fraction(data.dp_dot_k_num, cf.q)
        assert dot_k == reference_dp_dot_k(cf), cf
        assert tuple(Fraction(n, cf.q) for n in data.coeff_nums) == reference_coeffs(cf)
        if cf.l <= 12:
            assert reference_dense_dp_sq(cf) == -dot_k, cf


def test_dp_data_keeps_the_integer_numerator_of_dp_dot_k():
    for cf in checks._all_cfs(200):
        data = dp_data(cf)
        assert data.dp_dot_k_num == reference_dp_dot_k(cf) * cf.q, cf
        # integers only: no field of the record is a Fraction
        assert data.d_term == data.dp_dot_k_num - cf.l * cf.q, cf
        assert [
            type(x) for x in (data.q, data.dp_dot_k_num, data.d_term, *data.coeff_nums)
        ] == [int] * (cf.l + 3)
        assert sorted(data._fields) == ["cf", "coeff_nums", "d_term", "dp_dot_k_num", "q"]


def test_dense_form_check_catches_a_wrong_dp_sq(monkeypatch):
    real = checks.dp_data

    def off_by_a_bit(cf):
        data = real(cf)
        if cf.entries == (2, 3):
            # Dp^2 = -dp_dot_k_num / q raised by 1/5
            return data._replace(dp_dot_k_num=data.dp_dot_k_num - 1)
        return data

    monkeypatch.setattr(checks, "dp_data", off_by_a_bit)
    result = checks.check_dp_closed_form(6)
    assert not result.ok and result.detail == "dense form at [2,3]"


def _rows(cf: HjCf) -> list[tuple[int, ...]]:
    """A few incidence rows of one chain: none, the first curve, both ends,
    and up to four hits spread over the chain."""
    l = cf.l
    rows = [(0,) * l]
    for hits in ({1: 2}, {1: 1, l: 3}, {1: 1, (l + 1) // 2: 2, l: 1, max(1, l - 1): 3}):
        row = [0] * l
        for j, x in hits.items():
            row[j - 1] = x
        rows.append(tuple(row))
    return rows


def test_curve_forms_match_the_fraction_sums_on_every_chain():
    for cf in checks._all_cfs(200):
        cand = candidate_invariants([HjCf([2]), cf])
        for row in _rows(cf):
            curve = CurveClass(0, cand, Incidence(((1,), row)))
            assert degree_sum(curve) == reference_degree_sum(curve), (cf, row)
            assert esq_formula(curve) == reference_esq_formula(curve), (cf, row)
            if sum(1 for x in row if x) <= 2:
                assert esq_two_component(curve) == reference_esq_two_component(curve), (cf, row)


def test_curve_forms_with_a_leading_term():
    # D = 9216 = 96^2 for the first table1 row
    cand = candidate_invariants(["[2]", "[2,2]", "[7]", "[13]"])
    for m in (1, 2, 5):
        for inc in (Incidence.from_hits(cand, {}), Incidence(((1,), (0, 2), (1,), (3,)))):
            curve = CurveClass(m, cand, inc)
            assert esq_formula(curve) == reference_esq_formula(curve) != 0
            assert esq_two_component(curve) == reference_esq_two_component(curve)
            assert degree_sum(curve) == reference_degree_sum(curve)


@pytest.mark.parametrize("suite", ["check_esq_identity", "check_prop_int_inequalities"])
def test_curve_forms_match_on_the_seeded_corpora(monkeypatch, suite):
    curves = recorded_calls(monkeypatch, checks, "esq_formula", getattr(checks, suite))
    curves += recorded_calls(monkeypatch, checks, "degree_sum", getattr(checks, suite))
    assert len(curves) > 5_000
    for curve in curves:
        assert esq_formula(curve) == reference_esq_formula(curve)
        assert degree_sum(curve) == reference_degree_sum(curve)
        if all(sum(1 for x in row if x) <= 2 for row in curve.incidence.rows):
            assert esq_two_component(curve) == reference_esq_two_component(curve)


def test_prop_int_bounds_match_the_fraction_sums_on_the_seeded_corpus(monkeypatch):
    curves = recorded_calls(
        monkeypatch, checks, "esq_formula", checks.check_prop_int_inequalities
    )
    assert len(curves) == 2_000
    for curve in curves:
        assert checks._relaxed_ek_bound(curve) == reference_relaxed_ek_bound(curve)
        assert checks._diagonal_esq_bound(curve) == reference_diagonal_esq_bound(curve)


# ---------------------------------------------------------------------------
# the uv inequalities
# ---------------------------------------------------------------------------


def test_uv_integer_predicates_agree_with_holds_on_every_chain():
    chains = [cf for cf in checks._all_cfs(200) if cf.l >= 5]
    assert len(chains) == 4596
    for cf in chains:
        assert checks._uv_chain_failures(cf) == reference_uv_failures(cf) == []


def test_uv_integer_predicates_agree_with_holds_where_they_fail():
    # u and v sequences shrunk so that the products u_j v_j fall behind the
    # sums u_j + v_j: both sides must name the same unit and pair failures
    seen = 0
    for cf in checks._all_cfs(60):
        if cf.l < 5:
            continue
        for cut in (1, 2, 3):
            fake = SimpleNamespace(
                l=cf.l,
                u_seq=tuple(max(0, x - cut) for x in cf.u_seq),
                v_seq=tuple(max(0, x - cut) for x in cf.v_seq),
            )
            got = checks._uv_chain_failures(fake)
            assert got == reference_uv_failures(fake), (cf, cut)
            seen += len(got)
    assert seen > 1_000


# ---------------------------------------------------------------------------
# candidate invariants
# ---------------------------------------------------------------------------


def _seeded_candidates(monkeypatch) -> tuple[list, list]:
    """The D of every case the candidate scans test, as (chains, (det R, D)),
    and every candidate the seven pipelines and the three random suites
    build."""
    tested = []
    real = enumeration._det_and_d

    def record(data):
        tested.append(([s.cf for s in data], real(data)))
        return tested[-1][1]

    def pipelines():
        monkeypatch.setattr(enumeration, "_det_and_d", record)
        for fn in enumeration.PIPELINES.values():
            fn()
        monkeypatch.setattr(enumeration, "_det_and_d", real)

    def suites():
        checks.check_esq_identity()
        checks.check_prop_int_inequalities()
        checks.check_reversal_invariance()

    cands = recorded_results(
        monkeypatch, enumeration, "candidate_invariants", pipelines
    ) + recorded_results(monkeypatch, checks, "candidate_invariants", suites)
    return tested, cands


def test_candidate_invariants_match_the_fraction_sums_on_the_seeded_corpora(monkeypatch):
    tested, cands = _seeded_candidates(monkeypatch)
    # table1, q20 and small-q test 1,092 + 126 + 240 cases; the suites build
    # 10,000 + 2,000 + 3 x 500 candidates, and the pipelines the rest
    assert len(tested) == 1_458
    assert len(tested) + len(cands) > 13_500 + 1_000
    for cfs, (det_r, d) in tested:
        ref = reference_candidate_invariants(cfs)
        assert (d, det_r) == (ref[1], ref[5]), cfs
        assert type(d) is int
    assert {cand.c for cand in cands} == {1, 2, 3}
    classes = set()
    for cand in cands:
        ref = reference_candidate_invariants([s.cf for s in cand.sings], cand.c)
        got = (cand.ks2, cand.D, cand.e_orb, cand.d_prime, cand.L, cand.det_r)
        assert got == ref, cand
        status = bmy_status(cand)
        assert status is reference_bmy_status(ref[0], ref[2]), cand
        assert type(cand.D) is int and type(cand.E) is int
        assert (cand.D, cand.E) == (ref[1], cand.det_r * ref[2])
        classes.add(status)
    assert classes == set(BmyStatus)


@pytest.mark.parametrize(
    ("sings", "D", "E", "status"),
    [
        # K^2 = 3 e_orb exactly
        (["[2,2]"], 21, 7, BmyStatus.OK_K_AMPLE),
        # K^2 = 0
        (["[2,2,2,2,2,2,2,2,2]"], 0, 21, BmyStatus.OK),
        # e_orb = 0, with K^2 > 0 and with K^2 < 0
        (["[2]", "[2,2,2]", "[2,2,2,2,2,2,2]", "[8]"], 768, 0, BmyStatus.VIOLATES_K_AMPLE),
        (["[2]", "[2,2,2]", "[2,2,2,2,2,2,2]", "[2,2,2,2,2,2,2]"], -4608, 0, BmyStatus.OK),
    ],
)
def test_bmy_status_on_the_boundaries(sings, D, E, status):
    cand = candidate_invariants(sings)
    assert (cand.D, cand.E) == (D, E)
    assert bmy_status(cand) is status is reference_bmy_status(cand.ks2, cand.e_orb)


# ---------------------------------------------------------------------------
# the chain constructor
# ---------------------------------------------------------------------------


def test_chain_sequences_match_the_indexed_recurrences_on_every_chain():
    count = 0
    for cf in checks._all_cfs(200):
        for entries in (cf.entries, cf.entries[::-1]):
            chain = HjCf(entries)
            assert (chain.u_seq, chain.v_seq) == reference_chain_sequences(entries), entries
            count += 1
    assert count > 10_000
    assert (HjCf().u_seq, HjCf().v_seq) == reference_chain_sequences(()) == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    ("entries", "shown"),
    [([3, 1], "[3, 1]"), ((2, 0, 5), "[2, 0, 5]"), (iter([-4]), "[-4]"), (["2", "1"], "[2, 1]")],
)
def test_chain_entry_below_two_keeps_its_error_text(entries, shown):
    with pytest.raises(ValueError) as err:
        HjCf(entries)
    assert str(err.value) == f"chain entries must all be >= 2, got {shown}"


# ---------------------------------------------------------------------------
# order-tuple families
# ---------------------------------------------------------------------------


def test_order_tuple_families_match_the_fraction_loop():
    families = enumeration.enumerate_order_tuples()
    assert families == reference_enumerate_order_tuples()
    assert [f.fixed_orders for f in families] == [(2, 3, 5), (2, 3, 7), (2, 3, 11, 13)]


# ---------------------------------------------------------------------------
# printed rationals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("x", "shown"),
    [
        (0, "0"), (7, "7"), (-7, "-7"), (True, "1"), (False, "0"),
        (10**40 + 1, str(10**40 + 1)), (-(10**40), str(-(10**40))),
        (Fraction(4, 8), "1/2"), (Fraction(3, -9), "-1/3"), (Fraction(-12, 4), "-3"),
        (Fraction(0, 5), "0"), (Fraction(-134, 133), "-134/133"),
        (Fraction(10**30, 7), f"{10**30}/7"),
    ],
)
def test_format_rational_matches_the_fraction_copy(x, shown):
    assert format_rational(x) == reference_format_rational(x) == shown


def test_numerator_over_a_denominator_matches_the_fraction():
    for den in range(1, 61):
        for num in range(-3 * den, 3 * den + 1):
            assert _format_over(num, den) == format_rational(Fraction(num, den)), (num, den)
    big = 2**70 * 3**5
    assert _format_over(-big, 6 * 2**70) == "-81/2"


def test_cf_info_prints_the_fraction_values_on_every_chain():
    # each chain and its reverse, whose ql is the chain's q1
    cfs = sorted({c for cf in checks._all_cfs(200) for c in (cf, cf.reverse())})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = [main(["cf-info", str(cf), "--format", "json"]) for cf in cfs]
    assert set(codes) == {0}
    lines = out.getvalue().splitlines()
    assert len(lines) == len(cfs) > 12_000
    for cf, line in zip(cfs, lines):
        got = json.loads(line)
        dot_k = reference_dp_dot_k(cf)
        assert got["dp_coeffs"] == [format_rational(c) for c in reference_coeffs(cf)], cf
        assert got["dp_dot_k"] == format_rational(dot_k), cf
        assert got["dp_sq"] == format_rational(-dot_k), cf
        assert got["ep_sq"] == format_rational(Fraction(-cf.ql, cf.q)), cf


def test_candidate_to_dict_prints_the_fraction_values_on_the_seeded_corpora(monkeypatch):
    _, cands = _seeded_candidates(monkeypatch)
    for cand in cands:
        got = candidate_to_dict(cand)
        assert got["ks2"] == format_rational(Fraction(cand.D, cand.det_r)), cand
        assert got["three_e_orb"] == format_rational(3 * Fraction(cand.E, cand.det_r)), cand
        assert got["D"] == format_rational(Fraction(cand.D)), cand
    # both signs of K^2 and of e_orb, and integral and proper values of each
    assert {cand.D > 0 for cand in cands} == {cand.E > 0 for cand in cands} == {True, False}
    assert {cand.D % cand.det_r == 0 for cand in cands} == {True, False}
    assert {3 * cand.E % cand.det_r == 0 for cand in cands} == {True, False}
