"""The integer paths of the kernel against the Fraction code they replaced.

The reference functions below are the former bodies of the grid oracle
`checks._brute_force_dioph`, of Dp.K in `surface.dp_data`, of
`obstruction.degree_sum`, `esq_formula` and `esq_two_component`, of the
dense form in `checks.check_dp_closed_form` and of the unit and pair loop of
`checks.check_uv_inequalities`.  Each works term by term in `Fraction`
arithmetic (or, for the uv loop, through the general predicate `holds`).
"""

import types
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

import qhpp.surface
from qhpp import checks
from qhpp.hjcf import HjCf
from qhpp.obstruction import (
    CurveClass,
    DiophProblem,
    Incidence,
    degree_sum,
    esq_formula,
    esq_two_component,
    local_discrepancy,
)
from qhpp.surface import candidate_invariants, dp_data

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


def reference_dp_dot_k(cf: HjCf) -> Fraction:
    coeffs = tuple(
        1 - Fraction(cf.v_seq[j] + cf.u_seq[j], cf.q) for j in range(1, cf.l + 1)
    )
    return sum((c * (n - 2) for c, n in zip(coeffs, cf.entries)), start=Fraction(0))


def reference_degree_sum(curve: CurveClass) -> Fraction:
    total = Fraction(0)
    for sing, row in zip(curve.cand.sings, curve.incidence.rows):
        for coeff, ea in zip(sing.dp_coeffs, row):
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


def reference_dense_dp_sq(cf: HjCf) -> Fraction:
    coeffs, n, l = dp_data(cf).dp_coeffs, cf.entries, cf.l
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
# dp_data and the forms built on it
# ---------------------------------------------------------------------------


def test_dp_data_is_a_plain_function_over_a_memo():
    # the tracer wraps plain public functions only
    assert isinstance(qhpp.surface.dp_data, types.FunctionType)
    cf = HjCf([3, 2, 4])
    assert dp_data(cf) == dp_data(HjCf(cf.entries)) == dp_data("[3,2,4]")


def test_dp_data_matches_the_fraction_sums_on_every_chain():
    for cf in checks._all_cfs(200):
        data = dp_data(cf)
        assert data.dp_dot_k == reference_dp_dot_k(cf) == -data.dp_sq, cf
        assert data.dp_coeffs == tuple(
            1 - Fraction(cf.v_seq[j] + cf.u_seq[j], cf.q) for j in range(1, cf.l + 1)
        )
        if cf.l <= 12:
            assert reference_dense_dp_sq(cf) == data.dp_sq, cf


def test_dense_form_check_catches_a_wrong_dp_sq(monkeypatch):
    real = checks.dp_data

    def off_by_a_bit(cf):
        data = real(cf)
        if cf.entries == (2, 3):
            return data.__class__(**{**vars(data), "dp_sq": data.dp_sq + Fraction(1, 25)})
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
