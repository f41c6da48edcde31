"""The integer paths of the kernel against the Fraction code they replaced
(the oracles of ``tests/oracles.py``), on the corpora the suites, the
pipelines and the CLI build."""

import contextlib
import io
import json
import random
import types
from fractions import Fraction
from operator import itemgetter
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
from tests import oracles

# ---------------------------------------------------------------------------
# the grid oracle
# ---------------------------------------------------------------------------


def test_integer_grid_oracle_matches_the_fraction_grid():
    # the problems check_dioph_oracle draws, rebuilt by running it with
    # solve_dioph recorded: the 5 recorded instances and 1,000 seeded ones
    with oracles.recording(checks, "solve_dioph") as calls:
        assert checks.check_dioph_oracle().ok
    problems = [args[0] for args, _ in calls]
    assert len(problems) == len(checks.REFERENCE_DIOPH_INSTANCES) + 1_000
    assert problems[:5] == checks.REFERENCE_DIOPH_INSTANCES
    assert sum(p.quad_coeffs is not None for p in problems) > 200
    assert sum(bool(p.group_constraints) for p in problems) > 100
    oracles.agree(checks._brute_force_dioph, oracles.fraction_grid, problems)


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
    oracles.agree(checks._brute_force_dioph, oracles.fraction_grid, cases)


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
    oracles.agree(solve_dioph, oracles.plain_search, problems)
    oracles.agree(solve_dioph, lambda prob: sorted(checks._brute_force_dioph(prob)), problems)
    kept = filtered = 0
    for prob in problems:
        got = solve_dioph(prob)
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
        assert solve_dioph(prob) == oracles.plain_search(prob) == want, prob
        assert sorted(checks._brute_force_dioph(prob)) == want, prob


# ---------------------------------------------------------------------------
# dp_data and the forms built on it
# ---------------------------------------------------------------------------


def test_dp_data_is_a_plain_function_over_a_memo():
    # the tracer wraps plain public functions only
    assert isinstance(qhpp.surface.dp_data, types.FunctionType)
    memo = qhpp.surface._dp_memo
    memo.cache_clear()
    cf = HjCf([3, 2, 4])
    record = dp_data(cf)
    assert record is dp_data(HjCf(cf.entries)) is dp_data("[3,2,4]")
    # keyed on the chain, so equal chains and its text hit; a miss keeps
    # the chain it was given
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (2, 1, 1, 512)
    assert record.cf is cf
    fresh = HjCf([2, 7, 3, 5])
    assert dp_data(fresh).cf is fresh
    # bounded, least recently used first out
    for k in range(2, 512 + 1):
        dp_data(HjCf([k + 1]))
        dp_data(cf)
    assert memo.cache_info().currsize == 512
    misses = memo.cache_info().misses
    assert dp_data(cf) is record
    again = HjCf(fresh.entries)
    assert dp_data(again).cf is again
    assert memo.cache_info().misses == misses + 1


def _dp_dot_k(cf: HjCf) -> Fraction:
    return Fraction(dp_data(cf).dp_dot_k_num, cf.q)


def test_dp_data_matches_the_fraction_sums_on_every_chain():
    chains = checks._all_cfs(200)
    oracles.agree(_dp_dot_k, oracles.dp_dot_k, chains)
    oracles.agree(
        lambda cf: tuple(Fraction(n, cf.q) for n in dp_data(cf).coeff_nums),
        oracles.adjunction_coeffs,
        chains,
    )
    oracles.agree(lambda cf: -_dp_dot_k(cf), oracles.dense_dp_sq, [cf for cf in chains if cf.l <= 12])


def test_dp_data_keeps_the_integer_numerator_of_dp_dot_k():
    # its value is compared with the Fraction sum in
    # test_dp_data_matches_the_fraction_sums_on_every_chain
    for cf in checks._all_cfs(200):
        data = dp_data(cf)
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


def _curve_forms_agree(curves: list[CurveClass]) -> None:
    """The three curve forms against their oracles, the two-component form
    on the curves with at most two hits on each chain."""
    oracles.agree(degree_sum, oracles.degree_sum, curves)
    oracles.agree(esq_formula, oracles.esq_formula, curves)
    oracles.agree(esq_two_component, oracles.esq_two_component, [
        curve for curve in curves
        if all(sum(1 for x in row if x) <= 2 for row in curve.incidence.rows)
    ])


def test_curve_forms_match_the_fraction_sums_on_every_chain():
    curves = []
    for cf in checks._all_cfs(200):
        cand = candidate_invariants([HjCf([2]), cf])
        curves += [CurveClass(0, cand, Incidence(((1,), row))) for row in _rows(cf)]
    _curve_forms_agree(curves)


def test_curve_forms_with_a_leading_term():
    # D = 9216 = 96^2 for the first table1 row
    cand = candidate_invariants(["[2]", "[2,2]", "[7]", "[13]"])
    curves = [
        CurveClass(m, cand, inc)
        for m in (1, 2, 5)
        for inc in (Incidence.from_hits(cand, {}), Incidence(((1,), (0, 2), (1,), (3,))))
    ]
    assert all(oracles.esq_formula(curve) != 0 for curve in curves)
    _curve_forms_agree(curves)


def _suite_curves(suite: str, *names: str) -> list[CurveClass]:
    """The curves the suite passes to each of the named functions."""
    with contextlib.ExitStack() as stack:
        calls = [stack.enter_context(oracles.recording(checks, name)) for name in names]
        getattr(checks, suite)()
    return [args[0] for made in calls for args, _ in made]


@pytest.mark.parametrize("suite", ["check_esq_identity", "check_prop_int_inequalities"])
def test_curve_forms_match_on_the_seeded_corpora(suite):
    curves = _suite_curves(suite, "esq_formula", "degree_sum")
    assert len(curves) > 5_000
    _curve_forms_agree(curves)


def test_prop_int_bounds_match_the_fraction_sums_on_the_seeded_corpus():
    curves = _suite_curves("check_prop_int_inequalities", "esq_formula")
    assert len(curves) == 2_000
    oracles.agree(checks._relaxed_ek_bound, oracles.relaxed_ek_bound, curves)
    oracles.agree(checks._diagonal_esq_bound, oracles.diagonal_esq_bound, curves)


# ---------------------------------------------------------------------------
# the uv inequalities
# ---------------------------------------------------------------------------


def test_uv_integer_predicates_agree_with_holds_on_every_chain():
    chains = [cf for cf in checks._all_cfs(200) if cf.l >= 5]
    assert len(chains) == 4596
    oracles.agree(checks._uv_chain_failures, oracles.uv_failures, chains)
    assert not any(map(checks._uv_chain_failures, chains))


def test_uv_integer_predicates_agree_with_holds_where_they_fail():
    # u and v sequences shrunk so that the products u_j v_j fall behind the
    # sums u_j + v_j: both sides must name the same unit and pair failures
    fakes = [
        SimpleNamespace(
            l=cf.l,
            u_seq=tuple(max(0, x - cut) for x in cf.u_seq),
            v_seq=tuple(max(0, x - cut) for x in cf.v_seq),
        )
        for cf in checks._all_cfs(60)
        if cf.l >= 5
        for cut in (1, 2, 3)
    ]
    oracles.agree(checks._uv_chain_failures, oracles.uv_failures, fakes)
    assert sum(len(checks._uv_chain_failures(fake)) for fake in fakes) > 1_000


# ---------------------------------------------------------------------------
# candidate invariants
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def seeded_candidates() -> tuple[list, list]:
    """The dp_data records of every case the candidate scans test, and every
    candidate the seven pipelines and the three random suites build, recorded
    once for the module."""
    with oracles.recording(enumeration, "candidate_invariants") as built:
        with oracles.recording(enumeration, "_det_and_d") as tested:
            for fn in enumeration.PIPELINES.values():
                fn()
    with oracles.recording(checks, "candidate_invariants") as drawn:
        checks.check_esq_identity()
        checks.check_prop_int_inequalities()
        checks.check_reversal_invariance()
    return [args[0] for args, _ in tested], [cand for _, cand in built + drawn]


def _invariants(cand) -> tuple:
    """(K^2, D, e_orb, D', L, det R, E) of a candidate."""
    return cand.ks2, cand.D, cand.e_orb, cand.d_prime, cand.L, cand.det_r, cand.E


def _fraction_invariants(cand) -> tuple:
    """(K^2, D, e_orb, D', L, det R, E) of the candidate's chains, in
    Fractions."""
    ref = oracles.candidate_invariants([s.cf for s in cand.sings], cand.c)
    return (*ref, ref[5] * ref[2])


def test_candidate_invariants_match_the_fraction_sums_on_the_seeded_corpora(seeded_candidates):
    tested, cands = seeded_candidates
    # table1, q20 and small-q test 1,092 + 126 + 240 cases; the suites build
    # 10,000 + 2,000 + 3 x 500 candidates, and the pipelines the rest
    assert len(tested) == 1_458
    assert len(tested) + len(cands) > 13_500 + 1_000
    oracles.agree(
        enumeration._det_and_d,
        lambda data: itemgetter(5, 1)(oracles.candidate_invariants([s.cf for s in data])),
        tested,
    )
    assert all(type(enumeration._det_and_d(data)[1]) is int for data in tested)
    assert {cand.c for cand in cands} == {1, 2, 3}
    oracles.agree(_invariants, _fraction_invariants, cands)
    oracles.agree(bmy_status, lambda cand: oracles.bmy_status(cand.ks2, cand.e_orb), cands)
    assert all(type(cand.D) is int and type(cand.E) is int for cand in cands)
    assert set(map(bmy_status, cands)) == set(BmyStatus)


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
    assert bmy_status(cand) is status is oracles.bmy_status(cand.ks2, cand.e_orb)


# ---------------------------------------------------------------------------
# the chain constructor
# ---------------------------------------------------------------------------


def _sequences(entries: tuple[int, ...]) -> tuple[tuple, tuple]:
    chain = HjCf(entries)
    return chain.u_seq, chain.v_seq


def test_chain_sequences_match_the_indexed_recurrences_on_every_chain():
    entries = [e for cf in checks._all_cfs(200) for e in (cf.entries, cf.entries[::-1])]
    assert len(entries) > 10_000
    oracles.agree(_sequences, oracles.chain_sequences, entries + [()])
    assert oracles.chain_sequences(()) == ((0, 1), (1, 0))


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
    assert families == oracles.order_tuple_families()
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
    assert format_rational(x) == oracles.format_rational(x) == shown


def test_numerator_over_a_denominator_matches_the_fraction():
    pairs = [(num, den) for den in range(1, 61) for num in range(-3 * den, 3 * den + 1)]
    oracles.agree(lambda p: _format_over(*p), lambda p: oracles.format_rational(Fraction(*p)), pairs)
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

    def fraction_values(cf: HjCf) -> tuple:
        dot_k, show = oracles.dp_dot_k(cf), oracles.format_rational
        coeffs = [show(c) for c in oracles.adjunction_coeffs(cf)]
        return coeffs, show(dot_k), show(-dot_k), show(Fraction(-cf.ql, cf.q))

    # each printed line against the Fraction values of its chain
    oracles.agree(
        lambda pair: itemgetter("dp_coeffs", "dp_dot_k", "dp_sq", "ep_sq")(json.loads(pair[1])),
        lambda pair: fraction_values(pair[0]),
        zip(cfs, lines),
    )


def test_candidate_to_dict_prints_the_fraction_values_on_the_seeded_corpora(seeded_candidates):
    _, cands = seeded_candidates
    show = oracles.format_rational
    oracles.agree(
        lambda cand: itemgetter("ks2", "three_e_orb", "D")(candidate_to_dict(cand)),
        lambda cand: (
            show(Fraction(cand.D, cand.det_r)), show(3 * Fraction(cand.E, cand.det_r)), show(cand.D),
        ),
        cands,
    )
    # both signs of K^2 and of e_orb, and integral and proper values of each
    assert {cand.D > 0 for cand in cands} == {cand.E > 0 for cand in cands} == {True, False}
    assert {cand.D % cand.det_r == 0 for cand in cands} == {True, False}
    assert {3 * cand.E % cand.det_r == 0 for cand in cands} == {True, False}
