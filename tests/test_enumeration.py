"""Pipeline tests: families, stage counts, fixture diffing, determinism."""

import json
import random
from fractions import Fraction
from collections import Counter
from itertools import combinations_with_replacement, product
from math import gcd

import pytest

from qhpp import enumeration
from qhpp.enumeration import (
    PipelineReport,
    enumerate_order_tuples,
    l11_rationality_checks,
    lemma_q20_pipeline,
    noA2_scan,
    run_pipeline,
    small_q_pipeline,
    step5_pipeline,
    step6_classification,
    table1_pipeline,
)
from qhpp.fixtures import load_fixtures
from qhpp.hjcf import HjCf, enumerate_cfs_of_order, parse_cf
from qhpp.obstruction import aggregated_problem, solve_dioph
from qhpp.ratio import rational_sqrt
from qhpp.surface import candidate_invariants, dp_data
from tests import oracles

# ---------------------------------------------------------------------------
# order-tuple families
# ---------------------------------------------------------------------------


def test_families_derived():
    fams = enumerate_order_tuples()
    assert len(fams) == 3
    unbounded = [f for f in fams if f.free_min and f.free_max is None]
    assert len(unbounded) == 1
    f235 = unbounded[0]
    assert f235.fixed_orders == (2, 3, 5)
    assert f235.free_min == 7 and f235.coprime_modulus == 30
    f237 = next(f for f in fams if f.fixed_orders == (2, 3, 7))
    assert (f237.free_min, f237.free_max, f237.coprime_modulus) == (11, 41, 42)
    assert [t[3] for t in f237.instances(50)] == [11, 13, 17, 19, 23, 25, 29, 31, 37, 41]
    assert any(f.fixed_orders == (2, 3, 11, 13) for f in fams)


def test_family_235_instances_coprime():
    f235 = next(
        f for f in enumerate_order_tuples() if f.fixed_orders == (2, 3, 5)
    )
    qs = [t[3] for t in f235.instances(200)]
    assert all(gcd(q, 30) == 1 for q in qs)
    assert qs[0] == 7 and 49 in qs and 77 in qs


# ---------------------------------------------------------------------------
# main candidate table
# ---------------------------------------------------------------------------


def test_table1_counts_and_fixture_match():
    report = table1_pipeline()
    assert report.stages == [("types", 1092), ("D_square", 24)]
    assert report.matches_fixture
    assert len(report.survivors) == 24
    per_tuple = report.details["per_tuple_types"]
    assert per_tuple["(2, 3, 7, 11)"] == 48  # 2 * 4 * 6
    assert per_tuple["(2, 3, 11, 13)"] == 84
    assert sum(v for k, v in per_tuple.items() if k != "(2, 3, 11, 13)") == 1008


def test_table1_reads_each_familys_own_order_bound(monkeypatch):
    # no cap of table1's own stops the scan short of a family's free_max
    real = enumeration.enumerate_order_tuples

    def wider():
        return [f._replace(free_max=43) if f.fixed_orders == (2, 3, 7) else f for f in real()]

    monkeypatch.setattr(enumeration, "enumerate_order_tuples", wider)
    per_tuple = table1_pipeline().details["per_tuple_types"]
    assert "(2, 3, 7, 43)" in per_tuple and "(2, 3, 11, 13)" in per_tuple


def test_table1_row_values():
    report = table1_pipeline()
    by_no = {s["no"]: s for s in report.survivors}
    assert by_no[1]["ks2"] == "1536/91" and by_no[1]["cmp"] == ">"
    assert by_no[2]["ks2"] == "6/133" and by_no[2]["cmp"] == "<"
    assert by_no[15]["ks2"] == "50/231"
    assert all(by_no[i]["cmp"] == ">" for i in range(1, 25) if i != 2)


def test_table1_survivors_canonically_serialized():
    report = table1_pipeline()
    blob1 = json.dumps(report.survivors, sort_keys=True)
    blob2 = json.dumps(table1_pipeline().survivors, sort_keys=True)
    assert blob1 == blob2


def test_stage_counts_weakly_decreasing():
    for report in (table1_pipeline(), lemma_q20_pipeline(), small_q_pipeline()):
        filter_stages = [c for n, c in report.stages if not n.startswith("cand")]
        assert all(a >= b for a, b in zip(filter_stages, filter_stages[1:]))


# ---------------------------------------------------------------------------
# low-rank scan
# ---------------------------------------------------------------------------


def test_q20_pipeline_counts():
    report = lemma_q20_pipeline()
    assert report.stages == [("cases", 126), ("D_square", 11), ("BMY", 4)]
    # the recomputed tally disagrees with the printed 42+80+6 = 128: the
    # first sub-case has 40 reversal classes, and the mismatch is surfaced
    assert report.details["case_tallies"] == [40, 80, 6]
    # no other mismatch: the 11 surviving rows and BMY rows all agree
    assert report.mismatches == [
        "q20: stage 'cases' computed 126, fixture 128",
        "q20: per-case tallies computed [40, 80, 6], fixture [42, 80, 6]",
    ]


def test_q20_survivor_rows():
    report = lemma_q20_pipeline()
    by_no = {s["no"]: s for s in report.survivors}
    assert len(by_no) == 11
    assert by_no[2]["ks2"] == "1/165" and by_no[2]["orders"] == [2, 3, 5, 22]
    assert by_no[4]["ks2"] == "8/645" and by_no[4]["orders"] == [2, 3, 5, 43]
    assert report.details["bmy_rows"] == [1, 2, 3, 4]


def test_q20_tallies_match_printed_shape_lists():
    # the derived multisets agree with the printed lists; only the
    # arrangement count of the first sub-case differs (42 vs 40)
    report = lemma_q20_pipeline()
    assert report.details["case_tallies"][1:] == [80, 6]


def test_q20_tallies_by_a_burnside_count():
    # the same trace windows as the pipeline, counted without enumerating
    tallies = []
    for p3 in enumeration._ORDER5_CHAINS:
        third = dp_data(p3)
        dp_sq = Fraction(-third.dp_dot_k_num, third.q)
        count = 0
        for l in range(1, 11 - 2 - p3.l + 1):
            tr_min, tr_max = enumeration._q20_trace_window(l, l + 2 + p3.l, dp_sq)
            count += sum(oracles.burnside_classes(l, tr) for tr in range(max(2 * l, tr_min), tr_max + 1))
        tallies.append(count)
    assert tallies == [40, 80, 6] and sum(tallies) == 126
    assert lemma_q20_pipeline().details["case_tallies"] == tallies


def test_q20_trace_window_holds_every_chain_its_bound_admits():
    # each (p3, l) window against its docstring: every fourth chain of
    # length l, traced three past either end, with 0 < K^2 <= 1/10 + 3/q in
    # Fraction sums has its trace in the window; chains sit at both ends, so
    # a window one narrower at either end fails
    head = [HjCf([2]), HjCf([3])]
    windows = checked = at_lo = at_hi = 0
    for p3 in enumeration._ORDER5_CHAINS:
        third = dp_data(p3)
        dp_sq = Fraction(-third.dp_dot_k_num, third.q)
        for l in range(1, 11 - 2 - p3.l + 1):
            windows += 1
            lo, hi = enumeration._q20_trace_window(l, l + 2 + p3.l, dp_sq)
            for tr in range(max(2 * l, lo - 3), hi + 4):
                for entries in oracles.shape_classes(l, tr):
                    cf = HjCf(entries)
                    ks2 = oracles.candidate_invariants([*head, p3, cf])[0]
                    checked += 1
                    if 0 < ks2 <= Fraction(1, 10) + Fraction(3, cf.q):
                        assert lo <= tr <= hi, (p3, cf, ks2)
                        at_lo += tr == lo
                        at_hi += tr == hi
    assert (windows, checked, at_lo, at_hi) == (20, 1_902, 9, 1)


def test_burnside_count_matches_a_plain_count():
    shapes = [(length, 2 * length + spare) for length in range(1, 7) for spare in range(7)]
    oracles.agree(
        lambda shape: oracles.burnside_classes(*shape),
        lambda shape: len(oracles.shape_classes(*shape)),
        shapes,
    )


# ---------------------------------------------------------------------------
# small fourth order
# ---------------------------------------------------------------------------


def test_small_q_pipeline():
    report = small_q_pipeline()
    stages = dict(report.stages)
    # exact recomputation yields 12 square-discriminant cases, not the 6
    # printed; the row [2]+[3]+[2,2,2,2]+[3,2] has D = 260, not a square
    assert stages["D_square"] == 12
    assert stages["BMY"] == 1
    assert any("row 3" in m for m in report.mismatches)
    bogus = candidate_invariants(["[2]", "[3]", "[2,2,2,2]", "[3,2]"])
    assert bogus.D == 260
    bmy_rows = [s for s in report.survivors if s["cmp"] == "<"]
    assert len(bmy_rows) == 1
    assert bmy_rows[0]["orders"] == [2, 3, 5, 9]
    assert bmy_rows[0]["no"] == 1
    # the recomputed values are pinned exactly, so that a new drift shows
    # as a failure of its own next to the documented erratum
    assert sorted(s["no"] for s in report.survivors if s.get("no")) == [1, 2, 4, 5, 6]
    assert report.mismatches == [
        "small-q: stage 'D_square' computed 12, fixture 6",
        "small-q: fixture row 3 [2]+[3]+[2,2,2,2]+[3,2] not produced by the scan",
        "small-q: computed survivor [2]+[3]+[3,2]+[2,4] (D=1024) absent from fixture",
        "small-q: computed survivor [2]+[3]+[2,2,2,2]+[2,5] (D=900) absent from fixture",
        "small-q: computed survivor [2]+[3]+[3,2]+[2,2,2,4] (D=1156) absent from fixture",
        "small-q: computed survivor [2]+[3]+[3,2]+[13] (D=5476) absent from fixture",
        "small-q: computed survivor [2]+[3]+[2,2,2,2]+[19] (D=10000) absent from fixture",
        "small-q: computed survivor [2]+[3]+[5]+[2,2,2,2,2,4] (D=1936) absent from fixture",
        "small-q: computed survivor [2]+[3]+[5]+[2,4,3] (D=4096) absent from fixture",
    ]


def test_small_q_extra_survivors_all_violate_bmy():
    report = small_q_pipeline()
    extra = [s for s in report.survivors if "no" not in s]
    assert len(extra) == 7
    assert all(s["cmp"] == ">" for s in extra)
    assert all(s["D_square"] for s in extra)


@pytest.mark.parametrize(
    ("sings", "ks2", "det_r"),
    [(["[2,2]", "[2,2]", "[2,2]"], "3", 27), (["[2,2,2,4]"], "81/13", 13)],
)
def test_scan_counts_a_candidate_on_the_bmy_bound(sings, ks2, det_r):
    # K^2 = 3 e_orb exactly: D = 81 = 3E, a square on the boundary of BMY
    cand = candidate_invariants(sings)
    assert (cand.D, 3 * cand.E, cand.det_r) == (81, 81, det_r)
    row = {"no": 1, "sings": sings, "ks2": ks2, "cmp": "<", "three_e_orb": ks2}
    fixture = {"stage_counts": {"BMY": 1}, "rows": [row], "bmy_rows": [1]}
    report = enumeration._scan("edge", fixture, [[dp_data(s) for s in sings]], "cases", bmy=True)
    assert report.stages == [("cases", 1), ("D_square", 1), ("BMY", 1)]
    assert [(s["cmp"], s["D"], s["three_e_orb"]) for s in report.survivors] == [("<", "81", ks2)]
    assert report.mismatches == []


@pytest.mark.parametrize(
    ("pipeline", "fetched", "cases"),
    # table1: its 133 chain classes; q20: [2], [3], the three order-5 points
    # and one shape chain per case; small-q: [2], [3], the three order-5
    # points and the 81 chains of order 2..19
    [
        (table1_pipeline, 133, 1_092),
        (lemma_q20_pipeline, 5 + 126, 126),
        (small_q_pipeline, 5 + 81, 240),
    ],
)
def test_scan_pipelines_fetch_each_record_where_they_build_the_chain(pipeline, fetched, cases):
    with oracles.recording(enumeration, "dp_data") as calls:
        report = pipeline()
    assert report.stages[0][1] == cases
    assert len(calls) == fetched


# ---------------------------------------------------------------------------
# the candidate-per-case scan as the oracle of _scan
# ---------------------------------------------------------------------------


def reports_of_both_scans(monkeypatch, pipeline) -> tuple[PipelineReport, PipelineReport]:
    """The pipeline's report through _scan, then through the candidate scan
    of oracles.py (given each case's records mapped back to their chains, as
    a list of lists, which it reads twice)."""
    got = pipeline()
    with monkeypatch.context() as m:
        m.setattr(
            enumeration, "_scan",
            lambda label, fixture, cases, *args, **kwargs: oracles.candidate_scan(
                label, fixture, [[s.cf for s in case] for case in cases], *args, **kwargs
            ),
        )
        want = pipeline()
    return got, want


@pytest.mark.parametrize("pipeline", [table1_pipeline, lemma_q20_pipeline, small_q_pipeline])
def test_scan_matches_the_candidate_per_case_scan(monkeypatch, pipeline):
    got, want = reports_of_both_scans(monkeypatch, pipeline)
    assert got == want
    assert got.survivors


@pytest.mark.parametrize(
    ("pipeline", "path", "value", "mismatch"),
    [
        (table1_pipeline, ("table1", "stage_counts", "D_square"), 23,
         "table1: stage 'D_square' computed 24, fixture 23"),
        (lemma_q20_pipeline, ("q20", "rows", 4, "sings"), ["[2]", "[3]", "[5]", "[2,2,2]"],
         "q20: fixture row 5 [2]+[3]+[5]+[2,2,2] not produced by the scan"),
        (lemma_q20_pipeline, ("q20", "bmy_rows"), [1, 2, 3],
         "q20: BMY survivors differ from fixture rows [1, 2, 3]"),
        (small_q_pipeline, ("small_q", "bmy_rows"), [1, 2],
         "small-q: BMY survivors differ from fixture rows [1, 2]"),
    ],
)
def test_scan_matches_the_candidate_per_case_scan_on_edited_tables(
    monkeypatch, tables, pipeline, path, value, mismatch
):
    tables.edit(path, value)
    got, want = reports_of_both_scans(monkeypatch, pipeline)
    assert got == want
    assert mismatch in got.mismatches


def _small_q_like_cases() -> list[list[HjCf]]:
    """[2], [3], an order-5 chain and every chain of order 2..30, with the
    same chain objects in many cases."""
    head = [HjCf([2]), HjCf([3])]
    order5 = [parse_cf(s) for s in ("[2,2,2,2]", "[3,2]", "[5]")]
    return [head + [t, cf] for q in range(2, 31) for cf in enumerate_cfs_of_order(q) for t in order5]


@pytest.mark.parametrize(
    "fixture",
    [{"stage_counts": {}, "rows": [], "bmy_rows": []}, load_fixtures()["small_q"]],
    ids=["empty", "small_q"],
)
def test_scan_matches_the_candidate_per_case_scan_on_synthetic_cases(fixture):
    cases = _small_q_like_cases()
    want = oracles.candidate_scan("synthetic", fixture, cases, "cases", bmy=True)
    assert want.stages[1][1] > 12 and want.stages[2][1] > 1
    # the records of the same chain objects, reused across cases
    records = [list(map(dp_data, case)) for case in cases]
    assert enumeration._scan("synthetic", fixture, records, "cases", bmy=True) == want
    # fresh chains for every case, their records fetched as the scan consumes them
    fresh = ([dp_data(HjCf(cf.entries)) for cf in case] for case in cases)
    assert enumeration._scan("synthetic", fixture, fresh, "cases", bmy=True) == want


# ---------------------------------------------------------------------------
# rationality eliminations
# ---------------------------------------------------------------------------


def test_l11_rationality_checks():
    report = l11_rationality_checks()
    assert report.matches_fixture
    assert report.stages == [("cases", 4), ("eliminated", 4)]
    by_case = {r["case"]: r for r in report.survivors}
    assert by_case[1]["agg_solutions"] == [[]]
    assert by_case[2]["m_bound"] == "1/2"
    assert by_case[2]["eliminated_by"] == "no_positive_m"
    assert by_case[3]["agg_solutions"] == [[[0, 1, 27], [1, 1, 16], [2, 1, 5]]]
    assert by_case[3]["quad_bound"] == "111/110"
    assert by_case[3]["surviving_realizations"] == 0
    assert by_case[4]["targets"] == ["647/645", "649/645"]
    assert by_case[4]["component_solutions"] == [[], []]


def test_l11_calls_the_builders_through_the_module():
    # the benchmark's tracer and dioph census wrap the module's builders;
    # the wrapped run must call them and report what the plain run does
    want = l11_rationality_checks()
    with oracles.recording(enumeration, "aggregated_problem") as aggregated:
        with oracles.recording(enumeration, "component_problem") as component:
            got = l11_rationality_checks()
    assert (got.survivors, got.mismatches, got.stages) == (
        want.survivors, want.mismatches, want.stages,
    )
    # one aggregated problem per target of cases 1, 3 and 4; the component
    # equation for cases 3 and 4, and its quadratic filter for case 3
    assert len(aggregated) == 4
    assert len(component) == 4


def test_l11_solves_each_problem_once():
    with oracles.recording(enumeration, "solve_dioph") as calls:
        assert l11_rationality_checks().matches_fixture
    problems = [args[0] for args, _ in calls]
    assert len(set(problems)) == len(problems) == 8
    assert not any(p.group_constraints for p in problems)


def test_quadratic_filter_agrees_with_the_grouped_searches():
    # l11's four candidates at m = 1..3, at their own targets and at seeded
    # points of the one-variable-per-chain lattice, which have solutions
    rng = random.Random(2020)
    rows = {row["no"]: row for row in load_fixtures()["q20"]["rows"]}
    points = []
    for case in load_fixtures()["l11_cases"]:
        cand = candidate_invariants(list(rows[case["row"]]["sings"]), c=case["c"])
        steps = aggregated_problem(cand, Fraction(1))[0].coeffs
        sqrt_dp = rational_sqrt(cand.d_prime)
        for m in (1, 2, 3):
            targets = [1 + Fraction(m) / sqrt_dp * cand.ks2]
            while len(targets) < 6:
                point = sum(step * rng.randrange(int(2 / step) + 1) for step in steps)
                if 0 < point <= 2:
                    targets.append(point)
            points += [(cand, [m], [target]) for target in targets]

    def quadratic_filter(cand, m_values, targets):
        agg = [(p, solve_dioph(p)) for p in [aggregated_problem(cand, targets[0])[0]]]
        return enumeration._quadratic_filter(cand, m_values, targets, agg)

    verdicts = [quadratic_filter(*point) is None for point in points]
    assert 0 < sum(verdicts) < len(verdicts)
    oracles.agree(
        lambda point: quadratic_filter(*point), lambda point: oracles.quadratic_filter(*point), points
    )


# ---------------------------------------------------------------------------
# minimal-curve pipelines
# ---------------------------------------------------------------------------


def test_step5_pipeline():
    report = step5_pipeline()
    assert report.matches_fixture
    stages = dict(report.stages)
    assert stages["cases [5]"] == 11
    assert stages["cases [2,3]"] == 16
    assert stages["cases [2,2,2,2]"] == 11
    assert stages["survivors [5]"] == 0
    assert stages["survivors [2,3]"] == 0
    assert stages["survivors [2,2,2,2]"] == 0


def test_step5_filters_are_all_needed():
    report = step5_pipeline()
    for sub in report.details["sub_cases"]:
        assert all(not case["passes_all"] for case in sub["cases"])
    # the [5] sub-case contains the order-9 chain killed only by the gcd test
    sub5 = next(s for s in report.details["sub_cases"] if s["p3"] == "[5]")
    a8 = next(c for c in sub5["cases"] if c["cf"] == "[2,2,2,2,2,2,2,2]")
    assert a8["q"] == 9 and a8["D"] == "36"


def test_step6_classification():
    report = step6_classification()
    assert report.matches_fixture
    rules = report.details["rules"]
    assert rules["A"] == [1, 2, 3, 4, 6, 8, 9, 11, 12, 13, 17, 19]
    assert rules["B"] == [7, 10, 14, 16, 18]
    assert rules["C"] == [5, 20, 21, 22]
    assert rules["residual"] == [15, 23, 24]
    assert report.details["case24"] == {
        "eliminated_by": "L_violation",
        "L": 10,
        "required": 11,
    }


def test_step6_case15_sweep_values():
    report = step6_classification()
    branches = report.details["case15"]["branches"]
    ms = {b.get("m") for b in branches if b["outcome"] == "non_integer"}
    assert ms == {"27/5", "13/5", "34/5", "49/5", "16/5"}
    negatives = {b["value"] for b in branches if b["outcome"] == "negative"}
    assert "-17/231" in negatives
    geometric = [b for b in branches if b["outcome"] == "geometric"]
    assert len(geometric) == 1 and geometric[0]["m"] == "11"


def test_residual_sweep_calls_a_half_integral_m_non_integer():
    # a synthetic residual row, L = 10, D = 256 = 16^2: the branch A, B3, C6
    # meets curves of self-intersection -2, -3, -3 (sum L - 2) and has
    # value 1 - degree = 12/217 > 0, so m = value * det R / sqrt(D) = 3/2
    cand = candidate_invariants(["[2]", "[2,2,3]", "[2,3,2,2,2,3]"])
    assert (cand.L, cand.D, cand.det_r) == (10, 256, 434)
    sweep = enumeration._residual_sweep(cand)
    assert sweep["branches"] == [
        {"meets": ["A", "B3", "C2"], "value": "-16/217", "outcome": "negative"},
        {"meets": ["A", "B3", "C6"], "value": "12/217", "outcome": "non_integer", "m": "3/2"},
    ]
    assert Fraction(12, 217) * cand.det_r / 16 == Fraction(3, 2)


def test_dp3_triples_are_the_spherical_triples_less_the_2_2_k_family():
    # every sorted triple of entries up to 12, against 1/a + 1/b + 1/c > 1
    # in Fractions and the named exclusion (2, 2, k >= 3)
    for a, b, c in combinations_with_replacement(range(2, 13), 3):
        spherical = Fraction(1, a) + Fraction(1, b) + Fraction(1, c) > 1
        excluded = (a, b) == (2, 2) and c >= 3
        assert ((a, b, c) in enumeration._DP3_TRIPLES) == (spherical and not excluded), (a, b, c)
    assert enumeration._DP3_TRIPLES == {(2, 2, 2), (2, 3, 3), (2, 3, 4), (2, 3, 5)}


def test_classify_row_follows_its_rules_in_order():
    # rules A (an entry >= 6), B (a chain with two entries >= 3) and C (two
    # entries >= 4 in the row), tried in that order, on every one-chain row
    # of length <= 6 and every two-chain row of chains of length <= 2, with
    # entries 2..7
    chains = [ent for l in range(1, 7) for ent in product(range(2, 8), repeat=l)]
    short = [ent for ent in chains if len(ent) <= 2]
    rows = [(ent,) for ent in chains] + list(product(short, repeat=2))
    labels = Counter()
    for row in rows:
        label = enumeration._classify_row([HjCf(ent) for ent in row])
        assert label == oracles.classify_row(row), row
        labels[label] += 1
    assert set(labels) == {"A", "B", "C", "residual"}


def test_step5_shapes_follow_their_docstring():
    # every length up to 9 and every met component -2 .. -7, wider than the
    # bundled sub-cases (l <= 9, nj <= 5)
    for l in range(1, 10):
        for nj in range(2, 8):
            assert enumeration._step5_shapes(l, nj) == oracles.step5_shapes(l, nj), (l, nj)


def test_residual_sweep_leaves_out_the_2_2_k_family():
    # a synthetic residual row, L = 9, D = 64 = 8^2: the triples of three
    # chains with sum L - 2 = 7 all meet -2, -2, -3 (the chain D's -3 and two
    # -2s), so the sweep admits no branch and the row fails on L; were
    # (2, 2, 3) admitted, each would be a geometric branch with m = 10
    cand = candidate_invariants(["[2]", "[2]", "[2,2,2]", "[2,2,2,3]"])
    assert (cand.L, cand.D) == (9, 64)
    assert enumeration._classify_row([c.cf for c in cand.sings]) == "residual"
    assert enumeration._residual_sweep(cand) == {
        "eliminated_by": "L_violation", "L": 9, "required": 8,
    }


def test_step6_case23_sweep_values():
    report = step6_classification()
    branches = report.details["case23"]["branches"]
    assert all(b["outcome"] in ("negative", "geometric") for b in branches)
    negatives = {b["value"] for b in branches if b["outcome"] == "negative"}
    assert {"-17/429", "-10/143"} <= negatives


# ---------------------------------------------------------------------------
# order-3 singularity scan
# ---------------------------------------------------------------------------


def test_noA2_scan_small():
    report = noA2_scan(60)
    assert report.matches_fixture
    stages = dict(report.stages)
    assert stages["D_square"] == 0
    assert stages["candidates"] == 3 * stages["cfs"]
    assert report.details["mod3_witness_ok"]


def test_noA2_example_row():
    # the order-7 single-curve chain with the A4 third singularity
    from qhpp.ratio import is_positive_square

    cand = candidate_invariants(["[2]", "[2,2]", "[2,2,2,2]", "[7]"])
    assert cand.D == 960
    assert not is_positive_square(cand.D)


def test_noA2_validates_cap():
    with pytest.raises(ValueError):
        noA2_scan(5)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_run_pipeline_dispatch():
    assert run_pipeline("step5").pipeline == "step5"
    assert run_pipeline("noA2", cap=60).details["q_cap"] == 60
    with pytest.raises(ValueError):
        run_pipeline("bogus")
    with pytest.raises(ValueError, match="noA2 pipeline only"):
        run_pipeline("table1", cap=7)
    with pytest.raises(ValueError, match="q_cap must be at least 7"):
        run_pipeline("noA2", cap=0)


def test_report_json_round_trip():
    report = table1_pipeline()
    blob = json.dumps(report.to_dict(), sort_keys=True)
    assert json.loads(blob)["matches_fixture"] is True


def test_lemma24_fixture_values():
    from qhpp.obstruction import DiophProblem, m_upper_bound, solve_dioph
    from qhpp.ratio import format_rational, parse_rational, rational_sqrt

    fx = load_fixtures()["lemma24"]
    cand = candidate_invariants(list(fx["sings"]))
    assert format_rational(cand.ks2) == fx["ks2"]
    assert format_rational(cand.D) == fx["D"]
    assert cand.L == fx["L"]
    assert format_rational(m_upper_bound(cand.d_prime, cand.L)) == fx["m_bound"]
    # the degree target for the forced m = 1 curve
    assert 1 + cand.ks2 / rational_sqrt(cand.D) == parse_rational(fx["target"])
    prob = DiophProblem(
        tuple(parse_rational(c) for c in fx["coeffs"]), parse_rational(fx["target"])
    )
    assert [list(s) for s in solve_dioph(prob)] == fx["solutions"]


def test_coeff_tables_check():
    from qhpp.checks import check_coeff_tables

    result = check_coeff_tables()
    assert result.ok, result.detail


def test_fixture_override_env(tables):
    tables.edit(("table1", "stage_counts", "types"), 999)
    report = table1_pipeline()
    assert any("999" in m for m in report.mismatches)
