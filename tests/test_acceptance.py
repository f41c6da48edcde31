"""Acceptance suite: one test per criterion, exact equality throughout.

Every expected value is either recomputed through an independent oracle in
the module tests or transcribed into the bundled reference tables.  Two
criteria assert printed values that exact recomputation contradicts (the
126-vs-128 case tally of the low-rank scan and the six-row small-order
table); those tests state the required value faithfully and fail, with the
recomputed value in the failure message.  See the pipeline reports for the
cell-level diffs.
"""

from fractions import Fraction

from qhpp import checks
from qhpp.enumeration import (
    l11_rationality_checks,
    lemma_q20_pipeline,
    noA2_scan,
    small_q_pipeline,
    step5_pipeline,
    step6_classification,
    table1_pipeline,
)
from qhpp.obstruction import DiophProblem, solve_dioph
from qhpp.surface import GramConfig, candidate_invariants, gram_determinant


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_table1_reproduction():
    report = table1_pipeline()
    problems = []
    if report.stages != [("types", 1092), ("D_square", 24)]:
        problems.append(f"stage counts {report.stages}")
    problems.extend(report.mismatches)
    by_no = {s.get("no"): s for s in report.survivors}
    if by_no.get(1, {}).get("ks2") != "1536/91":
        problems.append("row 1 ks2")
    if by_no.get(2, {}).get("ks2") != "6/133" or by_no.get(2, {}).get("cmp") != "<":
        problems.append("row 2")
    if not all(by_no.get(i, {}).get("cmp") == ">" for i in range(1, 25) if i != 2):
        problems.append("comparison directions")
    _report(1, not problems, "table1 stage counts (1092, 24) and 24 exact rows")
    assert not problems, problems


def test_criterion_02_discriminant_spot_checks():
    d1 = candidate_invariants(["[2]", "[2,2]", "[7]", "[13]"]).D
    d2 = candidate_invariants(["[2]", "[2,2]", "[7]", "[3,2,2,2,2,2,2,2,2]"]).D
    ok = d1 == 9216 == 96 * 96 and d2 == 36
    _report(2, ok, f"D(row 1) = {d1} = 96^2, D(row 2) = {d2}")
    assert ok


def test_criterion_03_q20_pipeline():
    report = lemma_q20_pipeline()
    problems = []
    if report.stages != [("cases", 128), ("D_square", 11), ("BMY", 4)]:
        problems.append(
            f"stage counts computed {report.stages}, required (128, 11, 4); "
            f"recomputed sub-tallies {report.details['case_tallies']} "
            "(the first sub-case has 40 reversal classes, not 42)"
        )
    by_no = {s.get("no"): s for s in report.survivors}
    if len(report.survivors) != 11 or set(by_no) != set(range(1, 12)):
        problems.append(f"{len(report.survivors)} surviving rows")
    row4 = by_no.get(4, {})
    if row4.get("ks2") != "8/645" or row4.get("orders", [None])[-1] != 43:
        problems.append("row 4 values")
    if report.details.get("bmy_rows") != [1, 2, 3, 4]:
        problems.append(f"BMY rows {report.details.get('bmy_rows')}")
    _report(3, not problems, "q20 stage counts (128, 11, 4), 11 rows, BMY rows 1-4")
    assert not problems, problems


def test_criterion_04_small_q_pipeline():
    report = small_q_pipeline()
    problems = []
    stages = dict(report.stages)
    matched = [s for s in report.survivors if s.get("no")]
    if stages.get("D_square") != 6 or len(matched) != 6 or report.mismatches:
        extra = [s for s in report.survivors if not s.get("no")]
        problems.append(
            f"exact recomputation finds {stages.get('D_square')} square-D rows, "
            f"required exactly the 6 reference rows; reference row 3 has "
            "D = 260 (not a square) and the scan finds "
            f"{len(extra)} further square-D cases, all failing BMY"
        )
    bmy = [s for s in report.survivors if s["cmp"] == "<"]
    if stages.get("BMY") != 1 or len(bmy) != 1 or bmy[0]["orders"] != [2, 3, 5, 9]:
        problems.append("BMY survivor is not exactly the order-9 row")
    _report(4, not problems, "small-q: 6 reference rows, 1 BMY survivor (q=9)")
    assert not problems, problems


def test_criterion_05_rationality_eliminations():
    report = l11_rationality_checks()
    by_case = {r["case"]: r for r in report.survivors}
    problems = []
    if by_case[1]["agg_solutions"] != [[]]:
        problems.append("case 1 solutions")
    if by_case[2]["m_bound"] != "1/2" or by_case[2]["eliminated_by"] != "no_positive_m":
        problems.append("case 2 bound")
    c3 = by_case[3]
    if c3["agg_solutions"] != [[[0, 1, 27], [1, 1, 16], [2, 1, 5]]]:
        problems.append("case 3 solutions")
    if c3["quad_bound"] != "111/110" or c3["surviving_realizations"] != 0:
        problems.append("case 3 quadratic filter")
    c4 = by_case[4]
    if c4["targets"] != ["647/645", "649/645"] or c4["component_solutions"] != [[], []]:
        problems.append("case 4 targets")
    problems.extend(report.mismatches)
    _report(5, not problems, "four rationality eliminations, exact values")
    assert not problems, problems


def test_criterion_06_lemma24_equation():
    sols = solve_dioph(
        DiophProblem((Fraction(5, 7), Fraction(1, 19)), Fraction(134, 133))
    )
    _report(6, sols == [], "5x/7 + y/19 = 134/133 has no solution")
    assert sols == []


def test_criterion_07_gram_determinants():
    star = gram_determinant(
        GramConfig((-1, -2, -3, -5), {(0, 1): 1, (0, 2): 1, (0, 3): 1})
    )
    chain = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (3, 4): 1}
    a4_end = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (3, 4): 1, (4, 5): 1, (5, 6): 1}
    a4_mid = {(0, 1): 1, (0, 2): 1, (0, 4): 1, (3, 4): 1, (4, 5): 1, (5, 6): 1}
    dets = (
        abs(gram_determinant(GramConfig((-1, -2, -3, -2, -3), chain))),
        abs(gram_determinant(GramConfig((-1, -2, -3, -3, -2), chain))),
        abs(gram_determinant(GramConfig((-1, -2, -3, -2, -2, -2, -2), a4_end))),
        abs(gram_determinant(GramConfig((-1, -2, -3, -2, -2, -2, -2), a4_mid))),
    )
    ok = star == -1 and dets == (13, 7, 19, 31)
    _report(7, ok, f"star det {star}, four configurations |det| = {dets}")
    assert ok


def test_criterion_08_step5_tallies_and_survivors():
    report = step5_pipeline()
    stages = dict(report.stages)
    tallies = (
        stages.get("cases [5]"),
        stages.get("cases [2,3]"),
        stages.get("cases [2,2,2,2]"),
    )
    survivors = (
        stages.get("survivors [5]"),
        stages.get("survivors [2,3]"),
        stages.get("survivors [2,2,2,2]"),
    )
    ok = tallies == (11, 16, 11) and survivors == (0, 0, 0) and report.matches_fixture
    _report(8, ok, f"step5 tallies {tallies}, survivors {survivors}")
    assert ok, (tallies, survivors, report.mismatches)


def test_criterion_09_step6_residual_checks():
    report = step6_classification()
    problems = []
    problems.extend(report.mismatches)
    if report.details["case24"] != {"eliminated_by": "L_violation", "L": 10, "required": 11}:
        problems.append("case 24")
    case15 = report.details["case15"]["branches"]
    ms = sorted(b["m"] for b in case15 if b["outcome"] == "non_integer")
    if ms != sorted(["27/5", "13/5", "34/5", "49/5", "16/5"]):
        problems.append(f"case 15 non-integer set {ms}")
    if "-17/231" not in {b["value"] for b in case15 if b["outcome"] == "negative"}:
        problems.append("case 15 negative branch")
    if sum(1 for b in case15 if b["outcome"] == "geometric") != 1:
        problems.append("case 15 geometric branch")
    case23 = report.details["case23"]["branches"]
    if not all(b["outcome"] in ("negative", "geometric") for b in case23):
        problems.append("case 23 outcomes")
    cand15 = candidate_invariants(["[2]", "[3]", "[3,2,2]", "[3,2,2,2,2]"])
    if cand15.ks2 != Fraction(50, 231) or cand15.D != 100:
        problems.append("case 15 constants")
    _report(9, not problems, "step6 residual rows 15/23/24, exact rejection data")
    assert not problems, problems


def test_criterion_10_property_suites():
    results = [
        checks.check_cf_identities(200),
        checks.check_uv_inequalities(200, n_random=10_000),
        checks.check_mod3(200),
        checks.check_dp_closed_form(200),
        checks.check_esq_identity(n_random=10_000),
        checks.check_dioph_oracle(n_random=1_000),
    ]
    failed = [r.name for r in results if not r.ok]
    _report(10, not failed, "identity and oracle suites at full size")
    assert not failed, failed


def test_criterion_11_noA2_scan_500():
    report = noA2_scan(500)
    stages = dict(report.stages)
    ok = (
        stages["D_square"] == 0
        and report.details["mod3_witness_ok"]
        and report.matches_fixture
    )
    _report(11, ok, f"noA2(500): {stages['candidates']} candidates, 0 square D")
    assert ok, report.mismatches
