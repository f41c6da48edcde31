"""Candidate-enumeration pipelines with golden-table diffing.

Each pipeline rederives a case analysis from scratch (order-tuple families,
chain enumeration, discriminant and BMY filters, curve-class sweeps) and
diffs the outcome against the bundled reference tables.  Mismatches are
reported cell by cell, never suppressed; a report "matches" only when every
recomputed value agrees with the reference data.

All pipelines are deterministic: candidates are generated in a fixed order
and survivors are sorted canonically, so repeated runs produce identical
reports.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import NamedTuple

from .fixtures import load_fixtures
from .hjcf import (
    HjCf,
    _dual_pairs,
    cf_from_pair,
    enumerate_cfs_by_shape,
    enumerate_cfs_of_order,
    parse_cf,
)
from .obstruction import (
    Incidence,
    aggregated_problem,
    component_problem,
    m_upper_bound,
    minimal_curve_m,
    solve_dioph,
)
from .ratio import format_rational, is_positive_square, rational_sqrt
from .surface import (
    CyclicSing,
    SurfaceCandidate,
    _det_and_d,
    candidate_invariants,
    candidate_to_dict,
    dp_data,
)

__all__ = [
    "OrderTupleFamily",
    "PipelineReport",
    "enumerate_order_tuples",
    "table1_pipeline",
    "noA2_scan",
    "lemma_q20_pipeline",
    "small_q_pipeline",
    "l11_rationality_checks",
    "step5_pipeline",
    "step6_classification",
    "PIPELINES",
    "run_pipeline",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class PipelineReport:
    """Outcome of one pipeline: stage counts, survivors, and fixture diff."""

    def __init__(self, pipeline: str) -> None:
        self.pipeline = pipeline
        self.stages: list[tuple[str, int]] = []
        self.survivors: list[dict] = []
        self.details: dict = {}
        self.mismatches: list[str] = []

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"PipelineReport({vars(self)})"

    @property
    def matches_fixture(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "stages": [[name, count] for name, count in self.stages],
            "survivors": self.survivors,
            "details": self.details,
            "mismatches": self.mismatches,
            "matches_fixture": self.matches_fixture,
        }


def _chains_key(cfs: list[HjCf]) -> tuple:
    """A candidate's identity: its sorted orders and sorted canonical chains."""
    return (
        tuple(sorted(cf.q for cf in cfs)),
        tuple(sorted(cf.canonical().entries for cf in cfs)),
    )


def _survivor_dict(cand: SurfaceCandidate) -> dict:
    d = candidate_to_dict(cand)
    d["cmp"] = "<" if cand.D <= 3 * cand.E else ">"
    return d


def _expect(report: PipelineReport, label: str, what: str, got, want) -> None:
    """Record a mismatch when a recomputed value differs from the fixture."""
    if got != want:
        report.mismatches.append(f"{label}: {what} computed {got}, fixture {want}")


def _diff_rows(
    computed: dict[tuple, SurfaceCandidate],
    fixture_rows: list[dict],
    report: PipelineReport,
    label: str,
) -> list[dict]:
    """Diff computed survivors against fixture rows; returns survivor dicts.

    Survivor dicts carry the fixture row number under "no" when matched.
    A row's ``orders`` (table1) or ``q`` (the fourth order, in the other
    scans) is diffed where the row records it.
    """
    dicts = {key: _survivor_dict(cand) for key, cand in computed.items()}
    for row in fixture_rows:
        d = dicts.get(_chains_key([parse_cf(s) for s in row["sings"]]))
        if d is None:
            report.mismatches.append(
                f"{label}: fixture row {row['no']} {'+'.join(row['sings'])} "
                "not produced by the scan"
            )
            continue
        d["no"] = row["no"]
        cells = {**d, "q": d["orders"][-1]}
        for what, col in (
            ("ks2", "ks2"), ("cmp", "cmp"), ("3*e_orb", "three_e_orb"), ("orders", "orders"), ("q", "q"),
        ):
            if col in row:
                _expect(report, label, f"row {row['no']} {what}", cells[col], row[col])
    out = []
    for key in sorted(dicts):
        d = dicts[key]
        if "no" not in d:
            report.mismatches.append(
                f"{label}: computed survivor {'+'.join(d['sings'])} "
                f"(D={d['D']}) absent from fixture"
            )
        out.append(d)
    out.sort(key=lambda d: (d.get("no") is None, d.get("no", 0), d["sings"]))
    return out


def _scan(
    label: str,
    fixture: dict,
    cases: Iterable[Sequence[HjCf]],
    first: str,
    bmy: bool = False,
    extras: tuple[tuple[str, object, object], ...] = (),
) -> PipelineReport:
    """Shared engine of the candidate scans: D of every case, the square-D
    filter, optionally the BMY filter, then the fixture diff.

    ``cases`` is any iterable of chain lists, counted as it is consumed.  D
    is tested in integers from each chain's ``dp_data`` record, fetched once
    per distinct chain in the scan, so that only a case whose D is a
    positive square becomes a candidate.

    Mismatches come in a fixed order: stage counts, the ``(what, got, want)``
    extras, the row diff, and the BMY rows.
    """
    report = PipelineReport(label)
    records: dict[tuple[int, ...], CyclicSing] = {}
    square: dict[tuple, SurfaceCandidate] = {}
    n_cases = 0
    for case in cases:
        n_cases += 1
        data = []
        for cf in case:
            s = records.get(cf.entries)
            if s is None:
                s = records[cf.entries] = dp_data(cf)
            data.append(s)
        if is_positive_square(_det_and_d(data)[1]):
            square[_chains_key(case)] = candidate_invariants(case)
    report.stages = [(first, n_cases), ("D_square", len(square))]
    if bmy:
        survivors_bmy = {k for k, c in square.items() if c.D <= 3 * c.E}
        report.stages.append(("BMY", len(survivors_bmy)))
    counts = fixture["stage_counts"]
    for name, count in report.stages:
        if name in counts:
            _expect(report, label, f"stage '{name}'", count, counts[name])
    for what, got, want in extras:
        _expect(report, label, what, got, want)
    report.survivors = _diff_rows(square, fixture["rows"], report, label)
    if bmy:
        fixture_bmy = {
            _chains_key([parse_cf(s) for s in row["sings"]])
            for row in fixture["rows"]
            if row["no"] in fixture["bmy_rows"]
        }
        if survivors_bmy != fixture_bmy:
            report.mismatches.append(
                f"{label}: BMY survivors differ from fixture rows {fixture['bmy_rows']}"
            )
    return report


# ---------------------------------------------------------------------------
# order-tuple families
# ---------------------------------------------------------------------------


class OrderTupleFamily(NamedTuple):
    """Pairwise-coprime order tuples (a, b, c, q) with e_orb >= 0.

    ``free_max`` is None for the family whose fourth order is unbounded; the
    fourth order always satisfies gcd(q, coprime_modulus) = 1.
    """

    fixed_orders: tuple[int, ...]
    free_min: int | None = None
    free_max: int | None = None
    coprime_modulus: int | None = None

    def instances(self, cap: int) -> list[tuple[int, ...]]:
        if self.free_min is None:
            return [self.fixed_orders]
        top = cap if self.free_max is None else min(cap, self.free_max)
        return [
            self.fixed_orders + (q,)
            for q in range(self.free_min, top + 1)
            if gcd(q, self.coprime_modulus) == 1
        ]


def enumerate_order_tuples() -> list[OrderTupleFamily]:
    """Derive every family of pairwise-coprime order 4-tuples with e_orb >= 0.

    Exhausts triples a < b < c and closes each off with the admissible range
    of fourth orders d: e_orb >= 0 reads 1/d >= 1 - 1/a - 1/b - 1/c.  The
    test is in integers.  With m = abc and gap = m - ab - bc - ca, the right
    side is gap/m, so any d is admissible when gap <= 0, and otherwise
    d <= d_max = m // gap.  The search bounds are generous: four distinct
    reciprocals from 5 upwards sum below 1, so a <= 4, and any valid triple
    needs 1/a + 1/b + 2/c >= 1, putting c well under 60.

    The c loop stops at the first coprime c with d_max <= c, which admits no
    d > c.  The stop is sound because gap/m = 1 - 1/a - 1/b - 1/c grows with
    c: it stays positive and d_max cannot grow, so no larger c admits a d
    above it either.
    """
    families: list[OrderTupleFamily] = []
    for a in range(2, 5):
        for b in range(a + 1, 31):
            if gcd(a, b) != 1:
                continue
            for c in range(b + 1, 61):
                if gcd(c, a) != 1 or gcd(c, b) != 1:
                    continue
                modulus = a * b * c
                gap = modulus - a * b - b * c - c * a
                if gap <= 0:
                    free_min = next(
                        q for q in range(c + 1, 10 * modulus) if gcd(q, modulus) == 1
                    )
                    families.append(
                        OrderTupleFamily(
                            (a, b, c), free_min, None, modulus
                        )
                    )
                    continue
                d_max = modulus // gap
                if d_max <= c:
                    break
                ds = [
                    q for q in range(c + 1, d_max + 1) if gcd(q, modulus) == 1
                ]
                if not ds:
                    continue
                if len(ds) == 1:
                    families.append(OrderTupleFamily((a, b, c, ds[0])))
                else:
                    families.append(
                        OrderTupleFamily((a, b, c), ds[0], ds[-1], modulus)
                    )
    return families


# ---------------------------------------------------------------------------
# main candidate table (orders (2,3,7,q) and (2,3,11,13))
# ---------------------------------------------------------------------------


def table1_pipeline() -> PipelineReport:
    """Enumerate all chain types over the two bounded order families and keep
    the candidates whose discriminant D = det(R) * K^2 is a positive square."""
    families = enumerate_order_tuples()
    bounded = [f for f in families if f.free_max is not None or f.free_min is None]
    tuples = sorted(t for fam in bounded for t in fam.instances(41))
    classes = {q: enumerate_cfs_of_order(q) for q in set().union(*tuples)}
    per_tuple = {
        str(orders): math.prod(len(classes[q]) for q in orders) for orders in tuples
    }
    combos = (
        cfs for orders in tuples for cfs in product(*(classes[q] for q in orders))
    )

    report = _scan("table1", load_fixtures()["table1"], combos, "types")
    report.details["per_tuple_types"] = per_tuple
    return report


# ---------------------------------------------------------------------------
# order-3 singularity obstruction scan (families (2, 3, 5, q))
# ---------------------------------------------------------------------------


# the three chains of order 5, at the third singularity of (2, 3, 5, q)
_ORDER5_CHAINS = (HjCf([2, 2, 2, 2]), HjCf([3, 2]), HjCf([5]))

# The largest order cap the noA2 scan accepts.  The scan grows a little
# faster than the square of its cap (about 0.019, 0.072, 0.30 and 11.9 s at
# caps 500, 1000, 2000 and 12,000 on a 2-vCPU host with Python 3.11, the
# medians of three runs of perfbench/scaling.py), and the witness it
# re-checks is proved for every order, so a larger cap would only run
# longer.
NOA2_CAP_CEILING = 12_000


def _check_q_cap(q_cap: int) -> None:
    """Reject a noA2 order cap below 7 or above NOA2_CAP_CEILING."""
    if q_cap < 7:
        raise ValueError("q_cap must be at least 7")
    if q_cap > NOA2_CAP_CEILING:
        raise ValueError(f"q_cap must be at most {NOA2_CAP_CEILING:,}, got {q_cap:,}")


def noA2_scan(q_cap: int = 500) -> PipelineReport:
    """Show the order-3 singularity cannot be a chain [2,2] in any (2,3,5,q)
    candidate: for every chain of order q <= q_cap with gcd(q, 30) = 1 and
    every order-5 third singularity, D is never a positive square.

    D is evaluated through the three closed-form integer expressions (one per
    third singularity); the scan also records the mod-3 witness: each closed
    form is nonzero mod 3 because q1 + ql + trace*q is divisible by 3 exactly
    when q is not (and here 3 never divides q), so D has 3-adic valuation 1
    and cannot be a square.

    The witness is not limited to the cap.  With S = 12·q·s(q1, q), the
    Dedekind sum in continued-fraction form, S = q1 + ql + (trace - 3l)·q, so
    the forms are S + 2, 5S + 12q + 10 and 5S + 24q + 10.  S is divisible by
    3 whenever 3 does not divide q (Rademacher-Grosswald), which makes the
    forms 2, 1 and 1 mod 3 for every q prime to 30: the scan checks a
    statement proved for all orders, and the cap bounds only how far it is
    re-checked.

    The forms need only q1, ql, the trace and the length of each chain, so
    the scan walks integers instead of chains: ``_dual_pairs`` yields one
    (q1, ql, trace, length) per class and its dual (q - ql, q - q1), from one
    Euclid pass at q1 in which ql is the order of the prefix [n1..n(l-1)],
    so no modular inverse is computed.  The dual has S' = -S, as
    s(q - ql, q) = -s(ql, q) = -s(q1, q), and a trace criterion -1 times
    this one mod 3; it is tested after the class unless it is self-dual.
    Only a chain that fails a check is built, to name it in the report;
    failures keep the order of a scan over the canonical chains of each q.
    """
    _check_q_cap(q_cap)
    report = PipelineReport("noA2")
    n_cfs = 0
    squares: list[str] = []
    witness_failures: list[str] = []

    for q in range(7, q_cap + 1):
        if gcd(q, 30) != 1:
            continue
        failed = []
        q12 = 12 * q
        for q1, ql, tr, l in _dual_pairs(q):
            s = q1 + ql + (tr - 3 * l) * q
            trace_bad = (q1 + ql + tr * q) % 3 != 0
            # the class, then its dual (q - ql) with -S unless it is
            # self-dual; three direct calls through the module name each, as
            # the tracer counts the square tests at that name and a call from
            # Python code to a Python function skips the C call path of map
            n_cfs += 1
            x_a4 = s + 2
            x_52 = 5 * s + q12 + 10
            x_51 = x_52 + q12
            hit_a4 = is_positive_square(30 * x_a4)
            hit_52 = is_positive_square(6 * x_52)
            hit_51 = is_positive_square(6 * x_51)
            form_bad = x_a4 % 3 == 0 or x_52 % 3 == 0 or x_51 % 3 == 0
            if hit_a4 or hit_52 or hit_51 or trace_bad or form_bad:
                ds, hits = (30 * x_a4, 6 * x_52, 6 * x_51), (hit_a4, hit_52, hit_51)
                failed.append((cf_from_pair(q, q1).canonical(), ds, hits, trace_bad, form_bad))
            if q - ql == q1:
                continue
            n_cfs += 1
            x_a4 = 2 - s
            x_52 = q12 + 10 - 5 * s
            x_51 = x_52 + q12
            hit_a4 = is_positive_square(30 * x_a4)
            hit_52 = is_positive_square(6 * x_52)
            hit_51 = is_positive_square(6 * x_51)
            form_bad = x_a4 % 3 == 0 or x_52 % 3 == 0 or x_51 % 3 == 0
            if hit_a4 or hit_52 or hit_51 or trace_bad or form_bad:
                ds, hits = (30 * x_a4, 6 * x_52, 6 * x_51), (hit_a4, hit_52, hit_51)
                failed.append((cf_from_pair(q, q - ql).canonical(), ds, hits, trace_bad, form_bad))
        failed.sort(key=lambda f: f[0].entries)
        for cf, ds, hits, trace_bad, form_bad in failed:
            squares.extend(
                f"q={q} cf={cf} third={name} D={d}"
                for name, d, hit in zip(_ORDER5_CHAINS, ds, hits)
                if hit
            )
            if trace_bad:
                witness_failures.append(f"q={q} cf={cf}: trace criterion nonzero mod 3")
            if form_bad:
                witness_failures.append(f"q={q} cf={cf}: some closed form divisible by 3")

    report.stages = [
        ("cfs", n_cfs),
        ("candidates", 3 * n_cfs),
        ("D_square", len(squares)),
    ]
    report.details["q_cap"] = q_cap
    report.details["mod3_witness_ok"] = not witness_failures
    report.mismatches.extend(f"noA2: square D found: {s}" for s in squares)
    report.mismatches.extend(f"noA2: {w}" for w in witness_failures)

    for ex in load_fixtures()["noA2_examples"]:
        cf = parse_cf(ex["cf"])
        cand = candidate_invariants(["[2]", "[2,2]", ex["third"], cf])
        _expect(report, "noA2", f"example q={ex['q']} order", cf.q, ex["q"])
        _expect(report, "noA2", f"example q={ex['q']} D", format_rational(cand.D), ex["D"])
    return report


# ---------------------------------------------------------------------------
# low-rank (L <= 11) scan for orders (2, 3, 5, q)
# ---------------------------------------------------------------------------


def _q20_trace_window(l: int, L: int, dp_sq_p3: Fraction) -> tuple[int, int]:
    """Integer trace range forced on the fourth chain by 0 < K^2 <= 1/10 + 3/q.

    With B = (L-7) + 2l - 1/3 + Dp^2(p3), the window is B - (q1+ql+2)/q <
    trace <= B + 1/10 - (q1+ql-1)/q; since 0 < (q1+ql+2)/q <= 2 and
    (q1+ql-1)/q > 0 this pins trace to the integers strictly between B - 2
    and B + 1/10.
    """
    b = Fraction(L - 7) + 2 * l - Fraction(1, 3) + dp_sq_p3
    lo = b - 2
    hi = b + Fraction(1, 10)
    tr_min = math.floor(lo) + 1
    tr_max = math.ceil(hi) - 1
    return tr_min, tr_max


def lemma_q20_pipeline() -> PipelineReport:
    """Enumerate the L <= 11 candidates with orders (2, 3, 5, q), order-3
    singularity a single (-3)-curve, then filter by square D and by BMY."""
    fixture = load_fixtures()["q20"]
    cases: list[list[HjCf]] = []
    tallies: list[int] = []
    for p3 in _ORDER5_CHAINS:
        head = [HjCf([2]), HjCf([3]), p3]
        l3 = p3.l
        third = dp_data(p3)
        dp_sq = Fraction(-third.dp_dot_k_num, third.q)
        count = 0
        for l in range(1, 11 - 2 - l3 + 1):
            L = l + 2 + l3
            tr_min, tr_max = _q20_trace_window(l, L, dp_sq)
            for tr in range(max(2 * l, tr_min), tr_max + 1):
                for cf in enumerate_cfs_by_shape(l, tr):
                    cases.append(head + [cf])
                    count += 1
        tallies.append(count)

    report = _scan(
        "q20", fixture, cases, "cases", bmy=True,
        extras=(("per-case tallies", tallies, fixture["case_tallies"]),),
    )
    report.details["case_tallies"] = tallies
    report.details["bmy_rows"] = sorted(
        d["no"] for d in report.survivors if d.get("no") and d["cmp"] == "<"
    )
    return report


# ---------------------------------------------------------------------------
# small fourth order (2 <= q <= 19), coprimality dropped
# ---------------------------------------------------------------------------


def small_q_pipeline() -> PipelineReport:
    """Scan every candidate with singularities [2], [3], an order-5 type and
    any chain of order 2..19 (orders may repeat); filter by square D, then
    BMY."""
    head = [HjCf([2]), HjCf([3])]
    cases: list[list[HjCf]] = []
    seen: set[tuple] = set()
    for q in range(2, 20):
        for cf in enumerate_cfs_of_order(q):
            # orders may repeat, so the same surface can arise with the
            # third and fourth slots swapped; dedupe on the chain multiset,
            # running from [5] down, which fixes the sings of the survivors
            for t in reversed(_ORDER5_CHAINS):
                key = _chains_key([t, cf])
                if key in seen:
                    continue
                seen.add(key)
                cases.append(head + [t, cf])

    report = _scan("small-q", load_fixtures()["small_q"], cases, "cases", bmy=True)
    report.details["bmy_count"] = report.stages[-1][1]
    return report


# ---------------------------------------------------------------------------
# rationality eliminations for the four low-rank survivors
# ---------------------------------------------------------------------------


def _agg_cells(agg: list) -> dict:
    """The one-variable-per-chain coefficients and solutions at each target."""
    return {
        "agg_coeffs": [format_rational(c) for c in agg[0][0].coeffs],
        "agg_solutions": [[list(s) for s in sols] for _, sols in agg],
    }


def _no_linear_solution(cand: SurfaceCandidate, m_values: list, targets: list, agg: list) -> dict | None:
    """Closes a case when the degree equation with one variable per chain has
    no solution at any target."""
    return None if any(sols for _, sols in agg) else _agg_cells(agg)


def _no_component_solution(cand: SurfaceCandidate, m_values: list, targets: list, agg: list) -> dict | None:
    """Closes a case when the degree equation over every curve has no
    solution at any target."""
    sols = [[list(s) for s in solve_dioph(component_problem(cand, t)[0])] for t in targets]
    return None if any(sols) else {"component_solutions": sols}


def _quadratic_filter(cand: SurfaceCandidate, m_values: list, targets: list, agg: list) -> dict | None:
    """Closes a one-m case when no curves under the quadratic bound
    1 + m^2 K^2/D' solve the equation over every curve.  Then no solution of
    the one-variable-per-chain equation is realized either: fixing each
    chain's sum to it only adds constraints to that same bounded search."""
    if len(m_values) != 1:
        return None
    (target,), (m,) = targets, m_values
    quad_bound = 1 + Fraction(m * m) / cand.d_prime * cand.ks2
    if solve_dioph(component_problem(cand, target, quad_bound)[0]):
        return None
    return {
        "quad_bound": format_rational(quad_bound),
        **_agg_cells(agg),
        "surviving_realizations": 0,
    }


# the rules that may close an l11 case with some m, weakest first; each takes
# the (problem, solutions) pair of the one-variable-per-chain equation at each
# target too, returns its cells when it closes the case, else None, and looks
# up the builders and the solver in this module when called (for a tracer)
_L11_RULES = (
    ("no_linear_solution", _no_linear_solution),
    ("no_component_solution", _no_component_solution),
    ("quadratic_filter", _quadratic_filter),
)


def l11_rationality_checks() -> PipelineReport:
    """Run the curve-class contradiction for each BMY survivor of the
    low-rank scan, assuming the surface were not rational.

    Each case bounds the leading coefficient m of a (-1)-curve by
    sqrt(D')/(L-9).  No positive m closes the case; else the first rule of
    ``_L11_RULES`` that holds does, and only its cells enter the result.
    The rule (None when none holds) and each cell the reference case records
    are diffed.  The primitive-closure index c is an input per case, taken
    from the reference data.
    """
    fixture = load_fixtures()["l11_cases"]
    q20 = load_fixtures()["q20"]
    report = PipelineReport("l11")
    rows_by_no = {row["no"]: row for row in q20["rows"]}
    eliminated = 0

    for case in fixture:
        label = f"l11 case {case['case']}"
        row = rows_by_no[case["row"]]
        cand = candidate_invariants(list(row["sings"]), c=case["c"])
        result = {
            "case": case["case"],
            "sings": row["sings"],
            "D": format_rational(cand.D),
            "D_prime": format_rational(cand.d_prime),
        }
        report.survivors.append(result)
        _expect(report, label, "D", result["D"], case["D"])
        _expect(report, label, "D'", result["D_prime"], case["D_prime"])
        # the m bound needs sqrt(D') and L > 9
        unbounded = None
        if not is_positive_square(cand.d_prime):
            unbounded = f"D' computed {result['D_prime']}, not a positive square"
        elif cand.L <= 9:
            unbounded = f"L computed {cand.L}, the m bound needs L > 9"
        if unbounded:
            report.mismatches.append(f"{label}: {unbounded}")
            continue
        bound = m_upper_bound(cand.d_prime, cand.L)
        result["m_bound"] = format_rational(bound)
        _expect(report, label, "m bound", result["m_bound"], case["m_bound"])
        m_values = list(range(1, math.floor(bound) + 1))
        result["m_values"] = m_values
        _expect(report, label, "admissible m", m_values, case["m_values"])

        rule, cells = "no_positive_m", {}
        if m_values:
            sqrt_dp = rational_sqrt(cand.d_prime)
            targets = [1 + Fraction(m) / sqrt_dp * cand.ks2 for m in m_values]
            result["targets"] = [format_rational(t) for t in targets]
            _expect(report, label, "targets", result["targets"], case.get("targets"))
            agg = [(p, solve_dioph(p)) for p in (aggregated_problem(cand, t)[0] for t in targets)]
            for rule, closes in _L11_RULES:
                if (cells := closes(cand, m_values, targets, agg)) is not None:
                    break
            else:
                rule, cells = None, {}
        result.update(cells)
        for key, value in cells.items():
            if key in case:
                _expect(report, label, key, value, case[key])
        _expect(report, label, "eliminated_by", rule, case["eliminated_by"])
        if rule is not None:
            result["eliminated_by"] = rule
            eliminated += 1

    report.stages = [("cases", len(fixture)), ("eliminated", eliminated)]
    if eliminated != len(fixture):
        report.mismatches.append(
            f"l11: only {eliminated} of {len(fixture)} cases eliminated"
        )
    return report


# ---------------------------------------------------------------------------
# minimal-curve sweeps for the del Pezzo side
# ---------------------------------------------------------------------------


def _step5_shapes(l: int, nj: int) -> set[tuple[int, ...]]:
    """Chain shapes admitted for the fourth singularity when the minimal
    curve meets a component of self-intersection -nj on a length-l chain.

    The unmet components must all be (-2)- or (-3)-curves with at most one
    entry >= 3 per chain, so an nj >= 3 component excludes any further 3 and
    nj = 2 admits at most one 3 somewhere.
    """
    shapes: set[tuple[int, ...]] = set()
    if nj >= 3:
        base = [(2,) * i + (nj,) + (2,) * (l - 1 - i) for i in range(l)]
    else:
        base = [(2,) * l]
        base += [(2,) * i + (3,) + (2,) * (l - 1 - i) for i in range(l)]
    for ent in base:
        shapes.add(min(ent, ent[::-1]))
    return shapes


def step5_pipeline() -> PipelineReport:
    """For each order-5 third singularity, enumerate the fourth chains allowed
    by the minimal-curve constraints and verify that none passes the three
    filters: K^2 > 0, gcd(q, 30) = 1, and D a positive square integer.

    This scan stays outside ``_scan``: it has three filters instead of square
    D and BMY, keeps a detail record per case, and has no fixture rows.
    """
    fixture = load_fixtures()["step5"]
    report = PipelineReport("step5")
    stage_rows: list[tuple[str, int]] = []
    sub_reports = []

    for sub in fixture["sub_cases"]:
        p3 = parse_cf(sub["p3"])
        shapes: set[tuple[int, ...]] = set()
        for l, nj in sub["l_nj"]:
            shapes |= _step5_shapes(l, nj)
        ordered = sorted(shapes)
        survivors = []
        cases = []
        for ent in ordered:
            cf = HjCf(ent)
            cand = candidate_invariants([HjCf([2]), HjCf([3]), p3, cf])
            passes = (
                cand.D > 0
                and gcd(cf.q, 30) == 1
                and is_positive_square(cand.D)
            )
            cases.append(
                {
                    "cf": str(cf),
                    "q": cf.q,
                    "ks2": format_rational(cand.ks2),
                    "D": format_rational(cand.D),
                    "passes_all": passes,
                }
            )
            if passes:
                survivors.append(str(cf))
        tally = len(ordered)
        label = f"step5 p3={sub['p3']}"
        _expect(report, label, "tally", tally, sub["tally"])
        if len(survivors) != sub["survivors"]:
            report.mismatches.append(
                f"{label}: {len(survivors)} survivors {survivors}, "
                f"fixture {sub['survivors']}"
            )
        stage_rows.append((f"cases {sub['p3']}", tally))
        stage_rows.append((f"survivors {sub['p3']}", len(survivors)))
        sub_reports.append({"p3": sub["p3"], "tally": tally, "cases": cases})

    report.stages = stage_rows
    report.details["sub_cases"] = sub_reports
    return report


_RULE_LISTS = ("A", "B", "C")


def _classify_row(cfs: list[HjCf]) -> str:
    """Elimination rule for one candidate row, read off the chain entries.

    A: some component has self-intersection <= -6.
    B: some single chain carries >= 2 components with self-intersection <= -3.
    C: >= 2 components across all chains have self-intersection <= -4.
    Rows fitting none are handled by the explicit residual checks.
    """
    if any(n >= 6 for cf in cfs for n in cf.entries):
        return "A"
    if any(sum(1 for n in cf.entries if n >= 3) >= 2 for cf in cfs):
        return "B"
    if sum(1 for cf in cfs for n in cf.entries if n >= 4) >= 2:
        return "C"
    return "residual"


# admissible sorted self-intersections (a, b, c) met by a minimal curve
# meeting three components: the spherical triples, 1/a + 1/b + 1/c > 1, less
# the family (2, 2, k >= 3), which is excluded on separate structural grounds.
# Every other triple but (2, 2, 2) has b >= 3, so 1/c > 1 - 1/2 - 1/3: c <= 5.
_DP3_TRIPLES = {
    (a, b, c)
    for a in range(2, 6) for b in range(a, 6) for c in range(b, 6)
    if b * c + a * c + a * b > a * b * c and not a == b == 2 < c
}


def _component_labels(cand: SurfaceCandidate) -> list[tuple[int, int, int, str]]:
    """(sing index, 1-based position, n, label) with chains lettered A, B, ..."""
    letters = "ABCDEFGH"
    out = []
    for p, sing in enumerate(cand.sings):
        letter = letters[p]
        for j, n in enumerate(sing.cf.entries, start=1):
            label = letter if sing.l == 1 else f"{letter}{j}"
            out.append((p, j, n, label))
    return out


def _residual_sweep(cand: SurfaceCandidate) -> dict:
    """Minimal-curve sweep for a residual row under the -K ample convention.

    The curve meets exactly three components, at most one per chain, must
    meet every component with self-intersection <= -4, and the met
    self-intersections satisfy sum(n_i) = L - 2.  Each admissible branch
    yields a leading coefficient m = sqrt(D) (1 - degree)/K^2 that is
    rejected when negative or non-integral; branches with a positive
    integral m cannot be refuted numerically and are flagged for the
    geometric argument.
    """
    comps = _component_labels(cand)
    forced = [c for c in comps if c[2] >= 4]
    need = cand.L - 2
    branches = []
    min_possible = None
    for triple in combinations(comps, 3):
        chains = {c[0] for c in triple}
        if len(chains) != 3:
            continue
        if any(f not in triple for f in forced):
            continue
        ns = tuple(sorted(c[2] for c in triple))
        total = sum(ns)
        min_possible = total if min_possible is None else min(min_possible, total)
        if total != need:
            continue
        if ns not in _DP3_TRIPLES:
            continue
        hits = {(c[0], c[1]): 1 for c in triple}
        inc = Incidence.from_hits(cand, hits)
        m = minimal_curve_m(cand, inc)
        value = m * cand.ks2 / rational_sqrt(cand.d_prime)
        if value <= 0:
            outcome = "negative"
        elif m.denominator != 1:
            outcome = "non_integer"
        else:
            outcome = "geometric"
        branch = {
            "meets": [c[3] for c in triple],
            "value": format_rational(value),
            "outcome": outcome,
        }
        if value > 0:
            branch["m"] = format_rational(m)
        branches.append(branch)
    if not branches:
        return {
            "eliminated_by": "L_violation",
            "L": cand.L,
            "required": (min_possible + 2) if min_possible is not None else None,
        }
    return {"branches": branches}


def _branch_rows(branches: list[dict]) -> list[tuple]:
    """Sweep branches in a form that compares regardless of their order."""
    return sorted(
        (tuple(sorted(b["meets"])), b["value"], b.get("m"), b["outcome"]) for b in branches
    )


def step6_classification() -> PipelineReport:
    """Classify the 24 main-table rows by their del Pezzo elimination rule and
    sweep each residual row: an L violation or its branches close it (a
    geometric branch only with a fixture case); the kind, then cells, are diffed."""
    fixtures = load_fixtures()
    fixture = fixtures["step6"]
    rows = fixtures["table1"]["rows"]
    report = PipelineReport("step6")

    groups: dict[str, list[int]] = {"A": [], "B": [], "C": [], "residual": []}
    for row in rows:
        cfs = [parse_cf(s) for s in row["sings"]]
        groups[_classify_row(cfs)].append(row["no"])
    report.details["rules"] = groups
    for rule in (*_RULE_LISTS, "residual"):
        _expect(report, "step6", f"rule {rule}", groups[rule], fixture["rules"][rule])

    rows_by_no = {row["no"]: row for row in rows}
    eliminated = 0
    for no in groups["residual"]:
        label = f"step6 case {no}"
        fx = fixture.get(f"case{no}")
        cand = candidate_invariants(list(rows_by_no[no]["sings"]))
        if not is_positive_square(cand.d_prime):
            # the sweep's leading coefficients need sqrt(D')
            report.mismatches.append(
                f"{label}: D' computed {format_rational(cand.d_prime)}, not a positive square"
            )
            continue
        sweep = report.details[f"case{no}"] = _residual_sweep(cand)
        # every sweep closes its row, one with a geometric branch by its fixture case
        geometric = any(b["outcome"] == "geometric" for b in sweep.get("branches", ()))
        eliminated += fx is not None or not geometric
        if fx is None:
            report.mismatches.append(f"{label}: no fixture case for this residual row")
            continue
        kind = sweep.get("eliminated_by", "branches")
        fixture_kind = "branches" if "branches" in fx else "L_violation"
        _expect(report, label, "sweep", kind, fixture_kind)
        if kind == fixture_kind == "branches":
            _expect(report, label, "ks2", format_rational(cand.ks2), fx["ks2"])
            _expect(
                report, label, "sqrt(D)",
                format_rational(rational_sqrt(cand.d_prime)), fx["sqrt_D"],
            )
            got, want = _branch_rows(sweep["branches"]), _branch_rows(fx["branches"])
            if got != want:
                report.mismatches.append(
                    f"{label}: sweep branches differ: computed {got}, fixture {want}"
                )
        elif kind == fixture_kind:
            _expect(
                report, label, "L/required",
                (sweep["L"], sweep["required"]), (fx["L"], fx["required"]),
            )

    report.stages = [
        ("rows", len(rows)),
        ("rule_A", len(groups["A"])),
        ("rule_B", len(groups["B"])),
        ("rule_C", len(groups["C"])),
        ("residual", len(groups["residual"])),
        ("residual_eliminated", eliminated),
    ]
    if eliminated != len(groups["residual"]):
        report.mismatches.append(
            f"step6: only {eliminated} of {len(groups['residual'])} residual rows eliminated"
        )
    return report


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

PIPELINES = {
    "table1": table1_pipeline,
    "q20": lemma_q20_pipeline,
    "small-q": small_q_pipeline,
    "l11": l11_rationality_checks,
    "step5": step5_pipeline,
    "step6": step6_classification,
    "noA2": noA2_scan,
}


def run_pipeline(name: str, cap: int | None = None) -> PipelineReport:
    """Run one registered pipeline; ``cap`` is the order cap of the noA2 scan
    and is rejected for every other pipeline."""
    if name not in PIPELINES:
        raise ValueError(f"unknown pipeline {name!r}; choose from {sorted(PIPELINES)}")
    if cap is None:
        return PIPELINES[name]()
    if name != "noA2":
        raise ValueError(f"cap applies to the noA2 pipeline only, not {name!r}")
    return PIPELINES[name](q_cap=cap)
