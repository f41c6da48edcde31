"""The reference implementations the tests compare qhpp against, each
defined once.

Most are the code a faster qhpp function replaced, kept verbatim but for
their names; the rest re-derive a value another way (``Fraction``
arithmetic, a cofactor expansion, a plain search, a definition).  Each
docstring's first line says what the oracle specifies and which qhpp
function it checks.  ``agree`` runs a pointwise comparison, and
``recording`` collects the corpus a suite or a pipeline builds.
"""

import contextlib
import math
import random
import sys
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd, isqrt, lcm

import pytest

import qhpp.obstruction as obstruction
from qhpp import enumeration
from qhpp.checks import (
    _REGIMES,
    REFERENCE_DIOPH_INSTANCES,
    CheckResult,
    _all_cfs,
    _brute_force_dioph,
    _diagonal_esq_bound,
    _relaxed_ek_bound,
    _uv_chain_failures,
    _uv_holds,
)
from qhpp.cli import _merge_negative_values, build_parser
from qhpp.enumeration import PipelineReport, _chains_key, _diff_rows, _expect, aggregated_problem
from qhpp.hjcf import HjCf, chain_order, enumerate_cfs_of_order, parse_cf
from qhpp.obstruction import (
    CurveClass,
    DiophProblem,
    Incidence,
    degree_sum as _degree_sum,
    ek_formula,
    esq_formula as _esq_formula,
    esq_two_component as _esq_two_component,
    local_discrepancy,
    solve_dioph,
)
from qhpp.ratio import format_rational as _format_rational
from qhpp.surface import BmyStatus, candidate_invariants as _candidate_invariants, dp_data

# ---------------------------------------------------------------------------
# the comparison and the corpora
# ---------------------------------------------------------------------------


def agree(function, oracle, corpus) -> None:
    """Assert function(x) == oracle(x) for every x in corpus."""
    for x in corpus:
        got, want = function(x), oracle(x)
        assert got == want, (x, got, want)


@contextlib.contextmanager
def recording(module, name: str):
    """Yield the list of (arguments, result) of every call made to
    module.name inside the block."""
    calls = []
    real = getattr(module, name)

    def record(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, record)
        yield calls


# ---------------------------------------------------------------------------
# chains (qhpp.hjcf)
# ---------------------------------------------------------------------------


def all_cfs(q_max: int):
    """Every chain of order 2..q_max, order by order: the former generator
    of `checks._all_cfs`."""
    for q in range(2, q_max + 1):
        yield from enumerate_cfs_of_order(q)


def fraction_value(entries) -> Fraction:
    """n1 - 1/(n2 - 1/...) in Fractions: q/q1 of `HjCf` and `cf_evaluate`."""
    value = None
    for n in reversed(entries):
        value = Fraction(n) if value is None else n - 1 / value
    return value


def greedy_expansion(q: int, q1: int) -> tuple[int, ...]:
    """The ceiling expansion of q/q1 in Fractions: the chain of
    `cf_from_pair`."""
    value = Fraction(q, q1)
    entries = []
    while True:
        n = ceil(value)
        entries.append(n)
        if n == value:
            return tuple(entries)
        value = 1 / (n - value)


def chain_sequences(entries: tuple[int, ...]) -> tuple[tuple, tuple]:
    """(u, v) of a chain by the list-indexing recurrences: `HjCf.u_seq` and
    `HjCf.v_seq`."""
    u = [0, 1]
    for n in entries:
        u.append(n * u[-1] - u[-2])
    w = [0, 1]
    for n in reversed(entries):
        w.append(n * w[-1] - w[-2])
    return tuple(u), tuple(reversed(w))


def shape_classes(length: int, trace: int) -> set[tuple[int, ...]]:
    """The entries of every chain of the given length and entry sum, one per
    reversal class, from all compositions: `enumerate_cfs_by_shape`, and the
    count of `burnside_classes`."""

    def compositions(length, total):
        if length == 1:
            return [(total,)] if total >= 2 else []
        out = []
        for first in range(2, total - 2 * (length - 1) + 1):
            out.extend((first,) + rest for rest in compositions(length - 1, total - first))
        return out

    return {min(s, s[::-1]) for s in compositions(length, trace)}


def cofactor_det(rows: list[list[int]]) -> int:
    """det of a square matrix by cofactor expansion along the first row:
    `gram_determinant`, and |det| of `chain_matrix` is a chain's order."""
    size = len(rows)
    if size == 0:
        return 1
    if size == 1:
        return rows[0][0]
    total = 0
    for j in range(size):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def chain_matrix(entries) -> list[list[int]]:
    """The tridiagonal intersection matrix of a chain."""
    n = len(entries)
    m = [[0] * n for _ in range(n)]
    for i, e in enumerate(entries):
        m[i][i] = -e
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = 1
    return m


def cf_deleted_det(cf, deleted_indices):
    """|det| of the intersection matrix with rows/columns deleted: the
    identity q1 * ql = det(deleted ends) * q + 1 of `HjCf`.

    ``deleted_indices`` are 1-based positions.  Deleting positions splits the
    chain into runs, and the determinant is the product of the orders of the
    runs (the matrix becomes block diagonal); an empty run contributes 1.
    """
    deleted = set(deleted_indices)
    if not all(1 <= i <= cf.l for i in deleted):
        raise ValueError(f"deleted positions {sorted(deleted)} out of range 1..{cf.l}")
    det = 1
    run = []
    for pos, n in enumerate(cf.entries, start=1):
        if pos in deleted:
            det *= chain_order(run)
            run = []
        else:
            run.append(n)
    return det * chain_order(run)


def dedekind12(h: int, k: int) -> int:
    """12·k·s(h, k) for coprime h and k >= 1, s the Dedekind sum: the closed
    forms of `noA2_scan`.

    By reciprocity, h·D(h, k) + k·D(k, h) = h² + k² + 1 - 3hk for D(h, k) =
    12·k·s(h, k), and D(h, k) depends on h mod k only.  One Euclid pass
    records the pairs down to k = 1, where D = 0; the pairs are then solved
    back up in integers.  It owes nothing to Hirzebruch-Jung expansion.
    """
    pairs = []
    h %= k
    while k > 1:
        pairs.append((h, k))
        h, k = k % h, h
    d = 0
    for h, k in reversed(pairs):
        d = (h * h + k * k + 1 - 3 * h * k - k * d) // h
    return d


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum of ((i/k)) ((hi/k)) over i = 1..k-1 by its definition,
    where ((x)) = x - floor(x) - 1/2, and 0 at integers: `dedekind12`."""

    def sawtooth(x):
        return Fraction(0) if x.denominator == 1 else x - floor(x) - Fraction(1, 2)

    return sum(
        (sawtooth(Fraction(i, k)) * sawtooth(Fraction(h * i, k)) for i in range(1, k)),
        start=Fraction(0),
    )


# ---------------------------------------------------------------------------
# rationals (qhpp.ratio)
# ---------------------------------------------------------------------------


def is_positive_square(x) -> bool:
    """x is a positive integer and a perfect square, by isqrt alone:
    `is_positive_square`, which first refuses the non-squares mod 64."""
    n = x.numerator
    return n > 0 and x.denominator == 1 and isqrt(n) ** 2 == n


def format_rational(x) -> str:
    """x copied into a Fraction and printed: `format_rational` and
    `_format_over`."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# the invariant kernel (qhpp.surface), in Fractions
# ---------------------------------------------------------------------------


def adjunction_coeffs(cf: HjCf) -> tuple[Fraction, ...]:
    """The adjunction coefficients 1 - (v_j + u_j)/q of the chain:
    `dp_data().coeff_nums` over q."""
    return tuple(
        1 - Fraction(cf.v_seq[j] + cf.u_seq[j], cf.q) for j in range(1, cf.l + 1)
    )


def dp_dot_k(cf: HjCf) -> Fraction:
    """Dp.K as a Fraction sum: `dp_data().dp_dot_k_num` over q."""
    coeffs = adjunction_coeffs(cf)
    return sum((c * (n - 2) for c, n in zip(coeffs, cf.entries)), start=Fraction(0))


def dense_dp_sq(cf: HjCf) -> Fraction:
    """Dp^2 through the dense intersection form: -Dp.K of `dp_data`."""
    coeffs, n, l = adjunction_coeffs(cf), cf.entries, cf.l
    dense = Fraction(0)
    for i in range(l):
        for j in range(l):
            if i == j:
                dense += coeffs[i] * coeffs[j] * (-n[i])
            elif abs(i - j) == 1:
                dense += coeffs[i] * coeffs[j]
    return dense


def candidate_invariants(cfs: list[HjCf], c: int = 1) -> tuple:
    """(K^2, D, e_orb, D', L, det R) as running Fraction sums:
    `candidate_invariants` and `enumeration._det_and_d`."""
    data = [dp_data(cf) for cf in cfs]
    L = sum(s.l for s in data)
    det_r = 1
    for s in data:
        det_r *= s.q
    ks2 = (9 - L) + sum((dp_dot_k(s.cf) for s in data), start=Fraction(0))
    e_orb = 3 - sum((1 - Fraction(1, s.q) for s in data), start=Fraction(0))
    return ks2, det_r * ks2, e_orb, Fraction(det_r * ks2, c * c), L, det_r


def bmy_status(ks2: Fraction, e_orb: Fraction) -> BmyStatus:
    """The BMY class from K^2 and e_orb in Fractions: `bmy_status`."""
    if e_orb < 0:
        return BmyStatus.E_ORB_NEGATIVE
    if ks2 <= 0:
        return BmyStatus.OK
    if ks2 <= 3 * e_orb:
        return BmyStatus.OK_K_AMPLE
    return BmyStatus.VIOLATES_K_AMPLE


# ---------------------------------------------------------------------------
# curve classes (qhpp.obstruction), in Fractions
# ---------------------------------------------------------------------------


def degree_sum(curve: CurveClass) -> Fraction:
    """The sum of coefficient times incidence: `degree_sum`."""
    total = Fraction(0)
    for sing, row in zip(curve.cand.sings, curve.incidence.rows):
        for coeff, ea in zip(adjunction_coeffs(sing.cf), row):
            if ea:
                total += coeff * ea
    return total


def _lead(curve: CurveClass) -> Fraction:
    if curve.m == 0:
        return Fraction(0)
    return Fraction(curve.m * curve.m) / curve.cand.d_prime * curve.cand.ks2


def esq_formula(curve: CurveClass) -> Fraction:
    """E^2 from the local discrepancies: `esq_formula`."""
    total = Fraction(0)
    for sing, row in zip(curve.cand.sings, curve.incidence.rows):
        for j in range(1, sing.l + 1):
            ea = row[j - 1]
            if ea:
                total += local_discrepancy(sing, row, j) * ea
    return _lead(curve) - total


def esq_two_component(curve: CurveClass) -> Fraction:
    """E^2 by the closed form for at most two hits per chain:
    `esq_two_component`."""
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
    return _lead(curve) - total


def relaxed_ek_bound(curve: CurveClass) -> Fraction:
    """-sum_p sum_j (1 - 2/n_j) EA_j in Fractions, the E.K bound of
    `check_prop_int_inequalities`: `checks._relaxed_ek_bound`."""
    cand, inc = curve.cand, curve.incidence
    return -sum(
        (1 - Fraction(2, s.cf.entries[j - 1])) * inc.rows[p][j - 1]
        for p, s in enumerate(cand.sings)
        for j in range(1, s.l + 1)
    )


def diagonal_esq_bound(curve: CurveClass) -> Fraction:
    """-sum_p sum_j (v_j u_j / q_p) EA_j^2 in Fractions, the E^2 bound of
    `check_prop_int_inequalities`: `checks._diagonal_esq_bound`."""
    cand, inc = curve.cand, curve.incidence
    return -sum(
        Fraction(s.cf.v_seq[j] * s.cf.u_seq[j], s.q) * inc.rows[p][j - 1] ** 2
        for p, s in enumerate(cand.sings)
        for j in range(1, s.l + 1)
    )


# ---------------------------------------------------------------------------
# the Diophantine solver (qhpp.obstruction)
# ---------------------------------------------------------------------------


def _kept(problem: DiophProblem, vec) -> bool:
    """Whether vec meets the problem's group sums and its quadratic bound,
    each sum taken in Fractions."""
    if any(
        sum((problem.coeffs[i] * vec[i] for i in idx), start=Fraction(0)) != exact
        for idx, exact in problem.group_constraints
    ):
        return False
    if problem.quad_coeffs is None:
        return True
    qsum = sum((qc * x * x for qc, x in zip(problem.quad_coeffs, vec)), start=Fraction(0))
    return qsum <= problem.quad_bound


def fraction_grid(problem: DiophProblem) -> list[tuple[int, ...]]:
    """Every point of the box 0 <= x_i <= target/coeff_i that solves the
    problem, each sum taken in Fractions: `checks._brute_force_dioph`, and
    `solve_dioph` on problems of a small box."""
    bounds = [int(problem.target / c) for c in problem.coeffs]
    return [
        vec
        for vec in product(*(range(b + 1) for b in bounds))
        if sum((c * x for c, x in zip(problem.coeffs, vec)), start=Fraction(0)) == problem.target
        and _kept(problem, vec)
    ]


def plain_search(problem: DiophProblem) -> list[tuple[int, ...]]:
    """The plain depth-first search that `solve_dioph` replaced, with both
    budgets read from the module at call time.

    It visits every value of every variable, the last one included, as a
    node.  A leaf solves the cleared equation; its group sums and quadratic
    bound are then tested in Fractions, and a kept leaf counts against the
    solution budget.
    """
    node_budget = obstruction.DFS_NODE_BUDGET
    solution_budget = obstruction.SOLUTION_BUDGET
    n = len(problem.coeffs)
    den = lcm(problem.target.denominator, *(c.denominator for c in problem.coeffs))
    cleared = [int(c * den) for c in problem.coeffs]
    target = int(problem.target * den)
    if target < 0:
        return []
    solutions: list[tuple[int, ...]] = []
    vec = [0] * n
    nodes = 0

    def dfs(i: int, remaining: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ValueError(
                f"Diophantine search exceeds its budget of {node_budget:,} nodes"
            )
        if i == n - 1:
            if remaining % cleared[i]:
                return
            vec[i] = remaining // cleared[i]
            if not _kept(problem, vec):
                return
            if len(solutions) == solution_budget:
                raise ValueError(
                    f"Diophantine problem has more than {solution_budget:,} solutions"
                )
            solutions.append(tuple(vec))
            return
        step = cleared[i]
        for x in range(remaining // step + 1):
            vec[i] = x
            dfs(i + 1, remaining - x * step)

    dfs(0, target)
    return solutions


# ---------------------------------------------------------------------------
# the property suites (qhpp.checks)
# ---------------------------------------------------------------------------


def uv_failures(cf) -> list[str]:
    """The unit and pair loop through the general predicate `_uv_holds`:
    `checks._uv_chain_failures`."""
    holds, l, bad = _uv_holds, cf.l, []
    for j in range(1, l + 1):
        if not holds(cf, {j: 1}) or not holds(cf, {j: 2}) or not holds(cf, {j: 3}):
            bad.append(f"{cf}: unit z at {j}")
    if l <= 30:
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                if not holds(cf, {i: 1, j: 1}):
                    bad.append(f"{cf}: pair z at {i},{j}")
    return bad


def random_candidate(rng: random.Random):
    """A candidate drawn through the `random.Random` methods, a new chain
    for every draw: `checks._random_candidate`."""
    cfs = []
    for _ in range(rng.randint(1, 4)):
        l = rng.randint(1, 4)
        cfs.append(HjCf([rng.randint(2, 5) for _ in range(l)]))
    return _candidate_invariants(cfs)


# The five random suites as they drew through the `random.Random` methods
# (`randint`, `randrange`, `choice`, `sample`): the results and the final
# generator states of the `checks.check_*` of the same name.


def former_check_uv_inequalities(q_max: int = 200, n_random: int = 10_000, seed: int = 2023) -> CheckResult:
    bad = []
    cfs = [cf for cf in _all_cfs(q_max) if cf.l >= 5]
    for cf in cfs:
        bad = _uv_chain_failures(cf)
        if bad:
            break
    rng = random.Random(seed)
    for _ in range(n_random):
        cf = rng.choice(cfs)
        support = rng.sample(range(1, cf.l + 1), k=min(cf.l, rng.randint(1, 4)))
        z = {j: rng.randint(0, 4) for j in support}
        if not _uv_holds(cf, z):
            bad.append(f"{cf}: random z {z}")
            break
    return CheckResult(
        "uv_inequalities",
        not bad,
        bad[0] if bad else f"{len(cfs)} chains, {n_random} random pairs",
    )


def former_check_esq_identity(n_random: int = 10_000, seed: int = 2024) -> CheckResult:
    rng = random.Random(seed)
    for i in range(n_random):
        cand = random_candidate(rng)
        hits: dict[tuple[int, int], int] = {}
        for p, s in enumerate(cand.sings):
            for j in rng.sample(range(1, s.l + 1), k=min(s.l, rng.randint(0, 2))):
                hits[(p, j)] = rng.randint(1, 3)
        inc = Incidence.from_hits(cand, hits)
        curve = CurveClass(0, cand, inc, rng.choice(_REGIMES))
        if _esq_formula(curve) != _esq_two_component(curve):
            return CheckResult("esq_identity", False, f"case {i}: {hits}")
    return CheckResult("esq_identity", True, f"{n_random} random incidences")


def former_check_prop_int_inequalities(n_random: int = 2_000, seed: int = 2025) -> CheckResult:
    rng = random.Random(seed)
    for i in range(n_random):
        cand = random_candidate(rng)
        hits = {}
        for p, s in enumerate(cand.sings):
            for j in range(1, s.l + 1):
                if rng.random() < 0.5:
                    hits[(p, j)] = rng.randint(0, 3)
        inc = Incidence.from_hits(cand, hits)
        curve = CurveClass(0, cand, inc)
        if ek_formula(curve) > _relaxed_ek_bound(curve):
            return CheckResult("prop_int_inequalities", False, f"ek case {i}")
        if _esq_formula(curve) > _diagonal_esq_bound(curve):
            return CheckResult("prop_int_inequalities", False, f"esq case {i}")
        double = CurveClass(0, cand, Incidence(tuple(tuple(2 * x for x in row) for row in inc.rows)))
        if _degree_sum(double) != 2 * _degree_sum(curve):
            return CheckResult("prop_int_inequalities", False, f"linearity case {i}")
    return CheckResult("prop_int_inequalities", True, f"{n_random} random curves")


def former_check_reversal_invariance(n_random: int = 500, seed: int = 2026) -> CheckResult:
    rng = random.Random(seed)
    for i in range(n_random):
        cand = random_candidate(rng)
        cfs = [s.cf for s in cand.sings]
        k = rng.randrange(len(cfs))
        flipped = list(cfs)
        flipped[k] = flipped[k].reverse()
        other = _candidate_invariants(flipped)
        if (other.ks2, other.D, other.e_orb, other.L) != (
            cand.ks2,
            cand.D,
            cand.e_orb,
            cand.L,
        ):
            return CheckResult("reversal_invariance", False, f"case {i}")
        bumped = list(cfs)
        bumped[k] = HjCf(bumped[k].entries + (2,))
        grown = _candidate_invariants(bumped)
        if grown.e_orb >= cand.e_orb:
            return CheckResult("reversal_invariance", False, f"monotonicity case {i}")
    return CheckResult("reversal_invariance", True, f"{n_random} random candidates")


def former_check_dioph_oracle(n_random: int = 1_000, seed: int = 2027) -> CheckResult:
    rng = random.Random(seed)
    for k, prob in enumerate(REFERENCE_DIOPH_INSTANCES):
        if solve_dioph(prob) != _brute_force_dioph(prob):
            return CheckResult("dioph_oracle", False, f"recorded instance {k}")
    for i in range(n_random):
        n = rng.randint(1, 4)
        coeffs = tuple(
            Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(n)
        )
        # keep the brute-force box small: at most ~20 values per variable
        target = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        while any(target / c > 24 for c in coeffs):
            target /= 2
        groups = ()
        if n >= 2 and rng.random() < 0.3:
            groups = (((0, 1), coeffs[0] * rng.randint(0, 3)),)
        quad = None
        qb = None
        if rng.random() < 0.3:
            quad = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n))
            qb = Fraction(rng.randint(0, 40), rng.randint(1, 4))
        prob = DiophProblem(coeffs, target, groups, quad, qb)
        if solve_dioph(prob) != sorted(_brute_force_dioph(prob)):
            return CheckResult("dioph_oracle", False, f"random instance {i}")
    return CheckResult("dioph_oracle", True, f"{n_random} random instances")


# ---------------------------------------------------------------------------
# the pipelines (qhpp.enumeration)
# ---------------------------------------------------------------------------


def order_tuple_families() -> list[enumeration.OrderTupleFamily]:
    """The order-tuple families from Fraction sums over the full a/b/c box:
    `enumerate_order_tuples`."""
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


def candidate_scan(
    label: str,
    fixture: dict,
    cases: list[list[HjCf]],
    first: str,
    bmy: bool = False,
    extras: tuple[tuple[str, object, object], ...] = (),
) -> PipelineReport:
    """The candidate-per-case scan: `enumeration._scan`.

    Invariants of every case, the square-D filter, optionally the BMY
    filter, then the fixture diff.  Mismatches come in a fixed order: stage
    counts, the ``(what, got, want)`` extras, the row diff, and the BMY rows.
    """
    report = PipelineReport(label)
    cands = [_candidate_invariants(case) for case in cases]
    square = {
        _chains_key(case): c for case, c in zip(cases, cands) if is_positive_square(c.D)
    }
    report.stages = [(first, len(cases)), ("D_square", len(square))]
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


def _grouped_component_problem(cand, target, quad_bound, group_sums):
    """The component problem with the quadratic filter, and with each
    chain's sum fixed where ``group_sums`` (sing index -> sum) says so."""
    coeffs, quads, groups = [], [], []
    for p, sing in enumerate(cand.sings):
        members = []
        for j, num in enumerate(sing.coeff_nums, 1):
            if num > 0:
                members.append(len(coeffs))
                coeffs.append(Fraction(num, sing.q))
                quads.append(Fraction(sing.cf.v_seq[j] * sing.cf.u_seq[j], sing.q))
        if group_sums is not None and p in group_sums:
            groups.append((tuple(members), group_sums[p]))
    return DiophProblem(tuple(coeffs), target, tuple(groups), tuple(quads), quad_bound)


def quadratic_filter(cand, m_values, targets):
    """One search per solution of the one-variable-per-chain equation, with
    each chain's sum fixed to it, then one search without:
    `enumeration._quadratic_filter`."""
    if len(m_values) != 1:
        return None
    (target,), (m,) = targets, m_values
    quad_bound = 1 + Fraction(m * m) / cand.d_prime * cand.ks2
    agg, agg_labels = aggregated_problem(cand, target)
    agg_sols = solve_dioph(agg)
    groups = [{p: agg.coeffs[i] * sol[i] for i, p in enumerate(agg_labels)} for sol in agg_sols]
    if any(solve_dioph(_grouped_component_problem(cand, target, quad_bound, g))
           for g in (*groups, None)):
        return None
    return {
        "quad_bound": _format_rational(quad_bound),
        "agg_coeffs": [_format_rational(c) for c in agg.coeffs],
        "agg_solutions": [[list(s) for s in agg_sols]],
        "surviving_realizations": 0,
    }


def classify_row(rows) -> str:
    """The elimination rule of a row of chains, as entry tuples, read from
    its largest entries: `enumeration._classify_row`.  At least two entries
    reach n exactly when the second largest does, so A is a largest entry of
    6 or more, B a chain whose second largest entry is 3 or more, and C a
    second largest entry of 4 or more in the whole row, tried in that order.
    """
    every = sorted(n for entries in rows for n in entries)
    if every[-1] >= 6:
        return "A"
    if any(len(entries) >= 2 and sorted(entries)[-2] >= 3 for entries in rows):
        return "B"
    if len(every) >= 2 and every[-2] >= 4:
        return "C"
    return "residual"


def step5_shapes(l: int, nj: int) -> set[tuple[int, ...]]:
    """The length-l chains over the entries {2, 3, nj}, up to reversal, that
    `enumeration._step5_shapes` admits by its docstring: for nj >= 3 exactly
    one entry is 3 or more and it is nj; for nj = 2 every entry is 2 or 3,
    with at most one 3."""
    shapes = set()
    for ent in product(sorted({2, 3, nj}), repeat=l):
        big = [n for n in ent if n >= 3]
        if (big == [nj]) if nj >= 3 else (len(big) <= 1):
            shapes.add(min(ent, ent[::-1]))
    return shapes


def noA2_loop(q_cap, shift=frozenset()):
    """(classes, square lines, witness lines) of the noA2 loop over the
    canonical `HjCf` chains of each order: `noA2_scan`, with a class
    (q, {q1, ql}) per chain.

    ``shift`` holds (q, q1) pairs at which the scan's walk, ``_dual_pairs``,
    is made to read the trace one larger, to drive the witness checks into
    failure.  Only the unit that opens a pair of classes, the smallest of
    q1, ql, q - q1 and q - ql, is read, and its shift moves S by q; the dual
    class, whose S is -S, moves by -q.  So the trace is taken one larger at
    the opening class and one smaller at its dual.  The square test is read
    from the module at call time.
    """
    classes, squares, witness_failures = [], [], []
    for q in range(7, q_cap + 1):
        if gcd(q, 30) != 1:
            continue
        for cf in enumerate_cfs_of_order(q):
            q1, ql, l = cf.q1, cf.ql, cf.l
            classes.append((q, frozenset((q1, ql))))
            tr = cf.trace
            opener = min(q1, ql, q - q1, q - ql)
            if (q, opener) in shift:
                tr += 1 if opener in (q1, ql) else -1
            x_a4 = q1 + ql + (tr - 3 * l) * q + 2
            x_52 = 5 * (q1 + ql) + (5 * (tr - 3 * l) + 12) * q + 10
            x_51 = 5 * (q1 + ql) + (5 * (tr - 3 * l) + 24) * q + 10
            for name, d in (
                ("[2,2,2,2]", 30 * x_a4),
                ("[3,2]", 6 * x_52),
                ("[5]", 6 * x_51),
            ):
                if enumeration.is_positive_square(d):
                    squares.append(f"q={q} cf={cf} third={name} D={d}")
            if (q1 + ql + tr * q) % 3 != 0:
                witness_failures.append(f"q={q} cf={cf}: trace criterion nonzero mod 3")
            if any(x % 3 == 0 for x in (x_a4, x_52, x_51)):
                witness_failures.append(f"q={q} cf={cf}: some closed form divisible by 3")
    return classes, squares, witness_failures


def burnside_classes(length: int, trace: int) -> int:
    """Chains of the given length and entry sum up to reversal, counted as
    (compositions + palindromes) / 2 by stars and bars: the q20 tallies of
    `lemma_q20_pipeline`.  With every entry n_i = 2 + a_i, a composition is
    a_1 + ... + a_l = trace - 2l."""

    def parts(total: int, n: int) -> int:
        # total as an ordered sum of n non-negative integers
        return math.comb(total + n - 1, n - 1) if n else int(total == 0)

    spare = trace - 2 * length
    half = length // 2
    if length % 2 == 0:
        palindromes = parts(spare // 2, half) if spare % 2 == 0 else 0
    else:
        # the middle entry takes spare - 2k, each half k
        palindromes = sum(parts(k, half) for k in range(spare // 2 + 1))
    return (parts(spare, length) + palindromes) // 2


# ---------------------------------------------------------------------------
# the command line (qhpp.cli)
# ---------------------------------------------------------------------------


def argparse_main(argv: list[str]) -> int:
    """`main` with every request parsed by the top-level argparse parser:
    the answers of `cli.main`, whose plain parse answers the simple forms."""
    try:
        args = build_parser().parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
