"""Property suites: exhaustive identity checks and randomized cross-oracles.

These back the `verify` command and the acceptance tests.  Randomized suites
use a fixed seed so every run checks the same corpus.  Each suite holds its
own `random.Random(seed)`; every integer draw goes through `_below`, which
takes bits from `getrandbits` by the rule of CPython's
`Random._randbelow_with_getrandbits`, and `_sample_range` repeats both
branches of `Random.sample`.  So the suites draw exactly what `randint`,
`randrange`, `choice` and `sample` would, without their Python frames and
argument checks; `tests/test_suite_inputs.py` pins every draw and each
suite's final generator state to the `random.Random` methods.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .hjcf import (
    HjCf,
    cf_bump,
    cf_evaluate,
    cf_from_pair,
    cf_mod3_criterion,
    chain_order,
    enumerate_cfs_of_order,
)
from .obstruction import (
    CurveClass,
    DiophProblem,
    Incidence,
    Regime,
    degree_sum,
    ek_formula,
    esq_formula,
    esq_two_component,
    solve_dioph,
)
from .surface import candidate_invariants, dp_data


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for n >= 1: k = n.bit_length() bits, drawn again
    while the result is >= n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _sample_range(rng: random.Random, n: int, k: int) -> list[int]:
    """rng.sample(range(1, n + 1), k) for 0 <= k <= min(n, 5): a pool swap
    when n <= 21, rejection through a set of selected indices otherwise."""
    result = []
    if n <= 21:
        pool = list(range(1, n + 1))
        for i in range(k):
            j = _below(rng, n - i)
            result.append(pool[j])
            pool[j] = pool[n - i - 1]
        return result
    selected = set()
    for _ in range(k):
        j = _below(rng, n)
        while j in selected:
            j = _below(rng, n)
        selected.add(j)
        result.append(j + 1)
    return result


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


@lru_cache(maxsize=1)
def _all_cfs(q_max: int) -> tuple[HjCf, ...]:
    """Every chain of order 2..q_max, built order by order and memoised for
    one q_max, so that the six exhaustive suites share one corpus (6,495
    chains, about 3.3 MB, at the default 200).  run_all_checks releases it
    once those suites have run."""
    return tuple(cf for q in range(2, q_max + 1) for cf in enumerate_cfs_of_order(q))


def check_cf_identities(q_max: int = 200) -> CheckResult:
    """Recurrences, cross/product identities, telescoping sums, the
    (u_j+v_j)/q <= 1 bound, and the bump identity, for every chain of order
    <= q_max.  Bump orders are recomputed by direct evaluation (all j for
    short chains, sampled j for long ones)."""
    bad = []
    count = 0
    for cf in _all_cfs(q_max):
        count += 1
        q, l, u, v = cf.q, cf.l, cf.u_seq, cf.v_seq
        n = cf.entries
        for j in range(1, l + 1):
            if u[j + 1] != n[j - 1] * u[j] - u[j - 1]:
                bad.append(f"{cf}: u recurrence at {j}")
            if v[j - 1] != n[j - 1] * v[j] - v[j + 1]:
                bad.append(f"{cf}: v recurrence at {j}")
            if n[j - 1] * v[j] * u[j] != q + v[j + 1] * u[j] + v[j] * u[j - 1]:
                bad.append(f"{cf}: product identity at {j}")
            if u[j] + v[j] > q:
                bad.append(f"{cf}: u+v bound at {j}")
        for j in range(0, l + 1):
            if v[j] * u[j + 1] - v[j + 1] * u[j] != q:
                bad.append(f"{cf}: cross identity at {j}")
        acc = 0
        for s in range(1, l + 1):
            acc += (n[s - 1] - 2) * u[s]
            if acc != u[s + 1] - u[s] - 1:
                bad.append(f"{cf}: u telescoping at {s}")
        acc = 0
        for s in range(l, 0, -1):
            acc += (n[s - 1] - 2) * v[s]
            if acc != v[s - 1] - v[s] - 1:
                bad.append(f"{cf}: v telescoping at {s}")
        positions = range(1, l + 1) if l <= 40 else (1, l // 2, l)
        for j in positions:
            bumped = n[: j - 1] + (n[j - 1] + 1,) + n[j:]
            direct = chain_order(bumped)
            claimed = cf_bump(cf, j)
            if claimed != direct or claimed <= q:
                bad.append(f"{cf}: bump at {j}")
        if bad:
            break
    return CheckResult(
        "cf_identities",
        not bad,
        bad[0] if bad else f"{count} chains, orders 2..{q_max}",
    )


def _uv_holds(cf: HjCf, z: dict[int, int]) -> bool:
    """sum (u_j+v_j) z_j <= sum (u_j v_j) z_j^2 + slack(sum z) for one z."""
    total = sum(z.values())
    if total == 0:
        return True
    lhs = sum((cf.u_seq[j] + cf.v_seq[j]) * x for j, x in z.items())
    rhs = sum(cf.u_seq[j] * cf.v_seq[j] * x * x for j, x in z.items())
    slack = 1 if total == 1 else 2 if total == 2 else 0
    return lhs <= rhs + slack


def _uv_chain_failures(cf: HjCf) -> list[str]:
    """The unit vectors z = x e_j (x = 1, 2, 3) and, for l <= 30, the pairs
    e_i + e_j that break the weighted inequality on one chain.  With
    s = u_j+v_j and p = u_j v_j they are the integer inequalities s <= p+1,
    2s <= 4p+2, 3s <= 9p and s_i+s_j <= p_i+p_j+2."""
    u, v, l = cf.u_seq, cf.v_seq, cf.l
    s = [0] + [u[j] + v[j] for j in range(1, l + 1)]
    p = [0] + [u[j] * v[j] for j in range(1, l + 1)]
    bad = []
    for j in range(1, l + 1):
        if s[j] > p[j] + 1 or 2 * s[j] > 4 * p[j] + 2 or 3 * s[j] > 9 * p[j]:
            bad.append(f"{cf}: unit z at {j}")
    if l <= 30:
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                if s[i] + s[j] > p[i] + p[j] + 2:
                    bad.append(f"{cf}: pair z at {i},{j}")
    return bad


def check_uv_inequalities(q_max: int = 200, n_random: int = 10_000, seed: int = 2023) -> CheckResult:
    """Weighted inequalities sum (u_j+v_j) z_j <= sum (u_j v_j) z_j^2 (+2 when
    sum z = 2, +1 when sum z = 1) for chains of length >= 5.

    Every such chain of order <= q_max is checked against all unit and
    doubled-unit vectors and a deterministic family of pairs; n_random
    additional (chain, z) pairs with larger support are drawn from a fixed
    seed."""
    bad = []
    cfs = [cf for cf in _all_cfs(q_max) if cf.l >= 5]
    for cf in cfs:
        bad = _uv_chain_failures(cf)
        if bad:
            break
    rng = random.Random(seed)
    for _ in range(n_random):
        cf = cfs[_below(rng, len(cfs))]
        support = _sample_range(rng, cf.l, min(cf.l, 1 + _below(rng, 4)))
        z = {j: _below(rng, 5) for j in support}
        if not _uv_holds(cf, z):
            bad.append(f"{cf}: random z {z}")
            break
    return CheckResult(
        "uv_inequalities",
        not bad,
        bad[0] if bad else f"{len(cfs)} chains, {n_random} random pairs",
    )


def check_mod3(q_max: int = 200) -> CheckResult:
    """The trace criterion is nonzero mod 3 exactly when 3 divides the order,
    exhaustively for all orders <= q_max."""
    count = 0
    for cf in _all_cfs(q_max):
        count += 1
        if cf_mod3_criterion(cf) != (cf.q % 3 == 0):
            return CheckResult("mod3_criterion", False, f"fails at {cf}")
    return CheckResult("mod3_criterion", True, f"{count} chains, orders 2..{q_max}")


def check_dp_closed_form(q_max: int = 200) -> CheckResult:
    """Dp^2 via the intersection-matrix quadratic form equals the closed form
    and the adjunction value, for every chain of order <= q_max (dense
    double-sum evaluation for short chains, tridiagonal integer form always).
    """
    checked = 0
    for cf in _all_cfs(q_max):
        checked += 1
        q, l, n, u, v = cf.q, cf.l, cf.entries, cf.u_seq, cf.v_seq
        c = [0] + [q - u[j] - v[j] for j in range(1, l + 1)] + [0]
        quad = sum(
            c[j] * (-n[j - 1] * c[j] + c[j - 1] + c[j + 1]) for j in range(1, l + 1)
        )
        closed = (2 * l - cf.trace + 2) * q * q - (cf.q1 + cf.ql + 2) * q
        if quad != closed:
            return CheckResult("dp_closed_form", False, f"tridiagonal form at {cf}")
        adj = -q * sum(c[j] * (n[j - 1] - 2) for j in range(1, l + 1))
        if adj != quad:
            return CheckResult("dp_closed_form", False, f"adjunction at {cf}")
        if l == 1 and Fraction(closed, q * q) != -Fraction((n[0] - 2) ** 2, n[0]):
            return CheckResult("dp_closed_form", False, f"l=1 form at {cf}")
        if l <= 12:
            data = dp_data(cf)
            # q * coeff_j: the dense form is an integer over q^2
            nums = data.coeff_nums
            dense = 0
            for i in range(l):
                for j in range(l):
                    if i == j:
                        dense += nums[i] * nums[j] * (-n[i])
                    elif abs(i - j) == 1:
                        dense += nums[i] * nums[j]
            if dense != -data.dp_dot_k_num * q:
                return CheckResult("dp_closed_form", False, f"dense form at {cf}")
    return CheckResult("dp_closed_form", True, f"{checked} chains, orders 2..{q_max}")


def check_round_trip(q_max: int = 200) -> CheckResult:
    """cf_from_pair inverts cf_evaluate, and reversal swaps q1 with ql."""
    for cf in _all_cfs(q_max):
        if cf_from_pair(*cf_evaluate(cf)) != cf:
            return CheckResult("round_trip", False, f"fails at {cf}")
        rq, rq1 = cf_evaluate(cf.reverse())
        if (rq, rq1) != (cf.q, cf.ql):
            return CheckResult("round_trip", False, f"reversal at {cf}")
    return CheckResult("round_trip", True, f"orders 2..{q_max}")


def _count_sqrt1(q: int) -> int:
    return sum(1 for x in range(1, q) if gcd(x, q) == 1 and (x * x) % q == 1)


def _phi(q: int) -> int:
    return sum(1 for x in range(1, q + 1) if gcd(x, q) == 1)


def _is_prime_powerish(q: int) -> bool:
    # q = 4, p^k, or 2 p^k (cyclic unit group, so exactly two square roots of 1)
    if q == 4:
        return True
    m = q if q % 2 else q // 2
    if m == 1:
        return False
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            return m == 1 and p != 2
        p += 1
    return True


def check_class_counts(q_max: int = 200) -> CheckResult:
    """Chain classes of order q number (phi(q) + #{x^2 = 1 mod q})/2; this is
    phi(q)/2 + 1 whenever the unit group mod q is cyclic (q = 4, p^k, 2p^k),
    which covers every order the pipelines enumerate.  The counts are read
    from the shared corpus."""
    counts = Counter(cf.q for cf in _all_cfs(q_max))
    for q in range(3, q_max + 1):
        got = counts[q]
        want = (_phi(q) + _count_sqrt1(q)) // 2
        if got != want:
            return CheckResult("class_counts", False, f"order {q}: {got} != {want}")
        if _is_prime_powerish(q) and got != _phi(q) // 2 + 1:
            return CheckResult("class_counts", False, f"order {q}: phi rule")
    if counts[2] != 1:
        return CheckResult("class_counts", False, "order 2")
    return CheckResult("class_counts", True, f"orders 2..{q_max}")


# Chains are immutable, so each distinct random draw is built once: 1 to 4
# entries in 2..5 give at most 4 + 16 + 64 + 256 = 340 chains.
_random_chain = lru_cache(maxsize=340)(HjCf)
_REGIMES = tuple(Regime)


def _random_candidate(rng: random.Random):
    cfs = []
    for _ in range(1 + _below(rng, 4)):
        l = 1 + _below(rng, 4)
        cfs.append(_random_chain(tuple([2 + _below(rng, 4) for _ in range(l)])))
    return candidate_invariants(cfs)


def check_esq_identity(n_random: int = 10_000, seed: int = 2024) -> CheckResult:
    """The two-component closed form agrees with the full double sum on
    random incidences supported on at most two components per chain."""
    rng = random.Random(seed)
    for i in range(n_random):
        cand = _random_candidate(rng)
        hits: dict[tuple[int, int], int] = {}
        for p, s in enumerate(cand.sings):
            for j in _sample_range(rng, s.l, min(s.l, _below(rng, 3))):
                hits[(p, j)] = 1 + _below(rng, 3)
        inc = Incidence.from_hits(cand, hits)
        curve = CurveClass(0, cand, inc, _REGIMES[_below(rng, len(_REGIMES))])
        if esq_formula(curve) != esq_two_component(curve):
            return CheckResult("esq_identity", False, f"case {i}: {hits}")
    return CheckResult("esq_identity", True, f"{n_random} random incidences")


def _relaxed_ek_bound(curve: CurveClass) -> Fraction:
    """-sum_p sum_j (1 - 2/n_j) EA_j, one integer numerator over the lcm of
    the entries."""
    sings, rows = curve.cand.sings, curve.incidence.rows
    den = lcm(*(n for s in sings for n in s.cf.entries))
    num = sum(
        (n - 2) * x * (den // n)
        for s, row in zip(sings, rows)
        for n, x in zip(s.cf.entries, row)
        if x
    )
    return Fraction(-num, den)


def _diagonal_esq_bound(curve: CurveClass) -> Fraction:
    """-sum_p sum_j (v_j u_j / q_p) EA_j^2, one integer numerator over det R."""
    det_r = curve.cand.det_r
    num = 0
    for s, row in zip(curve.cand.sings, curve.incidence.rows):
        u, v = s.cf.u_seq, s.cf.v_seq
        part = sum(v[j] * u[j] * x * x for j, x in enumerate(row, 1) if x)
        if part:
            num += part * (det_r // s.q)
    return Fraction(-num, det_r)


def check_prop_int_inequalities(n_random: int = 2_000, seed: int = 2025) -> CheckResult:
    """For non-negative incidences: E.K is at most the relaxed bound with
    weights 1 - 2/n_j, and the E^2 sum dominates the diagonal terms."""
    rng = random.Random(seed)
    for i in range(n_random):
        cand = _random_candidate(rng)
        hits = {}
        for p, s in enumerate(cand.sings):
            for j in range(1, s.l + 1):
                if rng.random() < 0.5:
                    hits[(p, j)] = _below(rng, 4)
        inc = Incidence.from_hits(cand, hits)
        curve = CurveClass(0, cand, inc)
        if ek_formula(curve) > _relaxed_ek_bound(curve):
            return CheckResult("prop_int_inequalities", False, f"ek case {i}")
        if esq_formula(curve) > _diagonal_esq_bound(curve):
            return CheckResult("prop_int_inequalities", False, f"esq case {i}")
        double = CurveClass(0, cand, Incidence(tuple(tuple(2 * x for x in row) for row in inc.rows)))
        if degree_sum(double) != 2 * degree_sum(curve):
            return CheckResult("prop_int_inequalities", False, f"linearity case {i}")
    return CheckResult("prop_int_inequalities", True, f"{n_random} random curves")


def check_reversal_invariance(n_random: int = 500, seed: int = 2026) -> CheckResult:
    """Candidate invariants are unchanged under reversing any chain, and
    e_orb strictly decreases when a singularity order increases."""
    rng = random.Random(seed)
    for i in range(n_random):
        cand = _random_candidate(rng)
        cfs = [s.cf for s in cand.sings]
        k = _below(rng, len(cfs))
        flipped = list(cfs)
        flipped[k] = flipped[k].reverse()
        other = candidate_invariants(flipped)
        if (other.ks2, other.D, other.e_orb, other.L) != (
            cand.ks2,
            cand.D,
            cand.e_orb,
            cand.L,
        ):
            return CheckResult("reversal_invariance", False, f"case {i}")
        bumped = list(cfs)
        bumped[k] = HjCf(bumped[k].entries + (2,))
        grown = candidate_invariants(bumped)
        if grown.e_orb >= cand.e_orb:
            return CheckResult("reversal_invariance", False, f"monotonicity case {i}")
    return CheckResult("reversal_invariance", True, f"{n_random} random candidates")


def _brute_force_dioph(problem: DiophProblem) -> list[tuple[int, ...]]:
    """Grid oracle: the full box 0 <= x_i <= target/coeff_i, every point
    tested in integers.  One lcm clears the target, the coefficients and the
    group sums, another the quadratic coefficients and their bound; each sum
    is one ``sum(map(mul, ...))`` over the point, a group's coefficients
    being zero off its indices.  No code is shared with solve_dioph."""
    den = lcm(
        problem.target.denominator,
        *(c.denominator for c in problem.coeffs),
        *(exact.denominator for _, exact in problem.group_constraints),
    )
    coeffs = [int(c * den) for c in problem.coeffs]
    target = int(problem.target * den)
    groups = [
        ([a if i in idx else 0 for i, a in enumerate(coeffs)], int(exact * den))
        for idx, exact in problem.group_constraints
    ]
    quads = None
    if problem.quad_coeffs is not None:
        qden = lcm(
            problem.quad_bound.denominator,
            *(c.denominator for c in problem.quad_coeffs),
        )
        quads = [int(c * qden) for c in problem.quad_coeffs]
        quad_bound = int(problem.quad_bound * qden)
    out = []
    for vec in product(*(range(target // a + 1) for a in coeffs)):
        if sum(map(mul, coeffs, vec)) != target:
            continue
        if any(sum(map(mul, row, vec)) != exact for row, exact in groups):
            continue
        if quads is not None and sum(map(mul, quads, map(mul, vec, vec))) > quad_bound:
            continue
        out.append(vec)
    return out


REFERENCE_DIOPH_INSTANCES = [
    DiophProblem((Fraction(5, 7), Fraction(1, 19)), Fraction(134, 133)),
    DiophProblem((Fraction(1, 3), Fraction(3, 5)), Fraction(16, 15)),
    DiophProblem((Fraction(1, 3), Fraction(1, 5), Fraction(1, 33)), Fraction(56, 55)),
    DiophProblem((Fraction(1, 3), Fraction(1, 5), Fraction(1, 43)), Fraction(647, 645)),
    DiophProblem((Fraction(1, 3), Fraction(1, 5), Fraction(1, 43)), Fraction(649, 645)),
]


def check_dioph_oracle(n_random: int = 1_000, seed: int = 2027) -> CheckResult:
    """solve_dioph agrees with the brute-force grid oracle on the recorded
    instances and on random small problems (random groups and quadratic
    filters included)."""
    rng = random.Random(seed)
    for k, prob in enumerate(REFERENCE_DIOPH_INSTANCES):
        if solve_dioph(prob) != _brute_force_dioph(prob):
            return CheckResult("dioph_oracle", False, f"recorded instance {k}")
    for i in range(n_random):
        n = 1 + _below(rng, 4)
        coeffs = tuple(
            Fraction(1 + _below(rng, 9), 1 + _below(rng, 6)) for _ in range(n)
        )
        # keep the brute-force box small: at most ~20 values per variable
        target = Fraction(_below(rng, 13), 1 + _below(rng, 4))
        while any(target / c > 24 for c in coeffs):
            target /= 2
        groups = ()
        if n >= 2 and rng.random() < 0.3:
            groups = (((0, 1), coeffs[0] * _below(rng, 4)),)
        quad = None
        qb = None
        if rng.random() < 0.3:
            quad = tuple(Fraction(1 + _below(rng, 5), 1 + _below(rng, 5)) for _ in range(n))
            qb = Fraction(_below(rng, 41), 1 + _below(rng, 4))
        prob = DiophProblem(coeffs, target, groups, quad, qb)
        if solve_dioph(prob) != sorted(_brute_force_dioph(prob)):
            return CheckResult("dioph_oracle", False, f"random instance {i}")
    return CheckResult("dioph_oracle", True, f"{n_random} random instances")


def check_coeff_tables() -> CheckResult:
    """Every bundled coefficient table (the adjunction rows 1 - (v_j+u_j)/q
    and the v_j u_j / q rows where present) is reproduced by the chain data;
    values compare as exact rationals, so a table cell like 24/33 matches the
    reduced 8/11.  A table must give one row per chain: a short or long
    ``coeffs``, or ``quad`` where present, fails."""
    from .fixtures import load_fixtures
    from .hjcf import parse_cf
    from .ratio import parse_rational

    tables = load_fixtures()["coeff_tables"]
    for name, table in tables.items():
        for rows in ("coeffs", "quad"):
            if rows in table and len(table[rows]) != len(table["sings"]):
                return CheckResult(
                    "coeff_tables",
                    False,
                    f"{name}: {len(table['sings'])} sings, {len(table[rows])} {rows} rows",
                )
        for sing_text, coeffs in zip(table["sings"], table["coeffs"]):
            sing = dp_data(parse_cf(sing_text))
            got = [Fraction(n, sing.q) for n in sing.coeff_nums]
            if got != [parse_rational(c) for c in coeffs]:
                return CheckResult("coeff_tables", False, f"{name}: {sing_text}")
        for sing_text, quads in zip(table["sings"], table.get("quad", [])):
            cf = parse_cf(sing_text)
            got = [
                Fraction(cf.v_seq[j] * cf.u_seq[j], cf.q) for j in range(1, cf.l + 1)
            ]
            if got != [parse_rational(c) for c in quads]:
                return CheckResult("coeff_tables", False, f"{name} quad: {sing_text}")
    return CheckResult("coeff_tables", True, f"{len(tables)} coefficient tables")


# The first _EXHAUSTIVE_SUITES entries read the shared chain corpus.  The
# count, not the functions, marks where it is released, because a tracer may
# replace the entries with wrappers.
_EXHAUSTIVE_SUITES = 6
ALL_CHECKS = [
    check_cf_identities,
    check_uv_inequalities,
    check_mod3,
    check_dp_closed_form,
    check_round_trip,
    check_class_counts,
    check_esq_identity,
    check_prop_int_inequalities,
    check_reversal_invariance,
    check_dioph_oracle,
    check_coeff_tables,
]


def run_all_checks() -> list[CheckResult]:
    """Every suite in ALL_CHECKS order.  The chain corpus is released as soon
    as the exhaustive suites have run, so that the random suites do not
    allocate on top of it."""
    results = [fn() for fn in ALL_CHECKS[:_EXHAUSTIVE_SUITES]]
    _all_cfs.cache_clear()
    return results + [fn() for fn in ALL_CHECKS[_EXHAUSTIVE_SUITES:]]
