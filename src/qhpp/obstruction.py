"""Curve-class obstruction calculus on the minimal resolution.

A hypothetical curve class E on the minimal resolution is described by its
leading coefficient m (relative to the generator M of the Picard group whose
pairing with the pullback of K is K^2/sqrt(D')) together with the incidence
numbers E.A(j,p) against the exceptional curves.  The intersection numbers

    E.K  = (+-m/sqrt(D')) K^2 - sum_p sum_j (1 - (v_j+u_j)/q) E.A(j)
    E^2  = (m^2/D') K^2 - sum_p sum_j disc(p, j) E.A(j)

with disc(p, j) the local discrepancy sum, turn the existence of (-1)-curves
and minimal curves into bounded Diophantine problems over the non-negative
integers; those problems and their exact solver live here as well.

The sign of the leading term depends on which of K or -K is ample; the
regime is always an explicit parameter and never inferred.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .ratio import rational_sqrt
from .surface import CyclicSing, SurfaceCandidate

__all__ = [
    "Regime",
    "Incidence",
    "CurveClass",
    "DiophProblem",
    "degree_sum",
    "local_discrepancy",
    "ek_formula",
    "esq_formula",
    "esq_two_component",
    "m_upper_bound",
    "solve_dioph",
    "minimal_curve_m",
]


class Regime(enum.Enum):
    """Ampleness convention fixing the sign of the leading coefficient."""

    K_AMPLE = "K"
    ANTI_K_AMPLE = "-K"


class Incidence(NamedTuple):
    """Non-negative intersection numbers with each exceptional curve.

    ``rows[p][j]`` is E.A(j+1) at the p-th singularity (0-based here,
    1-based in the formulas).
    """

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_hits(cand: SurfaceCandidate, hits: dict[tuple[int, int], int]) -> "Incidence":
        """Build an incidence from {(sing index, 1-based position): count}."""
        rows = [[0] * s.l for s in cand.sings]
        for (p, j), val in hits.items():
            rows[p][j - 1] = val
        return Incidence(tuple(tuple(r) for r in rows))

    def validate_against(self, cand: SurfaceCandidate) -> None:
        if len(self.rows) != len(cand.sings):
            raise ValueError("incidence rows do not match the singularity list")
        for row, s in zip(self.rows, cand.sings):
            if len(row) != s.l:
                raise ValueError(f"incidence row {row} does not match chain {s.cf}")
            if any(x < 0 for x in row):
                raise ValueError("incidence numbers must be non-negative")


# the fields of CurveClass, which checks them at construction
class _CurveFields(NamedTuple):
    m: int
    cand: SurfaceCandidate
    incidence: Incidence
    regime: Regime = Regime.K_AMPLE


class CurveClass(_CurveFields):
    """A curve class: leading coefficient, candidate surface and incidence."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self.incidence.validate_against(self.cand)


def degree_sum(curve: CurveClass) -> Fraction:
    """sum_p sum_j (1 - (v_j+u_j)/q) E.A(j,p), the adjunction-weighted degree.

    Each chain's share is an integer numerator over q_p, scaled by
    det R / q_p into one integer numerator over det R.
    """
    det_r = curve.cand.det_r
    num = 0
    for sing, row in zip(curve.cand.sings, curve.incidence.rows):
        q, u, v = sing.q, sing.cf.u_seq, sing.cf.v_seq
        part = sum((q - u[j] - v[j]) * ea for j, ea in enumerate(row, 1) if ea)
        if part:
            num += part * (det_r // q)
    return Fraction(num, det_r)


def local_discrepancy(sing: CyclicSing, incidence_row: tuple[int, ...], j: int) -> Fraction:
    """The discrepancy sum at position j (1-based) of one chain:

    sum_{k<=j} (v_j u_k / q) EA_k  +  sum_{k>j} (v_k u_j / q) EA_k.
    """
    if not 1 <= j <= sing.l:
        raise ValueError(f"position {j} out of range 1..{sing.l}")
    cf = sing.cf
    q = sing.q
    total = Fraction(0)
    for k in range(1, sing.l + 1):
        ea = incidence_row[k - 1]
        if not ea:
            continue
        if k <= j:
            total += Fraction(cf.v_seq[j] * cf.u_seq[k], q) * ea
        else:
            total += Fraction(cf.v_seq[k] * cf.u_seq[j], q) * ea
    return total


def ek_formula(curve: CurveClass) -> Fraction:
    """E.K on the minimal resolution; the leading term (+-m/sqrt(D')) K^2
    needs D' to be a rational square, and is skipped when m = 0."""
    tail = degree_sum(curve)
    if curve.m == 0:
        return -tail
    sqrt_dp = rational_sqrt(curve.cand.d_prime)
    sign = 1 if curve.regime is Regime.K_AMPLE else -1
    return sign * Fraction(curve.m) / sqrt_dp * curve.cand.ks2 - tail


def _esq_from_tail(curve: CurveClass, num: int) -> Fraction:
    """(m^2/D') K^2 - num/det R: E^2 from the integer numerator of its
    discrepancy sum over det R.  The leading term needs D' to be a rational
    square, and is skipped when m = 0."""
    tail = Fraction(-num, curve.cand.det_r)
    if curve.m == 0:
        return tail
    rational_sqrt(curve.cand.d_prime)
    return Fraction(curve.m * curve.m) / curve.cand.d_prime * curve.cand.ks2 + tail


def esq_formula(curve: CurveClass) -> Fraction:
    """E^2 from the full double sum of local discrepancies.

    Each chain's share, sum_j EA_j * local_discrepancy(j), is an integer
    numerator over q_p; scaled by det R / q_p, the shares add up to one
    integer numerator over det R.
    """
    det_r = curve.cand.det_r
    total = 0
    for sing, row in zip(curve.cand.sings, curve.incidence.rows):
        u, v = sing.cf.u_seq, sing.cf.v_seq
        num = 0
        for j, ea_j in enumerate(row, 1):
            if not ea_j:
                continue
            for k, ea_k in enumerate(row, 1):
                if ea_k:
                    num += (v[j] * u[k] if k <= j else v[k] * u[j]) * ea_k * ea_j
        if num:
            total += num * (det_r // sing.q)
    return _esq_from_tail(curve, total)


def esq_two_component(curve: CurveClass) -> Fraction:
    """E^2 by the closed form valid when each chain carries at most two hits.

    Must agree with esq_formula wherever it applies; rejects incidences with
    three or more nonzero entries on one chain.
    """
    det_r = curve.cand.det_r
    total = 0
    for sing, row in zip(curve.cand.sings, curve.incidence.rows):
        support = [j for j in range(1, sing.l + 1) if row[j - 1]]
        if len(support) > 2:
            raise ValueError(
                f"chain {sing.cf} carries {len(support)} hits; at most 2 allowed"
            )
        u, v = sing.cf.u_seq, sing.cf.v_seq
        num = 0
        if len(support) >= 1:
            s = support[0]
            num += v[s] * u[s] * row[s - 1] ** 2
        if len(support) == 2:
            s, t = support
            ea_s, ea_t = row[s - 1], row[t - 1]
            num += v[t] * u[t] * ea_t * ea_t + 2 * v[t] * u[s] * ea_s * ea_t
        if num:
            total += num * (det_r // sing.q)
    return _esq_from_tail(curve, total)


def m_upper_bound(d_prime: Fraction | int, L: int) -> Fraction:
    """sqrt(D') / (L - 9), the ceiling for the leading coefficient of a
    (-1)-curve on a non-rational surface with L > 9 exceptional curves."""
    if L <= 9:
        raise ValueError(f"bound needs L > 9, got L={L}")
    root = rational_sqrt(Fraction(d_prime))
    if root <= 0:
        raise ValueError("D' must be positive")
    return root / (L - 9)


def minimal_curve_m(cand: SurfaceCandidate, incidence: Incidence) -> Fraction:
    """Leading coefficient forced on a minimal (-1)-curve when -K is ample.

    From C.K = -1 written in the anti-ample regime:
        m = sqrt(D') * (1 - degree_sum) / K^2.
    The caller checks positivity and integrality of the result.
    """
    if cand.ks2 == 0:
        raise ValueError("K^2 = 0: leading coefficient undefined")
    curve = CurveClass(m=0, cand=cand, incidence=incidence, regime=Regime.ANTI_K_AMPLE)
    root = rational_sqrt(cand.d_prime)
    return root * (1 - degree_sum(curve)) / cand.ks2


# ---------------------------------------------------------------------------
# bounded Diophantine problems
# ---------------------------------------------------------------------------


# the fields of DiophProblem, which checks them at construction
class _DiophFields(NamedTuple):
    coeffs: tuple[Fraction, ...]
    target: Fraction
    group_constraints: tuple[tuple[tuple[int, ...], Fraction], ...] = ()
    quad_coeffs: tuple[Fraction, ...] | None = None
    quad_bound: Fraction | None = None


class DiophProblem(_DiophFields):
    """sum coeffs[i] * x[i] = target over non-negative integers x.

    All coefficients must be positive, which makes the solution set finite
    (x[i] <= target/coeffs[i]).  Optional extras:

    * ``group_constraints``: pairs (index tuple, exact sum); a solution must
      satisfy sum_{i in group} coeffs[i] * x[i] == exact sum;
    * ``quad_coeffs`` with ``quad_bound``: keep only solutions with
      sum quad_coeffs[i] * x[i]^2 <= quad_bound.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if not self.coeffs:
            raise ValueError("at least one coefficient required")
        if any(c <= 0 for c in self.coeffs):
            raise ValueError("all coefficients must be positive")
        if self.quad_coeffs is not None:
            if len(self.quad_coeffs) != len(self.coeffs):
                raise ValueError("quad_coeffs length mismatch")
            if any(c <= 0 for c in self.quad_coeffs):
                raise ValueError("quadratic coefficients must be positive")
            if self.quad_bound is None:
                raise ValueError("quad_coeffs given without quad_bound")
        elif self.quad_bound is not None:
            raise ValueError("quad_bound given without quad_coeffs")


# Search nodes solve_dioph may count, and solutions it may keep after the
# group and quadratic filters, before it gives up.  A node is one of the
# plain depth-first search over every variable, leaves included; the leaves
# of the last variable are counted, not visited.  The largest problem qhpp
# builds for itself, in the property suites, has 410 leaves and keeps 150
# solutions; the pipelines' largest has 87 leaves.  A problem past either
# budget gets an error, never a shortened solution list.
DFS_NODE_BUDGET = 2_000_000
SOLUTION_BUDGET = 100_000


def _over_lcm(values: list[Fraction]) -> list[int]:
    """The numerators of the values over the lcm of their denominators."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values]


def _over_node_budget() -> ValueError:
    return ValueError(f"Diophantine search exceeds its budget of {DFS_NODE_BUDGET:,} nodes")


def solve_dioph(problem: DiophProblem) -> list[tuple[int, ...]]:
    """The complete, lexicographically sorted solution list.

    Enumeration is a depth-first search in integers: one lcm clears the
    target, the coefficients and the group sums, another the quadratic
    coefficients and their bound, and each leaf is filtered as it is found.
    The last two variables are solved by one congruence: with a x + m y = r
    left, g = gcd(a, m) and p = m/g, x completes exactly when g divides r
    and x = (r/g) (a/g)^-1 mod p, so only those x are visited.  The node
    count is still that of the plain search, which visits every x from 0 to
    r // a as a leaf.  An empty list is a normal outcome.  Raises ValueError
    when the search would count more than DFS_NODE_BUDGET nodes or keep more
    than SOLUTION_BUDGET solutions.
    """
    n, constraints = len(problem.coeffs), problem.group_constraints
    target, *ints = _over_lcm(
        [problem.target, *problem.coeffs, *(exact for _, exact in constraints)]
    )
    if target < 0:
        return []
    cleared = ints[:n]
    groups = [(idx, exact) for (idx, _), exact in zip(constraints, ints[n:])]
    quads = None
    if problem.quad_coeffs is not None:
        quad_bound, *quads = _over_lcm([problem.quad_bound, *problem.quad_coeffs])
    # a x + m y completes the last two variables (n = 1 has only m)
    a, m = cleared[-2:] if n > 1 else (1, cleared[0])
    g = gcd(a, m)
    p = m // g
    inv = pow(a // g, -1, p)
    solutions: list[tuple[int, ...]] = []
    vec = [0] * n
    nodes = 0

    def keep() -> None:
        """Keep vec, which solves the equation, if it passes the filters."""
        if groups and any(
            sum(cleared[k] * vec[k] for k in idx) != exact for idx, exact in groups
        ):
            return
        if quads is not None and sum(b * x * x for b, x in zip(quads, vec)) > quad_bound:
            return
        if len(solutions) == SOLUTION_BUDGET:
            raise ValueError(
                f"Diophantine problem has more than {SOLUTION_BUDGET:,} solutions"
            )
        solutions.append(tuple(vec))

    def dfs(i: int, remaining: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > DFS_NODE_BUDGET:
            raise _over_node_budget()
        if i == n - 2:
            # x = 0 .. last are the plain search's next last + 1 nodes, its
            # leaves, so a completing leaf past the budget is never kept
            last = remaining // a
            nodes += last + 1
            over = nodes - DFS_NODE_BUDGET
            if remaining % g == 0:
                for x in range(remaining // g * inv % p, last + 1 - max(over, 0), p):
                    vec[i] = x
                    vec[-1] = (remaining - x * a) // m
                    keep()
            if over > 0:
                raise _over_node_budget()
        elif i < n - 2:
            step = cleared[i]
            for x in range(remaining // step + 1):
                vec[i] = x
                dfs(i + 1, remaining - x * step)
        elif remaining % m == 0:  # the single leaf of n = 1
            vec[i] = remaining // m
            keep()

    dfs(0, target)
    return solutions


# ---------------------------------------------------------------------------
# problem builders used by the elimination pipelines
# ---------------------------------------------------------------------------


def component_problem(
    cand: SurfaceCandidate, target: Fraction, with_quad_bound: Fraction | None = None
) -> tuple[DiophProblem, list[tuple[int, int]]]:
    """Full-granularity degree equation over every positive-coefficient curve,
    with the quadratic filter when a bound is given.

    Returns the problem plus the (sing index, 1-based position) label of each
    variable.  Curves with coefficient zero cannot contribute to the degree
    sum and are omitted; with a quadratic filter active they would only ever
    be set to zero anyway.
    """
    coeffs: list[Fraction] = []
    quads: list[Fraction] = []
    labels: list[tuple[int, int]] = []
    for p, sing in enumerate(cand.sings):
        for j, num in enumerate(sing.coeff_nums, 1):
            if num > 0:
                coeffs.append(Fraction(num, sing.q))
                quads.append(Fraction(sing.cf.v_seq[j] * sing.cf.u_seq[j], sing.q))
                labels.append((p, j))
    problem = DiophProblem(
        coeffs=tuple(coeffs),
        target=target,
        quad_coeffs=tuple(quads) if with_quad_bound is not None else None,
        quad_bound=with_quad_bound,
    )
    return problem, labels


def aggregated_problem(
    cand: SurfaceCandidate, target: Fraction
) -> tuple[DiophProblem, list[int]]:
    """One variable per singularity with nonzero coefficients.

    The coefficient is gcd(numerators)/q_p, the finest common step of that
    chain's contributions; the variable counts steps.  Returns the problem
    and the singularity index of each variable.
    """
    coeffs: list[Fraction] = []
    labels: list[int] = []
    for p, sing in enumerate(cand.sings):
        nums = [n for n in sing.coeff_nums if n > 0]
        if not nums:
            continue
        coeffs.append(Fraction(gcd(*nums), sing.q))
        labels.append(p)
    return DiophProblem(coeffs=tuple(coeffs), target=target), labels
