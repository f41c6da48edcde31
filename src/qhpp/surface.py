"""Invariants of cyclic quotient singularities and surface candidates.

A candidate is an ordered list of cyclic quotient singularities placed on a
Q-homology projective plane (b0 = b2 = b4 = 1, so the Euler number of the
surface is 3 and the Noether relation gives K^2 = 9 - L on the minimal
resolution, L being the total number of exceptional curves).

The key derived numbers are, with f: S' -> S the minimal resolution:

* per singularity, the adjunction divisor Dp supported on the exceptional
  chain, with coefficients 1 - (v_j + u_j)/q, and its intersection
  Dp.K = -Dp^2, both kept as integer numerators over q;
* K_S^2 = (9 - L) + sum_p Dp.K;
* the orbifold Euler characteristic e_orb = 3 - sum_p (1 - 1/q_p);
* det R = product of the orders, and the discriminant D = det R * K_S^2,
  which must be a positive perfect square for the candidate to survive;
* D' = D / c^2 when the exceptional lattice has primitive closure of
  index c (c = 1 whenever the orders are pairwise coprime).

Every order divides det R, so D and E = det R * e_orb are integers, and the
kernel computes them as integer sums; K^2, e_orb and D' are D and E over
det R and c^2.  Since det R > 0, the orbifold BMY bound K^2 <= 3 e_orb reads
D <= 3E, and e_orb >= 0 reads E >= 0.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .hjcf import HjCf, parse_cf
from .ratio import _format_over, format_rational, is_positive_square

__all__ = [
    "CyclicSing",
    "SurfaceCandidate",
    "BmyStatus",
    "GramConfig",
    "dp_data",
    "candidate_invariants",
    "bmy_status",
    "gram_determinant",
    "candidate_to_dict",
]


class CyclicSing(NamedTuple):
    """A cyclic quotient singularity with its resolution-divisor data, as
    integer numerators over q.

    ``coeff_nums[j - 1]`` is q - u_j - v_j, q times the adjunction
    coefficient of the j-th curve, ``dp_dot_k_num`` is q * Dp.K
    (= -q * Dp^2), and ``d_term`` is q * Dp.K - l * q, the point's
    numerator in the kernel's sum for D (see ``_det_and_d``).
    """

    cf: HjCf
    q: int
    coeff_nums: tuple[int, ...]
    dp_dot_k_num: int
    d_term: int

    @property
    def l(self) -> int:
        return self.cf.l

    def __str__(self) -> str:
        return str(self.cf)


def dp_data(cf: HjCf | str) -> CyclicSing:
    """Adjunction data of the chain: coefficients and Dp.K = -Dp^2.

    The coefficient of the j-th curve is 1 - (v_j + u_j)/q, each in [0, 1).
    Dp.K = sum coeff_j * (n_j - 2), and the value is cross-checked against
    the closed form 2l - trace + 2 - (q1 + ql + 2)/q at construction.
    Chains are immutable, so records are memoised on the chain by
    ``_dp_memo``, a functools.lru_cache of the 512 most recently used
    (``_dp_memo.cache_info()`` counts its hits); a miss keeps the chain it
    was given.  A `verify --all` run makes 39,455 calls, of which a share of
    0.135 name a chain not asked for before, and a pass of the six pipelines
    makes 718, 277 of them misses: the candidate scans fetch each chain's
    record once, where they build the chain, and build a candidate only for
    a square D.
    """
    if isinstance(cf, str):
        cf = parse_cf(cf)
    if not cf.entries:
        raise ValueError("the empty chain [] is not a singularity")
    return _dp_memo(cf)


@lru_cache(maxsize=512)
def _dp_memo(cf: HjCf) -> CyclicSing:
    q, u, v = cf.q, cf.u_seq, cf.v_seq
    nums = tuple(q - v[j] - u[j] for j in range(1, cf.l + 1))
    dot_k_num = sum(c * (n - 2) for c, n in zip(nums, cf.entries))
    closed_num = (2 * cf.l - cf.trace + 2) * q - (cf.q1 + cf.ql + 2)
    if -dot_k_num != closed_num:
        raise AssertionError(
            f"adjunction data inconsistent for {cf}: "
            f"{Fraction(-dot_k_num, q)} != {Fraction(closed_num, q)}"
        )
    return CyclicSing(
        cf=cf, q=q, coeff_nums=nums, dp_dot_k_num=dot_k_num,
        d_term=dot_k_num - cf.l * q,
    )


class SurfaceCandidate(NamedTuple):
    """A list of cyclic singularities with all derived surface invariants.

    ``D`` = det R * K^2 and ``E`` = det R * e_orb are the integers the
    kernel computes; ``ks2``, ``e_orb`` and ``d_prime`` are built from
    them on each read, one Fraction each.
    """

    sings: tuple[CyclicSing, ...]
    c: int
    L: int
    det_r: int
    D: int
    E: int

    @property
    def ks2(self) -> Fraction:
        return Fraction(self.D, self.det_r)

    @property
    def e_orb(self) -> Fraction:
        return Fraction(self.E, self.det_r)

    @property
    def d_prime(self) -> Fraction:
        return Fraction(self.D, self.c * self.c)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(s.q for s in self.sings)

    @property
    def pairwise_coprime(self) -> bool:
        qs = self.orders
        return all(
            gcd(qs[i], qs[j]) == 1 for i in range(len(qs)) for j in range(i + 1, len(qs))
        )


def candidate_invariants(
    sings: list[HjCf | str], c: int = 1
) -> SurfaceCandidate:
    """Build a candidate from chains and compute every derived invariant.

    ``c`` is the index of the primitive closure of the exceptional lattice;
    it is caller-supplied (default 1).  c^2 must divide det R so that
    det R / c^2 is an integer, and pairwise coprime orders force c = 1.

    With s_p = det R / q_p, the invariants are the integer sums
    D = (9 - L) det R + sum_p (q_p Dp.K) s_p (``_det_and_d``) and
    E = 3 det R - sum_p (det R - s_p) = (3 - n) det R + sum_p s_p for n points.
    """
    data = tuple(map(dp_data, sings))
    if not data:
        raise ValueError("a candidate needs at least one singularity")
    if c < 1:
        raise ValueError(f"c must be a positive integer, got {c}")
    det_r, d = _det_and_d(data)
    if det_r >= _DET_R_CEILING:
        raise ValueError(f"det R has more than the limit of {DET_R_DIGIT_LIMIT:,} digits")
    if det_r % (c * c) != 0:
        raise ValueError(f"c={c} rejected: c^2 does not divide det R = {det_r}")
    L = 0
    e = (3 - len(data)) * det_r
    for s in data:
        L += len(s.coeff_nums)
        e += det_r // s.q
    cand = SurfaceCandidate(data, c, L, det_r, d, e)
    if c != 1 and cand.pairwise_coprime:
        raise ValueError(
            f"c={c} rejected: pairwise coprime orders {cand.orders} force c=1"
        )
    return cand


def _det_and_d(data: Sequence[CyclicSing]) -> tuple[int, int]:
    """det R and D = det R * K^2 of the points ``data``, in integers.

    The kernel's sum D = (9 - L) det R + sum_p (q_p Dp.K) s_p, regrouped
    point by point: L det R = sum_p l_p q_p s_p, so D = 9 det R +
    sum_p w_p s_p with w_p = q_p Dp.K - l_p q_p, the record's ``d_term``.
    The candidate scans call it on their own records, to test D before they
    build a candidate.
    """
    det_r = 1
    for s in data:
        det_r *= s.q
    d = 9 * det_r
    for s in data:
        d += s.d_term * (det_r // s.q)
    return det_r, d


class BmyStatus(enum.Enum):
    """Classification of a candidate against the orbifold BMY inequalities.

    K^2 <= 3 e_orb must hold when K is nef, and 0 <= e_orb when either K or
    -K is nef.  E_ORB_NEGATIVE therefore kills a candidate outright,
    VIOLATES_K_AMPLE rules out ample K (leaving the del Pezzo side), and
    OK_K_AMPLE means ample K passes the filter.  OK marks candidates with
    K^2 <= 0, where the nef-K inequality does not apply.
    """

    OK_K_AMPLE = "OK_K_AMPLE"
    VIOLATES_K_AMPLE = "VIOLATES_K_AMPLE"
    E_ORB_NEGATIVE = "E_ORB_NEGATIVE"
    OK = "OK"


def bmy_status(cand: SurfaceCandidate) -> BmyStatus:
    """The class of the candidate, read off the integers D and E (the
    inequalities on K^2 and e_orb times det R > 0)."""
    if cand.E < 0:
        return BmyStatus.E_ORB_NEGATIVE
    if cand.D <= 0:
        return BmyStatus.OK
    if cand.D <= 3 * cand.E:
        return BmyStatus.OK_K_AMPLE
    return BmyStatus.VIOLATES_K_AMPLE


def candidate_to_dict(cand: SurfaceCandidate) -> dict:
    """JSON-ready summary; rationals as ``p/q`` strings in lowest terms,
    K^2 and 3 e_orb reduced from the integers D and 3E over det R."""
    return {
        "sings": [str(s.cf) for s in cand.sings],
        "orders": list(cand.orders),
        "L": cand.L,
        "ks2": _format_over(cand.D, cand.det_r),
        "detR": cand.det_r,
        "D": format_rational(cand.D),
        "D_square": is_positive_square(cand.D),
        "three_e_orb": _format_over(3 * cand.E, cand.det_r),
        "bmy": bmy_status(cand).value,
    }


# ---------------------------------------------------------------------------
# small Gram matrices
# ---------------------------------------------------------------------------


class GramConfig(NamedTuple):
    """A symmetric integer intersection configuration.

    ``diagonal`` holds the self-intersections; ``off_diagonal`` maps index
    pairs (i, j), i < j, 0-based, to intersection numbers.
    """

    diagonal: tuple[int, ...]
    off_diagonal: dict[tuple[int, int], int]

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def matrix(self) -> list[list[int]]:
        """The configuration's matrix, once its input is bounded: at most
        GRAM_SIZE_LIMIT vertices, edges within range and not loops,
        intersection numbers >= 0, and a Hadamard bound of at most
        GRAM_DET_DIGIT_LIMIT digits.  Raises ValueError otherwise.

        The Hadamard bound, the product of the lengths of the nonzero rows,
        caps |det| and every minor, so every integer that Bareiss elimination
        makes.  It is tested on the squares, in integers, summed from the
        diagonal and the edges rather than the dense matrix, and the product
        stops at the first prefix past the limit.
        """
        n = self.size
        if n > GRAM_SIZE_LIMIT:
            raise ValueError(
                f"a Gram configuration has at most {GRAM_SIZE_LIMIT} vertices, got {n:,}"
            )
        norms = [d * d for d in self.diagonal]
        for (i, j), w in self.off_diagonal.items():
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(f"edge ({i},{j}) out of range for size {n}")
            if w < 0:
                raise ValueError(f"intersection numbers must be >= 0, got {w}")
            norms[i] += w * w
            norms[j] += w * w
        bound_sq = 1
        for norm in norms:
            bound_sq *= norm or 1
            if bound_sq >= _HADAMARD_SQ_CEILING:
                raise ValueError(
                    "a Gram configuration's Hadamard bound on |det| has more than "
                    f"the limit of {GRAM_DET_DIGIT_LIMIT:,} digits"
                )
        m = [[0] * n for _ in range(n)]
        for i, d in enumerate(self.diagonal):
            m[i][i] = d
        for (i, j), w in self.off_diagonal.items():
            m[i][j] = m[j][i] = w
        return m


# Vertices a Gram configuration may have.  Elimination is cubic in the size:
# a tridiagonal `qhpp gram` takes about 0.2, 0.6 and 3.4 s end to end for
# 100, 200 and 400 vertices on a 2-vCPU host (0.15 s of it interpreter
# start), and the reference configurations have at most 7 vertices.
GRAM_SIZE_LIMIT = 100

# Digits the Hadamard bound of a Gram configuration may have.  The worst case
# is dense: 100 vertices with 9-digit entries (a 979-digit bound) take about
# 1.0 s, with 19-digit entries (1,979 digits) 3.6 s, and with 42-digit entries
# (4,279 digits, about the longest integer CPython prints by default) 14 s,
# on a 2-vCPU host with Python 3.11.
GRAM_DET_DIGIT_LIMIT = 1_000
# the square of the least bound with more digits, made once: 10^2000 takes
# longer to compute than the check of a small configuration
_HADAMARD_SQ_CEILING = 10 ** (2 * GRAM_DET_DIGIT_LIMIT)
# Digits det R of a candidate may have: its JSON prints det R and fractions
# over it, and CPython prints no integer of more than 4,300 digits.
DET_R_DIGIT_LIMIT = 1_000
_DET_R_CEILING = 10**DET_R_DIGIT_LIMIT


def gram_determinant(cfg: GramConfig) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination, of the
    matrix ``GramConfig.matrix`` bounds (it raises ValueError past its limits)."""
    m = cfg.matrix()
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
