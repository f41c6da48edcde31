"""Hirzebruch-Jung continued fractions with exact integer arithmetic.

A chain ``[n1, ..., nl]`` (all entries >= 2) evaluates to

    n1 - 1/(n2 - 1/(... - 1/nl)) = q/q1

and encodes the exceptional chain of the cyclic quotient singularity of
type (1/q)(1, q1); the j-th curve in the chain has self-intersection -nj.
The empty chain is permitted and stands for the smooth (order 1) case,
matching the convention that the determinant of an empty intersection
matrix is 1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd
from typing import Iterable, Iterator

from .ratio import _read_int

__all__ = [
    "HjCf",
    "cf_bump",
    "cf_evaluate",
    "cf_from_pair",
    "cf_mod3_criterion",
    "enumerate_cfs_by_shape",
    "enumerate_cfs_of_order",
    "parse_cf",
]

# The longest chain parse_cf accepts, in bracket form or as a fraction that
# cf_from_pair expands: (n + 1)/n has n entries, and cf-info takes about
# 0.6 s and 42 MB at 100,000 of them.
CHAIN_LENGTH_LIMIT = 100_000

# The most digits the order of a chain that parse_cf or cf_from_pair accepts
# may have.  Memory grows with the length times the digits of the order, as
# every u_j and v_j is stored; the orders qhpp scans stay below 12,001.
ORDER_DIGIT_LIMIT = 100
_ORDER_CEILING = 10**ORDER_DIGIT_LIMIT
_ORDER_ERROR = f"a chain's order has more than the limit of {ORDER_DIGIT_LIMIT} digits"


class HjCf:
    """A Hirzebruch-Jung continued fraction, immutable after construction.

    Two integer sequences are cached at construction; they drive every
    downstream formula:

        u[0] = 0, u[1] = 1,  u[j+1] = n_j * u[j] - u[j-1]
        v[l] = 1, v[l+1] = 0, v[j-1] = n_j * v[j] - v[j+1]

    Here u[s] is the order of the truncated chain [n1..n(s-1)] and v[s] the
    order of [n(s+1)..nl].  In particular u[l+1] = v[0] = q (the order),
    v[1] = q1, and u[l] = ql (the reversed chain evaluates to q/ql).

    The length ``l`` (the number of exceptional curves) and the order ``q``
    (|det| of the intersection matrix, 1 for the empty chain) are stored
    too, since the kernel and the suites read them far more often than a
    chain is built.
    """

    __slots__ = ("entries", "u_seq", "v_seq", "l", "q")

    def __init__(self, entries: Iterable[int] = ()):
        ent = tuple(map(int, entries))
        if ent and min(ent) < 2:
            raise ValueError(f"chain entries must all be >= 2, got {list(ent)}")
        u = [0, 1]
        a, b = 0, 1
        for n in ent:
            a, b = b, n * b - a
            u.append(b)
        w = [0, 1]
        a, b = 0, 1
        for n in reversed(ent):
            a, b = b, n * b - a
            w.append(b)
        w.reverse()
        _set = object.__setattr__
        _set(self, "entries", ent)
        _set(self, "u_seq", tuple(u))
        _set(self, "v_seq", tuple(w))
        _set(self, "l", len(ent))
        _set(self, "q", u[-1])

    def __setattr__(self, name, value):
        raise AttributeError("HjCf is immutable")

    # -- basic accessors ---------------------------------------------------

    @property
    def trace(self) -> int:
        """Sum of the entries."""
        return sum(self.entries)

    @property
    def q1(self) -> int:
        """Order of [n2..nl]; q/q1 is the value of the chain."""
        if not self.entries:
            raise ValueError("the empty chain has no q1")
        return self.v_seq[1]

    @property
    def ql(self) -> int:
        """Order of [n1..n(l-1)]; the reversed chain evaluates to q/ql."""
        if not self.entries:
            raise ValueError("the empty chain has no ql")
        return self.u_seq[-2]

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, HjCf) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __lt__(self, other: "HjCf") -> bool:
        return self.entries < other.entries

    def __repr__(self) -> str:
        return f"HjCf({list(self.entries)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(n) for n in self.entries) + "]"

    # -- derived chains ----------------------------------------------------

    def reverse(self) -> "HjCf":
        return HjCf(self.entries[::-1])

    def canonical(self) -> "HjCf":
        """Lexicographic minimum of the chain and its reverse.

        A chain and its reverse present the same singularity type, so sets of
        types are always compared through this normal form.
        """
        rev = self.entries[::-1]
        return self if self.entries <= rev else HjCf(rev)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def cf_evaluate(cf: HjCf) -> tuple[int, int | None]:
    """Evaluate a chain to the pair (q, q1); the empty chain gives (1, None)."""
    if not cf.entries:
        return (1, None)
    return (cf.q, cf.q1)


def cf_from_pair(q: int, q1: int) -> HjCf:
    """Expand q/q1 into the unique chain with all entries >= 2.

    Requires q >= 2, 1 <= q1 < q and gcd(q, q1) = 1; round-trips with
    cf_evaluate.  An order of more than ORDER_DIGIT_LIMIT digits is refused
    first, and the length is read next, so a chain longer than
    CHAIN_LENGTH_LIMIT is refused before it is expanded.
    """
    if q < 2:
        raise ValueError(f"order must be >= 2, got {q}")
    if q >= _ORDER_CEILING:
        raise ValueError(_ORDER_ERROR)
    if not 1 <= q1 < q:
        raise ValueError(f"q1 must satisfy 1 <= q1 < q, got q1={q1}, q={q}")
    if gcd(q, q1) != 1:
        raise ValueError(f"q and q1 must be coprime, got {q}/{q1}")
    l = _chain_shape(q, q1)[1]
    if l > CHAIN_LENGTH_LIMIT:
        raise ValueError(
            f"the chain of {q}/{q1} has {l:,} entries,"
            f" more than the limit of {CHAIN_LENGTH_LIMIT:,}"
        )
    return HjCf(_expand_entries(q, q1))


def chain_order(entries: Iterable[int]) -> int:
    """Order of an entry sequence without building an HjCf (empty gives 1)."""
    a, b = 0, 1
    for n in entries:
        a, b = b, n * b - a
    return b


def cf_bump(cf: HjCf, j: int) -> int:
    """Order of the chain with its j-th entry increased by one.

    Equals u_j * v_j + q, which is strictly greater than q.
    """
    if not 1 <= j <= cf.l:
        raise ValueError(f"position {j} out of range 1..{cf.l}")
    return cf.u_seq[j] * cf.v_seq[j] + cf.q


def cf_mod3_criterion(cf: HjCf) -> bool:
    """True iff q1 + ql + trace*q is not divisible by 3.

    This holds exactly when the order q is divisible by 3, a fact used to
    obstruct square discriminants in the order-(2,3,5,q) scans.
    """
    if not cf.entries:
        raise ValueError("criterion undefined for the empty chain")
    return (cf.q1 + cf.ql + cf.trace * cf.q) % 3 != 0


def enumerate_cfs_of_order(q: int) -> list[HjCf]:
    """All chains of order q up to reversal, canonical and sorted.

    For q with a primitive-root-like unit group (q = 4, p^k or 2 p^k) the
    count is phi(q)/2 + 1; in general it is (phi(q) + #{x : x^2 = 1 mod q})/2.
    """
    if q < 2:
        raise ValueError(f"order must be >= 2, got {q}")
    # {q1, q - ql} is a class and its dual, one unit if the class is self-dual
    chains = (_expand_entries(q, h) for q1, ql, _, _ in _dual_pairs(q) for h in {q1, q - ql})
    return [HjCf(e) for e in sorted(min(e, e[::-1]) for e in chains)]


def _units(q: int) -> bytearray:
    """live[x] = 1 exactly when x is a unit mod q, for 0 <= x < q.

    Each prime factor p of q, found by trial division, clears the multiples
    of p in one slice assignment, in place of one gcd per residue.
    """
    live = bytearray(b"\x01") * q
    live[0] = 0
    n, p = q, 2
    while p * p <= n:
        if n % p == 0:
            live[::p] = bytes(len(range(0, q, p)))
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        live[::n] = bytes(len(range(0, q, n)))
    return live


def _dual_pairs(q: int) -> Iterator[tuple[int, int, int, int]]:
    """One (q1, ql, trace, length) per pair {class, dual class} of the chains
    of order q up to reversal, in ascending q1: ql = q1^-1 mod q, and the
    trace and length are those of the chain of q/q1.

    The chain of q/ql is the chain of q/q1 reversed, and the chain of
    q/(q - q1) its Riemenschneider dual, so the dual class is the pair
    (q - ql, q - q1).  The smallest live unit opens a pair and clears the
    other three; a self-dual class (q - ql = q1) is yielded once.  One Euclid
    pass (_chain_shape) gives ql with the shape, so no inverse is computed.
    """
    live = _units(q)
    for q1 in compress(range(q), live):
        tr, l, ql = _chain_shape(q, q1)
        live[ql] = live[q - q1] = live[q - ql] = 0
        yield q1, ql, tr, l


def _chain_shape(q: int, q1: int) -> tuple[int, int, int]:
    """(trace, length, ql) of the chain of q/q1 without building its entries.

    One Hirzebruch-Jung Euclid pass, as in _expand_entries, except that a run
    of entries 2 takes a single divmod: while the entry is 2, a - b stays
    fixed at d, so from (a, b) with d <= b the run has b // d entries.  The
    pass also carries the orders u of the chain's prefixes, which grow by the
    fixed step u - u_prev along a run of 2s.  The last is q, and the one
    before it, the order of [n1..n(l-1)], is ql = q1^-1 mod q.
    """
    a, b = q, q1
    trace = length = 0
    u_prev, u = 0, 1
    while b:
        d = a - b
        if d <= b:
            run, b = divmod(b, d)
            trace += 2 * run
            length += run
            a = b + d
            step = u - u_prev
            u_prev, u = u + (run - 1) * step, u + run * step
        else:
            n = -(-a // b)
            trace += n
            length += 1
            a, b = b, n * b - a
            u_prev, u = u, n * u - u_prev
    return trace, length, u_prev


def _expand_entries(q: int, q1: int) -> tuple[int, ...]:
    entries = []
    a, b = q, q1
    while b:
        n = -(-a // b)
        entries.append(n)
        a, b = b, n * b - a
    return tuple(entries)


def enumerate_cfs_by_shape(length: int, trace: int) -> list[HjCf]:
    """All chains with the given length and entry sum, up to reversal.

    Generation is by raw composition enumeration followed by canonical
    deduplication; all uses here have length <= 9, so no cleverness is
    warranted.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if trace < 2 * length:
        raise ValueError(f"trace {trace} impossible for length {length}")
    seen: set[tuple[int, ...]] = set()
    for ent in _compositions(length, trace):
        seen.add(min(ent, ent[::-1]))
    return [HjCf(e) for e in sorted(seen)]


def _compositions(length: int, total: int) -> Iterator[tuple[int, ...]]:
    # the caller and each level leave total >= 2 * length, so every entry is >= 2
    if length == 1:
        yield (total,)
        return
    hi = total - 2 * (length - 1)
    for first in range(2, hi + 1):
        for rest in _compositions(length - 1, total - first):
            yield (first,) + rest


def parse_cf(text: str) -> HjCf:
    """Parse a chain from text.

    Accepts the bracket form ``[3,2,2]``, a fraction ``19/9`` (expanded via
    cf_from_pair) or a bare integer ``7`` (meaning 7/1).  Either chain form
    has at most CHAIN_LENGTH_LIMIT entries; a longer bracket body is refused
    before any entry is converted.  Its order has at most ORDER_DIGIT_LIMIT
    digits: a number written with more, leading zeros aside, is refused
    before it is converted (``ratio._read_int``),
    and a bracket chain's order is summed entry by entry, up to the first
    prefix past the bound (each entry >= 2 makes the order of the prefix
    grow), before the chain is built.
    Chains are immutable, so results are memoised on the text: the fixture
    load and the six pipelines, run in one process, make 513 calls on 47
    distinct strings.
    """
    return _parse_cf(text)


@lru_cache(maxsize=256)
def _parse_cf(text: str) -> HjCf:
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unbalanced brackets in {text!r}")
        body = s[1:-1].strip()
        if not body:
            return HjCf()
        tokens = body.split(",", CHAIN_LENGTH_LIMIT)
        if len(tokens) > CHAIN_LENGTH_LIMIT:
            raise ValueError(
                f"a bracket chain has more than the limit of {CHAIN_LENGTH_LIMIT:,} entries"
            )
        entries = tuple([_read_int(token, ORDER_DIGIT_LIMIT, _ORDER_ERROR) for token in tokens])
        a, b = 0, 1
        for n in entries:
            if n < 2:
                break  # HjCf names the entry
            a, b = b, n * b - a
            if b >= _ORDER_CEILING:
                raise ValueError(_ORDER_ERROR)
        return HjCf(entries)
    num, slash, den = s.partition("/")
    q = _read_int(num, ORDER_DIGIT_LIMIT, _ORDER_ERROR)
    if not slash:
        return cf_from_pair(q, 1)
    # a q1 of more digits is not below any order within the bound
    q1_error = (
        f"q1 must satisfy 1 <= q1 < q, got a q1 of more than {ORDER_DIGIT_LIMIT} digits, q={q}"
    )
    return cf_from_pair(q, _read_int(den, ORDER_DIGIT_LIMIT, q1_error))
