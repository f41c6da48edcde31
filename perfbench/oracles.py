"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``qhpp``.  Each function re-derives a number the
benchmark reads from the program's output, by a route written apart from
the package: chains by the Euclid expansion of q/q1, class counts by
factoring q, surface invariants by the integer closed form, determinants by
exact elimination and Diophantine solutions by walking the whole box.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def expand(q: int, q1: int) -> tuple[int, ...]:
    """Entries of the chain q/q1 (all >= 2) by the ceiling Euclid algorithm."""
    if not (q >= 2 and 1 <= q1 < q and gcd(q, q1) == 1):
        raise ValueError(f"not a chain fraction: {q}/{q1}")
    out = []
    a, b = q, q1
    while b:
        n = (a + b - 1) // b
        out.append(n)
        a, b = b, n * b - a
    return tuple(out)


def evaluate(entries) -> tuple[int, int]:
    """(q, q1) with q/q1 = n1 - 1/(n2 - ...); the empty chain gives (1, 0)."""
    num, den = 1, 0
    for n in reversed(tuple(entries)):
        num, den = n * num - den, num
    return num, den


def order(entries) -> int:
    return evaluate(entries)[0]


def chain_numbers(entries) -> dict:
    """q, q1, ql, the u/v sequences and the trace of a nonempty chain.

    ql is taken as the inverse of q1 modulo q, the reversal duality, rather
    than from the reversed chain; u_s and v_s are the orders of the
    sub-chains before and after position s.
    """
    ent = tuple(entries)
    q, q1 = evaluate(ent)
    l = len(ent)
    ql = pow(q1, -1, q) if q > 1 else 0
    u = [0] + [order(ent[: s - 1]) for s in range(1, l + 2)]
    v = [order(ent[s:]) for s in range(0, l + 1)] + [0]
    return {"q": q, "q1": q1, "ql": ql, "l": l, "trace": sum(ent), "u": u, "v": v}


def canonical(entries) -> tuple[int, ...]:
    ent = tuple(entries)
    return min(ent, ent[::-1])


def chains_of_order(q: int) -> list[tuple[int, ...]]:
    """Every chain class of order q (up to reversal), sorted."""
    return sorted({canonical(expand(q, a)) for a in range(1, q) if gcd(q, a) == 1})


def chains_of_shape(length: int, trace: int) -> list[tuple[int, ...]]:
    """Chain classes with the given length and entry sum, up to reversal."""
    found = set()

    def walk(prefix: tuple[int, ...], left: int) -> None:
        slots = length - len(prefix)
        if slots == 0:
            if left == 0:
                found.add(canonical(prefix))
            return
        for n in range(2, left - 2 * (slots - 1) + 1):
            walk(prefix + (n,), left - n)

    walk((), trace)
    return sorted(found)


def parse_chain(text: str) -> tuple[int, ...]:
    s = text.strip()
    if s.startswith("["):
        body = s[1:-1].strip()
        return tuple(int(t) for t in body.split(",")) if body else ()
    if "/" in s:
        a, b = s.split("/")
        return expand(int(a), int(b))
    return expand(int(s), 1)


def chain_text(entries) -> str:
    return "[" + ",".join(str(n) for n in entries) + "]"


# ---------------------------------------------------------------------------
# class counts
# ---------------------------------------------------------------------------


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in factor(n):
        out = out // p * (p - 1)
    return out


def square_roots_of_one(n: int) -> int:
    """#{x mod n : x^2 = 1}, by the Chinese remainder theorem."""
    count = 1
    for p, k in factor(n).items():
        if p == 2:
            count *= 1 if k == 1 else 2 if k == 2 else 4
        else:
            count *= 2
    return count


def class_count(q: int) -> int:
    """Number of chain classes of order q: (phi(q) + #{x^2 = 1 mod q}) / 2."""
    return (phi(q) + square_roots_of_one(q)) // 2


def noA2_chain_count(cap: int) -> int:
    """Chains scanned by the noA2 pipeline: orders 7..cap prime to 30."""
    return sum(class_count(q) for q in range(7, cap + 1) if gcd(q, 30) == 1)


# ---------------------------------------------------------------------------
# surface invariants
# ---------------------------------------------------------------------------


def is_square(n: int) -> bool:
    return n > 0 and isqrt(n) ** 2 == n


def invariants(chains) -> dict:
    """L, det R, K^2, D, 3 e_orb and the BMY class of a candidate.

    K^2 = 9 - L - sum_p (2l - trace + 2 - (q1 + ql + 2)/q); with det R the
    product of the orders, D = det R * K^2 is an integer because each term's
    denominator divides det R.
    """
    nums = [chain_numbers(ch) for ch in chains]
    L = sum(x["l"] for x in nums)
    det_r = 1
    for x in nums:
        det_r *= x["q"]
    d_value = (9 - L) * det_r
    for x in nums:
        term = (2 * x["l"] - x["trace"] + 2) * x["q"] - (x["q1"] + x["ql"] + 2)
        d_value -= term * (det_r // x["q"])
    ks2 = Fraction(d_value, det_r)
    three_e = 9 - 3 * sum(1 - Fraction(1, x["q"]) for x in nums)
    if three_e < 0:
        bmy = "E_ORB_NEGATIVE"
    elif ks2 <= 0:
        bmy = "OK"
    elif ks2 <= three_e:
        bmy = "OK_K_AMPLE"
    else:
        bmy = "VIOLATES_K_AMPLE"
    return {
        "orders": [x["q"] for x in nums],
        "L": L,
        "detR": det_r,
        "ks2": ks2,
        "D": d_value,
        "three_e_orb": three_e,
        "D_square": is_square(d_value),
        "bmy": bmy,
    }


def dp_numbers(entries) -> dict:
    """Adjunction coefficients 1 - (u_j + v_j)/q and the derived numbers."""
    x = chain_numbers(entries)
    q = x["q"]
    coeffs = [1 - Fraction(x["u"][j] + x["v"][j], q) for j in range(1, x["l"] + 1)]
    closed = 2 * x["l"] - x["trace"] + 2 - Fraction(x["q1"] + x["ql"] + 2, q)
    return {
        **x,
        "dp_coeffs": coeffs,
        "dp_dot_k": -closed,
        "dp_sq": closed,
        "ep_sq": -Fraction(x["ql"], q),
        "quad": [Fraction(x["v"][j] * x["u"][j], q) for j in range(1, x["l"] + 1)],
    }


# ---------------------------------------------------------------------------
# pipeline reference counts
# ---------------------------------------------------------------------------


def table1_tuples() -> list[tuple[int, ...]]:
    """Pairwise coprime orders a < b < c < d with sum 1/x >= 1 (e_orb >= 0),
    leaving out the unbounded family whose first three orders already sum to
    at least 1 (that is (2, 3, 5, q))."""
    out = []
    for a in range(2, 5):
        for b in range(a + 1, 60):
            for c in range(b + 1, 120):
                head = Fraction(1, a) + Fraction(1, b) + Fraction(1, c)
                if head >= 1 or head + Fraction(1, c + 1) < 1:
                    continue
                for d in range(c + 1, 2000):
                    if head + Fraction(1, d) < 1:
                        break
                    qs = (a, b, c, d)
                    if all(gcd(x, y) == 1 for i, x in enumerate(qs) for y in qs[i + 1:]):
                        out.append(qs)
    return sorted(out)


def table1_reference() -> dict:
    """Per-tuple type counts and the square-D survivors of table1."""
    per_tuple = {}
    survivors = {}
    for qs in table1_tuples():
        classes = [chains_of_order(q) for q in qs]
        per_tuple[str(qs)] = 1
        for q in qs:
            per_tuple[str(qs)] *= class_count(q)
        for combo in product(*classes):
            inv = invariants(combo)
            if inv["D_square"]:
                survivors[survivor_key(combo)] = inv
    return {"per_tuple": per_tuple, "types": sum(per_tuple.values()), "survivors": survivors}


def survivor_key(chains) -> tuple:
    return tuple(sorted(canonical(ch) for ch in chains))


P3_CHAINS = ((2, 2, 2, 2), (3, 2), (5,))


def q20_reference() -> dict:
    """The L <= 11 scan over orders (2, 3, 5, q) with a [3] at the order-3
    point: fourth chains whose trace lies strictly between B - 2 and
    B + 1/10, B = (L - 7) + 2l - 1/3 + Dp^2(p3), the window forced by
    0 < K^2 <= 1/10 + 3/q."""
    tallies = []
    square = {}
    for p3 in P3_CHAINS:
        dp_sq = dp_numbers(p3)["dp_sq"]
        count = 0
        for l in range(1, 10 - len(p3)):
            L = l + 2 + len(p3)
            b = Fraction(L - 7) + 2 * l - Fraction(1, 3) + dp_sq
            lo, hi = b - 2, b + Fraction(1, 10)
            tr = max(2 * l, lo.__floor__() + 1)
            while tr < hi:
                for ch in chains_of_shape(l, tr):
                    count += 1
                    combo = ((2,), (3,), p3, ch)
                    inv = invariants(combo)
                    if inv["D_square"]:
                        square[survivor_key(combo)] = inv
                tr += 1
        tallies.append(count)
    return _with_bmy({"cases": sum(tallies), "tallies": tallies, "survivors": square})


def small_q_reference() -> dict:
    """[2], [3], an order-5 chain and any chain of order 2..19, the pair of
    last two chains taken as a multiset."""
    seen = set()
    square = {}
    for q in range(2, 20):
        for ch in chains_of_order(q):
            for p3 in P3_CHAINS:
                key = tuple(sorted((canonical(p3), ch)))
                if key in seen:
                    continue
                seen.add(key)
                combo = ((2,), (3,), p3, ch)
                inv = invariants(combo)
                if inv["D_square"]:
                    square[survivor_key(combo)] = inv
    return _with_bmy({"cases": len(seen), "survivors": square})


def _with_bmy(ref: dict) -> dict:
    ref["D_square"] = len(ref["survivors"])
    ref["BMY"] = sum(1 for inv in ref["survivors"].values() if inv["ks2"] <= inv["three_e_orb"])
    return ref


# ---------------------------------------------------------------------------
# small exact linear algebra and Diophantine boxes
# ---------------------------------------------------------------------------


def determinant(matrix) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                for c in range(k, n):
                    m[r][c] -= f * m[k][c]
    return int(det)


def box_size(coeffs, target) -> int:
    size = 1
    for c in coeffs:
        size *= int(target / c) + 1
    return size


def satisfies(vec, coeffs, target, groups=(), quad=None, quad_bound=None) -> bool:
    """True iff vec is a non-negative solution meeting every constraint."""
    if len(vec) != len(coeffs) or any(x < 0 for x in vec):
        return False
    if sum(c * x for c, x in zip(coeffs, vec)) != target:
        return False
    for idx, exact in groups:
        if sum(coeffs[i] * vec[i] for i in idx) != exact:
            return False
    if quad is not None and sum(w * x * x for w, x in zip(quad, vec)) > quad_bound:
        return False
    return True


def box_solutions(coeffs, target, groups=(), quad=None, quad_bound=None) -> list[tuple[int, ...]]:
    """Every solution in the box 0 <= x_i <= target/c_i, in lexicographic order."""
    ranges = [range(int(target / c) + 1) for c in coeffs]
    return [
        vec for vec in product(*ranges)
        if satisfies(vec, coeffs, target, groups, quad, quad_bound)
    ]


def dioph_solutions(coeffs, target, groups=(), quad=None, quad_bound=None) -> list[tuple[int, ...]]:
    """Every solution, in lexicographic order: the box of ``box_solutions``
    walked variable by variable, leaving out the points whose partial sum
    already passes the target."""
    coeffs = [Fraction(c) for c in coeffs]
    out = []

    def walk(prefix: tuple[int, ...], left: Fraction) -> None:
        c = coeffs[len(prefix)]
        if len(prefix) == len(coeffs) - 1:
            x = left / c
            vec = (*prefix, int(x))
            if x.denominator == 1 and satisfies(vec, coeffs, target, groups, quad, quad_bound):
                out.append(vec)
            return
        for x in range(int(left / c) + 1):
            walk((*prefix, x), left - c * x)

    if target >= 0:
        walk((), Fraction(target))
    return out
