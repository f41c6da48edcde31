"""The benchmark's independent oracles, checked against slower or
differently derived versions of themselves (no qhpp involved)."""

import random
import sys
from fractions import Fraction
from itertools import permutations, product
from math import comb, gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles as o  # noqa: E402
import workloads as w  # noqa: E402


def test_expand_and_evaluate_round_trip():
    for q in range(2, 80):
        for q1 in range(1, q):
            if gcd(q, q1) == 1:
                ent = o.expand(q, q1)
                assert all(n >= 2 for n in ent)
                assert o.evaluate(ent) == (q, q1)
                nums = o.chain_numbers(ent)
                # ql is the q1 of the reversed chain
                assert nums["ql"] == o.evaluate(ent[::-1])[1]
                assert nums["u"][-1] == q and nums["v"][0] == q and nums["v"][1] == q1


def test_class_count_matches_enumeration_and_brute_force():
    for q in range(2, 160):
        brute_phi = sum(1 for x in range(1, q + 1) if gcd(x, q) == 1)
        brute_roots = sum(1 for x in range(q) if gcd(x, q) == 1 and x * x % q == 1 % q)
        assert o.phi(q) == brute_phi
        assert o.square_roots_of_one(q) == brute_roots
        assert o.class_count(q) == len(o.chains_of_order(q)) == (brute_phi + brute_roots) // 2


def test_noA2_chain_counts():
    assert o.noA2_chain_count(500) == 16173
    assert o.noA2_chain_count(2000) == 254743


def test_chains_of_shape_match_burnside_count():
    for length in range(1, 7):
        for trace in range(2 * length, 2 * length + 9):
            slack = trace - 2 * length
            total = comb(slack + length - 1, length - 1)
            if length % 2 == 0:
                pal = comb(slack // 2 + length // 2 - 1, length // 2 - 1) if slack % 2 == 0 else 0
            else:
                half = length // 2
                pal = sum(
                    comb((slack - mid) // 2 + half - 1, half - 1) if half else int(slack == mid)
                    for mid in range(slack + 1) if (slack - mid) % 2 == 0
                )
            assert len(o.chains_of_shape(length, trace)) == (total + pal) // 2


def test_closed_form_matches_adjunction_sum():
    rng = random.Random(7)
    for _ in range(300):
        chains = [tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 4))]
        inv = o.invariants(chains)
        dot_k = sum(
            sum(c * (n - 2) for c, n in zip(o.dp_numbers(ch)["dp_coeffs"], ch)) for ch in chains
        )
        assert inv["ks2"] == 9 - inv["L"] + dot_k
        assert inv["D"] == inv["detR"] * inv["ks2"]


def test_determinant_matches_leibniz():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        leibniz = 0
        for perm in permutations(range(n)):
            inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            term = (-1) ** inversions
            for i, j in enumerate(perm):
                term *= m[i][j]
            leibniz += term
        assert o.determinant(m) == leibniz


def test_box_solutions_dioph_solutions_and_dfs_size():
    rng = random.Random(9)
    for _ in range(400):
        n = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(n)]
        target = Fraction(rng.randint(0, 20), rng.randint(1, 4))
        if o.box_size(coeffs, target) > 3000:
            continue
        sols = o.box_solutions(coeffs, target)
        assert all(sum(c * x for c, x in zip(coeffs, s)) == target for s in sols)
        assert o.dioph_solutions(coeffs, target) == sols
        quad = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in coeffs]
        bound = Fraction(rng.randint(0, 40), rng.randint(1, 4))
        groups = [((0,), coeffs[0] * rng.randint(0, 3))]
        assert o.dioph_solutions(coeffs, target, groups, quad, bound) == o.box_solutions(coeffs, target, groups, quad, bound)
        leaves = sum(
            1 for v in product(*(range(int(target / c) + 1) for c in coeffs[:-1]))
            if sum(c * x for c, x in zip(coeffs, v)) <= target
        )
        assert w.dfs_size(coeffs, target) == (leaves, len(sols))


def test_pipeline_references():
    t1 = o.table1_reference()
    assert t1["types"] == 1092 and len(t1["survivors"]) == 24
    assert len(t1["per_tuple"]) == 11
    q20 = o.q20_reference()
    assert (q20["cases"], q20["tallies"], q20["D_square"], q20["BMY"]) == (126, [40, 80, 6], 11, 4)
    small = o.small_q_reference()
    assert (small["cases"], small["D_square"], small["BMY"]) == (240, 12, 1)
    # the reference table's row [2]+[3]+[2,2,2,2]+[3,2] has D = 260
    assert o.invariants([(2,), (3,), (2, 2, 2, 2), (3, 2)])["D"] == 260


def test_query_stream_is_seeded_and_mixed():
    a, b = w.query_stream(5, n=200), w.query_stream(5, n=200)
    assert a == b
    assert w.query_stream(6, n=200) != a
    kinds = {item["kind"] for item in a}
    assert kinds == set(w.KIND_WEIGHTS)
    assert len(a) == 200
