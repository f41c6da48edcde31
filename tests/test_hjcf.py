"""Chain arithmetic tests, cross-checked against independent oracles."""

import types
from math import gcd

import pytest

from qhpp import hjcf
from qhpp.hjcf import (
    CHAIN_LENGTH_LIMIT,
    ORDER_DIGIT_LIMIT,
    HjCf,
    _chain_shape,
    _dual_pairs,
    cf_bump,
    cf_evaluate,
    cf_from_pair,
    cf_mod3_criterion,
    chain_order,
    enumerate_cfs_by_shape,
    enumerate_cfs_of_order,
    parse_cf,
)
from tests import oracles

# ---------------------------------------------------------------------------
# construction and basic accessors
# ---------------------------------------------------------------------------


def test_entries_below_two_rejected():
    with pytest.raises(ValueError):
        HjCf([3, 1])
    with pytest.raises(ValueError):
        HjCf([0])


def test_empty_chain_conventions():
    empty = HjCf()
    assert empty.q == 1
    assert cf_evaluate(empty) == (1, None)
    with pytest.raises(ValueError):
        empty.q1
    with pytest.raises(ValueError):
        empty.ql
    with pytest.raises(ValueError):
        cf_mod3_criterion(empty)


def test_immutability():
    cf = HjCf([3, 2])
    for name in ("entries", "l", "q"):
        with pytest.raises(AttributeError):
            setattr(cf, name, 2)
    assert (cf.entries, cf.l, cf.q) == ((3, 2), 2, 5)


def test_stored_length_and_order_over_the_suite_corpus():
    # the 6,495 chains of order 2..200 that the exhaustive suites share
    from qhpp.surface import dp_data

    corpus = list(oracles.all_cfs(200))
    assert len(corpus) == 6_495
    for cf in corpus + [HjCf()]:
        assert cf.l == len(cf.entries)
        assert cf.q == cf.u_seq[-1] == cf.v_seq[0]
    assert (HjCf().l, HjCf().q) == (0, 1)
    for cf in corpus:
        sing = dp_data(cf)
        assert sing.l == len(sing.coeff_nums) == cf.l


@pytest.mark.parametrize(
    "entries,expected",
    [([7], (7, 1)), ([3, 2], (5, 2)), ([3, 2, 2, 2, 2, 2, 2, 2, 2], (19, 9))],
)
def test_evaluate_examples(entries, expected):
    assert cf_evaluate(HjCf(entries)) == expected
    value = oracles.fraction_value(entries)
    assert (value.numerator, value.denominator) == expected


@pytest.mark.parametrize(
    "pair,entries",
    [((7, 1), [7]), ((5, 2), [3, 2]), ((19, 9), [3, 2, 2, 2, 2, 2, 2, 2, 2])],
)
def test_from_pair_examples(pair, entries):
    assert cf_from_pair(*pair) == HjCf(entries)
    assert oracles.greedy_expansion(*pair) == tuple(entries)


def test_from_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        cf_from_pair(6, 2)  # not coprime
    with pytest.raises(ValueError):
        cf_from_pair(5, 5)  # q1 out of range
    with pytest.raises(ValueError):
        cf_from_pair(5, 0)
    with pytest.raises(ValueError):
        cf_from_pair(1, 1)


def test_uv_sequences_row2_chain():
    cf = HjCf([3, 2, 2, 2, 2, 2, 2, 2, 2])
    assert cf.u_seq == (0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19)
    assert cf.v_seq == (19, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
    assert cf.q1 * cf.ql == oracles.cf_deleted_det(cf, {1, cf.l}) * cf.q + 1


# ---------------------------------------------------------------------------
# deleted determinants, reversal, bump, mod 3
# ---------------------------------------------------------------------------


def test_deleted_det_examples():
    assert oracles.cf_deleted_det(HjCf([3, 2]), {1}) == 2
    assert oracles.cf_deleted_det(HjCf([7]), {1}) == 1
    assert oracles.cf_deleted_det(HjCf([3, 2, 2, 2, 2, 2, 2, 2, 2]), set()) == 19


def test_deleted_det_matches_cofactor_oracle():
    # the cofactor determinant of the intersection matrix with the rows and
    # columns of the deleted positions taken out
    cf = HjCf([3, 2, 4, 2, 3])
    matrix = oracles.chain_matrix(cf.entries)

    def minor_det(deleted):
        kept = [i for i in range(cf.l) if i + 1 not in deleted]
        return abs(oracles.cofactor_det([[matrix[i][j] for j in kept] for i in kept]))

    oracles.agree(
        lambda deleted: oracles.cf_deleted_det(cf, deleted),
        minor_det,
        [set(), {1}, {3}, {5}, {2, 4}, {1, 5}, {2, 3}],
    )


def test_deleted_det_rejects_out_of_range():
    with pytest.raises(ValueError):
        oracles.cf_deleted_det(HjCf([3, 2]), {3})


def test_reverse_and_canonical():
    cf = HjCf([3, 2])
    rev = cf.reverse()
    assert rev == HjCf([2, 3])
    assert rev.q == 5 and rev.q1 == 3
    assert HjCf([2, 3]).canonical() == HjCf([2, 3])
    assert HjCf([3, 2]).canonical() == HjCf([2, 3])
    assert HjCf([7]).reverse() == HjCf([7])


@pytest.mark.parametrize(
    "entries,j,expected",
    [([2, 2], 1, 5), ([7], 1, 8), ([3, 2], 2, 8)],
)
def test_bump_examples(entries, j, expected):
    cf = HjCf(entries)
    assert cf_bump(cf, j) == expected
    bumped = list(entries)
    bumped[j - 1] += 1
    assert chain_order(bumped) == expected
    assert expected > cf.q


def test_mod3_examples():
    assert cf_mod3_criterion(HjCf([3])) is True
    assert cf_mod3_criterion(HjCf([2])) is False
    assert cf_mod3_criterion(HjCf([3, 2])) is False


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_order_examples():
    assert {str(c) for c in enumerate_cfs_of_order(7)} == {
        "[7]",
        "[2,4]",
        "[2,2,3]",
        "[2,2,2,2,2,2]",
    }
    assert {str(c) for c in enumerate_cfs_of_order(3)} == {"[3]", "[2,2]"}
    assert [str(c) for c in enumerate_cfs_of_order(2)] == ["[2]"]
    with pytest.raises(ValueError):
        enumerate_cfs_of_order(1)


def test_enumerate_order_is_canonical_and_sorted():
    # every order up to 400, with units other than +-1 that are their own
    # inverses (12, 24, ...) and self-dual classes (5, 10, 13, ...)
    for q in range(2, 401):
        classes = enumerate_cfs_of_order(q)
        assert classes == sorted(
            {cf_from_pair(q, q1).canonical() for q1 in range(1, q) if gcd(q, q1) == 1}
        )
        for cf in classes:
            assert cf == cf.canonical()
            assert cf.q == q


def test_order_13_has_no_length_5_chain():
    lengths = {cf.l for cf in enumerate_cfs_of_order(13)}
    assert 5 not in lengths


def test_length_3_chains_of_orders_19_and_31():
    of19 = {cf for cf in enumerate_cfs_of_order(19) if cf.l == 3}
    assert of19 == {HjCf([2, 2, 7]), HjCf([2, 4, 3])}
    of31 = {cf for cf in enumerate_cfs_of_order(31) if cf.l == 3}
    assert of31 == {HjCf([2, 2, 11]), HjCf([2, 6, 3]), HjCf([4, 2, 5])}
    for cf in of19 | of31:
        assert max(cf.entries) >= 4


def test_enumerate_by_shape():
    assert [str(c) for c in enumerate_cfs_by_shape(2, 5)] == ["[2,3]"]
    assert len(enumerate_cfs_by_shape(8, 17)) == 4
    # length 5, trace 13: multisets {5,2,2,2,2}, {4,3,2,2,2}, {3,3,3,2,2}
    # contribute 3 + 10 + 6 reversal classes (frozen from the composition
    # oracle below)
    shapes = enumerate_cfs_by_shape(5, 13)
    assert len(shapes) == 19


def test_enumerate_by_shape_against_raw_compositions():
    oracles.agree(
        lambda shape: {c.entries for c in enumerate_cfs_by_shape(*shape)},
        lambda shape: oracles.shape_classes(*shape),
        [(3, 8), (4, 10), (5, 13), (5, 12)],
    )


def test_parse_cf_forms():
    assert parse_cf("[3,2,2]") == HjCf([3, 2, 2])
    assert parse_cf("19/9") == HjCf([3, 2, 2, 2, 2, 2, 2, 2, 2])
    assert parse_cf("7") == HjCf([7])
    assert parse_cf("[]") == HjCf()
    with pytest.raises(ValueError):
        parse_cf("[3,2")


def test_parse_cf_is_a_plain_function_over_a_bounded_memo():
    # the tracer wraps plain public functions only
    assert isinstance(hjcf.parse_cf, types.FunctionType)
    assert hjcf._parse_cf.cache_parameters()["maxsize"] == 256
    hjcf._parse_cf.cache_clear()
    first = parse_cf("[3,2,2]")
    assert parse_cf("[3,2,2]") is first and parse_cf(" [3,2,2] ") == first
    assert parse_cf("19/9") == HjCf([3, 2, 2, 2, 2, 2, 2, 2, 2])
    # an error is raised again on every call, not remembered
    for _ in range(2):
        with pytest.raises(ValueError):
            parse_cf("[3,1]")
    assert hjcf._parse_cf.cache_info().currsize == 3


# ---------------------------------------------------------------------------
# exhaustive identities on a modest corpus (the full q <= 200 sweep runs in
# the acceptance suite)
# ---------------------------------------------------------------------------


def test_recurrences_and_cross_identity_small():
    for cf in oracles.all_cfs(60):
        q, l, u, v, n = cf.q, cf.l, cf.u_seq, cf.v_seq, cf.entries
        assert u[0] == 0 and u[1] == 1 and v[l] == 1 and v[l + 1] == 0
        assert u[l + 1] == q and v[0] == q
        for j in range(1, l + 1):
            assert u[j + 1] == n[j - 1] * u[j] - u[j - 1]
            assert v[j - 1] == n[j - 1] * v[j] - v[j + 1]
            assert u[j] + v[j] <= q
        for j in range(l + 1):
            assert v[j] * u[j + 1] - v[j + 1] * u[j] == q
        assert gcd(cf.q, cf.q1) == 1
        if l >= 2:
            assert cf.q1 * cf.ql == oracles.cf_deleted_det(cf, {1, l}) * q + 1


def test_round_trip_small():
    for cf in oracles.all_cfs(60):
        assert cf_from_pair(cf.q, cf.q1) == cf
        assert cf_evaluate(cf.reverse()) == (cf.q, cf.ql)


def test_evaluation_matches_fraction_oracle_small():
    chains = list(oracles.all_cfs(40))
    oracles.agree(
        lambda cf: (cf.q, cf.q1),
        lambda cf: oracles.fraction_value(cf.entries).as_integer_ratio(),
        chains,
    )
    oracles.agree(
        lambda cf: cf.q,
        lambda cf: abs(oracles.cofactor_det(oracles.chain_matrix(cf.entries))),
        [cf for cf in chains if cf.l <= 8],
    )


def test_chain_shape_matches_the_chain():
    # every coprime pair with q <= 300, orders divisible by 2, 3 or 5
    # included; ql, the order of the chain less its last entry, is q1^-1
    for q in range(2, 301):
        for q1 in range(1, q):
            if gcd(q, q1) == 1:
                cf = cf_from_pair(q, q1)
                assert _chain_shape(q, q1) == (cf.trace, cf.l, cf.ql), (q, q1)
                assert cf.ql == pow(q1, -1, q), (q, q1)


def test_dual_pairs_match_a_gcd_walk():
    # each class {q1, q1^-1 mod q} once, either opening a pair or as the dual
    # (q - ql, q - q1) of the class that opens it; orders divisible by 2, 3
    # or 5 included
    for q in range(2, 2001):
        ref = {frozenset((q1, pow(q1, -1, q))) for q1 in range(1, q) if gcd(q, q1) == 1}
        met = []
        for q1, ql, tr, l in _dual_pairs(q):
            assert q1 * ql % q == 1, (q, q1)
            assert (tr, l) == _chain_shape(q, q1)[:2], (q, q1)
            met.append(frozenset((q1, ql)))
            if q - ql != q1:
                met.append(frozenset((q - ql, q - q1)))
        assert len(met) == len(ref) and set(met) == ref, q


def test_self_dual_class_is_yielded_once():
    # 5^2 = -1 mod 13: the dual of the chain [3,3,2] of 13/5 is the chain
    # [2,3,3] of 13/8, its reverse, so the class (5, 8) is its own dual
    assert cf_from_pair(13, 5).entries == (3, 3, 2)
    assert cf_from_pair(13, 8).entries == (2, 3, 3)
    rows = [row for row in _dual_pairs(13) if 5 in row[:2] or 8 in row[:2]]
    assert rows == [(5, 8, 8, 3)]


def test_cf_from_pair_bounds_the_chain_length():
    # (n + 1)/n is the chain of n entries 2
    assert cf_from_pair(100_001, 100_000).entries == (2,) * CHAIN_LENGTH_LIMIT
    with pytest.raises(ValueError, match="^the chain of 100002/100001 has 100,001 entries,"):
        cf_from_pair(100_002, 100_001)


def test_cf_from_pair_bounds_the_order():
    top = 10**ORDER_DIGIT_LIMIT - 1
    assert cf_from_pair(top, 2).entries == ((top + 1) // 2, 2)
    # 10^100 + 1 over 2 would be the same two-entry chain one order higher
    with pytest.raises(ValueError, match="^a chain's order has more than the limit of 100 digits$"):
        cf_from_pair(top + 2, 2)
