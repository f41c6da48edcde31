"""The integer class walk of the noA2 scan against two oracles.

``reference_scan`` is the scan's loop as it ran over the canonical chains of
``enumerate_cfs_of_order``.  The walk (``_dual_pairs``) visits each pair
{class, dual class} once, as the unit pair (q1, ql) of the class that opens
it, builds no chain, and gives the dual class (q - ql, q - q1) the Dedekind
sum -S.  The tests record every class it visits and compare with the
oracle.  The second oracle is the Dedekind sum ``_dedekind12``, computed by
reciprocity with no chain at all, so it checks S and -S independently.
"""

from collections import Counter, deque
from fractions import Fraction
from math import floor, gcd

import pytest

import qhpp.enumeration as enumeration
from qhpp.enumeration import noA2_scan
from qhpp.hjcf import _chain_shape, _dedekind12, _dual_pairs, enumerate_cfs_of_order
from qhpp.ratio import is_positive_square


def reference_scan(q_cap, shift=frozenset()):
    """(classes, square lines, witness lines) of the noA2 loop over HjCf
    chains, with a class (q, {q1, ql}) per chain.

    ``shift`` holds (q, q1) pairs at which the scan's ``_chain_shape`` reads
    the trace one larger (see ``walk``), to drive the witness checks into
    failure.  Only the unit that opens a pair of classes, the smallest of
    q1, ql, q - q1 and q - ql, is read, and its shift moves S by q; the dual
    class, whose S is -S, moves by -q.  So the trace is taken one larger at
    the opening class and one smaller at its dual.
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


def walk(monkeypatch, q_cap, shift=frozenset()):
    """Run noA2_scan, recording (q, {q1, ql}) per class the walk yields or
    pairs with its dual; ``_chain_shape`` reads the trace one larger at each
    (q, q1) in ``shift``."""
    classes = []

    def pairs(q):
        for q1, ql in _dual_pairs(q):
            classes.append((q, frozenset((q1, ql))))
            if q - ql != q1:
                classes.append((q, frozenset((q - ql, q - q1))))
            yield q1, ql

    def shape(q, q1):
        tr, l = _chain_shape(q, q1)
        return tr + ((q, q1) in shift), l

    monkeypatch.setattr(enumeration, "_dual_pairs", pairs)
    monkeypatch.setattr(enumeration, "_chain_shape", shape)
    return classes, noA2_scan(q_cap)


def test_walk_visits_every_class_once_up_to_cap_1000(monkeypatch):
    classes, report = walk(monkeypatch, 1000)
    ref_classes, ref_squares, ref_witness = reference_scan(1000)
    assert Counter(classes) == Counter(ref_classes)
    assert dict(report.stages) == {
        "cfs": len(ref_classes), "candidates": 3 * len(ref_classes), "D_square": 0,
    }
    assert ref_squares == ref_witness == []
    assert report.mismatches == []
    assert report.details["mod3_witness_ok"] is True


def test_failure_lines_match_the_reference_text_and_order(monkeypatch):
    # report every D divisible by 7 as a square, and take the trace one
    # larger at every q1 = 1 mod 3 of three orders that opens a pair of
    # classes, which breaks the mod-3 witness of both classes of the pair
    monkeypatch.setattr(enumeration, "is_positive_square", lambda d: d % 7 == 0)
    shift = frozenset((q, q1) for q in (7, 11, 49) for q1 in range(1, q, 3))
    classes, report = walk(monkeypatch, 60, shift)
    ref_classes, ref_squares, ref_witness = reference_scan(60, shift)
    assert Counter(classes) == Counter(ref_classes)
    assert report.mismatches == (
        [f"noA2: square D found: {s}" for s in ref_squares]
        + [f"noA2: {w}" for w in ref_witness]
    )
    assert dict(report.stages)["D_square"] == len(ref_squares)
    assert report.details["mod3_witness_ok"] is False
    assert any(w.endswith("trace criterion nonzero mod 3") for w in ref_witness)
    assert any(w.endswith("some closed form divisible by 3") for w in ref_witness)
    # the walk meets [7] (q1 = 1) before its dual [2,2,2,2,2,2] (q1 = 6);
    # the report lists the chains of each order in canonical order
    assert [w.split(":")[0] for w in ref_witness[:4:2]] == [
        "q=7 cf=[2,2,2,2,2,2]", "q=7 cf=[7]",
    ]


# ---------------------------------------------------------------------------
# the closed forms as Dedekind sums
# ---------------------------------------------------------------------------


def sawtooth(x):
    """((x)) of the Dedekind sum: x - floor(x) - 1/2, and 0 at integers."""
    return Fraction(0) if x.denominator == 1 else x - floor(x) - Fraction(1, 2)


def test_dedekind12_matches_the_definition_below_60():
    for k in range(1, 60):
        for h in range(k):
            if gcd(h, k) != 1:
                continue
            s = sum(sawtooth(Fraction(i, k)) * sawtooth(Fraction(h * i, k)) for i in range(1, k))
            # s(h, k) depends on h mod k only
            assert _dedekind12(h, k) == _dedekind12(h + k, k) == _dedekind12(h - k, k)
            assert _dedekind12(h, k) == 12 * k * s, (h, k)


@pytest.fixture(scope="module")
def walk_to_2000():
    """Run the cap-2000 scan once, checking every D it tests against the
    Dedekind sums S = _dedekind12(q1, q) of the class that opens a pair and
    -S = _dedekind12(q - ql, q) of its dual: (classes visited, the scan's
    report, classes where ql is not q1^-1 mod q or a D the scan tests is not
    the closed form in the Dedekind sum, classes where S or one of the three
    closed forms breaks the mod-3 witness, D values left untested)."""
    visited = 0
    expected = deque()
    identity_failures, congruence_failures = [], []

    def pairs(q):
        nonlocal visited
        for q1, ql in _dual_pairs(q):
            if ql != pow(q1, -1, q):
                identity_failures.append((q, q1))
            for h in (q1,) if q - ql == q1 else (q1, q - ql):
                visited += 1
                s = _dedekind12(h, q)
                forms = (s + 2, 5 * s + 12 * q + 10, 5 * s + 24 * q + 10)
                expected.extend(((q, h), m * x) for m, x in zip((30, 6, 6), forms))
                if s % 3 != 0 or tuple(x % 3 for x in forms) != (2, 1, 1):
                    congruence_failures.append((q, h))
            yield q1, ql

    def square(d):
        where, want = expected.popleft()
        if d != want:
            identity_failures.append(where)
        return is_positive_square(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_dual_pairs", pairs)
        mp.setattr(enumeration, "is_positive_square", square)
        report = noA2_scan(2000)
    return visited, report, identity_failures, congruence_failures, len(expected)


def test_closed_forms_are_dedekind_sums_up_to_cap_2000(walk_to_2000):
    visited, report, identity_failures, _, untested = walk_to_2000
    assert visited == dict(report.stages)["cfs"] == 254_743
    assert identity_failures == []
    assert untested == 0


def test_mod3_witness_is_the_dedekind_congruence_up_to_cap_2000(walk_to_2000):
    # 12*q*s(q1, q) is divisible by 3 whenever 3 does not divide q, which
    # makes the forms 2, 1 and 1 mod 3 for every order, not only below a cap
    _, report, _, congruence_failures, _ = walk_to_2000
    assert congruence_failures == []
    assert report.details["mod3_witness_ok"] is True
