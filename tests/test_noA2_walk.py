"""The integer class walk of the noA2 scan against two oracles.

``reference_scan`` is the scan's loop as it ran over the canonical chains of
``enumerate_cfs_of_order``.  The walk (``_class_shapes``) visits each class
as a unit pair q1 <= q1^-1 mod q and builds no chain; about half its rows take
their trace and length from the dual class.  The tests record every row it
yields and compare with the oracle.  The second oracle is the Dedekind sum
``_dedekind12``, computed by reciprocity with no chain at all, so it checks
each duality-derived row independently.
"""

from collections import Counter
from fractions import Fraction
from math import floor, gcd

import pytest

import qhpp.enumeration as enumeration
from qhpp.enumeration import noA2_scan
from qhpp.hjcf import _class_shapes, _dedekind12, cf_from_pair, enumerate_cfs_of_order


def reference_scan(q_cap, shift=frozenset()):
    """(rows, square lines, witness lines) of the noA2 loop over HjCf chains.

    A row is (q, q1 + ql, trace, length) per chain.  ``shift`` holds
    (q, canonical entries) pairs whose trace is taken one larger, to drive
    the witness checks into failure.
    """
    rows, squares, witness_failures = [], [], []
    for q in range(7, q_cap + 1):
        if gcd(q, 30) != 1:
            continue
        for cf in enumerate_cfs_of_order(q):
            q1, ql, l = cf.q1, cf.ql, cf.l
            tr = cf.trace + ((q, cf.entries) in shift)
            rows.append((q, q1 + ql, tr, l))
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
    return rows, squares, witness_failures


def walk(monkeypatch, q_cap, shift=frozenset()):
    """Run noA2_scan, recording (q, q1 + ql, trace, length) per visited class."""
    rows = []

    def shapes(q):
        for q1, ql, tr, l in _class_shapes(q):
            tr += (q, cf_from_pair(q, q1).canonical().entries) in shift
            rows.append((q, q1 + ql, tr, l))
            yield q1, ql, tr, l

    monkeypatch.setattr(enumeration, "_class_shapes", shapes)
    return rows, noA2_scan(q_cap)


def test_walk_visits_every_class_once_up_to_cap_1000(monkeypatch):
    rows, report = walk(monkeypatch, 1000)
    ref_rows, ref_squares, ref_witness = reference_scan(1000)
    assert Counter(rows) == Counter(ref_rows)
    assert dict(report.stages) == {
        "cfs": len(ref_rows), "candidates": 3 * len(ref_rows), "D_square": 0,
    }
    assert ref_squares == ref_witness == []
    assert report.mismatches == []
    assert report.details["mod3_witness_ok"] is True


def test_failure_lines_match_the_reference_text_and_order(monkeypatch):
    # report every D divisible by 7 as a square, and take the trace one
    # larger for every third chain of three orders, which breaks the mod-3
    # witness of those chains
    monkeypatch.setattr(enumeration, "is_positive_square", lambda d: d % 7 == 0)
    shift = frozenset(
        (q, cf.entries) for q in (7, 11, 49) for cf in enumerate_cfs_of_order(q)[::3]
    )
    rows, report = walk(monkeypatch, 60, shift)
    ref_rows, ref_squares, ref_witness = reference_scan(60, shift)
    assert Counter(rows) == Counter(ref_rows)
    assert report.mismatches == (
        [f"noA2: square D found: {s}" for s in ref_squares]
        + [f"noA2: {w}" for w in ref_witness]
    )
    assert dict(report.stages)["D_square"] == len(ref_squares)
    assert report.details["mod3_witness_ok"] is False
    assert any(w.endswith("trace criterion nonzero mod 3") for w in ref_witness)
    assert any(w.endswith("some closed form divisible by 3") for w in ref_witness)
    # the walk meets [7] (q1 = 1) before [2,2,2,2,2,2] (q1 = 6); the report
    # lists the chains of each order in canonical order
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
    """Run the cap-2000 scan once, checking each row of the class walk against
    _dedekind12: (classes visited, the scan's report, pairs where ql is not
    q1^-1 mod q or q1 + ql + (trace - 3l)*q differs from S = 12*q*s(q1, q),
    pairs where S or one of the three closed forms breaks the mod-3
    witness)."""
    visited = 0
    identity_failures, congruence_failures = [], []

    def shapes(q):
        nonlocal visited
        for q1, ql, tr, l in _class_shapes(q):
            visited += 1
            s = _dedekind12(q1, q)
            if ql != pow(q1, -1, q) or q1 + ql + (tr - 3 * l) * q != s:
                identity_failures.append((q, q1))
            forms = (s + 2, 5 * s + 12 * q + 10, 5 * s + 24 * q + 10)
            if s % 3 != 0 or tuple(x % 3 for x in forms) != (2, 1, 1):
                congruence_failures.append((q, q1))
            yield q1, ql, tr, l

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_class_shapes", shapes)
        report = noA2_scan(2000)
    return visited, report, identity_failures, congruence_failures


def test_closed_forms_are_dedekind_sums_up_to_cap_2000(walk_to_2000):
    visited, report, identity_failures, _ = walk_to_2000
    assert visited == dict(report.stages)["cfs"] == 254_743
    assert identity_failures == []


def test_mod3_witness_is_the_dedekind_congruence_up_to_cap_2000(walk_to_2000):
    # 12*q*s(q1, q) is divisible by 3 whenever 3 does not divide q, which
    # makes the forms 2, 1 and 1 mod 3 for every order, not only below a cap
    _, report, _, congruence_failures = walk_to_2000
    assert congruence_failures == []
    assert report.details["mod3_witness_ok"] is True
