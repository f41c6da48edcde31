"""The integer class walk of the noA2 scan against two oracles
(``tests/oracles.py``).

``noA2_loop`` is the scan's loop as it ran over the canonical chains of
``enumerate_cfs_of_order``.  The walk (``_dual_pairs``) visits each pair
{class, dual class} once, as the unit pair (q1, ql) of the class that opens
it with the trace and length of its chain.  ql is the order of the prefix
[n1..n(l-1)], found in the same Euclid pass, so no modular inverse is
computed.  The walk builds no chain, and the scan gives the dual class
(q - ql, q - q1) the Dedekind sum -S.  The tests record every class it
visits and compare with the oracle.  The second oracle is the Dedekind sum
``dedekind12``, computed by reciprocity with no chain at all, so it checks
S and -S independently.
"""

from collections import Counter, deque
from math import gcd

import pytest

import qhpp.enumeration as enumeration
from qhpp.enumeration import noA2_scan
from qhpp.hjcf import _dual_pairs
from qhpp.ratio import is_positive_square
from tests import oracles


def walk(monkeypatch, q_cap, shift=frozenset()):
    """Run noA2_scan, recording (q, {q1, ql}) per class the walk yields or
    pairs with its dual; the walk reads the trace one larger at each (q, q1)
    in ``shift``, as ``oracles.noA2_loop`` takes it."""
    classes = []

    def pairs(q):
        for q1, ql, tr, l in _dual_pairs(q):
            classes.append((q, frozenset((q1, ql))))
            if q - ql != q1:
                classes.append((q, frozenset((q - ql, q - q1))))
            yield q1, ql, tr + ((q, q1) in shift), l

    monkeypatch.setattr(enumeration, "_dual_pairs", pairs)
    return classes, noA2_scan(q_cap)


def test_walk_visits_every_class_once_up_to_cap_1000(monkeypatch):
    classes, report = walk(monkeypatch, 1000)
    ref_classes, ref_squares, ref_witness = oracles.noA2_loop(1000)
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
    ref_classes, ref_squares, ref_witness = oracles.noA2_loop(60, shift)
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


def test_dedekind12_matches_the_definition_below_60():
    pairs = [(h, k) for k in range(1, 60) for h in range(k) if gcd(h, k) == 1]
    oracles.agree(
        lambda pair: oracles.dedekind12(*pair),
        lambda pair: 12 * pair[1] * oracles.dedekind_sum(*pair),
        pairs,
    )
    # s(h, k) depends on h mod k only
    for h, k in pairs:
        assert oracles.dedekind12(h, k) == oracles.dedekind12(h + k, k) == oracles.dedekind12(h - k, k)


@pytest.fixture(scope="module")
def walk_to_2000():
    """Run the cap-2000 scan once, checking every D it tests against the
    Dedekind sums S = dedekind12(q1, q) of the class that opens a pair and
    -S = dedekind12(q - ql, q) of its dual: (classes visited, the scan's
    report, classes where ql is not q1^-1 mod q or a D the scan tests is not
    the closed form in the Dedekind sum, classes where S or one of the three
    closed forms breaks the mod-3 witness, D values left untested)."""
    visited = 0
    expected = deque()
    identity_failures, congruence_failures = [], []

    def pairs(q):
        nonlocal visited
        for q1, ql, tr, l in _dual_pairs(q):
            if ql != pow(q1, -1, q):
                identity_failures.append((q, q1))
            for h in (q1,) if q - ql == q1 else (q1, q - ql):
                visited += 1
                s = oracles.dedekind12(h, q)
                forms = (s + 2, 5 * s + 12 * q + 10, 5 * s + 24 * q + 10)
                expected.extend(((q, h), m * x) for m, x in zip((30, 6, 6), forms))
                if s % 3 != 0 or tuple(x % 3 for x in forms) != (2, 1, 1):
                    congruence_failures.append((q, h))
            yield q1, ql, tr, l

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
