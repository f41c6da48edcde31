"""The integer unit-pair walk of the noA2 scan against the HjCf chain loop.

``reference_scan`` is the scan's loop as it ran over the canonical chains of
``enumerate_cfs_of_order``, kept here as the oracle.  The walk visits each
class as a unit q1 <= q1^-1 mod q and builds no chain, so the tests record
what it visits and compare with the oracle.
"""

from collections import Counter
from math import gcd

import qhpp.enumeration as enumeration
from qhpp.enumeration import noA2_scan
from qhpp.hjcf import _chain_shape, cf_from_pair, enumerate_cfs_of_order


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
    """Run noA2_scan, recording (q, q1 + ql, trace, length) per visited unit."""
    rows = []

    def shape(q, q1):
        tr, l = _chain_shape(q, q1)
        tr += (q, cf_from_pair(q, q1).canonical().entries) in shift
        rows.append((q, q1 + pow(q1, -1, q), tr, l))
        return tr, l

    monkeypatch.setattr(enumeration, "_chain_shape", shape)
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
