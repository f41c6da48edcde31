"""Each workload's checker accepts qhpp's real output and rejects a
corrupted copy of it."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads as w  # noqa: E402


def run_jobs(jobs: list[dict]) -> list[tuple[int, str]]:
    """Run the jobs the way a benchmark operation does, in child.py."""
    result = run.run_jobs(jobs)
    return list(zip(result["rc"], result["out"]))


@pytest.fixture(scope="module")
def refs():
    return w.references()


VERIFY_TEXT = """\
OK       pipeline table1: types=1092, D_square=24
MISMATCH pipeline q20: cases=126, D_square=11, BMY=4
         q20: stage 'cases' computed 126, fixture 128
         q20: per-case tallies computed [40, 80, 6], fixture [42, 80, 6]
MISMATCH pipeline small-q: cases=240, D_square=12, BMY=1
         small-q: stage 'D_square' computed 12, fixture 6
         small-q: fixture row 3 [2]+[3]+[2,2,2,2]+[3,2] not produced by the scan
         small-q: computed survivor [2]+[3]+[3,2]+[2,4] (D=1024) absent from fixture
OK       pipeline l11: cases=4, eliminated=4
OK       pipeline step5: cases [5]=11, survivors [5]=0, cases [2,3]=16, survivors [2,3]=0
OK       pipeline step6: rows=24, rule_A=12, rule_B=5, rule_C=4, residual=3, residual_eliminated=3
OK       pipeline noA2 (cap 500): cfs=16173, candidates=48519, D_square=0
OK       gram determinants: all reference configurations
""" + "".join(f"OK       property suite{i}: fine\n" for i in range(11)) + "verification mismatches found\n"


def test_verify_checker(refs):
    assert w.check_verify(1, VERIFY_TEXT, refs) == []
    for good, bad in (
        ("cfs=16173, candidates=48519", "cfs=16172, candidates=48516"),
        ("(D=1024)", "(D=1025)"),
        ("OK       property suite3", "FAIL     property suite3"),
        ("BMY=4", "BMY=5"),
    ):
        assert w.check_verify(1, VERIFY_TEXT.replace(good, bad), refs)
    assert w.check_verify(0, VERIFY_TEXT, refs)


def test_noA2_checker():
    [(rc, text)] = run_jobs([{"cli": ["enumerate", "--pipeline", "noA2", "--cap", "100"]}])
    assert w.check_noA2(rc, text, cap=100) == []
    assert w.check_noA2(rc, text.replace("stage D_square: 0", "stage D_square: 1"), cap=100)
    assert w.check_noA2(rc, text, cap=101) or w.check_noA2(rc, text, cap=103)


def test_pipelines_checker(refs):
    results = dict(zip(w.PIPELINES, run_jobs(w.pipeline_jobs())))
    assert w.check_pipelines(results, refs) == []
    rc, text = results["table1"]
    report = json.loads(text)
    report["survivors"][0]["D"] = str(int(report["survivors"][0]["D"]) + 1)
    assert w.check_pipelines({**results, "table1": (rc, json.dumps(report))}, refs)
    rc, text = results["l11"]
    report = json.loads(text)
    report["stages"] = [["cases", 4], ["eliminated", 3]]
    assert w.check_pipelines({**results, "l11": (rc, json.dumps(report))}, refs)


def test_queries_checker():
    stream = w.query_stream(3, n=120)
    rcs, outs = zip(*run_jobs([item["job"] for item in stream]))
    assert w.check_queries(stream, list(rcs), list(outs)) == []
    i = next(k for k, item in enumerate(stream) if item["kind"].startswith("dioph") and json.loads(outs[k]))
    sols = json.loads(outs[i])
    sols[0][0] += 1
    assert w.check_queries(stream[i:i + 1], [0], [json.dumps(sols)])
    j = next(k for k, item in enumerate(stream) if item["kind"] == "gram")
    assert w.check_queries(stream[j:j + 1], [0], [str(int(outs[j]) + 1)])
