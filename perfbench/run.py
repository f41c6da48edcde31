"""Benchmark of the qhpp verifier: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every timed section runs in a fresh
interpreter (``child.py``) that drives qhpp only through ``qhpp.cli.main``
and public functions, with one closed-loop client.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads as w

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_STARTS = 11
CHILD_TIMEOUT = 150
# A run repeats its operation for --seconds, but never fewer times than
# this: verify and noA2-scan take 8-15 s per operation, and their median
# should not rest on two.  The cold starts that time set-up are the warm-up.
MIN_OPS = {"verify": 3, "noA2-scan": 3, "pipelines": 5, "queries": 3}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QHPP_FIXTURES", None)
    return env


def run_child(extra: list[str], jobs: list[dict] | None) -> tuple[float, dict | None]:
    """Start child.py, time it until ``ready``, feed it the jobs (if any)
    and wait for it; returns the set-up time and the child's result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *extra],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=child_env(),
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, err = proc.communicate(json.dumps(jobs) if jobs is not None else None, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("child timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode} after {line!r}: {err[-2000:]}")
    return ready, json.loads(out.splitlines()[-1]) if jobs is not None else None


def cold_start() -> float:
    return run_child(["--setup-only"], None)[0]


def run_jobs(jobs: list[dict], trace_dir: str | None = None) -> dict:
    return run_child(["--trace", trace_dir] if trace_dir else [], jobs)[1]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _verify(seed: int):
    refs = w.references()
    return [{"cli": ["verify", "--all"]}], lambda rc, out: w.check_verify(rc[0], out[0], refs)


def _noA2_scan(seed: int):
    jobs = [{"cli": ["enumerate", "--pipeline", "noA2", "--cap", str(w.SCAN_CAP)]}]
    return jobs, lambda rc, out: w.check_noA2(rc[0], out[0])


def _pipelines(seed: int):
    refs = w.references()
    return w.pipeline_jobs(), lambda rc, out: w.check_pipelines(dict(zip(w.PIPELINES, zip(rc, out))), refs)


def _queries(seed: int):
    stream = w.query_stream(seed)
    return [item["job"] for item in stream], lambda rc, out: w.check_queries(stream, rc, out)


# name: (the jobs of one operation and the check of their output, given the
# seed; the exit codes an operation may end with)
WORKLOADS = {
    "verify": (_verify, {0, 1}),
    "noA2-scan": (_noA2_scan, {0}),
    "pipelines": (_pipelines, {0, 1}),
    "queries": (_queries, {0}),
}


def operation(jobs: list[dict], check, exits: set, first: list, trace_dir: str | None = None) -> tuple[dict, int, list[str]]:
    """Run one operation; returns the child's result, its failed commands and
    the problems found.  The first output is checked against the oracles,
    later ones must repeat it byte for byte (``first`` holds it)."""
    result = run_jobs(jobs, trace_dir)
    failed = sum(1 for rc in result["rc"] if rc not in exits)
    if first:
        problems = [] if result["out"] == first[0] else ["output differs between operations"]
    else:
        first.append(result["out"])
        problems = check(result["rc"], result["out"])
    return result, failed, problems


def measure(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    make, exits = WORKLOADS[name]
    jobs, check = make(seed)
    first: list = []
    # the host's speed drifts over tens of seconds, so set-up is timed
    # before, between and after the operations; the very first start is
    # warm-up
    cold_start()
    setups = [cold_start() for _ in range(3)]
    marks = [seconds * i / 6 for i in range(1, 6)]
    walls, rss, latencies, problems = [], [], [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    while len(walls) < MIN_OPS[name] or (
        time.perf_counter() - t0 + statistics.median(walls) <= seconds
    ):
        while marks and time.perf_counter() - t0 >= marks[0]:
            marks.pop(0)
            setups.append(cold_start())
        result, bad, found = operation(jobs, check, exits, first)
        attempted += len(jobs)
        failed += bad
        problems += found
        walls.append(sum(result["ns"]) / 1e9)
        rss.append(result["peak_rss_kb"] / 1024)
        latencies += [ns / 1e6 for ns in result["ns"]]
    setups += [cold_start() for _ in range(SETUP_STARTS - len(setups))]
    wall = statistics.median(walls)
    if name == "queries":
        p50, p99 = statistics.median(latencies), percentile(latencies, 99)
    else:
        # a run of the other workloads holds 3 to about 60 operations, too
        # few for a tail: both request metrics repeat wall_s
        p50 = p99 = wall * 1e3
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "query_p50_ms": (p50, "ms"),
        "query_p99_ms": (p99, "ms"),
    }
    return metrics, attempted, failed, problems


def per_layer_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def traced(name: str, seed: int) -> tuple[dict, int, int, list[str]]:
    """One untraced and one traced operation; per-layer metrics from the latter."""
    make, exits = WORKLOADS[name]
    jobs, check = make(seed)
    first: list = []
    plain, failed, problems = operation(jobs, check, exits, first)
    trace_dir = os.path.join(OUT, f"trace-{name}-seed{seed}")
    result, bad, found = operation(jobs, check, exits, first, trace_dir)
    failed += bad
    problems += found
    problems += [f"per-layer metric reads span {s!r}, which no traced function has" for s in result["trace_missing"]]
    layers = result["layers"]
    layers["trace.overhead_s"] = (sum(result["ns"]) - sum(plain["ns"])) / 1e9
    want = per_layer_names()
    if sorted(layers) != sorted(want):
        problems.append(f"per-layer metrics {sorted(set(layers) ^ set(want))} differ from BENCHMARK.json")
    units = {k: ("s" if k.endswith("_s") else "share" if k.endswith("_share") else "count") for k in layers}
    metrics = {k: (v, units[k]) for k, v in layers.items()}
    return metrics, 2 * len(jobs), failed, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qhpp", "cli.py")):
        print(f"error: no qhpp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, problems = traced(args.workload, args.seed)
        else:
            metrics, attempted, failed, problems = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
