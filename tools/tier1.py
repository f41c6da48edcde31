"""Time the tier-1 test run and print it as JSON.

    python3 tools/tier1.py [--root CHECKOUT]

Runs the tier-1 command (``python -m pytest -q
--continue-on-collection-errors``) in CHECKOUT (default: the checkout
holding this script) with ``src/`` on ``PYTHONPATH``, ``--durations=0
--durations-min=0`` (so no setup, call or teardown is hidden for being short)
and the cache plugin off, and prints one JSON object: the wall time in seconds,
the pass and fail counts, the failing test ids, and the seconds per test file (setup, call and
teardown summed from pytest's durations).  It is not itself a test: compare
two trees by running it on both, on one host.

It exits 0 when the only red is the two documented errata of the reference
tables (``ERRATA``), and 1 when pytest reports an error or any other
failure, or does not finish its run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
DURATION = re.compile(r"^([0-9.]+)s (?:setup|call|teardown)\s+([^:\s]+)::")
COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")
FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)")
# the q20 tally (126, not 128) and the small-q square-D count (12, not 6)
ERRATA = {
    "tests/test_acceptance.py::test_criterion_03_q20_pipeline",
    "tests/test_acceptance.py::test_criterion_04_small_q_pipeline",
}


def summarise(output: str, wall_s: float) -> dict:
    """The JSON record of one pytest run, read from its terminal output."""
    per_file: dict[str, float] = {}
    failures = []
    for line in output.splitlines():
        match = DURATION.match(line)
        if match:
            seconds, path = match.groups()
            per_file[path] = per_file.get(path, 0.0) + float(seconds)
        match = FAILURE.match(line)
        if match:
            failures.append(match.group(1))
    counts = {"passed": 0, "failed": 0, "errors": 0}
    summary = output.rstrip().splitlines()[-1] if output.strip() else ""
    for number, kind in COUNT.findall(summary):
        counts["errors" if kind.startswith("error") else kind] = int(number)
    return {
        "wall_s": round(wall_s, 3),
        **counts,
        "failures": failures,
        "per_file_s": {
            path: round(seconds, 3)
            for path, seconds in sorted(per_file.items(), key=lambda kv: -kv[1])
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=ROOT, help="checkout whose tests to run")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *COMMAND, "--durations=0", "--durations-min=0", "-p", "no:cacheprovider"],
        capture_output=True, text=True, env=env, cwd=root, check=False,
    )
    wall_s = time.perf_counter() - start
    record = summarise(proc.stdout, wall_s)
    print(json.dumps(record, indent=2))
    new_red = record["errors"] or set(record["failures"]) - ERRATA
    # pytest exits 2 to 5 when it was interrupted or ran no test
    return int(bool(new_red) or proc.returncode not in (0, 1))


if __name__ == "__main__":
    sys.exit(main())
