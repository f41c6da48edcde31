"""Time the tier-1 test run and print it as JSON.

    python3 tools/tier1.py [--root CHECKOUT]

Runs the tier-1 command (``python -m pytest -q
--continue-on-collection-errors``) in CHECKOUT (default: the checkout
holding this script) with ``src/`` on ``PYTHONPATH`` and the cache plugin
off, and prints one JSON object: the wall time in seconds, the pass and fail
counts, the failing test ids, and the seconds per test file.  A file's
seconds are its collection, the import of its module included, and the
setup, call and teardown of each of its tests, however short.  They are
summed in the same run by this script itself, loaded as a plugin with
``-p tier1``: it prints one ``<seconds>s file <file>`` line per file, at
full precision, in the terminal summary.  It is not itself a test: compare
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
DURATION = re.compile(r"^([0-9.]+)s file\s+(\S+)$")
COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")
FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)")
# the q20 tally (126, not 128) and the small-q square-D count (12, not 6)
ERRATA = {
    "tests/test_acceptance.py::test_criterion_03_q20_pipeline",
    "tests/test_acceptance.py::test_criterion_04_small_q_pipeline",
}


# -- the plugin: pytest loads this module with -p tier1 ----------------------

# each file's seconds so far, and the start of the collector in progress
_file_s: dict[str, float] = {}
_started: dict[str, float] = {}


def _add(nodeid: str, seconds: float) -> None:
    path = nodeid.split("::")[0]
    _file_s[path] = _file_s.get(path, 0.0) + seconds


def pytest_collectstart(collector) -> None:
    if collector.path.is_file():
        _started[collector.nodeid] = time.perf_counter()


def pytest_collectreport(report) -> None:
    start = _started.pop(report.nodeid, None)
    if start is not None:
        _add(report.nodeid, time.perf_counter() - start)


def pytest_runtest_logreport(report) -> None:
    _add(report.nodeid, report.duration)


def pytest_terminal_summary(terminalreporter) -> None:
    for path, seconds in _file_s.items():
        terminalreporter.write_line(f"{seconds:.9f}s file  {path}")


# -- the script ----------------------------------------------------------------


def summarise(output: str, wall_s: float) -> dict:
    """The JSON record of one pytest run, read from its terminal output."""
    per_file: dict[str, float] = {}
    failures = []
    for line in output.splitlines():
        match = DURATION.match(line)
        if match:
            seconds, path = match.groups()
            per_file[path] = float(seconds)
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
    # src for the package, this script's directory for the plugin
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, HERE, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *COMMAND, "-p", "no:cacheprovider", "-p", "tier1"],
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
