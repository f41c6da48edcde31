"""tools/tier1.py: the per-file seconds it reads from a pytest run, each
file's collection and test phases summed by the script loaded as a pytest
plugin."""

import importlib.util
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
_spec = importlib.util.spec_from_file_location("tier1", os.path.join(TOOLS, "tier1.py"))
tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tier1)

CAPTURED = """\
..F                                                                      [100%]
0.560400000s file  tests/test_surface.py
0.070000000s file  perfbench/tests/test_x.py
0.012345678s file  tests/test_records.py
0.100000000s file  tests/test_api.py
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_criterion_03_q20_pipeline - assert 126 == 128
2 passed, 1 failed in 1.23s
"""


def test_summarise_reads_each_files_seconds():
    assert tier1.summarise(CAPTURED, 1.5) == {
        "wall_s": 1.5,
        "passed": 2,
        "failed": 1,
        "errors": 0,
        "failures": ["tests/test_acceptance.py::test_criterion_03_q20_pipeline"],
        # one line per file, read at full precision and rounded to the millisecond
        "per_file_s": {
            "tests/test_surface.py": 0.56,
            "tests/test_api.py": 0.1,
            "perfbench/tests/test_x.py": 0.07,
            "tests/test_records.py": 0.012,
        },
    }


def run_plugin(tmp_path, name: str, source: str) -> dict:
    """The record of a pytest run of one test file, timed by the plugin."""
    (tmp_path / name).write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "tier1", name],
        capture_output=True, text=True, cwd=tmp_path, check=False,
        env=dict(os.environ, PYTHONPATH=TOOLS),
    )
    return tier1.summarise(proc.stdout, 0.0)


def test_plugin_times_a_files_import(tmp_path):
    record = run_plugin(
        tmp_path, "test_slow_import.py",
        "import time\ntime.sleep(0.2)\n\n\ndef test_one():\n    pass\n",
    )
    assert (record["passed"], record["failed"]) == (1, 0), record
    assert record["per_file_s"]["test_slow_import.py"] >= 0.2


def test_plugin_sums_tests_too_short_for_two_decimals(tmp_path):
    # 40 calls of 3 ms each: every one would print as 0.00s in pytest's
    # durations, and the file still reads their sum
    record = run_plugin(
        tmp_path, "test_short.py",
        "import time\n\nimport pytest\n\n\n@pytest.mark.parametrize('i', range(40))\n"
        "def test_short(i):\n    time.sleep(0.003)\n",
    )
    assert (record["passed"], record["failed"]) == (40, 0), record
    assert record["per_file_s"]["test_short.py"] >= 0.12
