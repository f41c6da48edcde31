"""tools/tier1.py: the per-file seconds it reads from a pytest run, with each
file's collection timed by the script loaded as a pytest plugin."""

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
============================= slowest durations ==============================
0.30s call     tests/test_surface.py::test_a
0.01s setup    tests/test_surface.py::test_a
0.00s teardown tests/test_surface.py::test_a
0.05s call     perfbench/tests/test_x.py::test_b[1-2]
0.25s collect  tests/test_surface.py
0.02s collect  perfbench/tests/test_x.py
0.10s collect  tests/test_api.py
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_criterion_03_q20_pipeline - assert 126 == 128
2 passed, 1 failed in 1.23s
"""


def test_summarise_adds_collection_to_each_files_seconds():
    assert tier1.summarise(CAPTURED, 1.5) == {
        "wall_s": 1.5,
        "passed": 2,
        "failed": 1,
        "errors": 0,
        "failures": ["tests/test_acceptance.py::test_criterion_03_q20_pipeline"],
        # a file whose tests all deselect still shows its collection
        "per_file_s": {
            "tests/test_surface.py": 0.56,
            "tests/test_api.py": 0.1,
            "perfbench/tests/test_x.py": 0.07,
        },
    }


def test_plugin_times_a_files_import(tmp_path):
    (tmp_path / "test_slow_import.py").write_text(
        "import time\ntime.sleep(0.2)\n\n\ndef test_one():\n    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "tier1",
         "--durations=0", "--durations-min=0", "test_slow_import.py"],
        capture_output=True, text=True, cwd=tmp_path, check=False,
        env=dict(os.environ, PYTHONPATH=TOOLS),
    )
    record = tier1.summarise(proc.stdout, 0.0)
    assert (record["passed"], record["failed"]) == (1, 0), proc.stdout
    assert record["per_file_s"]["test_slow_import.py"] >= 0.2
