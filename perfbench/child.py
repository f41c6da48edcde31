"""One fresh interpreter that imports qhpp and runs a list of jobs.

Run as ``python3 perfbench/child.py [--setup-only] [--trace DIR]`` from the
root of a checkout.  The child imports ``qhpp.cli``, loads the reference
tables and prints ``ready``: that much is the set-up a user pays on every
start, and the parent times it.  It then reads a JSON list of jobs from
stdin, times each job alone, and prints one JSON result line.

A job is ``{"cli": [argv...]}``, run through ``qhpp.cli.main`` with its
output captured, or ``{"dioph": {...}}``, a problem with group constraints
that the CLI cannot express, run through the public ``solve_dioph``.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

TRACE_DIR = sys.argv[sys.argv.index("--trace") + 1] if "--trace" in sys.argv else None

import qhpp.cli  # noqa: E402

if TRACE_DIR:
    from spans import Tracer

    TRACER = Tracer()
    TRACER.install()

import qhpp.fixtures  # noqa: E402

qhpp.fixtures.load_fixtures()
sys.stdout.write("ready\n")
sys.stdout.flush()
if "--setup-only" in sys.argv:
    sys.exit(0)

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import qhpp.obstruction  # noqa: E402


def dioph_problem(spec: dict):
    return qhpp.obstruction.DiophProblem(
        coeffs=tuple(Fraction(c) for c in spec["coeffs"]),
        target=Fraction(spec["target"]),
        group_constraints=tuple(
            (tuple(idx), Fraction(exact)) for idx, exact in spec.get("groups", ())
        ),
        quad_coeffs=tuple(Fraction(c) for c in spec["quad"]) if spec.get("quad") else None,
        quad_bound=Fraction(spec["quad_bound"]) if spec.get("quad") else None,
    )


def run(job: dict) -> tuple[object, int, str, str]:
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    try:
        if "cli" in job:
            argv = job["cli"]
            t0 = perf_counter_ns()
            rc = qhpp.cli.main(argv)
            ns = perf_counter_ns() - t0
        else:
            problem = dioph_problem(job["dioph"])
            t0 = perf_counter_ns()
            sols = qhpp.obstruction.solve_dioph(problem)
            ns = perf_counter_ns() - t0
            print(json.dumps([list(s) for s in sols]))
            rc = 0
    except Exception as exc:  # recorded as a failed operation
        ns = 0
        rc = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return rc, ns, out.getvalue(), err.getvalue()


def main() -> None:
    jobs = json.loads(sys.stdin.read())
    result = {"rc": [], "ns": [], "out": [], "err": []}
    for job in jobs:
        rc, ns, out, err = run(job)
        result["rc"].append(rc)
        result["ns"].append(ns)
        result["out"].append(out)
        result["err"].append(err)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if TRACE_DIR:
        result["layers"] = TRACER.layer_metrics()
        result["trace_missing"] = sorted(set(TRACER.missing))
        result["span_cost_ns"] = {"inner": TRACER.inner_ns, "outer": TRACER.outer_ns}
        TRACER.write(TRACE_DIR)
    sys.stdout.write(json.dumps(result) + "\n")


main()
