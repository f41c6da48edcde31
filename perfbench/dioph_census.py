"""The Diophantine problems qhpp builds for itself, the basis of the dioph
requests in the ``queries`` workload.

    python3 perfbench/dioph_census.py

Run from the root of a checkout.  Runs ``qhpp verify --all`` through
``qhpp.cli.main`` with ``solve_dioph`` wrapped where the pipelines
(``qhpp.enumeration``) and the property suites (``qhpp.checks``) look it
up, and the two problem builders wrapped where the pipelines look them up.
Prints, per caller, how many problems there were, their shapes, their
number of variables, their size in search leaves (``workloads.dfs_size``)
and their solution counts.
"""

import contextlib
import io
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qhpp.checks  # noqa: E402
import qhpp.cli  # noqa: E402
import qhpp.enumeration  # noqa: E402
import workloads as w  # noqa: E402

RECORDS: dict[str, list[dict]] = {"pipelines": [], "property suites": []}
BUILT: dict[int, str] = {}


def recording(caller: str, solve):
    def wrapper(problem):
        sols = solve(problem)
        leaves, _ = w.dfs_size(list(problem.coeffs), problem.target)
        shape = BUILT.get(id(problem), "other")
        if shape == "component":
            shape = "component-groups" if problem.group_constraints else (
                "component-quad" if problem.quad_coeffs is not None else "component")
        RECORDS[caller].append({"shape": shape, "vars": len(problem.coeffs),
                                "leaves": leaves, "solutions": len(sols)})
        return sols
    return wrapper


def building(shape: str, build):
    def wrapper(*args, **kwargs):
        problem, labels = build(*args, **kwargs)
        BUILT[id(problem)] = shape
        return problem, labels
    return wrapper


def main() -> None:
    en = qhpp.enumeration
    en.solve_dioph = recording("pipelines", en.solve_dioph)
    en.aggregated_problem = building("aggregated", en.aggregated_problem)
    en.component_problem = building("component", en.component_problem)
    qhpp.checks.solve_dioph = recording("property suites", qhpp.checks.solve_dioph)
    with contextlib.redirect_stdout(io.StringIO()):
        qhpp.cli.main(["verify", "--all"])
    for caller, recs in RECORDS.items():
        if not recs:
            continue
        leaves = sorted(r["leaves"] for r in recs)
        print(f"{caller}: {len(recs)} problems")
        print(f"  shapes: {dict(Counter(r['shape'] for r in recs))}")
        print(f"  variables: {min(r['vars'] for r in recs)}-{max(r['vars'] for r in recs)}")
        print(f"  search leaves: min {leaves[0]}, median {leaves[len(leaves) // 2]}, max {leaves[-1]}")
        print(f"  solutions: max {max(r['solutions'] for r in recs)}, "
              f"none in {sum(1 for r in recs if not r['solutions'])}")


if __name__ == "__main__":
    main()
