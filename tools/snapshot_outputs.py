"""Write the canonical outputs of qhpp to one file per command.

    python3 tools/snapshot_outputs.py DIR [--root CHECKOUT]

Runs ``qhpp verify --all``, ``qhpp enumerate --pipeline P --format F`` for
every pipeline P and every format F, the noA2 scan at the benchmark's cap
of 2000 as JSON, and a fixed set of single requests (``cf-info``,
``candidate``, a ``candidate`` with an empty token, ``gram``, three
``gram`` edge errors, a ``gram`` past its Hadamard digit limit, ``dioph``,
a two-variable ``dioph`` of a million leaves, one past the node budget, a
``dioph`` input error, a ``dioph`` rational past its digit limit, a
``dioph`` of rationals padded with leading zeros, a chain whose order
passes its bound, a chain padded with 5,000 leading zeros and a malformed
one, a usage error, ``--help`` and each command's ``--help``), each in a
fresh interpreter on the ``src/`` of CHECKOUT (default: the checkout
holding this script), with the bundled reference tables and an 80-column
terminal width.
``api.txt`` lists the sorted ``__all__`` of ``qhpp`` and of each of its
modules.  Each file holds the command's stdout, then its stderr, then a line
``rc=N`` with its exit code.
A refactor keeps these bytes: snapshot the parent and the change into two
directories and compare them with ``diff -r``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PIPELINES = ("table1", "q20", "small-q", "l11", "step5", "step6", "noA2")
FORMATS = ("json", "csv", "text")
REQUESTS = {
    "cf-info-text.txt": ["cf-info", "19/9"],
    "cf-info-json.txt": ["cf-info", "[3,2,2]", "--format", "json"],
    "cf-info-long-json.txt": ["cf-info", "[3,2,2,2,2,2,2,2,2]", "--format", "json"],
    # 300 entries 3: an order of 126 digits, past hjcf.ORDER_DIGIT_LIMIT
    "cf-info-order-limit.txt": ["cf-info", "[" + ",".join(["3"] * 300) + "]"],
    # leading zeros past CPython's limit on integer conversion count for nothing
    "cf-info-zero-padded.txt": ["cf-info", "0" * 5_000 + "19/9"],
    # a malformed token gets int's own text, not CPython's on passing its limit
    "cf-info-zero-padded-malformed.txt": ["cf-info", "0" * 5_000 + "x"],
    "candidate.txt": ["candidate", "--sings", "[2],[2,2],[7],[13]"],
    # an empty token names no point: refused, not dropped
    "candidate-empty-token.txt": ["candidate", "--sings", "[2],,[3]"],
    "gram-negative-diag.txt": ["gram", "--diag", "-1,-2,-3,-5", "--edges", "1-2,1-3,1-4"],
    "gram-edge-out-of-range.txt": ["gram", "--diag", "-1,-2", "--edges", "1-5"],
    "gram-edge-loop.txt": ["gram", "--diag", "-1,-2", "--edges", "1-1"],
    "gram-edge-repeated.txt": ["gram", "--diag", "-1,-2", "--edges", "1-2,2-1:3"],
    # |det| = 10^1000, one digit past surface.GRAM_DET_DIGIT_LIMIT
    "gram-det-digit-limit.txt": ["gram", "--diag", "-1" + "0" * 500 + ",1" + "0" * 500],
    "dioph.txt": ["dioph", "--coeffs", "1/3,1/5,1/33", "--target", "56/55"],
    "dioph-quad.txt": [
        "dioph", "--coeffs", "1/3,1/5,1/33", "--target", "56/55",
        "--quad", "1/3,3/5,4/33", "--quad-bound", "111/110",
    ],
    "dioph-quad-kept.txt": [
        "dioph", "--coeffs", "1/40,1/30,1/24", "--target", "1",
        "--quad", "1/40,1/30,1/24", "--quad-bound", "16",
    ],
    # the plain search has 1,000,002 nodes, and two of its leaves complete
    "dioph-two-variables.txt": ["dioph", "--coeffs", "1/1000000,1/1000001", "--target", "1"],
    "dioph-node-budget.txt": ["dioph", "--coeffs", "1/300,1/300,1/300,1/301", "--target", "1"],
    "dioph-zero-denominator.txt": ["dioph", "--coeffs", "1/0", "--target", "1"],
    # a target of 1,001 digits, one past ratio.RATIONAL_DIGIT_LIMIT
    "dioph-digit-limit.txt": ["dioph", "--coeffs", "1", "--target", "1" + "0" * 1_000],
    # leading zeros count for nothing in a rational either
    "dioph-zero-padded.txt": [
        "dioph", "--coeffs", "1/" + "0" * 5_000 + "2", "--target", "0" * 1_001 + "1",
    ],
    "enumerate-noA2-cap2000-json.txt": [
        "enumerate", "--pipeline", "noA2", "--cap", "2000", "--format", "json",
    ],
    "usage-error.txt": ["candidate"],
    "help.txt": ["--help"],
    **{
        f"help-{command}.txt": [command, "--help"]
        for command in ("cf-info", "candidate", "enumerate", "verify", "dioph", "gram")
    },
}
API = """
import importlib, pkgutil, qhpp
for name in ["qhpp"] + sorted(f"qhpp.{m.name}" for m in pkgutil.iter_modules(qhpp.__path__)):
    names = getattr(importlib.import_module(name), "__all__", None)
    print(name if names is not None else f"{name} has no __all__")
    for attr in sorted(names or ()):
        print("   ", attr)
"""


def commands() -> dict[str, list[str]]:
    """File name -> interpreter arguments, for every command the snapshot
    covers."""
    out = {"verify--all.txt": ["verify", "--all"]}
    for pipeline in PIPELINES:
        for fmt in FORMATS:
            out[f"enumerate-{pipeline}-{fmt}.txt"] = [
                "enumerate", "--pipeline", pipeline, "--format", fmt,
            ]
    out = {name: ["-m", "qhpp.cli", *args] for name, args in {**out, **REQUESTS}.items()}
    return {**out, "api.txt": ["-c", API]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", help="directory to write the outputs to")
    parser.add_argument("--root", default=ROOT, help="checkout whose src/ to run")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env.pop("QHPP_FIXTURES", None)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(args.root), "src")
    env["COLUMNS"] = "80"
    os.makedirs(args.dir, exist_ok=True)
    for name, py_args in commands().items():
        proc = subprocess.run(
            [sys.executable, *py_args],
            capture_output=True, env=env, cwd=args.root, check=False,
        )
        with open(os.path.join(args.dir, name), "wb") as fh:
            fh.write(proc.stdout)
            fh.write(proc.stderr)
            fh.write(f"rc={proc.returncode}\n".encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
