"""Write the canonical outputs of qhpp to one file per command.

    python3 tools/snapshot_outputs.py DIR [--root CHECKOUT]

Runs ``qhpp verify --all`` and ``qhpp enumerate --pipeline P --format F``
for every pipeline P and every format F, each in a fresh interpreter on the
``src/`` of CHECKOUT (default: the checkout holding this script), with the
bundled reference tables.  Each file holds the command's stdout followed by
a line ``rc=N`` with its exit code.  A refactor keeps these bytes: snapshot
the parent and the change into two directories and compare them with
``diff -r``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PIPELINES = ("table1", "q20", "small-q", "l11", "step5", "step6", "noA2")
FORMATS = ("json", "csv", "text")


def commands() -> dict[str, list[str]]:
    """File name -> CLI arguments, for every command the snapshot covers."""
    out = {"verify--all.txt": ["verify", "--all"]}
    for pipeline in PIPELINES:
        for fmt in FORMATS:
            out[f"enumerate-{pipeline}-{fmt}.txt"] = [
                "enumerate", "--pipeline", pipeline, "--format", fmt,
            ]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", help="directory to write the outputs to")
    parser.add_argument("--root", default=ROOT, help="checkout whose src/ to run")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env.pop("QHPP_FIXTURES", None)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(args.root), "src")
    os.makedirs(args.dir, exist_ok=True)
    for name, cli_args in commands().items():
        proc = subprocess.run(
            [sys.executable, "-m", "qhpp.cli", *cli_args],
            stdout=subprocess.PIPE, env=env, cwd=args.root, check=False,
        )
        with open(os.path.join(args.dir, name), "wb") as fh:
            fh.write(proc.stdout)
            fh.write(f"rc={proc.returncode}\n".encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
