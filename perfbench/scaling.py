"""Wall time of the noA2 scan at several caps, for its scaling curve.

    python3 perfbench/scaling.py [CAP ...]      (default: 500 1000 2000)

Each cap runs ``qhpp enumerate --pipeline noA2 --cap CAP`` once in a fresh
interpreter, like the noA2-scan workload, checks the chain count against
the class-count oracle and prints one JSON line per cap.
"""

import json
import sys

import run
import workloads as w


def main(caps: list[int]) -> int:
    for cap in caps:
        result = run.run_jobs([{"cli": ["enumerate", "--pipeline", "noA2", "--cap", str(cap)]}])
        problems = w.check_noA2(result["rc"][0], result["out"][0], cap)
        print(json.dumps({"cap": cap, "wall_s": result["ns"][0] / 1e9, "correct": not problems}))
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main([int(c) for c in sys.argv[1:]] or [500, 1000, 2000]))
