"""Workload inputs and the checks of their outputs.

Every check compares what ``qhpp`` printed with ``oracles``, never with a
stored copy of an earlier output, and returns a list of problems (empty
when the output is right).
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import gcd, lcm

import oracles as o

PIPELINES = ("table1", "q20", "small-q", "l11", "step5", "step6")
# q20 and small-q exit 1: the reference tables carry two errata (README,
# "Verification status") that the recomputation reports as mismatches.
PIPELINE_EXIT = {"table1": 0, "q20": 1, "small-q": 1, "l11": 0, "step5": 0, "step6": 0}
VERIFY_CAP = 500
SCAN_CAP = 2000
N_QUERIES = 2400
# No record of how the CLI is used exists, so two shares are assumptions:
# the four request kinds (cf-info, candidate, gram, dioph) weigh the same,
# and one request in twenty repeats an earlier one.  The dioph requests
# follow what qhpp builds for itself (dioph_census.py): the pipelines'
# problems are 2 aggregated, 2 component, 1 component with the quadratic
# bound and 3 with group sums too, and 7 of the 8 have no solution; no
# problem qhpp builds has more than 10 variables, 410 search leaves or 150
# solutions.
REPEAT_SHARE = 0.05
KIND_WEIGHTS = {"cf-info": 8, "candidate": 8, "gram": 8,
                "dioph-aggregated": 2, "dioph-component": 2, "dioph-quad": 1, "dioph-groups": 3}
SOLVABLE_SHARE = 1 / 8
MAX_VARS = 10
MAX_LEAVES = 410
MAX_SOLUTIONS = 150
MAX_CHAIN = 40


def fmt(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# verify and noA2-scan
# ---------------------------------------------------------------------------

_STATUS = re.compile(r"^(OK|MISMATCH|FAIL)\s+(pipeline|property|gram)\s+(.*)$")


def _stage_dict(text: str) -> dict[str, int]:
    out = {}
    for part in text.split(", "):
        name, _, val = part.rpartition("=")
        out[name] = int(val)
    return out


def parse_verify(text: str) -> dict:
    """Status, stages and mismatch lines of each pipeline; suite statuses."""
    pipelines: dict[str, dict] = {}
    props: dict[str, str] = {}
    gram = None
    current = None
    for line in text.splitlines():
        m = _STATUS.match(line)
        if m is None:
            if line.startswith("         ") and current is not None:
                current["mismatches"].append(line.strip())
            continue
        status, what, rest = m.groups()
        current = None
        if what == "pipeline":
            head, _, stages = rest.partition(": ")
            name = head.split(" ")[0]
            current = pipelines[name] = {"status": status, "stages": _stage_dict(stages), "mismatches": []}
        elif what == "property":
            props[rest.split(":")[0]] = status
        else:
            gram = status
    return {"pipelines": pipelines, "properties": props, "gram": gram,
            "last": text.rstrip().splitlines()[-1] if text.strip() else ""}


def _row_chains(text: str) -> tuple:
    return tuple(o.parse_chain(s) for s in text.split("+"))


def check_verify(rc, text: str, refs: dict) -> list[str]:
    errs = []
    if rc != 1:
        errs.append(f"verify exit code {rc}, expected 1 (the two documented errata)")
    v = parse_verify(text)
    p = v["pipelines"]
    want_names = {*PIPELINES, "noA2"}
    if set(p) != want_names:
        errs.append(f"verify pipelines {sorted(p)}")
        return errs
    for name in ("table1", "l11", "step5", "step6", "noA2"):
        if p[name]["status"] != "OK":
            errs.append(f"verify: pipeline {name} is {p[name]['status']}")
    t1 = refs["table1"]
    if p["table1"]["stages"] != {"types": t1["types"], "D_square": len(t1["survivors"])}:
        errs.append(f"verify: table1 stages {p['table1']['stages']}")
    for name, ref in (("q20", refs["q20"]), ("small-q", refs["small-q"])):
        got = p[name]["stages"]
        want = {"cases": ref["cases"], "D_square": ref["D_square"], "BMY": ref["BMY"]}
        if got != want:
            errs.append(f"verify: {name} stages {got}, oracle {want}")
        if p[name]["status"] != "MISMATCH":
            errs.append(f"verify: {name} is {p[name]['status']}, the erratum should show")
    q20 = refs["q20"]
    for line in p["q20"]["mismatches"]:
        if line.startswith("q20: stage 'cases' computed "):
            ok = int(line.split()[4].rstrip(",")) == q20["cases"]
        elif line.startswith("q20: per-case tallies computed "):
            ok = line.split("computed ")[1].split(", fixture")[0] == str(q20["tallies"])
        else:
            ok = False
        if not ok:
            errs.append(f"verify: unexpected q20 mismatch: {line}")
    sq = refs["small-q"]
    for line in p["small-q"]["mismatches"]:
        m = re.match(r"small-q: computed survivor (\S+) \(D=(-?\d+)\) absent from fixture$", line)
        f = re.match(r"small-q: fixture row \d+ (\S+) not produced by the scan$", line)
        if line.startswith("small-q: stage 'D_square' computed "):
            ok = int(line.split()[4].rstrip(",")) == sq["D_square"]
        elif m:
            chains = _row_chains(m.group(1))
            inv = sq["survivors"].get(o.survivor_key(chains))
            ok = inv is not None and inv["D"] == int(m.group(2))
        elif f:
            chains = _row_chains(f.group(1))
            ok = not o.invariants(chains)["D_square"]
        else:
            ok = False
        if not ok:
            errs.append(f"verify: unexpected small-q mismatch: {line}")
    for name in ("l11", "step5", "step6", "table1", "noA2"):
        if p[name]["mismatches"]:
            errs.append(f"verify: {name} mismatches {p[name]['mismatches']}")
    st = p["l11"]["stages"]
    if st.get("eliminated") != st.get("cases"):
        errs.append(f"verify: l11 stages {st}")
    st = p["step5"]["stages"]
    if any(v for k, v in st.items() if k.startswith("survivors")):
        errs.append(f"verify: step5 stages {st}")
    st = p["step6"]["stages"]
    if st.get("residual_eliminated") != st.get("residual"):
        errs.append(f"verify: step6 stages {st}")
    errs += _check_noA2_stages(p["noA2"]["stages"], VERIFY_CAP)
    if v["gram"] != "OK":
        errs.append(f"verify: gram determinants {v['gram']}")
    if len(v["properties"]) != 11 or any(s != "OK" for s in v["properties"].values()):
        errs.append(f"verify: property suites {v['properties']}")
    if v["last"] != "verification mismatches found":
        errs.append(f"verify: last line {v['last']!r}")
    return errs


def _check_noA2_stages(stages: dict, cap: int) -> list[str]:
    cfs = o.noA2_chain_count(cap)
    want = {"cfs": cfs, "candidates": 3 * cfs, "D_square": 0}
    return [] if stages == want else [f"noA2 cap {cap}: stages {stages}, oracle {want}"]


def check_noA2(rc, text: str, cap: int = SCAN_CAP) -> list[str]:
    errs = [] if rc == 0 else [f"noA2 exit code {rc}"]
    stages = {}
    for line in text.splitlines():
        m = re.match(r"^\s+stage (\S+): (\d+)$", line)
        if m:
            stages[m.group(1)] = int(m.group(2))
    errs += _check_noA2_stages(stages, cap)
    if "matches_fixture: True" not in text:
        errs.append("noA2: report does not match its fixture")
    return errs


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def pipeline_jobs() -> list[dict]:
    return [{"cli": ["enumerate", "--pipeline", name, "--format", "json"]} for name in PIPELINES]


def _check_survivor(label: str, surv: dict) -> list[str]:
    chains = [o.parse_chain(s) for s in surv["sings"]]
    inv = o.invariants(chains)
    errs = []
    if Fraction(surv["ks2"]) != inv["ks2"] or Fraction(surv["D"]) != inv["D"]:
        errs.append(f"{label}: {surv['sings']} K^2/D {surv['ks2']}/{surv['D']}, oracle {inv['ks2']}/{inv['D']}")
    if Fraction(surv["three_e_orb"]) != inv["three_e_orb"]:
        errs.append(f"{label}: {surv['sings']} 3e_orb {surv['three_e_orb']}, oracle {inv['three_e_orb']}")
    if not inv["D_square"]:
        errs.append(f"{label}: survivor {surv['sings']} has D = {inv['D']}, not a positive square")
    if surv.get("cmp") == "<" and not inv["ks2"] <= inv["three_e_orb"]:
        errs.append(f"{label}: BMY survivor {surv['sings']} has K^2 > 3 e_orb")
    return errs


def _survivor_set(label, survivors, ref) -> list[str]:
    got = {o.survivor_key(o.parse_chain(s) for s in surv["sings"]) for surv in survivors}
    want = set(ref["survivors"])
    return [] if got == want else [f"{label}: survivor set differs from the oracle by {sorted(got ^ want)}"]


def check_pipelines(results: dict[str, tuple], refs: dict) -> list[str]:
    """results maps each pipeline to (exit code, JSON text)."""
    errs = []
    reports = {}
    for name in PIPELINES:
        rc, text = results[name]
        if rc != PIPELINE_EXIT[name]:
            errs.append(f"{name}: exit code {rc}, expected {PIPELINE_EXIT[name]}")
        try:
            reports[name] = json.loads(text)
        except ValueError:
            return errs + [f"{name}: output is not JSON"]
    for name in ("table1", "q20", "small-q"):
        rep = reports[name]
        for surv in rep["survivors"]:
            errs += _check_survivor(name, surv)
        errs += _survivor_set(name, rep["survivors"], refs[name])
    t1, ref = reports["table1"], refs["table1"]
    if dict(t1["stages"]) != {"types": ref["types"], "D_square": len(ref["survivors"])}:
        errs.append(f"table1: stages {t1['stages']}, oracle types {ref['types']}")
    if t1["details"]["per_tuple_types"] != ref["per_tuple"]:
        errs.append("table1: per-tuple type counts differ from the class-count products")
    for name in ("q20", "small-q"):
        ref = refs[name]
        want = {"cases": ref["cases"], "D_square": ref["D_square"], "BMY": ref["BMY"]}
        if dict(reports[name]["stages"]) != want:
            errs.append(f"{name}: stages {reports[name]['stages']}, oracle {want}")
    st = dict(reports["l11"]["stages"])
    if st["eliminated"] != st["cases"] or not reports["l11"]["matches_fixture"]:
        errs.append(f"l11: stages {st}")
    for case in reports["l11"]["survivors"]:
        inv = o.invariants([o.parse_chain(s) for s in case["sings"]])
        if Fraction(case["D"]) != inv["D"]:
            errs.append(f"l11 case {case['case']}: D {case['D']}, oracle {inv['D']}")
    for sub in reports["step5"]["details"]["sub_cases"]:
        p3 = o.parse_chain(sub["p3"])
        for case in sub["cases"]:
            ch = o.parse_chain(case["cf"])
            inv = o.invariants([(2,), (3,), p3, ch])
            passes = inv["ks2"] > 0 and gcd(inv["orders"][3], 30) == 1 and inv["D_square"]
            if (Fraction(case["ks2"]), Fraction(case["D"]), case["passes_all"]) != (inv["ks2"], inv["D"], passes):
                errs.append(f"step5 {sub['p3']} {case['cf']}: {case}, oracle {inv['ks2']} {inv['D']}")
            if passes:
                errs.append(f"step5 {sub['p3']} {case['cf']} survives all three filters")
    st = dict(reports["step5"]["stages"])
    if any(v for k, v in st.items() if k.startswith("survivors")):
        errs.append(f"step5: stages {st}")
    st = dict(reports["step6"]["stages"])
    if st["residual_eliminated"] != st["residual"] or st["rule_A"] + st["rule_B"] + st["rule_C"] + st["residual"] != st["rows"]:
        errs.append(f"step6: stages {st}")
    return errs


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _random_chain(rng: random.Random, q_max: int, max_len: int = MAX_CHAIN) -> tuple[int, ...]:
    while True:
        q = rng.randint(2, q_max)
        a = rng.randrange(1, q)
        if gcd(q, a) == 1 and len(o.expand(q, a)) <= max_len:
            return o.expand(q, a)


def _chain_arg(rng: random.Random, ch: tuple[int, ...]) -> str:
    if rng.random() < 0.5:
        return o.chain_text(ch)
    q, q1 = o.evaluate(ch)
    return f"{q}/{q1}"


def _cf_info(rng):
    ch = _random_chain(rng, SCAN_CAP)
    argv = ["cf-info", _chain_arg(rng, ch)]
    if rng.random() < 0.5:
        argv += ["--format", "json"]
    return {"cli": argv}, {"chain": ch}


def _candidate(rng):
    chains = [_random_chain(rng, 60) for _ in range(rng.randint(1, 4))]
    return {"cli": ["candidate", "--sings", ",".join(_chain_arg(rng, ch) for ch in chains)]}, {"chains": chains}


def _gram(rng):
    n = rng.randint(2, 7)
    diag = [-rng.randint(1, 6) for _ in range(n)]
    edges = {}
    for j in range(1, n):
        edges[(rng.randrange(j), j)] = 1
    if n >= 3 and rng.random() < 0.3:
        i, j = sorted(rng.sample(range(n), 2))
        edges[(i, j)] = rng.randint(1, 2)
    matrix = [[0] * n for _ in range(n)]
    for i, d in enumerate(diag):
        matrix[i][i] = d
    tokens = []
    for (i, j), w in sorted(edges.items()):
        matrix[i][j] = matrix[j][i] = w
        tokens.append(f"{i + 1}-{j + 1}" + (f":{w}" if w != 1 else ""))
    argv = ["gram", "--diag", ",".join(str(d) for d in diag), "--edges", ",".join(tokens)]
    return {"cli": argv}, {"matrix": matrix}


def dfs_size(coeffs, target, limit: float = float("inf")) -> tuple[int, int]:
    """(leaves, solutions): the non-negative (x_1..x_{n-1}) with
    sum c_i x_i <= target, which a depth-first search over the first n-1
    variables visits, and how many of them the last variable completes.
    The count stops early, somewhere above ``limit``, once it passes it."""
    den = lcm(target.denominator, *(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    total = target * den
    if total.denominator != 1:
        return 0, 0
    if len(ints) == 1:
        return 1, int(total % ints[0] == 0)
    a, m = ints[-2], ints[-1]
    g = gcd(a, m)
    inv = pow(a // g, -1, m // g)
    leaves = sols = 0

    def walk(i: int, left: int) -> None:
        nonlocal leaves, sols
        if i < len(ints) - 2:
            for x in range(left // ints[i] + 1):
                if leaves > limit:
                    return
                walk(i + 1, left - x * ints[i])
            return
        # x in 0..left//a leaves; it completes when x*a = left (mod m)
        top = left // a
        leaves += top + 1
        if left % g == 0:
            x0 = (left // g) * inv % (m // g)
            if x0 <= top:
                sols += (top - x0) // (m // g) + 1

    walk(0, int(total))
    return leaves, sols


def _dioph(rng, kind: str, solvable: bool):
    """A problem of the shape the elimination pipelines build: one variable
    per singularity (aggregated, linear only) or one per positive-coefficient
    curve (component; with the quadratic bound v_j u_j / q for dioph-quad,
    and an exact sum per singularity as well for dioph-groups), and its
    solutions.  A problem with no solution has its target moved off the
    lattice, or its quadratic bound set below every linear solution's."""
    aggregated = kind == "dioph-aggregated"
    with_quad = kind in ("dioph-quad", "dioph-groups")
    while True:
        chains = [_random_chain(rng, 40, 3) for _ in range(rng.randint(2, 4))]
        coeffs, quads, owner = [], [], []
        for p, d in enumerate(o.dp_numbers(ch) for ch in chains):
            if aggregated:
                g = 0
                for c in d["dp_coeffs"]:
                    g = gcd(g, int(c * d["q"]))
                if g:
                    coeffs.append(Fraction(g, d["q"]))
                    owner.append(p)
                continue
            for c, w in zip(d["dp_coeffs"], d["quad"]):
                if c > 0:
                    coeffs.append(c)
                    quads.append(w)
                    owner.append(p)
        if not 1 <= len(coeffs) <= MAX_VARS:
            continue
        witness = [rng.randint(0, 2) for _ in coeffs]
        if not any(witness):
            witness[rng.randrange(len(witness))] = 1
        target = sum(c * x for c, x in zip(coeffs, witness))
        if not solvable and not with_quad:
            target += Fraction(1, lcm(*(c.denominator for c in coeffs)))
        if not 1 <= dfs_size(coeffs, target, MAX_LEAVES)[0] <= MAX_LEAVES:
            continue
        problem = {"coeffs": [fmt(c) for c in coeffs], "target": fmt(target)}
        groups = []
        if kind == "dioph-groups":
            groups = [
                (idx, sum(coeffs[i] * witness[i] for i in idx))
                for idx in ([i for i, who in enumerate(owner) if who == p] for p in sorted(set(owner)))
            ]
            problem["groups"] = [[idx, fmt(exact)] for idx, exact in groups]
        bound = None
        if with_quad:
            if solvable:
                bound = sum(w * x * x for w, x in zip(quads, witness)) + Fraction(rng.randint(0, 3), 2)
            else:
                least = min(sum(w * x * x for w, x in zip(quads, sol))
                            for sol in o.dioph_solutions(coeffs, target, groups))
                bound = least - min(least, Fraction(rng.randint(1, 4), 4))
            problem["quad"] = [fmt(w) for w in quads]
            problem["quad_bound"] = fmt(bound)
        sols = o.dioph_solutions(coeffs, target, groups, quads if with_quad else None, bound)
        if bool(sols) == solvable and len(sols) <= MAX_SOLUTIONS:
            return problem, sols


def _dioph_job(rng, kind: str, solvable: bool):
    problem, sols = _dioph(rng, kind, solvable)
    if kind == "dioph-groups":
        # the CLI has no flag for group sums: the public solver takes them
        return {"dioph": problem}, {"problem": problem, "solutions": sols}
    argv = ["dioph", "--coeffs", ",".join(problem["coeffs"]), "--target", problem["target"]]
    if "quad" in problem:
        argv += ["--quad", ",".join(problem["quad"]), "--quad-bound", problem["quad_bound"]]
    return {"cli": argv}, {"problem": problem, "solutions": sols}


_MAKERS = {"cf-info": _cf_info, "candidate": _candidate, "gram": _gram}


def query_stream(seed: int, n: int = N_QUERIES) -> list[dict]:
    """The seeded request stream: each item holds a job, its kind and what
    the check needs.  The kinds, the solvable dioph problems and the repeats
    (REPEAT_SHARE of the items, each a copy of an earlier one) come in fixed
    numbers, so streams of different seeds carry the same mix."""
    rng = random.Random(seed)
    n_repeat = round(n * REPEAT_SHARE)
    n_distinct = n - n_repeat
    total = sum(KIND_WEIGHTS.values())
    kinds = [k for k, weight in KIND_WEIGHTS.items() for _ in range(n_distinct * weight // total)]
    kinds += ["cf-info"] * (n_distinct - len(kinds))
    rng.shuffle(kinds)
    dioph_at = [i for i, k in enumerate(kinds) if k.startswith("dioph")]
    solvable_at = set(rng.sample(dioph_at, round(len(dioph_at) * SOLVABLE_SHARE)))
    stream = []
    for i, kind in enumerate(kinds):
        if kind.startswith("dioph"):
            job, meta = _dioph_job(rng, kind, i in solvable_at)
        else:
            job, meta = _MAKERS[kind](rng)
        stream.append({"kind": kind, "job": job, "meta": meta})
    for _ in range(n_repeat):
        pos = rng.randrange(1, len(stream) + 1)
        stream.insert(pos, stream[rng.randrange(pos)])
    return stream


def _check_cf_info(item, out: str) -> list[str]:
    d = o.dp_numbers(item["meta"]["chain"])
    want = {
        "entries": list(item["meta"]["chain"]), "q": d["q"], "q1": d["q1"], "ql": d["ql"],
        "u": d["u"], "v": d["v"], "dp_coeffs": [fmt(c) for c in d["dp_coeffs"]],
        "dp_dot_k": fmt(d["dp_dot_k"]), "dp_sq": fmt(d["dp_sq"]), "ep_sq": fmt(d["ep_sq"]),
    }
    if "--format" in item["job"]["cli"]:
        got = json.loads(out)
    else:
        lines = out.splitlines()
        kv = dict(re.findall(r"(\w+): (\S+)", lines[1] + "  " + lines[5]))
        got = {
            "entries": list(o.parse_chain(lines[0].split(": ", 1)[1])),
            "q": int(kv["q"]), "q1": int(kv["q1"]), "ql": int(kv["ql"]),
            "u": [int(x) for x in lines[2].split()[1:]], "v": [int(x) for x in lines[3].split()[1:]],
            "dp_coeffs": lines[4].split()[1:],
            "dp_dot_k": kv["dp_dot_k"], "dp_sq": kv["dp_sq"], "ep_sq": kv["ep_sq"],
        }
    return [] if got == want else [f"cf-info {item['job']['cli']}: {got}, oracle {want}"]


def _check_candidate(item, out: str) -> list[str]:
    chains = item["meta"]["chains"]
    inv = o.invariants(chains)
    want = {
        "sings": [o.chain_text(ch) for ch in chains], "orders": inv["orders"], "L": inv["L"],
        "ks2": fmt(inv["ks2"]), "detR": inv["detR"], "D": fmt(inv["D"]),
        "D_square": inv["D_square"], "three_e_orb": fmt(inv["three_e_orb"]), "bmy": inv["bmy"],
    }
    got = json.loads(out)
    return [] if got == want else [f"candidate {item['job']['cli']}: {got}, oracle {want}"]


def _check_gram(item, out: str) -> list[str]:
    want = o.determinant(item["meta"]["matrix"])
    return [] if out.strip() == str(want) else [f"gram {item['job']['cli']}: {out.strip()}, oracle {want}"]


def _check_dioph(item, out: str) -> list[str]:
    prob = item["meta"]["problem"]
    want = [tuple(s) for s in item["meta"]["solutions"]]
    sols = [tuple(s) for s in json.loads(out)]
    if sols == want:
        return []
    coeffs = [Fraction(c) for c in prob["coeffs"]]
    groups = [(idx, Fraction(exact)) for idx, exact in prob.get("groups", ())]
    quad = [Fraction(w) for w in prob["quad"]] if "quad" in prob else None
    bound = Fraction(prob["quad_bound"]) if "quad" in prob else None
    bad = [s for s in sols if not o.satisfies(s, coeffs, Fraction(prob["target"]), groups, quad, bound)]
    if bad:
        return [f"dioph {prob}: {bad[0]} misses the equation, a group or the bound"]
    return [f"dioph {prob}: {len(sols)} solutions, the enumeration has {len(want)}"]


_CHECKS = {"cf-info": _check_cf_info, "candidate": _check_candidate, "gram": _check_gram,
           **{kind: _check_dioph for kind in KIND_WEIGHTS if kind.startswith("dioph")}}


def check_queries(stream: list[dict], rcs: list, outs: list[str]) -> list[str]:
    errs = []
    seen: dict[str, str] = {}
    for item, rc, out in zip(stream, rcs, outs):
        key = json.dumps(item["job"], sort_keys=True)
        if key in seen:
            if seen[key] != out:
                errs.append(f"repeated request {item['job']} answered differently")
            continue
        seen[key] = out
        if rc != 0:
            errs.append(f"{item['job']}: exit code {rc}")
            continue
        try:
            errs += _CHECKS[item["kind"]](item, out)
        except (ValueError, KeyError, IndexError) as exc:
            errs.append(f"{item['job']}: unreadable output ({exc}): {out[:200]!r}")
    return errs


def references() -> dict:
    return {"table1": o.table1_reference(), "q20": o.q20_reference(), "small-q": o.small_q_reference()}
