"""Command-line front end.

Subcommands: cf-info, candidate, enumerate, verify, dioph, gram.
Exit codes: 0 success / everything verified, 1 verification mismatch
(diff printed), 2 usage or parse error.
"""

from __future__ import annotations

import io
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .checks import run_all_checks
from .enumeration import PIPELINES, PipelineReport, _check_q_cap, run_pipeline
from .fixtures import ENV_VAR, load_fixtures
from .hjcf import parse_cf
from .obstruction import DiophProblem, solve_dioph
from .ratio import _format_over, parse_rational
from .surface import (
    GramConfig,
    candidate_invariants,
    candidate_to_dict,
    dp_data,
    gram_determinant,
)

if TYPE_CHECKING:
    import argparse


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=None)


def _parse_sings(text: str) -> list[str]:
    """Split a comma-separated list of chains, respecting brackets.

    A blank list gives no chains; an empty token between, before or after
    commas is refused, as it names no point.
    """
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    if parts == [""]:
        return []
    if "" in parts:
        raise ValueError("bad --sings token '': expected a chain")
    return parts


def _report_records(report: PipelineReport) -> list[dict]:
    """Flat records carrying the stage and survivor data of a report."""
    records = [
        {"section": "stage", "name": name, "value": str(count)}
        for name, count in report.stages
    ]
    for surv in report.survivors:
        rec = {"section": "survivor"}
        for key, val in surv.items():
            if isinstance(val, list):
                rec[key] = "+".join(str(v) for v in val)
            elif isinstance(val, bool):
                rec[key] = str(val).lower()
            else:
                rec[key] = str(val)
        records.append(rec)
    records.append(
        {"section": "summary", "name": "matches_fixture",
         "value": str(report.matches_fixture).lower()}
    )
    return records


def _emit_report(report: PipelineReport, fmt: str) -> None:
    if fmt == "json":
        print(_json_dump(report.to_dict()))
        return
    if fmt == "csv":
        import csv  # only this format needs it, and a start pays for every import

        records = _report_records(report)
        fields: list[str] = []
        for rec in records:
            for key in rec:
                if key not in fields:
                    fields.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(records)
        sys.stdout.write(buf.getvalue())
        return
    print(f"pipeline: {report.pipeline}")
    for name, count in report.stages:
        print(f"  stage {name}: {count}")
    if report.survivors:
        print("  survivors:")
        for surv in report.survivors:
            no = f"#{surv['no']} " if surv.get("no") else ""
            if "sings" in surv:
                print(
                    f"    {no}{'+'.join(surv['sings'])}  K^2={surv.get('ks2')}"
                    f" {surv.get('cmp', '')} 3e_orb={surv.get('three_e_orb')}"
                    f"  D={surv.get('D')}"
                )
            else:
                print(f"    {no}{_json_dump(surv)}")
    if report.mismatches:
        print("  mismatches:")
        for m in report.mismatches:
            print(f"    {m}")
    print(f"  matches_fixture: {report.matches_fixture}")


def _cmd_cf_info(args) -> int:
    cf = parse_cf(args.cf)
    if not cf.entries:
        if args.format == "json":
            print(_json_dump({"entries": [], "q": 1}))
        else:
            print("cf: [] (order 1, no singularity)")
        return 0
    info, q = dp_data(cf), cf.q
    # each value shown is a numerator over q: Dp.K, Dp^2 = -Dp.K, the square
    # -ql/q of the discriminant-group generator, and the coefficients
    nums = (info.dp_dot_k_num, -info.dp_dot_k_num, -cf.ql, *info.coeff_nums)
    dot_k, dp_sq, ep_sq, *coeffs = (_format_over(n, q) for n in nums)
    if args.format == "json":
        print(
            _json_dump(
                {
                    "entries": list(cf.entries),
                    "q": q,
                    "q1": cf.q1,
                    "ql": cf.ql,
                    "u": list(cf.u_seq),
                    "v": list(cf.v_seq),
                    "dp_coeffs": coeffs,
                    "dp_dot_k": dot_k,
                    "dp_sq": dp_sq,
                    "ep_sq": ep_sq,
                }
            )
        )
        return 0
    print(f"cf: {cf}")
    print(f"q: {q}  q1: {cf.q1}  ql: {cf.ql}")
    print("u:", " ".join(str(x) for x in cf.u_seq))
    print("v:", " ".join(str(x) for x in cf.v_seq))
    print("dp_coeffs:", " ".join(coeffs))
    print(f"dp_dot_k: {dot_k}  dp_sq: {dp_sq}  ep_sq: {ep_sq}")
    return 0


def _cmd_candidate(args) -> int:
    sings = _parse_sings(args.sings)
    cand = candidate_invariants(sings, c=args.c)
    print(_json_dump(candidate_to_dict(cand)))
    return 0


def _cmd_enumerate(args) -> int:
    report = run_pipeline(args.pipeline, cap=args.cap)
    _emit_report(report, args.format)
    return 0 if report.matches_fixture else 1


def _cmd_verify(args) -> int:
    _check_q_cap(args.cap)
    ok = True
    for name in PIPELINES:
        cap = args.cap if name == "noA2" else None
        report = run_pipeline(name, cap=cap)
        status = "OK" if report.matches_fixture else "MISMATCH"
        title = name if cap is None else f"{name} (cap {cap})"
        stages = ", ".join(f"{n}={c}" for n, c in report.stages)
        print(f"{status:8s} pipeline {title}: {stages}")
        for m in report.mismatches:
            print(f"         {m}")
        ok = ok and report.matches_fixture

    gram_ok = True
    for cfg in load_fixtures()["gram"]:
        g = GramConfig(
            tuple(cfg["diag"]), {tuple(e): 1 for e in map(tuple, cfg["edges"])}
        )
        det = gram_determinant(g)
        key, got = ("det", det) if "det" in cfg else ("abs_det", abs(det))
        if got != cfg[key]:
            print(f"MISMATCH gram {cfg['name']}: {key} computed {got}, fixture {cfg[key]}")
            gram_ok = False
    if gram_ok:
        print("OK       gram determinants: all reference configurations")
    ok = ok and gram_ok

    for result in run_all_checks():
        status = "OK" if result.ok else "FAIL"
        print(f"{status:8s} property {result.name}: {result.detail}")
        ok = ok and result.ok

    print("verified" if ok else "verification mismatches found")
    return 0 if ok else 1


def _cmd_dioph(args) -> int:
    coeffs = tuple(parse_rational(tok) for tok in args.coeffs.split(","))
    quad = None
    if args.quad:
        quad = tuple(parse_rational(tok) for tok in args.quad.split(","))
    problem = DiophProblem(
        coeffs=coeffs,
        target=parse_rational(args.target),
        quad_coeffs=quad,
        quad_bound=parse_rational(args.quad_bound) if args.quad_bound else None,
    )
    sols = solve_dioph(problem)
    print(_json_dump([list(s) for s in sols]))
    return 0


def _edge(tok: str) -> tuple[int, int, int]:
    """The 1-based ends and the weight of an ``i-j`` or ``i-j:w`` token."""
    pair, _, weight = tok.partition(":")
    i, j = pair.split("-")
    return int(i), int(j), int(weight) if weight else 1


def _tokens(text: str, flag: str, form: str, parse) -> list:
    """Parse each comma-separated token of a flag's value, naming the first
    malformed one in the ValueError."""
    out = []
    for tok in text.split(","):
        try:
            out.append(parse(tok))
        except ValueError:
            raise ValueError(f"bad {flag} token {tok!r}: expected {form}") from None
    return out


def _cmd_gram(args) -> int:
    diag = tuple(_tokens(args.diag, "--diag", "an integer", int))
    off: dict[tuple[int, int], int] = {}
    if args.edges:
        for i, j, w in _tokens(args.edges, "--edges", "i-j or i-j:w in integers", _edge):
            pair = f"--edges pair {i}-{j}"
            for end in (i, j):
                if not 1 <= end <= len(diag):
                    raise ValueError(f"{pair} names vertex {end}, which --diag lacks")
            if i == j:
                raise ValueError(f"{pair} joins vertex {i} to itself")
            key = (min(i, j) - 1, max(i, j) - 1)
            if key in off:
                raise ValueError(f"{pair} repeats an earlier pair")
            off[key] = w
    print(gram_determinant(GramConfig(diag, off)))
    return 0


# each command's handler, help and arguments, each name mapped to the
# keywords of add_argument in order: the argparse parsers and the plain parse
# read it
_COMMANDS = {
    "cf-info": (_cmd_cf_info, "inspect a Hirzebruch-Jung continued fraction", {
        "cf": {"help": "chain like [3,2,2] or fraction like 19/9"},
        "--format": {"choices": ("text", "json"), "default": "text"},
    }),
    "candidate": (_cmd_candidate, "invariants of a surface candidate", {
        "--sings": {"required": True, "help": 'e.g. "[2],[2,2],[7],[13]"'},
        "--c": {"type": int, "default": 1, "help": "index of the primitive closure"},
    }),
    "enumerate": (_cmd_enumerate, "run one enumeration pipeline", {
        "--pipeline": {"required": True, "choices": sorted(PIPELINES)},
        "--cap": {"type": int, "default": None, "help": "order cap for the noA2 scan"},
        # accepted for old command lines; the scans run in one thread
        "--threads": {"type": int, "help": "==SUPPRESS=="},  # argparse.SUPPRESS
        "--format": {"choices": ("text", "json", "csv"), "default": "text"},
    }),
    "verify": (_cmd_verify, "run every pipeline and property suite", {
        "--all": {"action": "store_true", "required": True},
        "--cap": {"type": int, "default": 500, "help": "order cap for the noA2 scan"},
    }),
    "dioph": (_cmd_dioph, "solve a bounded linear Diophantine problem", {
        "--coeffs": {"required": True, "help": "comma-separated positive rationals"},
        "--target": {"required": True},
        "--quad": {"default": None, "help": "quadratic filter coefficients"},
        "--quad-bound": {"default": None},
    }),
    "gram": (_cmd_gram, "determinant of an intersection configuration", {
        "--diag": {"required": True, "help": "self-intersections, e.g. -1,-2,-3,-5"},
        "--edges": {"default": "", "help": "1-based intersecting pairs, e.g. "
                                          "1-2,1-3,1-4 (optional :weight)"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """A new top-level parser, each command's parser built from
    ``_COMMANDS``.  argparse is imported here, and so only for help, errors
    and the forms the plain parse declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qhpp",
        description=(
            "Exact-rational toolkit for Q-homology projective planes with "
            "cyclic quotient singularities."
        ),
        epilog=f"Reference tables can be overridden via the {ENV_VAR} environment variable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kwargs in arguments.items():
            action = p.add_argument(name, **kwargs)
            if action.help == argparse.SUPPRESS:  # which argparse tests by identity
                action.help = argparse.SUPPRESS
        p.set_defaults(fn=fn)
    return parser


# dioph and gram take signed numbers, which may start with a minus sign
_VALUE_FLAGS = {*_COMMANDS["dioph"][2], *_COMMANDS["gram"][2]}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flag values that start with a minus sign (e.g. --diag -1,-2)."""
    out: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            nxt = argv[i + 1]
            if len(nxt) > 1 and (nxt[1].isdigit() or nxt[1] == "."):
                out.append(f"{tok}={nxt}")
                skip = True
                continue
        out.append(tok)
    return out


def _plain_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that the parser of command ``argv[0]`` gives for the
    rest, read from ``_COMMANDS``, if argv is well formed: exact flags, each
    once, a ``store_true`` flag bare and any other with one value, next or
    after ``=``, one token per positional, no other token led by ``-`` and
    no value ``--`` (argparse drops it).  Else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, arguments = _COMMANDS[argv[0]]
    given: dict[str, str | bool] = {}
    tokens: list[str] = []
    rest = iter(argv[1:])
    for tok in rest:
        if not tok.startswith("-"):
            tokens.append(tok)
            continue
        flag, eq, value = tok.partition("=")
        kwargs = arguments.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            value = True
        elif not eq:
            value = next(rest, "-")  # a flag that ends argv lacks its value
            if value.startswith("-"):
                return None
        elif value == "--":
            return None
        given[flag] = value
    positional = iter(tokens)
    args = SimpleNamespace(fn=fn)
    for name, kwargs in arguments.items():
        dest = name.lstrip("-")  # equal to name for a positional
        value = next(positional, None) if dest == name else given.get(name)
        if value is None:
            if dest == name or kwargs.get("required"):
                return None
            value = kwargs.get("default", False if "action" in kwargs else None)
        else:
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except ValueError:
                    return None
            if value not in kwargs.get("choices", (value,)):
                return None
        setattr(args, dest.replace("-", "_"), value)
    return None if next(positional, None) is not None else args


def main(argv: list[str] | None = None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:]) if argv is None else list(argv))
    args = _plain_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
