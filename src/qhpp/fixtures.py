"""Loading of the bundled reference tables.

The tables ship as one versioned JSON file transcribed once from the source
material; pipelines recompute everything independently and diff against them
cell by cell.  Set QHPP_FIXTURES to point at an alternative file.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from importlib import resources

from .hjcf import parse_cf
from .ratio import parse_rational
from .surface import GramConfig

ENV_VAR = "QHPP_FIXTURES"


# The JSON shape of every value some pipeline or check reads.  A spec is a
# type (`object` takes any value, for cells that are only compared), a dict
# of required keys (a key ending in "?" may be absent; "*" stands for every
# key), a one-element list for an array of such elements, a tuple for an
# array of exactly those elements, or _CHAIN (_RATIONAL) for a string that
# parse_cf reads as a nonempty chain (parse_rational reads); each is the
# phrase its error gives.
_CHAIN = "names no singularity"
_RATIONAL = "is not a rational"
_ROW = {"no": int, "sings": [_CHAIN], "ks2": object, "cmp": object, "three_e_orb": object}
_Q_ROW = {**_ROW, "q": object}
_SWEEP = {
    "ks2": object, "sqrt_D": object,
    "branches": [{"meets": [str], "value": str, "m?": str, "outcome": str}],
}
SCHEMA = {
    "table1": {"stage_counts": dict, "rows": [{**_ROW, "orders": object}]},
    "lemma24": {
        "sings": [_CHAIN], "ks2": _RATIONAL, "D": _RATIONAL, "L": int, "m_bound": _RATIONAL,
        "target": _RATIONAL, "coeffs": [_RATIONAL], "solutions": [[int]],
    },
    "q20": {"stage_counts": dict, "case_tallies": list, "rows": [_Q_ROW], "bmy_rows": list},
    "small_q": {"stage_counts": dict, "rows": [_Q_ROW], "bmy_rows": list},
    "l11_cases": [{
        "case": object, "row": int, "c": int, "D": object, "D_prime": object,
        "m_bound": object, "m_values": object, "eliminated_by": object,
    }],
    "step5": {
        "sub_cases": [{"p3": _CHAIN, "l_nj": [(int, int)], "tally": object, "survivors": object}],
    },
    "step6": {
        "rules": {"A": object, "B": object, "C": object, "residual": object},
        "case15": _SWEEP, "case23": _SWEEP, "case24": {"L": object, "required": object},
    },
    "gram": [{
        "name": object, "diag": [int], "edges": [(int, int)], "det?": int, "abs_det?": int,
    }],
    "coeff_tables": {"*": {"sings": [_CHAIN], "coeffs": [[_RATIONAL]], "quad?": [[_RATIONAL]]}},
    "noA2_examples": [{"q": object, "cf": _CHAIN, "third": _CHAIN, "D": object}],
}

_JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}


def _check_schema(data, where: str) -> None:
    """Raise ValueError naming the file and the dotted path of the first
    value, in the order of ``SCHEMA``, that is missing, has the wrong JSON
    shape, or is a string that names no singularity or no rational."""

    def fail(path: str, want: str, value) -> None:
        raise ValueError(f"{where}: {path} must be {want}, got {_JSON_TYPES[type(value)]}")

    def check(value, spec, path: str) -> None:
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                fail(path, "a JSON object", value)
            for key, sub in spec.items():
                if key == "*":
                    for name, item in value.items():
                        check(item, sub, f"{path}.{name}")
                    continue
                key, optional = key.removesuffix("?"), key.endswith("?")
                name = f"{path}.{key}" if path else key
                if key in value:
                    check(value[key], sub, name)
                elif not optional:
                    raise ValueError(f"{where}: reference tables lack the key {name!r}")
        elif isinstance(spec, tuple):
            if not isinstance(value, list) or len(value) != len(spec):
                fail(path, f"a JSON array of {len(spec)} items", value)
            for i, (item, sub) in enumerate(zip(value, spec)):
                check(item, sub, f"{path}[{i}]")
        elif isinstance(spec, list):
            if not isinstance(value, list):
                fail(path, "a JSON array", value)
            for i, item in enumerate(value):
                check(item, spec[0], f"{path}[{i}]")
        elif spec in (_CHAIN, _RATIONAL):
            check(value, str, path)
            try:
                if spec is _RATIONAL:
                    parse_rational(value)
                elif not parse_cf(value).entries:
                    raise ValueError("the chain is empty")
            except ValueError as exc:
                raise ValueError(f"{where}: {path} {spec}: {exc}") from None
        elif not isinstance(value, spec):
            fail(path, "a JSON integer" if spec is int else f"a JSON {_JSON_TYPES[spec]}", value)

    if not isinstance(data, dict):
        raise ValueError(f"{where}: reference tables must be a JSON object")
    check(data, SCHEMA, "")


def _check_rows(data: dict, where: str) -> None:
    """Raise ValueError naming the file and the dotted path of an l11 case
    or a step6 case that names a row its table lacks, of a gram edge that
    names a vertex its diagonal lacks, joins a vertex to itself or repeats
    an earlier pair, of a gram entry without exactly one of det and abs_det,
    or of a gram entry past the limits of ``GramConfig.matrix``."""
    named = [(f"l11_cases[{i}].row", case["row"], "q20") for i, case in enumerate(data["l11_cases"])]
    named += [
        (f"step6.{key}", int(key[4:]), "table1")
        for key in data["step6"]
        if key.startswith("case") and key[4:].isdecimal()
    ]
    for path, no, table in named:
        if no not in {row["no"] for row in data[table]["rows"]}:
            raise ValueError(f"{where}: {path} names row {no}, which {table}.rows lacks")
    for i, cfg in enumerate(data["gram"]):
        if ("det" in cfg) == ("abs_det" in cfg):
            raise ValueError(f"{where}: gram[{i}] must give exactly one of det and abs_det")
        pairs = set()
        for k, (a, b) in enumerate(cfg["edges"]):
            path = f"{where}: gram[{i}].edges[{k}]"
            for end in (a, b):
                if not 0 <= end < len(cfg["diag"]):
                    raise ValueError(f"{path} names vertex {end}, which gram[{i}].diag lacks")
            if a == b:
                raise ValueError(f"{path} joins vertex {a} to itself")
            if (pair := (min(a, b), max(a, b))) in pairs:
                raise ValueError(f"{path} repeats an earlier pair")
            pairs.add(pair)
        try:
            GramConfig(tuple(cfg["diag"]), dict.fromkeys(pairs, 1)).matrix()
        except ValueError as exc:
            raise ValueError(f"{where}: gram[{i}]: {exc}") from None


@lru_cache(maxsize=4)
def _load(path: str | None) -> dict:
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        ref = resources.files("qhpp.data").joinpath("reference_tables.json")
        data = json.loads(ref.read_text(encoding="utf-8"))
    where = path or "the bundled reference tables"
    _check_schema(data, where)
    _check_rows(data, where)
    return data


def load_fixtures() -> dict:
    return _load(os.environ.get(ENV_VAR))
