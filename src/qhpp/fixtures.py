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

ENV_VAR = "QHPP_FIXTURES"


def fixtures_path() -> str | None:
    """Explicit fixture path from the environment, if any."""
    return os.environ.get(ENV_VAR)


# the tables some pipeline or check reads: the JSON type of each, and the
# JSON type of each first-level key read from it
SCHEMA = {
    "table1": (dict, {"stage_counts": dict, "rows": list}),
    "q20": (dict, {"stage_counts": dict, "case_tallies": list, "rows": list, "bmy_rows": list}),
    "small_q": (dict, {"stage_counts": dict, "rows": list, "bmy_rows": list}),
    "l11_cases": (list, {}),
    "step5": (dict, {"sub_cases": list}),
    "step6": (dict, {"rules": dict, "case15": dict, "case23": dict, "case24": dict}),
    "gram": (list, {}),
    "coeff_tables": (dict, {}),
    "noA2_examples": (list, {}),
}

_JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}


def _check_schema(data, where: str) -> None:
    """Raise ValueError naming the file and the dotted path of the first
    table or first-level key that is missing or has the wrong JSON type."""

    def expect(value, kind: type, path: str) -> None:
        if not isinstance(value, kind):
            raise ValueError(
                f"{where}: {path} must be a JSON {_JSON_TYPES[kind]}, "
                f"got {_JSON_TYPES[type(value)]}"
            )

    if not isinstance(data, dict):
        raise ValueError(f"{where}: reference tables must be a JSON object")
    for key, (kind, fields) in SCHEMA.items():
        if key not in data:
            raise ValueError(f"{where}: reference tables lack the key {key!r}")
        expect(data[key], kind, key)
        for field, field_kind in fields.items():
            path = f"{key}.{field}"
            if field not in data[key]:
                raise ValueError(f"{where}: reference tables lack the key {path!r}")
            expect(data[key][field], field_kind, path)


@lru_cache(maxsize=4)
def _load(path: str | None) -> dict:
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        ref = resources.files("qhpp.data").joinpath("reference_tables.json")
        data = json.loads(ref.read_text(encoding="utf-8"))
    _check_schema(data, path or "the bundled reference tables")
    return data


def load_fixtures() -> dict:
    return _load(fixtures_path())
