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


# the top-level tables some pipeline or check reads
REQUIRED_KEYS = (
    "table1", "q20", "small_q", "l11_cases", "step5", "step6", "gram",
    "coeff_tables", "noA2_examples",
)


@lru_cache(maxsize=4)
def _load(path: str | None) -> dict:
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        ref = resources.files("qhpp.data").joinpath("reference_tables.json")
        data = json.loads(ref.read_text(encoding="utf-8"))
    where = path or "the bundled reference tables"
    if not isinstance(data, dict):
        raise ValueError(f"{where}: reference tables must be a JSON object")
    for key in REQUIRED_KEYS:
        if key not in data:
            raise ValueError(f"{where}: reference tables lack the key {key!r}")
    return data


def load_fixtures() -> dict:
    return _load(fixtures_path())
