"""Fixtures shared by the test modules."""

import json

import pytest

import qhpp.fixtures as fx


class Tables:
    """A reference tables file in a test's tmp_path, which the loader reads
    in place of the bundled tables."""

    def __init__(self, path):
        self.path = path

    @staticmethod
    def bundled() -> dict:
        """A copy of the bundled tables, free to edit."""
        return json.loads(json.dumps(fx._load(None)))

    def write(self, data) -> None:
        self.path.write_text(json.dumps(data))
        fx._load.cache_clear()

    def edit(self, path, value) -> None:
        """Write the bundled tables with the value at ``path`` (a sequence of
        keys and indices) replaced by ``value``."""
        data = self.bundled()
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        self.write(data)


@pytest.fixture
def tables(tmp_path, monkeypatch):
    """Point the loader at a file in tmp_path, not yet written."""
    monkeypatch.setenv(fx.ENV_VAR, str(tmp_path / "tables.json"))
    fx._load.cache_clear()
    yield Tables(tmp_path / "tables.json")
    fx._load.cache_clear()
