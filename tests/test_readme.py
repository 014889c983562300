"""The README's library example runs as documented."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def library_block() -> str:
    """The Python block of the README's "Library use" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the block reads the shipped parameters
    namespace: dict = {}
    exec(compile(library_block(), "README.md", "exec"), namespace)
    frontier, rows = namespace["frontier"], namespace["rows"]
    values = [point.objectives.values for point in frontier.points]
    assert len(values) == len(frontier) == len(rows) >= 1
    assert np.array_equal(rows, np.array(values))
    assert capsys.readouterr().out.splitlines() == [str(v) for v in values]
    histories = namespace["histories"]
    assert sorted(sex.value for sex in histories) == ["F", "M"]
    assert all(len(table) for table in histories.values())
