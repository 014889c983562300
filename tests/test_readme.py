"""The README's library example runs as documented, and the package root
exports exactly the names its callers import from it."""

from __future__ import annotations

import ast
import pkgutil
import re
import types
from pathlib import Path

import numpy as np

import screenopt

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


def root_names(source: str) -> set[str]:
    """Names ``source`` imports from the package root (``from screenopt
    import ...``) or reads as ``screenopt.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "screenopt" \
                and node.level == 0:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "screenopt":
            names.add(node.attr)
    return names


def test_package_root_exports_what_callers_import():
    sources = [library_block()] + [
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "perfbench").glob("*.py"))]
    modules = {m.name for m in pkgutil.iter_modules(screenopt.__path__)}
    used = {name for source in sources for name in root_names(source)
            if name not in modules and not name.startswith("_")}
    assert all(hasattr(screenopt, name) for name in used)
    exported = {name for name, value in vars(screenopt).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == used
