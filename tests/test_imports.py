"""No module of the package imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import conicpoints

PACKAGE = Path(conicpoints.__file__).parent


def _dead_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_dead_import_finder():
    source = "from __future__ import annotations\nimport os, re as regex\nfrom a import b, c\n"
    assert _dead_imports(source) == ["line 2: os", "line 2: regex", "line 3: b", "line 3: c"]
    used = source + "__all__ = ['b']\nos.sep, regex, c\n"
    assert _dead_imports(used) == []


def test_no_dead_imports():
    dead = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _dead_imports(path.read_text(encoding="utf-8")))
    }
    assert dead == {}
