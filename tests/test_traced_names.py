"""The benchmark's tracer wraps functions by module attribute name
(bench/tracing.py TARGETS); each name must exist on its module and be
called through that module's global, or the traced run records nothing."""

from __future__ import annotations

import ast
from pathlib import Path

import conicpoints.cli
import conicpoints.solver

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = {"cli": conicpoints.cli, "solver": conicpoints.solver}


def _targets() -> list[tuple[str, str]]:
    """The (module, attr) pairs of TARGETS, read without importing bench."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("no TARGETS tuple in bench/tracing.py")


def test_traced_names_resolve():
    targets = _targets()
    assert len(targets) >= 11
    for module, attr in targets:
        fn = getattr(MODULES[module], attr, None)
        assert callable(fn), f"{module}.{attr}"
        source = Path(MODULES[module].__file__).read_text(encoding="utf-8")
        calls = {
            node.func.id
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert attr in calls, f"{module}.{attr} is never called through its global"
