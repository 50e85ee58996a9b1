"""The package root exports the documented API and no building block; no
module of the package or of its tests imports a name it never uses, and the
CLI imports no module that only records or sampling need."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import conicpoints

PACKAGE = Path(conicpoints.__file__).parent
TESTS = Path(__file__).parent

ROOT_API = [
    "Conic",
    "ConicError",
    "DegenerateAlpha",
    "DegenerateGamma",
    "DivisorLimitExceeded",
    "FiniteSolutions",
    "Invariants",
    "LatticePoint",
    "LinePair",
    "MOD4_OBSTRUCTION",
    "NotFactorable",
    "ParamLine",
    "SearchBound",
    "brute_force",
    "invariants_of",
    "power_of_two_conic",
    "power_of_two_points",
    "random_valid_conic",
    "solution_bound",
    "solve",
    "solve_difference_of_squares",
    "validate",
]

BUILDING_BLOCKS = {
    "conic": ["FactorForm", "content_reduce", "factor_forms"],
    "solver": ["solve_degenerate", "solve_finite", "solve_linear_diophantine"],
    "intmath": ["integer_sqrt", "positive_divisors"],
}


def test_root_exports_the_documented_api():
    assert sorted(conicpoints.__all__) == ROOT_API
    assert all(hasattr(conicpoints, name) for name in ROOT_API)


def test_building_blocks_import_from_their_modules():
    for module, names in BUILDING_BLOCKS.items():
        mod = importlib.import_module(f"conicpoints.{module}")
        for name in names:
            assert not hasattr(conicpoints, name), name
            assert getattr(mod, name).__module__ == mod.__name__, name


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
        f"{path.parent.name}/{path.name}": found
        for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("**/*.py")])
        if (found := _dead_imports(path.read_text(encoding="utf-8")))
    }
    assert dead == {}


def test_cli_import_leaves_out_dataclasses_and_random():
    # -S keeps site hooks (.pth files) from importing modules of their own
    code = "import sys, conicpoints.cli; print(sorted({'dataclasses', 'random'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"
