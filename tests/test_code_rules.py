"""Code rules of the drivekit sources, checked with `ast` and line lengths.

Imports sit at module level, so a module's dependencies are all stated at its
top; the one exception breaks an import cycle. No source line is over 99
characters.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "drivekit"
MODULES = sorted(SRC.glob("*.py"))
MAX_LINE = 99

# (module, function): planners imports metrics at load time, so metrics
# imports planners only when evaluate_plans runs
CYCLE_IMPORTS = {("metrics.py", "evaluate_plans")}


def _local_imports(tree):
    """(function name, line) of each import statement inside a function."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node.lineno


def test_the_rules_see_the_sources():
    assert SRC / "synth.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    tree = ast.parse(path.read_text("utf-8"))
    local = [
        f"{path.name}:{line} in {name}"
        for name, line in _local_imports(tree)
        if (path.name, name) not in CYCLE_IMPORTS
    ]
    assert not local, "function-local imports: " + ", ".join(local)


def test_the_cycle_import_is_still_needed():
    tree = ast.parse((SRC / "planners.py").read_text("utf-8"))
    modules = {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert "metrics" in modules
    metrics = ast.parse((SRC / "metrics.py").read_text("utf-8"))
    assert {("metrics.py", name) for name, _ in _local_imports(metrics)} == CYCLE_IMPORTS


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_is_over_99_characters(path):
    long = [
        f"{path.name}:{i}"
        for i, line in enumerate(path.read_text("utf-8").split("\n"), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, "lines over 99 characters: " + ", ".join(long)
