"""Structural guards: every import in the package sits at module level, so a
dependency cycle between its modules cannot hide inside a function body, and
the names the traced benchmark rebinds still exist."""

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "chiralpol"


def test_no_imports_inside_function_bodies():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert not found, f"imports inside function bodies: {sorted(found)}"


def test_benchmark_tracer_installs():
    # perfbench/spans.py rebinds public names in the modules that call them;
    # a rename breaks it here instead of only when the benchmark runs
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
