"""Structural guard: every import in the package sits at module level, so a
dependency cycle between its modules cannot hide inside a function body."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chiralpol"


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
