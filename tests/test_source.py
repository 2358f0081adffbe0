"""A function defined twice in one module or class body replaces the first
definition, so the first (a test, say) silently never runs. No lint tool is a
dependency, so this check parses the sources itself."""

import ast
from pathlib import Path

import netalign

SOURCE_DIRS = (Path(__file__).parent, Path(netalign.__file__).parent)


def test_no_function_defined_twice_in_one_body():
    shadowed = []
    sources = [path for folder in SOURCE_DIRS for path in sorted(folder.glob("*.py"))]
    assert {path.name for path in sources} >= {"test_source.py", "align.py"}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Module, ast.ClassDef)):
                continue
            seen = set()
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if stmt.name in seen:
                        shadowed.append(f"{path.name}:{stmt.lineno}: {stmt.name}")
                    seen.add(stmt.name)
    assert shadowed == []
