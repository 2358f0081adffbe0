"""Checks that parse the sources themselves, since no lint tool is a
dependency. A function defined twice in one module or class body replaces the
first definition, so the first (a test, say) silently never runs. The line
counter that CI prints (tests/source_size.py) must sort lines as it says."""

import ast
from pathlib import Path

import netalign
from source_size import line_kinds

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


def test_source_size_kinds_each_line():
    text = '''"""Module docstring.

Second paragraph."""
# a comment
X = """text
# not a comment
"""  # trailing comment


def f():
    """One line."""
    return X
'''
    assert line_kinds(text) == [
        "docstring", "blank", "docstring", "comment", "code", "code", "code",
        "blank", "blank", "code", "docstring", "code"]
