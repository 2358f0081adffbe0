"""Count each module's lines under src/netalign by kind: code, docstring,
comment and blank. Run this file to print the table; it checks nothing.

A blank line holds only whitespace, wherever it is. A docstring line is any
other line of a module, class or function docstring. A comment line holds
only a comment, outside any string literal. A line with code and a trailing
comment is code.
"""

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "netalign"
KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(text: str) -> list[str]:
    """The kind of each line of the Python source `text`, in order."""
    lines = text.splitlines()
    docstring, in_string = set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A line that continues a string literal is code, even one led by #.
            in_string.update(range(node.lineno + 1, node.end_lineno + 1))
    kinds = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            kinds.append("blank")
        elif number in docstring:
            kinds.append("docstring")
        elif number in in_string:
            kinds.append("code")
        elif stripped.startswith("#"):
            kinds.append("comment")
        else:
            kinds.append("code")
    return kinds


def main() -> None:
    rows = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        kinds = line_kinds(path.read_text(encoding="utf-8"))
        rows.append((path.name, *(kinds.count(kind) for kind in KINDS), len(kinds)))
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    header = ("module", *KINDS, "lines")
    width = max(len(row[0]) for row in rows)
    print(f"{header[0]:<{width}}" + "".join(f"{h:>11}" for h in header[1:]))
    for name, *counts in rows:
        print(f"{name:<{width}}" + "".join(f"{c:>11}" for c in counts))


if __name__ == "__main__":
    main()
