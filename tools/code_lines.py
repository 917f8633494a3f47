"""Count the lines and code lines of each module of `src/bestprox`.

A code line is a non-blank line that is neither a `#` comment nor a line
of a module, class or function docstring; the docstrings are found with
`ast`.  Run from anywhere, with the standard library only:

    python3 tools/code_lines.py

It prints one row per module, in lines / code lines, and the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bestprox"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1 for number, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )
    return len(lines), code


def main() -> int:
    rows = [(path.stem, *count(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
