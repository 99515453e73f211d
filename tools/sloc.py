"""Print code, docstring, comment and blank lines for every module under ``src/``.

    python tools/sloc.py [ROOT]

ROOT defaults to the ``src`` directory next to this file's parent.  Every
line of a module falls in exactly one column:

- docstring: a line of a module, class or function docstring, blank lines
  inside it included;
- comment: a line holding only a comment;
- blank: an empty or all-whitespace line outside a docstring;
- code: every other line.

A change that only shortens docstrings moves the ``docstring`` column and
not ``code``, so the two can be told apart.  The last line sums each column.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("code", "docstring", "comment", "blank", "total")


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The five columns for one module's source text."""
    docs = _docstring_lines(ast.parse(source))
    code_lines = {
        row
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER)
        for row in range(tok.start[0], tok.end[0] + 1)
    }
    counts = dict.fromkeys(COLUMNS, 0)
    for row, line in enumerate(source.splitlines(), 1):
        if row in docs:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif row in code_lines:
            kind = "code"
        else:
            kind = "comment"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    rows = [(str(p.relative_to(root)), count(p.read_text())) for p in sorted(root.rglob("*.py"))]
    total = {c: sum(r[c] for _, r in rows) for c in COLUMNS}
    width = max(len(name) for name, _ in rows + [("total", total)])
    print(f"{'module':<{width}}" + "".join(f" {c:>9}" for c in COLUMNS))
    for name, r in rows + [("total", total)]:
        print(f"{name:<{width}}" + "".join(f" {r[c]:>9}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
