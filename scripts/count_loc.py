"""Count code lines: lines outside docstrings, comments and blank lines.

A line counts when it holds at least one token that is neither a
comment nor whitespace, and it lies outside every docstring (the first
string-literal statement of a module, class or function, located with
:mod:`ast`).  Prints one row per tree::

    python scripts/count_loc.py                # src/ and src/repro/serve
    python scripts/count_loc.py src/repro/tune # any directories or files

Print only: it exits 0 whatever the counts are.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TREES = ("src", "src/repro/serve")
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one Python source text."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def count_tree(path: Path) -> tuple[int, int]:
    """``(files, code lines)`` of every ``.py`` file under ``path``."""
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return len(files), sum(code_lines(f.read_text()) for f in files)


def main(argv: list[str]) -> int:
    for tree in argv or DEFAULT_TREES:
        files, lines = count_tree(ROOT / tree)
        print(f"{tree}: {lines:,} code lines in {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
