"""List public ``src/`` definitions that nothing but tests uses.

A public function, class or method (a name without a leading
underscore) is listed when its name appears only in its own definition,
in ``__init__.py`` files under ``src/`` (re-exports) and in test files
(``tests/`` and any other ``tests`` directory, such as perfbench's).  A
use anywhere else -- its own module included -- is a caller.  Names are
read as code tokens, so comments and strings never count: a name used
only as a string (``getattr``, a tracer's list of names to wrap) is
listed too.  The match is by name, so a method that shares its name
with any use outside the tests is not listed.  Run it from anywhere::

    python scripts/find_test_only.py

Print only: it exits 0 whatever it finds.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Trees whose code counts as a caller, less any ``tests`` directory.
CALLER_TREES = ("src", "benchmarks", "examples", "scripts", "perfbench")


def definitions(path: Path) -> list[tuple[int, str, str]]:
    """``(line, kind, name)`` of each public definition in ``path``.

    Top-level functions and classes, and the methods of public
    top-level classes; ``kind`` is ``"function"``, ``"class"`` or
    ``"method"``.
    """
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found.append((node.lineno, "class", node.name))
            found.extend(
                (item.lineno, "method", f"{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.lineno, "function", node.name))
    return [entry for entry in found if not entry[2].split(".")[-1].startswith("_")]


def code_names(path: Path) -> Counter[str]:
    """How often each name token occurs in ``path``'s code.

    The name a ``def`` or ``class`` statement binds is not counted;
    comments and strings contribute nothing.
    """
    source = path.read_text()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    names = Counter(token.string for token in tokens if token.type == tokenize.NAME)
    names.subtract(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return names


def scan(root: Path = ROOT) -> list[tuple[Path, int, str, str]]:
    """``(module, line, kind, name)`` of each definition only tests use."""
    src = root / "src"
    called: Counter[str] = Counter()
    for tree in CALLER_TREES:
        for path in (root / tree).rglob("*.py"):
            reexport = src in path.parents and path.name == "__init__.py"
            if not reexport and "tests" not in path.relative_to(root).parts:
                called.update(+code_names(path))
    found = []
    for module in sorted(src.rglob("*.py")):
        for line, kind, name in definitions(module):
            if not called[name.split(".")[-1]]:
                found.append((module, line, kind, name))
    return found


def main() -> int:
    found = scan()
    for module, line, kind, name in found:
        print(f"{module.relative_to(ROOT)}:{line}: {kind} {name}")
    print(f"{len(found)} public src/ definitions used only by tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
