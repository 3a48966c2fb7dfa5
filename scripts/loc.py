"""Count the lines of code in each ``.py`` file of a directory.

A line holds code when some token other than a comment, a docstring or
layout sits on it; a string that spans lines counts for each of them.
Blank lines, comment lines and docstrings do not count.  Prints one line
per file, ``<lines> <name>``, sorted by name, then ``<total> total``.

    python3 scripts/loc.py [DIRECTORY]

DIRECTORY defaults to ``src/wkautomata`` under the repository root.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source, str(path)))
    lines: set[int] = set()
    with open(path, "rb") as file:
        for token in tokenize.tokenize(file.readline):
            if token.type in _LAYOUT:
                continue
            if token.type == tokenize.STRING and token.start[0] in docstrings:
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: loc.py [DIRECTORY]", file=sys.stderr)
        return 2
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "wkautomata"
    if not directory.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
