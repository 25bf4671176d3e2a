"""Count the code lines of Python modules: no docstrings, comments or blank lines.

    python tools/code_lines.py PATH...

Each PATH is a module or a directory, whose ``*.py`` files are counted,
those of its subdirectories too. A line counts when a token other than a
comment or the layout of the code (line breaks and indentation) lies on
it, and it is no line of a docstring: the string that opens a module, a
class or a function. A string over several lines counts each of them.
Prints each module's count and their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
    tokenize.INDENT,
    tokenize.NEWLINE,
    tokenize.NL,
}


def _docstring_lines(source: str) -> set:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(argv) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    modules = []
    for path in map(Path, argv):
        modules += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for module in modules:
        count = code_lines(module.read_text())
        total += count
        print(f"{count:>7,}  {module}")
    print(f"{total:>7,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
