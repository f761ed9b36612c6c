"""Count the code lines of Python modules: the lines that hold a token other
than a comment, a blank line or a docstring.

A docstring is the string literal that opens a module, class or function
body.  A line counts once however many tokens it holds; a statement spread
over several lines counts each line it occupies, blank continuation lines
excepted.  Only the standard library is used (`tokenize` and `ast`), and
pytest does not collect this file.

Run:  python3 tests/codelines.py [PATH ...]

Each PATH is a file or a directory (its `*.py` files, not recursively);
the default is the package, `src/monadforge`.  Prints one line per module,
largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Set

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monadforge"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """The line numbers that the docstrings of `tree` occupy."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
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
    """The number of code lines of the module text `source`."""
    skip = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in skip:
                lines.add(line)
    return len(lines)


def count(paths: Iterable[Path]) -> Dict[str, int]:
    """Module name -> code lines, for every file in `paths` (a directory
    stands for its `*.py` files)."""
    files: List[Path] = []
    for path in paths:
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return {file.stem: code_lines(file.read_text(encoding="utf-8")) for file in files}


def main(argv: List[str]) -> int:
    counts = count([Path(arg) for arg in argv] or [PACKAGE])
    for name, lines in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<16} {lines:6,d}")
    print(f"{'total':<16} {sum(counts.values()):6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
