"""Lines of code per module, without blank lines, comments and docstrings.

A line counts when it holds a token other than a comment, and is not part
of a module, class or function docstring; every line of a multi-line
string that is not a docstring counts. `wc -l` counts all of them, so a
change that adds docstrings reads there as added code. Prints one JSON
line: the count of each module of src/cavitycharge (or of the files given)
and their total. Standard library only; run from the root of a checkout:

    python3 scripts/code_lines.py [FILE ...]
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of source that hold code, as the module docstring defines them."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", type=Path)
    args = ap.parse_args()
    paths = args.files or sorted(Path("src/cavitycharge").glob("*.py"))
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in paths}
    print(json.dumps({**counts, "total": sum(counts.values())}))


if __name__ == "__main__":
    main()
