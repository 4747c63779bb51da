#!/usr/bin/env python3
"""Print the size of src/ggq and fail on any line over 100 characters.

    python3 scripts/src_size.py [CHECKOUT]

Lines stay within 100 characters, so a smaller line count means less code
and not longer lines.  The size is printed as lines, and as code tokens
the way tokenize reads them, less comments, docstrings and layout tokens,
and as public names, the entries of every module's ``__all__``.
Each line over 100 characters is printed as path:line, and then the exit
status is 1.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
MAX_LINE = 100


def code_tokens(src: str) -> int:
    docs = {(n.body[0].lineno, n.body[0].col_offset) for n in ast.walk(ast.parse(src))
            if isinstance(n, SCOPES) and ast.get_docstring(n, clean=False) is not None}
    return sum(1 for t in tokenize.generate_tokens(io.StringIO(src).readline)
               if t.type not in LAYOUT and not (t.type == tokenize.STRING and t.start in docs))


def public_names(src: str) -> int:
    return sum(len(n.value.elts) for n in ast.parse(src).body if isinstance(n, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets))


def size(checkout: Path) -> tuple[int, int, int, list[str]]:
    """Lines, code tokens, public names and the path:line of each overlong
    line of src/ggq."""
    lines = tokens = names = 0
    long = []
    for p in sorted((checkout / "src" / "ggq").rglob("*.py")):
        src = p.read_text()
        rows = src.splitlines()
        lines += len(rows)
        tokens += code_tokens(src)
        names += public_names(src)
        long += [f"{p}:{i}" for i, row in enumerate(rows, 1) if len(row) > MAX_LINE]
    return lines, tokens, names, long


def main() -> int:
    lines, tokens, names, long = size(Path(sys.argv[1] if len(sys.argv) > 1 else "."))
    print("\n".join(long))
    print(f"src/ggq: {lines} lines, {tokens} code tokens, {names} public names")
    return 1 if long else 0


if __name__ == "__main__":
    sys.exit(main())
