"""Print the size of each src/mcstat module: non-blank lines and code lines.

Code lines are the non-blank lines outside comments and docstrings: a line
counts as code when it holds any token other than a comment or a docstring.
A docstring is the string literal that opens a module, class or function
body. These are the counts that ROADMAP.md and CHANGES.md quote.

    python3 scripts/code_size.py            # every module under src/mcstat
    python3 scripts/code_size.py FILE ...   # the given files
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcstat"

# Tokens that are not code by themselves.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of `tree` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> tuple[int, int]:
    """(non-blank lines, code lines) of the Python source `text`."""
    non_blank = sum(1 for line in text.splitlines() if line.strip())
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return non_blank, len(code - docstrings)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    total_non_blank = total_code = 0
    print(f"{'module':<20} {'non-blank':>9} {'code':>6}")
    for path in paths:
        non_blank, code = count_lines(path.read_text(encoding="utf-8"))
        total_non_blank += non_blank
        total_code += code
        print(f"{path.name:<20} {non_blank:>9} {code:>6}")
    print(f"{'total':<20} {total_non_blank:>9} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
