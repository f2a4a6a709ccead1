"""Count the lines of each Python module under a directory.

    python3 scripts/src_lines.py [DIR]

For every .py file under DIR (default: the src/ next to this script), in
path order, it prints the file's line count as `wc -l` gives it and its
code-line count: the lines that hold a token other than a comment, a
docstring or a line break.  A statement or string spread over several
lines counts each of them; a docstring is the string that opens a module,
class or function body, as `ast.get_docstring` reads it.  A last line
holds the totals.

It needs the standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_HERE = os.path.dirname(os.path.abspath(__file__))
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(wc -l, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED or token.start[0] in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join(_HERE, "..", "src")
    paths = sorted(os.path.join(folder, name) for folder, _, names in os.walk(root)
                   for name in names if name.endswith(".py"))
    rows = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            rows.append((os.path.relpath(path, root), *count(handle.read())))
    width = max([len("total")] + [len(name) for name, _, _ in rows])
    print(f"{'module':<{width}}  {'wc -l':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
