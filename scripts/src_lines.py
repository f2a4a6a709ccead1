"""Count the lines of each Python module under a directory, or compare two.

    python3 scripts/src_lines.py [DIR]
    python3 scripts/src_lines.py OLD_DIR NEW_DIR

For every .py file under DIR (default: the src/ next to this script), in
path order, it prints the file's line count as `wc -l` gives it and its
code-line count: the lines that hold a token other than a comment, a
docstring or a line break.  A statement or string spread over several
lines counts each of them; a docstring is the string that opens a module,
class or function body, as `ast.get_docstring` reads it.  A last line
holds the totals.

Given two directories, it prints both counts on both trees, each followed
by its change from OLD_DIR to NEW_DIR, for every module under either
tree; a module missing from one tree counts 0 lines there.

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


def _tree(root: str) -> dict[str, tuple[int, int]]:
    """{path relative to root: (wc -l, code lines)} of every .py file under root."""
    counts = {}
    for folder, _, names in os.walk(root):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    counts[os.path.relpath(path, root)] = count(handle.read())
    return counts


def _cells(counts: list[tuple[int, int]]) -> list[str]:
    """Each count of each tree, followed by its change when there are two."""
    cells = []
    for kind in (0, 1):
        values = [tree[kind] for tree in counts]
        cells += [str(value) for value in values]
        if len(values) == 2:
            cells.append(f"{values[1] - values[0]:+d}")
    return cells


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print("usage: python3 scripts/src_lines.py [DIR | OLD_DIR NEW_DIR]", file=sys.stderr)
        return 1
    trees = [_tree(root) for root in argv or [os.path.join(_HERE, "..", "src")]]
    names = sorted(set().union(*trees))
    rows = [(name, [tree.get(name, (0, 0)) for tree in trees]) for name in names]
    rows.append(("total", [tuple(sum(counts[kind] for counts in tree.values()) for kind in (0, 1))
                           for tree in trees]))
    header = (["wc -l", "code"] if len(trees) == 1
              else ["wc -l old", "wc -l new", "change", "code old", "code new", "change"])
    widths = [max(6, len(cell)) for cell in header]
    width = max(len(name) for name in ["module"] + names + ["total"])
    for name, cells in [("module", header)] + [(name, _cells(counts)) for name, counts in rows]:
        print("  ".join([f"{name:<{width}}"] + [f"{c:>{w}}" for c, w in zip(cells, widths)]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
