"""scripts/src_lines.py on small synthetic modules, one tree or two."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "src_lines.py"

# 17 lines: a docstring over three, a blank, an import, a blank, a comment,
# def, its docstring, code with a trailing comment, a string over two lines,
# return, a blank, class, its docstring, and an attribute with no newline
MODULE = '''"""A module
docstring over
three lines."""

import os

# a comment
def f(x):
    """One line."""
    y = x + 1  # trailing
    s = """not a
    docstring"""
    return y, s

class C:
    "class docstring"
    z = os.sep'''


def run(*args):
    done = subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, check=True)
    return [line.split() for line in done.stdout.splitlines()]


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(MODULE)
    (package / "sub" / "b.py").write_text("x = 1\n\n# end\n")
    (package / "notes.txt").write_text("x = 1\n")
    rows = run(package)
    # import, def, y, s over two lines, return, class, z: 8 code lines;
    # wc -l counts newlines, so the last line, without one, is not counted
    assert rows == [["module", "wc", "-l", "code"], ["a.py", "16", "8"],
                    ["sub/b.py", "3", "1"], ["total", "19", "9"]]


def test_default_directory_is_the_src_beside_the_script():
    rows = run()
    assert rows == run(REPO_ROOT / "src")
    assert rows[-1][1:] == [str(sum(int(row[i]) for row in rows[1:-1])) for i in (1, 2)]


def test_two_trees_show_each_count_and_its_change(tmp_path):
    # a.py grows by one code line, sub/b.py goes and c.py comes
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "sub").mkdir(parents=True)
    new.mkdir()
    (old / "a.py").write_text(MODULE)
    (old / "sub" / "b.py").write_text("x = 1\n\n# end\n")
    (new / "a.py").write_text(MODULE + "\nw = 2\n")
    (new / "c.py").write_text('"""Doc."""\n')
    rows = run(old, new)
    assert rows == [
        ["module", "wc", "-l", "old", "wc", "-l", "new", "change", "code", "old", "code", "new",
         "change"],
        ["a.py", "16", "18", "+2", "8", "9", "+1"],
        ["c.py", "0", "1", "+1", "0", "0", "+0"],
        ["sub/b.py", "3", "0", "-3", "1", "0", "-1"],
        ["total", "19", "19", "+0", "9", "9", "+0"],
    ]


def test_more_than_two_directories_is_a_usage_error(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), tmp_path, tmp_path, tmp_path],
                          capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == "" and "usage" in done.stderr
