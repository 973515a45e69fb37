"""The code-line counter in tools/: blank lines, comments and docstrings do
not count, every line of any other string does."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A one-line docstring."""
    text = """not a docstring,
but a string over
three lines"""
    return x, text, os


class C:
    """A class docstring
    over two lines."""

    value = 1
'''


def test_counts_code_not_comments_blanks_or_docstrings():
    # import, def, the three lines of text, return, class, value
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("# only a comment\n\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["8", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "sub" / "b.py")],
        ["9", "total"],
    ]
