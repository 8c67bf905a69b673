"""scripts/code_size.py: non-blank and code lines, on a small fixture."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "code_size.py"
_spec = importlib.util.spec_from_file_location("code_size", SCRIPT)
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)

# 13 non-blank lines. Not code: the module, class and function docstrings
# (5 lines) and the 2 comment-only lines. Code: the other 6, among them a
# line with a trailing comment, a string that is not a docstring, and the
# two lines of a bracketed expression.
_FIXTURE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment is on a code line
# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,
        on two lines."""
        # an indented comment line
        x = "not a docstring"
        return (math.pi +
                len(x))
'''


def test_counts_non_blank_and_code_lines():
    assert code_size.count_lines(_FIXTURE) == (13, 6)


def test_main_prints_each_file_and_the_totals(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(_FIXTURE, encoding="utf-8")
    assert code_size.main([str(fixture), str(fixture)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["module", "non-blank", "code"], ["fixture.py", "13", "6"],
        ["fixture.py", "13", "6"], ["total", "26", "12"]]


def test_every_package_module_is_counted(capsys):
    code_size.main([])
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert names == sorted(p.name for p in (ROOT / "src" / "mcstat").glob("*.py"))
