import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

spec = importlib.util.spec_from_file_location("code_lines",
                                              TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# 7 code lines: the docstrings, comments and blank lines do not count,
# a bracketed continuation and a string that is not a docstring do
MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment


# a comment line
class Box:
    """A class docstring."""

    def area(self, w,
             h):
        """A function docstring."""
        label = """a string
that is not a docstring"""
        return w * h
'''


def test_counts_a_synthetic_module():
    assert code_lines.code_lines(MODULE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     7  a.py", "     1  b.py", "     8  total"]
