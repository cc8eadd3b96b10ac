import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load(TOOLS / "code_lines.py", "code_lines")
traffic = load(TOOLS / "traffic.py", "traffic")

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


# statements on lines 3-9 and 14-16: `global` and the docstring compile to
# no instruction, so they are not statements a run can reach
TRAFFIC_MODULE = '''def f(n):
    global CALLS
    CALLS = n
    if n > 0:
        return 1
    total = 0
    for i in range(n):
        total += i
    return total


def g(n):
    """A docstring."""
    if n:
        n = 0
    return n
'''


def test_traffic_lists_the_statements_no_run_reached(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(TRAFFIC_MODULE)
    module = load(path, "traffic_synthetic")
    result, hits = traffic.collect(tmp_path,
                                   lambda: (module.f(1), module.g(0)))
    assert result == (1, 0)
    # the lambda's own frame is outside the traced directory
    assert list(hits) == [path.resolve()]
    # runs of adjacent statements: a reached one ends a run
    assert traffic.unreached(tmp_path, hits) == {
        "mod.py": (10, [[6, 7, 8, 9], [15]])}
