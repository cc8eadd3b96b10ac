import importlib.util
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load(TOOLS / "code_lines.py", "code_lines")
traffic = load(TOOLS / "traffic.py", "traffic")
profiles = load(TOOLS / "profiles.py", "profiles")
setup_cost = load(TOOLS / "setup_cost.py", "setup_cost")

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


def test_traffic_follows_threads_the_run_starts(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(TRAFFIC_MODULE)
    module = load(path, "traffic_threaded")

    def run():
        worker = threading.Thread(target=module.g, args=(1,))
        worker.start()
        worker.join(timeout=20)
        return worker.is_alive()

    alive, hits = traffic.collect(tmp_path, run)
    assert not alive
    # g(1) ran on the thread alone: every statement of g is reached
    assert traffic.unreached(tmp_path, hits) == {
        "mod.py": (10, [[3, 4, 5, 6, 7, 8, 9]])}


def test_profile_reads_numpy_and_its_simd_features():
    profile = profiles.running_profile()
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    assert profile == {"numpy": np.__version__,
                       "openblas": profiles.openblas_core(),
                       "simd_baseline": list(simd["baseline"]),
                       "simd_found": list(simd["found"])}
    assert profile["openblas"] and " " not in profile["openblas"]
    assert profiles.profile_line() == (
        f"profile: numpy {np.__version__} | openblas {profile['openblas']} | "
        f"simd baseline {' '.join(simd['baseline'])} | "
        f"simd found {' '.join(simd['found'])}")


def test_openblas_core_is_unknown_without_its_query(monkeypatch):
    # a library without the query, then no library at all
    monkeypatch.setattr(profiles.ctypes, "CDLL", lambda path: object())
    assert profiles.openblas_core() == "unknown"

    def missing(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(profiles.ctypes, "CDLL", missing)
    assert profiles.openblas_core() == "unknown"


def test_profiles_prints_one_line(capsys):
    assert profiles.main() == 0
    assert capsys.readouterr().out == profiles.profile_line() + "\n"


def test_a_child_under_a_forced_core_reads_it():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    out = subprocess.run([sys.executable, str(TOOLS / "profiles.py")],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    line, = out.stdout.splitlines()
    assert line.split(" | ")[1] == "openblas Haswell"


def test_quiet_pytest_names_the_profile_first():
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--collect-only", "tests/test_tools.py"],
        cwd=TOOLS.parent, capture_output=True, text=True, check=True,
        timeout=120)
    assert out.stdout.splitlines()[0] == profiles.profile_line()


def test_setup_cost_prints_compiles_methods_and_modules(capsys):
    assert setup_cost.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("import signopt.cli after numpy: ")
    package = TOOLS.parent / "src" / "signopt"
    modules = sorted(p.name for p in package.glob("*.py"))
    compiles = lines[lines.index("compile ms") + 1:][:len(modules) + 1]
    assert [line.split()[1] for line in compiles] == modules + ["total"]
    start = lines.index("generated dataclass methods") + 1
    end = next(i for i in range(start, len(lines))
               if lines[i].endswith("  total"))
    counts = [int(line.split()[0]) for line in lines[start:end]]
    assert all(counts) and sum(counts) == int(lines[end].split()[0])
    assert lines[end + 1].startswith("stdlib modules imported (")
    assert "argparse" not in lines[end + 2].split()


def test_setup_cost_counts_each_generated_method():
    def flags(**on):
        return types.SimpleNamespace(**{f: on.get(f, False)
                                        for f in setup_cost.FLAGS})
    assert setup_cost.generated_methods(flags(init=True)) == ["__init__"]
    assert setup_cost.generated_methods(
        flags(init=True, repr=True, eq=True, frozen=True)) == [
        "__init__", "__repr__", "__eq__", "__setattr__", "__delattr__",
        "__hash__"]
    assert setup_cost.generated_methods(flags(eq=True, order=True)) == [
        "__eq__", "__lt__", "__le__", "__gt__", "__ge__"]
    assert setup_cost.generated_methods(flags(unsafe_hash=True)) == [
        "__hash__"]
