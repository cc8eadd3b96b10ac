"""List the statement lines of `src/signopt` that neither the benchmark nor
the `selftest` battery runs.

    python tools/traffic.py

runs every operation of each workload in `perfbench/workloads.py` once at
its `tiny` size, set-up and result check included, then one in-process
`signopt selftest`, under a `sys.settrace` line tracer that follows only
frames of `src/signopt`, on the calling thread and on the threads started
during the run (the seed-stream refills' pool). It prints, per module, the statements inside
functions that no run reached, as spans of adjacent statements
(`first-last` lines), and exits 1 if a workload check or the battery
failed. A module's and a class's own statements run at import, so they
are not listed. `perfbench/` is imported, never changed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import sys
import tempfile
import textwrap
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "signopt"


def statements(source: str) -> list:
    """The first lines of the statements inside the functions of a module,
    sorted. Docstrings and other constant expressions, `global` and
    `nonlocal` compile to no instruction, so they are left out."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in (s for child in node.body for s in ast.walk(child)
                         if isinstance(s, ast.stmt)):
                if not (isinstance(stmt, (ast.Global, ast.Nonlocal))
                        or isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)):
                    lines.add(stmt.lineno)
    return sorted(lines)


def collect(root: Path, run) -> dict:
    """Call `run()` under a line tracer confined to the files under `root`,
    also on the threads that `run()` starts; return its result and the
    lines reached in each file, by resolved path."""
    root = Path(root).resolve()
    hits, tracers = {}, {}

    def tracer_for(filename):
        path = Path(filename).resolve()
        if root not in path.parents:
            return None
        lines = hits.setdefault(path, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    sys.settrace(trace_calls)
    threading.settrace(trace_calls)
    try:
        result = run()
    finally:
        threading.settrace(None)
        sys.settrace(None)
    return result, hits


def unreached(root: Path, hits: dict) -> dict:
    """For each module of `root`, its statement count and the runs of
    adjacent statements (their lines) that `hits` never reached."""
    report = {}
    for path in sorted(Path(root).glob("*.py")):
        lines = statements(path.read_text())
        reached = hits.get(path.resolve(), set())
        report[path.name] = (len(lines), [
            list(group) for hit, group in itertools.groupby(
                lines, key=reached.__contains__) if not hit])
    return report


def traffic() -> bool:
    """The benchmark's operations at their tiny size, then the battery;
    whether every check passed."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    import workloads
    from signopt import cli

    passed = True
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads.SIZES:
            bench = workloads.setup(name, workloads.DEFAULT_SEEDS[name],
                                    "tiny", Path(workdir))
            for op in bench.ops:
                passed &= bool(op.check(op.call())[0])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["selftest"])
    return passed and code == cli.EXIT_OK


def main() -> int:
    passed, hits = collect(SRC, traffic)
    total = missed = 0
    for name, (count, runs) in unreached(SRC, hits).items():
        n_missed = sum(map(len, runs))
        total, missed = total + count, missed + n_missed
        spans = ", ".join(f"{run[0]}" if len(run) == 1
                          else f"{run[0]}-{run[-1]}" for run in runs)
        print(textwrap.fill(f"{name}: {n_missed} of {count} unreached: "
                            f"{spans or '-'}", subsequent_indent="    "))
    print(f"total: {missed} of {total} statements unreached")
    if not passed:
        print("a workload check or the selftest battery failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
