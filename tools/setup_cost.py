"""What `import signopt.cli` costs a fresh interpreter, after numpy.

    python tools/setup_cost.py [SRC]

imports numpy, then `signopt.cli` from a copy of SRC's `signopt`
(default: this repository's `src`) without its `__pycache__`, in a fresh
interpreter with `PYTHONDONTWRITEBYTECODE=1`, so that every module of the
package is compiled from source as in the benchmark's set-up. It prints
the import's wall time, the compile time of each module, the methods each
`@dataclass` of the package generates and the standard-library modules
the import pulls in that numpy had not. Pass another checkout's `src` to
compare two commits; timings vary with the host's load, so compare
several runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

# the `__dataclass_params__` flags that decide which methods are generated
FLAGS = ("init", "repr", "eq", "order", "unsafe_hash", "frozen")

CHILD = f"""
FLAGS = {FLAGS!r}
import sys, time
import importlib.machinery as machinery
import numpy

compile_ms = {{}}
to_code = machinery.SourceFileLoader.source_to_code

def timed(self, data, path, *args, **kwargs):
    start = time.perf_counter()
    try:
        return to_code(self, data, path, *args, **kwargs)
    finally:
        compile_ms[path] = (time.perf_counter() - start) * 1e3

machinery.SourceFileLoader.source_to_code = timed
before = set(sys.modules)
start = time.perf_counter()
import signopt.cli
import_ms = (time.perf_counter() - start) * 1e3
machinery.SourceFileLoader.source_to_code = to_code
new = sorted(set(sys.modules) - before)
import dataclasses, json
classes = []
for name in sorted(m for m in sys.modules if m.startswith("signopt.")):
    for value in vars(sys.modules[name]).values():
        if (isinstance(value, type) and dataclasses.is_dataclass(value)
                and value.__module__ == name):
            params = value.__dataclass_params__
            classes.append([f"{{name[8:]}}.{{value.__qualname__}}", {{
                flag: getattr(params, flag) for flag in FLAGS}}])
print(json.dumps({{"import_ms": import_ms, "compile_ms": compile_ms,
                   "new": new,
                   "dataclasses": classes}}))
"""


def generated_methods(p) -> list:
    """The methods `@dataclass` writes for a class whose
    `__dataclass_params__` is `p` (or holds p's FLAGS): `__hash__` where
    eq and frozen are both on or unsafe_hash is, and `__setattr__` and
    `__delattr__` where it is frozen."""
    names = ((["__init__"] if p.init else [])
             + (["__repr__"] if p.repr else [])
             + (["__eq__"] if p.eq else [])
             + (["__lt__", "__le__", "__gt__", "__ge__"] if p.order else [])
             + (["__setattr__", "__delattr__"] if p.frozen else []))
    if p.unsafe_hash or (p.eq and p.frozen):
        names.append("__hash__")
    return names


def measure(src: Path) -> dict:
    """The child's report on a bytecode-free copy of `src/signopt`: the
    import's ms, compile ms by module file name, the modules the import
    added and each dataclass's name and FLAGS."""
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(src / "signopt", Path(copy) / "signopt",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(
                   [copy, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", CHILD], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        report = json.loads(out.stdout.splitlines()[-1])
        package = (Path(copy) / "signopt").resolve()
    report["compile_ms"] = {Path(path).name: ms for path, ms
                            in report["compile_ms"].items()
                            if Path(path).resolve().parent == package}
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]).resolve() if argv else DEFAULT_SRC
    report = measure(src)
    print(f"import signopt.cli after numpy: {report['import_ms']:.1f} ms")

    print("compile ms")
    for name, ms in sorted(report["compile_ms"].items()):
        print(f"{ms:7.2f}  {name}")
    print(f"{sum(report['compile_ms'].values()):7.2f}  total")

    print("generated dataclass methods")
    total = 0
    for name, flags in report["dataclasses"]:
        names = generated_methods(SimpleNamespace(**flags))
        total += len(names)
        print(f"{len(names):7d}  {name}: {' '.join(names)}")
    print(f"{total:7d}  total")

    stdlib = sorted({m for m in report["new"]
                     if m.split(".")[0] in sys.stdlib_module_names})
    print(f"stdlib modules imported ({len(stdlib)})")
    print(f"  {' '.join(stdlib)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
