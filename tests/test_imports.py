"""Every name a module of the package imports, and every private name
it defines at module level, is used in that module; each module imports
only the modules before it, and only core takes a dot product. The
package's import stays at its set-up floor: no argparse until the CLI
parses, and dataclasses that generate only the methods something reads."""

import ast
import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "signopt"
TRACER = PACKAGE.parent.parent / "perfbench" / "tracing.py"

# perfbench/tracing.py wraps these under harness's names, though the run
# engine no longer calls them; they go with the tracer's move to the
# engine's own calls (ROADMAP item 2)
TRACER_ONLY = {"harness": {"dithered_step", "hybrid_step", "lambda_project",
                           "sgd_step", "signsgd_step", "signsgdm_step",
                           "stochastic_grad"}}


def unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = (unused_imports(ast.parse(path.read_text("utf-8")))
              - TRACER_ONLY.get(path.stem, set()))
    assert not unused, f"{path.name} never uses its imports {sorted(unused)}"


def test_tracer_only_imports_are_still_imported():
    """An allowance that outlives its import would hide a new dead one."""
    for module, names in TRACER_ONLY.items():
        path = PACKAGE / f"{module}.py"
        assert names <= unused_imports(ast.parse(path.read_text("utf-8")))


def test_tracer_only_imports_are_still_patched_by_the_tracer():
    """Each allowed name is a string the tracer patches by, so a wrap that
    goes takes its allowance and its dead import with it."""
    strings = {node.value for node in ast.walk(ast.parse(
        TRACER.read_text("utf-8"))) if isinstance(node, ast.Constant)
        and isinstance(node.value, str)}
    for module, names in TRACER_ONLY.items():
        assert names <= strings, (f"the tracer no longer patches "
                                  f"{sorted(names - strings)} on {module}")


def unused_private_names(tree: ast.Module) -> set:
    """The module-level `_name`s (functions, classes and constants, dunders
    excepted) that the module itself never reads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined.update(n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_")
               and not (name.startswith("__") and name.endswith("__"))}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return private - read


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_private_name_is_used(path):
    """A private name is for its own module: one that the module never
    reads is dead, even where a test imports it."""
    unused = unused_private_names(ast.parse(path.read_text("utf-8")))
    assert not unused, f"{path.name} never uses {sorted(unused)}"


def test_unused_private_names_finds_an_orphan():
    tree = ast.parse("def _used(): pass\n"
                     "def _orphan(): pass\n"
                     "class _Orphan: pass\n"
                     "_LIMIT = 3\n"
                     "_a, _b = 1, 2\n"
                     "__version__ = '1'\n"
                     "def public(): return _used() + _b\n")
    assert unused_private_names(tree) == {"_orphan", "_Orphan", "_LIMIT",
                                          "_a"}


# The package's modules, each importing only from those before it
ORDER = ["core", "problems", "dither", "theory", "config", "optimizers",
         "harness", "checks", "cli"]


def package_imports(tree: ast.Module) -> set:
    """The package modules a module imports, those in `TYPE_CHECKING`
    blocks and function bodies included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module
                         else [a.name for a in node.names])
    return names


def test_import_order_names_every_module():
    stems = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(ORDER) == sorted(stems)


@pytest.mark.parametrize("module", ORDER)
def test_modules_import_only_earlier_modules(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text("utf-8"))
    later = package_imports(tree) - set(ORDER[:ORDER.index(module)])
    assert not later, f"{module} imports {sorted(later)}, not before it"


def test_package_imports_sees_type_checking_blocks():
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "from .core import is_count\n"
                     "from . import harness\n"
                     "if TYPE_CHECKING:\n"
                     "    from .config import OptimizerSpec\n")
    assert package_imports(tree) == {"core", "harness", "config"}


# core.inner and core.l2_norm_sq own how a dot or a 2-norm is taken, so
# no other module calls a dot of its own. `@` and np.matvec are matrix
# products, and the guard does not look at them.
DOT_CALLS = {"np.dot", "np.vdot", "np.inner", "np.vecdot", "np.einsum",
             "np.tensordot", "np.linalg.norm"}
# the calibration's overflow probe: its value is only compared with inf,
# so its bits reach no output
DOT_ALLOWED = {"optimizers": {"_may_be_infinite"}}


def dotted_name(node) -> str:
    """`np.linalg.norm` for the expression that names it, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return base and f"{base}.{node.attr}"
    return ""


def dot_callers(tree: ast.Module) -> set:
    """The module-level definitions ('' for module code) that call a dot
    or a norm of DOT_CALLS, or any `.dot(...)` method."""
    callers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and (node.func.attr == "dot"
                         or dotted_name(node.func) in DOT_CALLS)):
                callers.add(getattr(top, "name", ""))
    return callers


@pytest.mark.parametrize("module", [m for m in ORDER if m != "core"])
def test_only_core_takes_a_dot(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text("utf-8"))
    callers = dot_callers(tree) - DOT_ALLOWED.get(module, set())
    assert not callers, (f"{module}: {sorted(callers)} take a dot or a "
                         f"norm that core.inner/l2_norm_sq should take")


def test_dot_allowances_are_still_used():
    """An allowance that outlives its call would hide a new one."""
    for module, names in DOT_ALLOWED.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text("utf-8"))
        assert names <= dot_callers(tree)


def test_dot_callers_finds_each_form():
    tree = ast.parse("x = np.linalg.norm(v)\n"
                     "def a(v): return v.dot(v)\n"
                     "def b(v): return np.einsum('i,i', v, v)\n"
                     "class C:\n"
                     "    def c(self, v): return np.vdot(v, v)\n"
                     "def d(A, v): return A @ v + np.matvec(A, v)\n"
                     "def e(v): return np.sum(v)\n")
    assert dot_callers(tree) == {"", "a", "b", "C"}


# The set-up guards. Every `signopt run` and every benchmark set-up pays
# the package's import before its first step.

def test_importing_the_cli_leaves_argparse_out():
    """In a fresh interpreter, since pytest imports argparse itself."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, signopt.cli; "
         "print('argparse' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False"]


def is_dataclass_def(node: ast.ClassDef) -> bool:
    """Whether the class is decorated `@dataclass` or `@dataclass(...)`."""
    return any(dotted_name(getattr(d, "func", d)).split(".")[-1]
               == "dataclass" for d in node.decorator_list)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_dataclass_has_a_docstring(path):
    """`@dataclass` calls `inspect.signature` on a class without one, to
    write one, about 0.1 ms a class at every set-up."""
    bare = [node.name for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.ClassDef) and is_dataclass_def(node)
            and ast.get_docstring(node) is None]
    assert not bare, f"{path.name}: dataclasses without a docstring {bare}"


def test_is_dataclass_def_finds_each_form():
    tree = ast.parse("@dataclass\nclass A: pass\n"
                     "@dataclass(frozen=True)\nclass B: pass\n"
                     "@dataclasses.dataclass(eq=False)\nclass C: pass\n"
                     "@other\nclass D: pass\n"
                     "class E: pass\n")
    assert [n.name for n in tree.body if is_dataclass_def(n)] == [
        "A", "B", "C"]


# Each generated method is one `exec` at import, about 0.2 ms. A change
# that needs more raises this pin and says why in CHANGES.md; one that
# needs fewer lowers it.
GENERATED_METHODS = 53


def test_dataclasses_generate_the_pinned_methods():
    import signopt.cli  # noqa: F401  (every module of the package)
    spec = importlib.util.spec_from_file_location(
        "setup_cost", PACKAGE.parent.parent / "tools" / "setup_cost.py")
    setup_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(setup_cost)
    classes = {value for name, module in list(sys.modules.items())
               if name.startswith("signopt.")
               for value in vars(module).values()
               if isinstance(value, type) and dataclasses.is_dataclass(value)
               and value.__module__ == name}
    assert len(classes) == sum(
        is_dataclass_def(node) for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ClassDef))
    total = sum(len(setup_cost.generated_methods(c.__dataclass_params__))
                for c in classes)
    assert total == GENERATED_METHODS, (
        f"the package's dataclasses generate {total} methods")
