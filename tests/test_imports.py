"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "signopt"

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
