"""The package's public names, and the ones the benchmark harness looks up."""

import ast
from pathlib import Path

import disphom
from disphom import oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_names_resolve(monkeypatch):
    # the traced run wraps package functions by name, and run.py records
    # oracle.max_workers(): a deleted name fails here, not only in the trace
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    assert layers.targets(layers.KernelSampler())
    assert oracle.max_workers() >= 1


def test_star_import_resolves_all():
    namespace = {}
    exec("from disphom import *", namespace)
    assert set(disphom.__all__) <= namespace.keys()


def test_public_names_are_used_by_the_package():
    # A public name must be read by the package itself: as a name, an
    # attribute or an import in some module other than __init__.py.  Code
    # that only the tests call belongs in tests/reference.py.  Docstrings
    # and definitions do not count.  The scan cannot tell a function from a
    # local of the same name: fitting.model_values, which only perfbench
    # calls, passes through profile_scale's parameter model_values.
    used = set()
    for path in Path(disphom.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted(set(disphom.__all__) - used) == []
