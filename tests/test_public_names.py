"""The package's public names, and the ones the benchmark harness looks up."""

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
