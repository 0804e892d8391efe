"""The benchmark harness binds package functions by name; keep those names.

perfbench/worker.py wraps every (module, name) of its `targets` list for the
traced run, and only CI's smoke run would otherwise notice a renamed or
deleted target.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("worker")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_resolves(worker):
    targets = worker.targets(None)
    assert targets
    for module, name, *_ in targets:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
