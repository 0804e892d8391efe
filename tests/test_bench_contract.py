"""The benchmark harness binds package functions by name; keep those names.

perfbench/worker.py wraps every (module, name) of its `targets` list for the
traced run, and only CI's smoke run would otherwise notice a renamed or
deleted target.
"""

import importlib
import os
import subprocess
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


LOADED_SCRIPT = """
import sys
import worker
for module, name, *_ in worker.targets(None):
    getattr(sys.modules[module], name)  # spans.bind looks modules up here
"""


def test_worker_imports_load_every_traced_module():
    """The traced run binds each target through sys.modules, without importing
    it, so the imports of worker.py must load every target module."""
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PERFBENCH), src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LOADED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
