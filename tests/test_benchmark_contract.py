"""The benchmark's contract with the library, checked on every Python the
tests run on: each workload of ``perfbench/run.py`` sets up, and every
library name that ``perfbench/workloads.py`` calls resolves on the package.

These tests read and run ``perfbench/`` only; they change nothing there.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import domino_tableaux as dt

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    """A perfbench module, loaded under a private name so that nothing of
    the benchmark lands in sys.modules under its own name."""
    private = f"_perfbench_{name}"
    spec = importlib.util.spec_from_file_location(private, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[private] = module  # dataclasses looks its module up there
    spec.loader.exec_module(module)
    return module


WORKLOAD_NAMES = _load("run").WORKLOAD_NAMES


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_workload_sets_up(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload]
    proc = subprocess.run(
        argv + ["--seed", "1", "--setup-only"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and lines[0] == "READY", proc.stdout
    assert isinstance(json.loads(lines[1]), dict)


def test_every_public_name_the_benchmark_calls_resolves():
    names = _load("workloads").PUBLIC_NAMES
    assert names
    for name in names:
        assert name in dt.__all__
        assert getattr(dt, name) is not None
