"""The benchmark's contract with the library, checked on every Python the
tests run on: each workload of ``perfbench/run.py`` sets up and runs a few
traced operations without a wrong answer, and every library name that
``perfbench/workloads.py`` calls resolves on the package.

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


def _worker(workload, *extra):
    """stdout of one ``perfbench/worker.py`` run on seed 1, as lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload, "--seed", "1"]
    proc = subprocess.run(
        argv + list(extra), capture_output=True, text=True, cwd=ROOT, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_workload_sets_up(workload):
    lines = _worker(workload, "--setup-only")
    assert len(lines) == 2 and lines[0] == "READY", lines
    assert isinstance(json.loads(lines[1]), dict)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_workload_runs_traced(workload):
    # the workloads' checks and the tracer read library attributes that
    # the package's name table does not list
    lines = _worker(workload, "--max-ops", "5", "--trace")
    assert len(lines) == 2 and lines[0] == "READY", lines
    result = json.loads(lines[1])
    assert len(result["records"]) == 5
    assert [record[3] for record in result["records"]] == ["ok"] * 5
    assert result["errors"] == []


def test_every_public_name_the_benchmark_calls_resolves():
    names = _load("workloads").PUBLIC_NAMES
    assert names
    for name in names:
        assert name in dt.__all__
        assert getattr(dt, name) is not None
