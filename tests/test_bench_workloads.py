"""Smoke test of the benchmark: every workload that BENCHMARK.json names
runs one full rotation of its ops and passes its own output checks, so a
package change that breaks the benchmark fails here first.  The test
writes nothing under perfbench/."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAMES = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _workloads():
    """perfbench/workloads.py, imported without leaving bytecode there."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_one_rotation_and_passes_its_checks(name):
    workloads = _workloads()
    wl = workloads.WORKLOADS[name](0)
    wl.build(workloads.Identity())
    for i in range(len(wl.kinds)):
        assert wl.check(i, wl.run(i)) is None, (name, wl.kind(i))
