"""Smoke test of the benchmark: every workload that BENCHMARK.json names
runs one full rotation of its ops and passes its own output checks, so a
package change that breaks the benchmark fails here first, and kkt-chain's
gallery factorisations per op kind are pinned.  The tests write nothing
under perfbench/."""

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


def test_kkt_chain_gallery_factorisations_per_op_kind_are_pinned(monkeypatch):
    """The gallery's Cholesky factorisations (dpotrf calls made from
    optnode.gallery) in two rotations of kkt-chain's ops at seed 0, per op
    kind, the problems' cold first-step factors included.  Only run() is
    counted, not the output checks.  A change that factors more fails
    here rather than in benchmark noise."""
    from scipy.linalg import lapack
    workloads = _workloads()
    wl = workloads.KktChain(0)
    wl.build(workloads.Identity())
    counts = dict.fromkeys(wl.kinds, 0)
    kind, dpotrf = [None], lapack.dpotrf

    def counted(*args, **kwargs):
        if kind[0] and sys._getframe(1).f_globals["__name__"] == \
                "optnode.gallery":
            counts[kind[0]] += 1
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "dpotrf", counted)
    for i in range(2 * len(wl.kinds)):
        kind[0] = wl.kind(i)
        out = wl.run(i)
        kind[0] = None
        assert wl.check(i, out) is None, wl.kind(i)
    assert counts == {"chain": 1, "bilevel": 3, "stream": 0, "hessian": 7}
