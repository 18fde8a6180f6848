"""Self-tests for the benchmark: tracer coverage, count determinism and
the result contract.

    python3 -m pytest -q perfbench/tests

Each test runs perfbench/run.py in a subprocess, as the benchmark is run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

PENALTY_PASSES = [f"pooling.passes_per_solve.{stat}.{p}"
                  for p in tracing.PENALTIES for stat in ("p50", "max")]

# Per-layer metrics each workload exercises, which must therefore be
# nonzero there.  A counter installed on a name callers never look up reads
# 0 and fails this.  Left out on purpose: pooling.undefined_gradient and
# pooling.solver_diverged (0 unless an op fails), penalty_weights and
# robust_pool_gradient on pool-study (run_study computes no gradients).
EXERCISED = {
    "pool-wide": [
        "kernels.penalty_sums.calls", "kernels.penalty_sums.points",
        "kernels.penalty_sums.s", "kernels.penalty_weights.calls",
        "kernels.penalty_weights.s", "kernels.points_per_s",
        "kernels.bytes_computed", *PENALTY_PASSES,
        "pooling.robust_pool.calls", "pooling.robust_pool.s",
        "pooling.robust_pool.self_s", "pooling.iterations_per_solve",
        "pooling.robust_pool_gradient.s",
    ],
    "pool-study": [
        "kernels.penalty_sums.calls", "kernels.penalty_sums.points",
        "kernels.penalty_sums.s", "kernels.points_per_s",
        "kernels.bytes_computed", *PENALTY_PASSES,
        "pooling.robust_pool.calls", "pooling.robust_pool.s",
        "pooling.robust_pool.self_s", "pooling.iterations_per_solve",
        "cli.run_study.self_s",
    ],
    "kkt-chain": [
        "projection.project.s", "projection.project_gradient.s",
        "implicit_diff.build_context.s",
        "implicit_diff.jacobian_from_context.s",
        "implicit_diff.vjp.materialize.s", "implicit_diff.vjp.stream_columns.s",
        "implicit_diff.cond_svd.calls", "implicit_diff.cond_svd.s",
        "implicit_diff.factorizations", "implicit_diff.stream_alloc_peak",
        "implicit_diff.backward_over_forward",
        "numdiff.fd_hessian_blocks.calls", "numdiff.fd_hessian_blocks.s",
        "numdiff.callback_evals", "numdiff.callback_evals_per_hessian_op",
        "numdiff.fd_jacobian.calls", "compose.chain_forward.s",
        "compose.chain_backward.s", "compose.bilevel_step.s",
        "compose.node_vjp.calls", "gallery.solve.s",
    ],
}


def bench(workload, trace, seed=0, seconds=1, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return {k: v["value"] for k, v in res["metrics"].items()}


@pytest.fixture(scope="module")
def traced_pair():
    """Two traced runs per workload with the same seed."""
    return {w: (result(bench(w, 1)), result(bench(w, 1))) for w in EXERCISED}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_exercised_layers_are_nonzero(traced_pair, workload):
    metrics = traced_pair[workload][0]
    assert set(metrics) == set(tracing.UNITS)
    zero = [k for k in EXERCISED[workload] if not metrics[k] > 0]
    assert not zero, f"{workload}: exercised but zero: {zero}"


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counts_repeat_exactly(traced_pair, workload):
    first, second = traced_pair[workload]
    counts = [k for k, unit in tracing.UNITS.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_roadmap_baseline_counts(traced_pair):
    # fd_hessian_blocks at (n, m, p) = (10, 20, 8): 8 rows x (2*20 + 2*10)
    # h_y evaluations plus one eq_constraints call to size the stack
    kkt = traced_pair["kkt-chain"][0]
    assert kkt["numdiff.callback_evals_per_hessian_op"] == 481


def test_end_to_end_result_line():
    metrics = result(bench("pool-study", 0))
    assert set(metrics) == set(run.E2E_UNITS)
    assert all(v > 0 for v in metrics.values())


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("kkt-chain", 0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
