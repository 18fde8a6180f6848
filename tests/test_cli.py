"""Command-line harness: output schemas across the three formats, exit
codes, seed determinism, and the per-command contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optnode
from optnode import implicit_diff
from optnode.cli import (REQUIRED_NODES, gradcheck_selectors, main,
                         registry_coverage, run_gradcheck)


def _run(tmp_path, argv, name="out.json"):
    """main() with --out; returns (exit code, parsed or raw text)."""
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    text = out.read_text()
    if "--format" in argv and argv[argv.index("--format") + 1] != "json":
        return code, text
    return code, json.loads(text)


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------

def test_pool_quadratic_is_the_mean(tmp_path):
    code, doc = _run(tmp_path, ["pool", "--values", "1,2,3",
                                "--penalty", "quadratic", "--format", "json"])
    assert code == 0
    assert set(doc) == {"command", "seed", "config", "rows"}
    assert doc["command"] == "pool" and doc["seed"] == 0
    row = doc["rows"][0]
    assert row["y"] == 2.0
    np.testing.assert_allclose(row["gradient"], [1 / 3] * 3, atol=1e-12)
    assert row["gradient_defined"] is True


def test_pool_welsch_rejects_the_outlier(tmp_path):
    vals = ",".join(["0"] * 10 + ["100"])
    code, doc = _run(tmp_path, ["pool", "--values", vals,
                                "--penalty", "welsch", "--alpha", "1",
                                "--format", "json"])
    assert code == 0
    assert abs(doc["rows"][0]["y"]) <= 1e-3


def test_pool_undefined_gradient_still_exits_zero(tmp_path):
    code, doc = _run(tmp_path, ["pool", "--values", "0,10",
                                "--penalty", "huber", "--alpha", "1",
                                "--format", "json"])
    assert code == 0
    row = doc["rows"][0]
    assert row["gradient_defined"] is False and row["gradient"] == []


def test_pool_reads_input_file(tmp_path):
    src = tmp_path / "vals.txt"
    src.write_text("1\n2\n3\n")
    code, doc = _run(tmp_path, ["pool", "--input", str(src),
                                "--penalty", "quadratic", "--format", "json"])
    assert code == 0 and doc["rows"][0]["y"] == 2.0


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_l1_vertex(tmp_path):
    code, doc = _run(tmp_path, ["project", "--values", "2,0.75",
                                "--norm", "l1", "--format", "json"])
    assert code == 0
    np.testing.assert_allclose(doc["rows"][0]["y"], [1.0, 0.0], atol=1e-12)


def test_project_ball_interior_zero_jacobian(tmp_path):
    code, doc = _run(tmp_path, ["project", "--values", "0.1,0.2",
                                "--norm", "l2", "--surface", "ball",
                                "--format", "json"])
    assert code == 0
    row = doc["rows"][0]
    assert row["y"] == [0.1, 0.2]
    assert row["jacobian"] == [[0.0, 0.0], [0.0, 0.0]]


def test_project_origin_is_domain_error(capsys):
    code = main(["project", "--values", "0,0", "--norm", "l2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "InfeasibleProblem" in err


def test_project_nonfinite_input_is_domain_error(capsys):
    code = main(["project", "--values", "0.5,inf"])
    assert code == 1
    assert "InfeasibleProblem" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_whole_registry_passes(tmp_path):
    """The README's CI step: every selector, with the coverage check."""
    code, doc = _run(tmp_path, ["gradcheck", "--all", "--trials", "3",
                                "--format", "json"])
    assert code == 0
    assert {r["node_id"] for r in doc["rows"]} == set(gradcheck_selectors())

def test_gradcheck_single_node_report(tmp_path):
    code, doc = _run(tmp_path, ["gradcheck", "--node", "pool-quadratic",
                                "--trials", "3", "--seed", "7",
                                "--format", "json"])
    assert code == 0
    row = doc["rows"][0]
    assert row["node_id"] == "pool-quadratic" and row["trials"] == 3
    assert row["max_rel_err"] >= row["mean_rel_err"] >= 0.0
    assert row["status"] == "pass" and row["seed"] == 7


def test_gradcheck_registry_covers_everything():
    paths, nodes = registry_coverage()
    assert set(implicit_diff.GRADIENT_PATHS) <= paths
    assert REQUIRED_NODES <= nodes


def test_gradcheck_unknown_selector_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--node", "bogus"])
    assert exc.value.code == 2


def test_run_gradcheck_rows_are_reproducible():
    a = run_gradcheck(["convex-unconstrained"], trials=3, seed=5)
    b = run_gradcheck(["convex-unconstrained"], trials=3, seed=5)
    assert a == b
    c = run_gradcheck(["convex-unconstrained"], trials=3, seed=6)
    assert c[0]["max_rel_err"] != a[0]["max_rel_err"]


# ---------------------------------------------------------------------------
# study / train
# ---------------------------------------------------------------------------

def test_study_row_schema(tmp_path):
    code, doc = _run(tmp_path, ["study", "--trials", "3", "--points", "30",
                                "--fractions", "0,0.5", "--format", "json"])
    assert code == 0
    assert len(doc["rows"]) == 10    # 2 fractions x 5 penalties
    for row in doc["rows"]:
        assert set(row) == {"outlier_fraction", "penalty", "estimator_error",
                            "trials"}
        assert row["estimator_error"] >= 0.0


def test_study_rejects_bad_fractions():
    for bad in ("1.5", "", "0.1,nope"):
        with pytest.raises(SystemExit) as exc:
            main(["study", "--fractions", bad])
        assert exc.value.code == 2


def test_train_descends(tmp_path):
    code, doc = _run(tmp_path, ["train", "--task", "robust-mean-fit",
                                "--steps", "50", "--format", "json"])
    assert code == 0
    rows = doc["rows"]
    assert rows[-1]["objective"] < rows[0]["objective"]


def test_train_zero_steps_reports_initial_objective(tmp_path):
    code, doc = _run(tmp_path, ["train", "--task", "robust-mean-fit",
                                "--steps", "0", "--format", "json"])
    assert code == 0
    assert len(doc["rows"]) == 1 and doc["rows"][0]["iteration"] == 0


def test_train_unknown_task_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--task", "nonsense"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["gradcheck", "--trials", "0"],
    ["study", "--trials", "0"],
    ["study", "--points", "0"],
    ["pool", "--values", "1,2", "--alpha", "0"],
    ["pool", "--values", "1,2", "--alpha", "-1"],
    ["pool", "--values", "1,2", "--alpha", "inf"],
    ["project", "--values", "1,2", "--radius", "0"],
    ["project", "--values", "1,2", "--radius", "inf"],
])
def test_nonpositive_counts_and_scales_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_values_and_input_are_exclusive(tmp_path):
    src = tmp_path / "vals.txt"
    src.write_text("1\n")
    for argv in (["pool", "--values", "1", "--input", str(src)],
                 ["pool"],
                 ["pool", "--values", "1,zzz"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_out_flag_suppresses_stdout(tmp_path, capsys):
    _run(tmp_path, ["pool", "--values", "1,2", "--format", "json"])
    assert capsys.readouterr().out == ""


def test_outputs_are_byte_identical_per_seed(tmp_path):
    argv = ["study", "--trials", "4", "--points", "30", "--seed", "3",
            "--format", "json"]
    _, _ = _run(tmp_path, argv, name="a.json")
    _, _ = _run(tmp_path, argv, name="b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    argv = ["gradcheck", "--node", "project-l2", "--trials", "2", "--seed", "1"]
    _, ta = _run(tmp_path, argv + ["--format", "text"], name="a.txt")
    _, tb = _run(tmp_path, argv + ["--format", "text"], name="b.txt")
    assert ta == tb


def test_numbers_roundtrip_at_full_precision(tmp_path):
    # 17 significant digits: the parsed value is bit-equal to the float
    code, doc = _run(tmp_path, ["pool", "--values", "0.1,0.2,0.4",
                                "--penalty", "quadratic", "--format", "json"])
    assert code == 0
    from optnode.pooling import PenaltySpec, robust_pool
    y = float(robust_pool(np.array([0.1, 0.2, 0.4]),
                          PenaltySpec("quadratic", 1.0)).y[0])
    assert doc["rows"][0]["y"] == y


def test_csv_and_text_formats(tmp_path):
    code, text = _run(tmp_path, ["pool", "--values", "1,2,3",
                                 "--penalty", "quadratic",
                                 "--format", "csv"], name="out.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].split(",")[0] == "y" and len(lines) == 2

    code, text = _run(tmp_path, ["pool", "--values", "1,2,3",
                                 "--penalty", "quadratic",
                                 "--format", "text"], name="out.txt")
    assert code == 0
    assert "command = pool" in text and "y = 2" in text


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    # the subprocess imports the same package as this test, installed or not
    src = str(Path(optnode.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from optnode.cli import main; sys.exit(main())",
         "pool", "--values", "1,2,3", "--penalty", "quadratic",
         "--format", "json", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["rows"][0]["y"] == 2.0
