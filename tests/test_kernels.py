"""Scalar penalty values and gradient weights of the pooling kernels, and
the third-party imports of the package."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optnode
from optnode import _kernels
from optnode.pooling import PenaltySpec, penalty_d1, penalty_d2, penalty_value


def test_quadratic_value():
    assert penalty_value(PenaltySpec("quadratic"), 3.0) == 4.5


def test_pseudo_huber_at_zero():
    spec = PenaltySpec("pseudo_huber", alpha=2.0)
    assert penalty_value(spec, 0.0) == 0.0
    assert penalty_d1(spec, 0.0) == 0.0
    assert penalty_d2(spec, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_welsch_saturates():
    spec = PenaltySpec("welsch", alpha=1.0)
    assert penalty_value(spec, 50.0) == pytest.approx(1.0, abs=1e-12)
    assert penalty_value(spec, 1e6) == pytest.approx(1.0, abs=1e-15)


def test_huber_branches():
    spec = PenaltySpec("huber", alpha=1.0)
    assert penalty_value(spec, 0.5) == 0.125
    assert penalty_value(spec, 3.0) == pytest.approx(1.0 * (3.0 - 0.5))
    # kink |z| = alpha: second derivative takes the inner quadratic branch
    assert penalty_d2(spec, 1.0) == 1.0
    assert penalty_d2(spec, 2.0) == 0.0


def test_truncated_quadratic_branches():
    spec = PenaltySpec("truncated_quadratic", alpha=2.0)
    assert penalty_value(spec, 1.0) == 0.5
    assert penalty_value(spec, 5.0) == 2.0      # 0.5 alpha^2 beyond the cut
    assert penalty_d1(spec, 5.0) == 0.0
    assert penalty_d2(spec, 2.0) == 1.0         # inner branch at the jump


def test_penalty_derivatives_match_value_fd():
    # d1/d2 consistent with the value curve for every penalty
    for kind in ("quadratic", "pseudo_huber", "huber", "welsch",
                 "truncated_quadratic"):
        spec = PenaltySpec(kind, alpha=1.3)
        for z in (-2.2, -0.6, 0.4, 1.9):   # clear of the kinks
            h = 1e-6
            d1_fd = (penalty_value(spec, z + h) - penalty_value(spec, z - h)) / (2 * h)
            d2_fd = (penalty_d1(spec, z + h) - penalty_d1(spec, z - h)) / (2 * h)
            assert penalty_d1(spec, z) == pytest.approx(d1_fd, abs=1e-8)
            assert penalty_d2(spec, z) == pytest.approx(d2_fd, abs=1e-8)


def _vector_sums(code, alpha, u, x):
    """The penalty sums of one row, written as plain vector arithmetic."""
    z = u - x
    add = np.add.reduce
    if code == _kernels.QUADRATIC:
        return 0.5 * float(z @ z), float(add(z)), float(z.size)
    if code == _kernels.PSEUDO_HUBER:
        t = 1.0 + (z / alpha) ** 2
        s = np.sqrt(t)
        return (float(alpha * alpha * add(s - 1.0)), float(add(z / s)),
                float(add(t ** -1.5)))
    inl = np.abs(z) <= alpha
    if code == _kernels.HUBER:
        val = np.where(inl, 0.5 * z * z, alpha * (np.abs(z) - 0.5 * alpha))
        return (float(add(val)), float(add(np.where(inl, z, alpha * np.sign(z)))),
                float(np.count_nonzero(inl)))
    if code == _kernels.WELSCH:
        a2 = alpha * alpha
        ex = np.exp(-0.5 * z * z / a2)
        return (float(add(1.0 - ex)), float(add(z / a2 * ex)),
                float(add((a2 - z * z) / (a2 * a2) * ex)))
    val = np.where(inl, 0.5 * z * z, 0.5 * alpha * alpha)
    return (float(add(val)), float(add(np.where(inl, z, 0.0))),
            float(np.count_nonzero(inl)))


@pytest.mark.parametrize("code", range(5))
def test_stacked_sums_are_bit_identical_to_vector_sums(code):
    """Each row of a (B, n) kernel pass, and the vector form, round exactly
    as the plain vector arithmetic: the stacked pooling solves rely on it."""
    rng = np.random.default_rng(code)
    for n in (1, 2, 7, 33, 100, 257, 5000):
        B = int(rng.integers(1, 9))
        X = rng.standard_normal((B, n)) * 10.0 ** rng.uniform(-3, 3)
        u = rng.standard_normal(B)
        alpha = 10.0 ** rng.uniform(-1, 1)
        stacked = np.stack(_kernels.penalty_sums(code, alpha, u, X), axis=1)
        for i in range(B):
            ref = _vector_sums(code, alpha, float(u[i]), X[i])
            assert tuple(stacked[i].tolist()) == ref
            assert _kernels.penalty_sums(code, alpha, float(u[i]), X[i]) == ref


def test_welsch_weights_survive_huge_spread():
    """Max-exponent scaling keeps weights representable when residual
    magnitudes differ by hundreds of squared alphas."""
    x = np.array([0.0, 1e3, -1e3, 0.1])
    w, s = _kernels.penalty_weights(_kernels.WELSCH, 1.0, 0.05, x)
    assert np.all(np.isfinite(w))
    assert s > 0.0


def test_backend_name_reports_active_path():
    assert _kernels.backend_name() == "numpy"


def test_package_imports_only_numpy_and_scipy():
    """Every import in optnode names the standard library, numpy, scipy or
    optnode itself: no optional compiler is probed, even inside a try."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "optnode"}
    found = set()
    for path in Path(optnode.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found <= allowed, sorted(found - allowed)


def _imports_run_on_import(tree):
    """The import statements of a module outside every function body:
    those that run when the module is imported."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_top_level():
    """scipy is imported only inside the functions that factor a matrix:
    no statement that runs on import of an optnode module names it, not
    even under a try or in a class body."""
    found = []
    for path in sorted(Path(optnode.__file__).parent.glob("*.py")):
        for node in _imports_run_on_import(ast.parse(path.read_text())):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, found


def test_only_core_builds_an_expected_shape_message():
    """Every "expected shape" DimensionMismatch comes from core.checked,
    so core.SHAPES stays the one shape table: no other module holds a
    string with that phrase, plain or inside an f-string."""
    found = []
    for path in sorted(Path(optnode.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "expected shape" in node.value):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


_IMPORT_CONTRACT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import optnode
from optnode import cli, gallery
from optnode.pooling import Penalty, PenaltySpec, robust_pool, robust_pool_gradient
from optnode.projection import (Norm, ProjectionSpec, Surface, project,
                                project_gradient, project_vjp)

assert "scipy" not in sys.modules, "import optnode"
cli.run_study(seed=0, trials=2)
X = np.random.default_rng(0).normal(size=(5, 100))
for kind in Penalty:
    spec = PenaltySpec(kind)
    sol = robust_pool(X, spec)
    robust_pool_gradient(X[0], spec, sol.y[0])
x = np.array([0.3, -1.2, 0.5, 2.0])
for norm in Norm:
    for surface in Surface:
        spec = ProjectionSpec(norm, surface, radius=0.8)
        y = project(x, spec).y
        project_gradient(x, spec, y)
        project_vjp(np.ones(4), x, spec, y)
assert "scipy" not in sys.modules, "study, pooling and projection"
convex, convex_solve = gallery.strongly_convex_problem(3, 2, 0)
_, equality_solve = gallery.linear_equality_problem(3, 2, 1, 0)
assert "scipy" not in sys.modules, "building the gallery problems"
x = np.array([0.1, 0.2, -0.3])
first = {"build_context": lambda: optnode.build_context(convex, x, np.zeros(2)),
         "strongly_convex": lambda: convex_solve(x),
         "linear_equality": lambda: equality_solve(x)}[sys.argv[2]]
first()
assert "scipy.linalg" in sys.modules, sys.argv[2]
"""


def test_scipy_loads_only_on_first_factorisation():
    """Importing optnode, the robustness study, pooling and projection
    leave scipy unloaded, and so does building the two gallery problems
    that keep factors across solves (they fill that cache on their first
    solve); the first build_context loads scipy.linalg, and so does each
    problem's first solve.  Runs in a fresh interpreter per first
    factorisation, since this one has scipy loaded already."""
    src = str(Path(optnode.__file__).parent.parent)
    for first in ("build_context", "strongly_convex", "linear_equality"):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_CONTRACT, src, first],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, (first, out.stderr)
