"""The gallery's range-space KKT Newton: its step against the full block
solve, its refusal of a Hessian it cannot factor, and its iteration counts
on the benchmark's problem sizes."""

import numpy as np
import pytest

from optnode import gallery
from optnode.core import SolverDiverged


def _quadratic(m, p, seed):
    """f(u) = u'Hu/2 - g'u with SPD H, and p random equality rows."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(m, m))
    H = G.T @ G / m + 0.5 * np.eye(m)
    return H, rng.normal(size=m), rng.normal(size=(p, m)), rng.normal(size=p)


@pytest.mark.parametrize("p", [0, 1, 3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_range_space_step_matches_the_block_lu_solve(p, seed):
    """On a quadratic one full step from (0, 0) reaches the KKT point, so
    the iterate after it is -(du, dlam); the step must agree with the LU
    solve of [[H, -A'], [A, 0]] (du, dlam) = (f_y(0), A 0 - b)."""
    m = 6
    H, g, A, b = _quadratic(m, p, seed)
    u, lam, it = gallery._kkt_newton(lambda x, u: H @ u - g,
                                     lambda x, u: H, None, m,
                                     A if p else None, b if p else None)
    K = np.block([[H, -A.T], [A, np.zeros((p, p))]])
    step = np.linalg.solve(K, np.concatenate([-g, -b]))
    assert it == 1
    err = np.concatenate([u, lam]) + step
    assert np.max(np.abs(err)) <= 1e-12 * np.max(np.abs(step))


@pytest.mark.parametrize("p", [0, 1])
def test_indefinite_hessian_is_solver_diverged_naming_the_label(p):
    """Drawn non-positive-definite and non-finite Hessians are the property
    test's (test_engine_properties); this is the plain case."""
    H = np.diag([1.0, -0.5, 2.0])
    A = np.array([[1.0, 1.0, 0.0]]) if p else None
    b = np.array([0.5]) if p else None
    with pytest.raises(SolverDiverged, match=r"probe KKT newton: H "):
        gallery._kkt_newton(lambda x, u: u - 1.0, lambda x, u: H, None, 3,
                            A, b, label="probe")


@pytest.mark.parametrize("make", [
    lambda s: gallery.strongly_convex_problem(400, 200, s),
    lambda s: gallery.linear_equality_problem(400, 200, 20, s),
], ids=["strongly-convex", "linear-equality"])
def test_newton_iterations_per_solve_are_pinned(make):
    """Both kkt-chain forward solves take 4 Newton steps at these seeds; a
    change that needs more fails here rather than in benchmark noise."""
    for seed in range(3):
        _, solve = make(seed)
        x = np.random.default_rng(100 + seed).normal(size=400)
        assert solve(x).solver_info.iterations == 4, seed
