"""Self-tests for the finite-difference oracle.

Everything else in the suite leans on fd_jacobian / fd_hessian_blocks as
the reference, so these tests establish the oracle's own accuracy against
polynomials and closed forms that need no solver at all.
"""

import numpy as np
import pytest

from optnode.numdiff import (CUBE_ROOT_EPS, FdConfig, fd_gradient,
                             fd_hessian_blocks, fd_jacobian)
from optnode.core import DeclarativeProblem, Derivatives
from optnode.gallery import linear_equality_problem, spherical_alignment_problem


def test_step_rule_cube_root_eps():
    cfg = FdConfig()
    h = cfg.steps(np.array([0.0, 0.5, -3.0]))
    np.testing.assert_allclose(
        h, [CUBE_ROOT_EPS, CUBE_ROOT_EPS, 3.0 * CUBE_ROOT_EPS])


def test_step_rule_fixed_requires_step():
    with pytest.raises(ValueError):
        FdConfig(step_rule="fixed").steps(np.zeros(2))


def test_identity_jacobian():
    J = fd_jacobian(lambda x: x, np.array([0.3, -1.2, 4.0]))
    np.testing.assert_allclose(J, np.eye(3), atol=1e-9)


def test_cubic_polynomial_matches_analytic():
    # oracle self-test: cubic derivative to 1e-9 with cube_root_eps steps
    rng = np.random.default_rng(11)
    c = rng.normal(size=4)
    x = rng.normal(size=5)

    def fun(z):
        return c[0] + c[1] * z + c[2] * z ** 2 + c[3] * z ** 3

    J = fd_jacobian(fun, x)
    exact = np.diag(c[1] + 2.0 * c[2] * x + 3.0 * c[3] * x ** 2)
    assert np.max(np.abs(J - exact)) <= 1e-9


def test_l2_normalization_closed_form():
    x = np.array([3.0, 4.0])
    J = fd_jacobian(lambda z: z / np.linalg.norm(z), x)
    y = x / 5.0
    exact = (np.eye(2) - np.outer(y, y)) / 5.0
    assert np.max(np.abs(J - exact)) <= 1e-7


def test_forward_scheme_is_one_sided():
    """|z| at 0: forward probes give +1 / -1 depending on the step sign."""
    cfg_pos = FdConfig(step_rule="fixed", fixed_step=1e-6, scheme="forward")
    cfg_neg = FdConfig(step_rule="fixed", fixed_step=-1e-6, scheme="forward")
    g_pos = fd_gradient(lambda z: abs(float(z[0])), np.zeros(1), cfg_pos)
    g_neg = fd_gradient(lambda z: abs(float(z[0])), np.zeros(1), cfg_neg)
    np.testing.assert_allclose(g_pos, [1.0], atol=1e-9)
    np.testing.assert_allclose(g_neg, [-1.0], atol=1e-9)


def test_non_finite_value_raises():
    with pytest.raises(ValueError):
        fd_jacobian(lambda z: np.array([np.nan]), np.zeros(1))


def test_hessian_blocks_quadratic():
    # f = 0.5||u - x||^2 with analytic f_y: H = I, B = -I
    n = 3
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
        input_dim=n, output_dim=n,
        derivatives=Derivatives(f_y=lambda x, u: u - x))
    blocks = fd_hessian_blocks(problem, np.array([0.2, -0.4, 1.0]),
                               np.array([0.1, 0.0, -0.3]))
    np.testing.assert_allclose(blocks.H_f, np.eye(n), atol=1e-7)
    np.testing.assert_allclose(blocks.B_f, -np.eye(n), atol=1e-7)


def test_hessian_blocks_double_fd_regime():
    """Without analytic first derivatives both differentiation levels are
    numeric; accuracy drops to the 1e-5 range and no further."""
    n = 3
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
        input_dim=n, output_dim=n)
    blocks = fd_hessian_blocks(problem, np.array([0.2, -0.4, 1.0]),
                               np.array([0.1, 0.0, -0.3]))
    np.testing.assert_allclose(blocks.H_f, np.eye(n), atol=1e-4)
    np.testing.assert_allclose(blocks.B_f, -np.eye(n), atol=1e-4)


def test_hessian_blocks_pseudo_huber_pooling():
    """Numeric H, B against the pooling closed forms, alpha = 1."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=3)
    y = np.array([float(np.mean(x))])

    def objective(xx, u):
        z = u[0] - xx
        return float(np.sum(np.sqrt(1.0 + z ** 2) - 1.0))

    def f_y(xx, u):
        z = u[0] - xx
        return np.array([np.sum(z / np.sqrt(1.0 + z ** 2))])

    problem = DeclarativeProblem(objective=objective, input_dim=3, output_dim=1,
                                 derivatives=Derivatives(f_y=f_y))
    blocks = fd_hessian_blocks(problem, x, y)
    z = y[0] - x
    d2 = (1.0 + z ** 2) ** -1.5
    np.testing.assert_allclose(blocks.H_f, [[np.sum(d2)]], atol=1e-6)
    np.testing.assert_allclose(blocks.B_f, -d2[None, :], atol=1e-6)


def test_hessian_blocks_symmetric_on_smooth_objectives():
    rng = np.random.default_rng(7)
    G = rng.normal(size=(4, 4))

    def objective(x, u):
        return float(u @ G @ u + np.sum(np.sin(u) * x))

    problem = DeclarativeProblem(objective=objective, input_dim=4, output_dim=4)
    blocks = fd_hessian_blocks(problem, rng.normal(size=4), rng.normal(size=4))
    assert np.max(np.abs(blocks.H_f - blocks.H_f.T)) <= 1e-8


def test_hessian_blocks_singular_on_alignment_objective():
    """Scale-invariant alignment objective: H singular at the optimum."""
    problem, solve = spherical_alignment_problem(4)
    x = np.array([0.6, -0.2, 0.4, 0.9])
    y = solve(x).y
    stripped = DeclarativeProblem(
        objective=problem.objective, input_dim=4, output_dim=4,
        eq_constraints=problem.eq_constraints)
    blocks = fd_hessian_blocks(stripped, x, y)
    sv = np.linalg.svd(blocks.H_f, compute_uv=False)
    assert sv[-1] <= 1e-6 * sv[0]


def test_hessian_blocks_constraint_rows():
    # sphere constraint h = (u'u - 1)/2: h_yy = I, h_xy = 0
    problem = DeclarativeProblem(
        objective=lambda x, u: float(u @ x),
        input_dim=3, output_dim=3,
        eq_constraints=lambda x, u: np.array([0.5 * (u @ u - 1.0)]),
        derivatives=Derivatives(h_y=lambda x, u: u[None, :]))
    blocks = fd_hessian_blocks(problem, np.array([1.0, 2.0, 3.0]),
                               np.array([0.0, 0.6, 0.8]))
    np.testing.assert_allclose(blocks.h_yy[0], np.eye(3), atol=1e-7)
    np.testing.assert_allclose(blocks.h_xy[0], np.zeros((3, 3)), atol=1e-7)


def test_hessian_blocks_one_pass_per_variable():
    """The (p, m) constraint Jacobian is differentiated as one bundle: one
    probe of h for p, then 2 evaluations of h_y per coordinate of y and of
    x, i.e. 1 + 2(m + n) callbacks rather than p times as many."""
    n, m, p = 10, 20, 8
    problem, solve = linear_equality_problem(n, m, p, seed=3)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(1)
            return fn(*args)
        return wrapper

    # the problem the engine hands to fd_hessian_blocks for the h blocks
    stripped = DeclarativeProblem(
        objective=None, input_dim=n, output_dim=m,
        eq_constraints=counted(problem.eq_constraints),
        derivatives=Derivatives(h_y=counted(problem.derivatives.h_y),
                                h_x=counted(problem.derivatives.h_x)))
    x = np.linspace(-0.5, 0.5, n)
    blocks = fd_hessian_blocks(stripped, x, solve(x).y)
    assert len(calls) == 1 + 2 * (m + n)
    assert blocks.h_yy.shape == (p, m, m) and blocks.h_xy.shape == (p, m, n)
    np.testing.assert_allclose(blocks.h_yy, 0.0, atol=1e-9)
    np.testing.assert_allclose(blocks.h_xy, 0.0, atol=1e-9)


def test_hessian_blocks_match_per_row_differences_exactly():
    """Bundled differences take the same steps and scheme as differencing
    each row's first derivative on its own, so they agree bit for bit."""
    def h(x, u):
        return np.array([np.sin(u @ x), u[0] * u[1] * x[2], np.exp(0.3 * u[2])])

    problem = DeclarativeProblem(objective=None, input_dim=3, output_dim=3,
                                 eq_constraints=h)
    x = np.array([0.4, -1.1, 0.7])
    y = np.array([0.2, 0.5, -0.3])
    blocks = fd_hessian_blocks(problem, x, y)
    for i in range(3):
        row = lambda z, u: fd_jacobian(lambda v: h(z, v), u)[i]
        J_y = fd_jacobian(lambda u: row(x, u), y)
        J_x = fd_jacobian(lambda z: row(z, y), x)
        assert np.array_equal(blocks.h_yy[i], 0.5 * (J_y + J_y.T))
        assert np.array_equal(blocks.h_xy[i], J_x)


def test_pooled_solver_column_against_weight_formula():
    """fd of the pseudo-Huber pooling solver matches the normalized-weight
    closed form; this is the cross-check that licenses fd_jacobian as the
    oracle for every solver-output derivative in the suite."""
    from optnode.pooling import PenaltySpec, robust_pool

    rng = np.random.default_rng(42)
    x = rng.normal(size=5)
    spec = PenaltySpec("pseudo_huber", alpha=1.0)

    J = fd_jacobian(lambda z: robust_pool(z, spec, tol=1e-13).y, x)
    y = float(robust_pool(x, spec, tol=1e-13).y[0])
    w = (1.0 + (y - x) ** 2) ** -1.5
    np.testing.assert_allclose(J[0], w / np.sum(w), atol=1e-6)
