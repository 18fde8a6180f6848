"""Gradient paths against oracles, closed forms, and each other.

The closed-form anchors (normalization gradients, centering projectors,
branch slopes) were worked out by hand; everything non-closed-form is
checked against the finite-difference oracle of test_numdiff.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from optnode import gallery, projection
from optnode.core import (DeclarativeProblem, Derivatives, DimensionMismatch,
                          NodeError, RankDeficientConstraints, SingularHessian,
                          UndefinedGradient)
from optnode.implicit_diff import (AllocationCounter, GRADIENT_PATHS,
                                   PIVOT_RTOL, _curvature, _Factor,
                                   _rank_repair, build_context,
                                   gradient_equality,
                                   gradient_feasibility, gradient_inequality,
                                   gradient_unconstrained,
                                   jacobian_from_context,
                                   pseudo_inverse_descent,
                                   recover_multipliers, vjp)
from optnode.numdiff import fd_hessian_blocks, fd_jacobian


# --- unconstrained --------------------------------------------------------

def test_unconstrained_identity():
    n = 4
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
        input_dim=n, output_dim=n,
        derivatives=Derivatives(f_y=lambda x, u: u - x))
    x = np.array([0.3, -0.1, 0.8, 2.0])
    jac = gradient_unconstrained(problem, x, x.copy())
    np.testing.assert_allclose(jac.matrix, np.eye(n), atol=1e-9)
    assert not jac.one_sided


def test_unconstrained_mean_row():
    from optnode.pooling import PenaltySpec, as_problem
    problem = as_problem(PenaltySpec("quadratic"), 3)
    x = np.array([1.0, 2.0, 6.0])
    jac = gradient_unconstrained(problem, x, np.array([3.0]))
    np.testing.assert_allclose(jac.matrix, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-9)


def test_unconstrained_scalar_vs_oracle():
    # y(x) = sin x, so Dy = cos x
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float((u[0] - np.sin(x[0])) ** 2),
        input_dim=1, output_dim=1)
    x = np.array([0.3])
    y = np.array([np.sin(0.3)])
    jac = gradient_unconstrained(problem, x, y)
    assert abs(jac.matrix[0, 0] - np.cos(0.3)) <= 1e-6


def test_unconstrained_singular_hessian_raises_when_fallback_off():
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.0, input_dim=2, output_dim=2,
        derivatives=Derivatives(f_yy=lambda x, u: np.zeros((2, 2)),
                                f_xy=lambda x, u: np.eye(2)))
    with pytest.raises(SingularHessian):
        gradient_unconstrained(problem, np.zeros(2), np.zeros(2),
                               pseudo_inverse_fallback=False)


def test_unconstrained_falls_back_to_pseudo_inverse():
    problem, solve = gallery.spherical_alignment_problem(3)
    x = np.array([0.8, -0.6, 0.4])
    y = solve(x).y
    jac = gradient_unconstrained(problem, x, y)
    assert jac.rank_deficient_fallback


# --- multiplier recovery --------------------------------------------------

def test_recover_multipliers_single_row():
    lam = recover_multipliers(np.array([[1.0, 0.0]]), np.array([2.0, 0.0]))
    np.testing.assert_allclose(lam, [2.0])


def test_recover_multipliers_l2_sphere():
    # projection of [3,4]: f_y = y - x, constraint gradient y', so
    # lambda = 1 - ||x||
    x = np.array([3.0, 4.0])
    y = x / 5.0
    lam = recover_multipliers(y[None, :], y - x)
    np.testing.assert_allclose(lam, [-4.0], atol=1e-12)


def test_recover_multipliers_roundtrip():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(2, 4))
    lam0 = rng.normal(size=2)
    grad = A.T @ lam0
    lam = recover_multipliers(A, grad)
    np.testing.assert_allclose(lam, lam0, atol=1e-10)
    assert np.max(np.abs(lam @ A - grad)) <= 1e-10


def test_recover_multipliers_rank_deficient():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])   # rank 1
    with pytest.raises(RankDeficientConstraints):
        recover_multipliers(A, np.array([1.0, 2.0]))


# --- equality path --------------------------------------------------------

def _l2_projection_problem(n):
    return projection.as_problem(projection.ProjectionSpec("l2"), n)


def test_equality_l2_sphere_closed_form():
    problem = _l2_projection_problem(2)
    x = np.array([3.0, 4.0])
    sol = projection.project(x, projection.ProjectionSpec("l2"))
    jac = gradient_equality(problem, x, sol.y, sol.multipliers)
    expected = np.array([[0.128, -0.096], [-0.096, 0.072]])
    np.testing.assert_allclose(jac.matrix, expected, atol=1e-12)


def test_equality_recovers_multipliers_when_absent():
    problem = _l2_projection_problem(2)
    x = np.array([3.0, 4.0])
    sol = projection.project(x, projection.ProjectionSpec("l2"))
    jac = gradient_equality(problem, x, sol.y)      # no multipliers passed
    expected = np.array([[0.128, -0.096], [-0.096, 0.072]])
    np.testing.assert_allclose(jac.matrix, expected, atol=1e-12)


def test_equality_random_problems_vs_oracle():
    for seed in range(4):
        problem, solve = gallery.linear_equality_problem(3, 5, 2, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=3) * 0.5
        sol = solve(x)
        jac = gradient_equality(problem, x, sol.y, sol.multipliers)
        J_fd = fd_jacobian(lambda z: solve(z).y, x)
        scale = max(1.0, float(np.max(np.abs(J_fd))))
        assert np.max(np.abs(jac.matrix - J_fd)) / scale <= 1e-5


def test_equality_differentiated_feasibility_invariant():
    """A Dy + C = 0 to 1e-7: the Jacobian never leaves the constraint set."""
    for seed in range(3):
        problem, solve = gallery.linear_equality_problem(3, 5, 2, seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=3) * 0.5
        sol = solve(x)
        jac = gradient_equality(problem, x, sol.y, sol.multipliers)
        A = problem.derivatives.h_y(x, sol.y)
        C = problem.derivatives.h_x(x, sol.y)
        assert np.max(np.abs(A @ jac.matrix + C)) <= 1e-7

    for seed in range(3):
        problem, solve = gallery.sphere_equality_problem(3, 4, seed=seed)
        rng = np.random.default_rng(200 + seed)
        x = rng.normal(size=3) * 0.5
        sol = solve(x)
        jac = gradient_equality(problem, x, sol.y, sol.multipliers)
        A = problem.derivatives.h_y(x, sol.y)
        C = problem.derivatives.h_x(x, sol.y)
        assert np.max(np.abs(A @ jac.matrix + C)) <= 1e-7


def test_equality_tangency_for_x_independent_constraints():
    # D_Y h . Dy = 0 when h does not involve x
    problem, solve = gallery.sphere_equality_problem(4, 5, seed=3)
    x = np.array([0.2, -0.4, 0.6, 0.1])
    sol = solve(x)
    jac = gradient_equality(problem, x, sol.y, sol.multipliers)
    A = problem.derivatives.h_y(x, sol.y)
    assert np.max(np.abs(A @ jac.matrix)) <= 1e-8


def test_equality_degenerate_empty_stack_matches_unconstrained():
    problem, solve = gallery.strongly_convex_problem(3, 4, seed=6)
    with_empty_h = DeclarativeProblem(
        objective=problem.objective, input_dim=3, output_dim=4,
        eq_constraints=lambda x, u: np.zeros(0),
        derivatives=problem.derivatives)
    x = np.array([0.4, -0.3, 0.2])
    y = solve(x).y
    jac_eq = gradient_equality(with_empty_h, x, y)
    jac_un = gradient_unconstrained(problem, x, y)
    np.testing.assert_allclose(jac_eq.matrix, jac_un.matrix, atol=1e-12)


def test_imperative_reduction_recovers_forward_jacobian():
    """f = 0.5||u - tanh(x)||^2 turns an explicit map into a declarative
    node; the unconstrained gradient must give back the map's Jacobian."""
    n = 3
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - np.tanh(x)) ** 2)),
        input_dim=n, output_dim=n,
        derivatives=Derivatives(f_y=lambda x, u: u - np.tanh(x)))
    x = np.array([0.3, -0.8, 1.2])
    y = np.tanh(x)
    jac = gradient_unconstrained(problem, x, y)
    np.testing.assert_allclose(jac.matrix, np.diag(1.0 - np.tanh(x) ** 2),
                               atol=1e-8)


def test_geometric_tangent_plane_invariant():
    """With an x-independent constraint, H^{1/2} Dy is orthogonal to
    H^{-1/2} a: the correction term projects onto the tangent plane in the
    H metric."""
    spec = projection.ProjectionSpec("l2")
    problem = projection.as_problem(spec, 3)
    x = np.array([1.2, -0.9, 1.7])
    sol = projection.project(x, spec)
    y = sol.y
    lam = sol.multipliers[0]
    jac = gradient_equality(problem, x, y, sol.multipliers)

    nz = float(np.linalg.norm(x))
    H = np.eye(3) - lam * (np.eye(3) - np.outer(y, y)) / 1.0   # ||y|| = 1
    evals, V = np.linalg.eigh(H)
    assert np.all(evals > 0)                                   # SPD here
    H_half = V @ np.diag(np.sqrt(evals)) @ V.T
    H_neg_half = V @ np.diag(evals ** -0.5) @ V.T
    a = y                                                      # D_Y h
    overlap = (H_neg_half @ a) @ (H_half @ jac.matrix)
    assert np.max(np.abs(overlap)) <= 1e-8
    assert nz > 1.0


# --- inequality path ------------------------------------------------------

def test_inequality_inactive_matches_unconstrained():
    problem, solve = gallery.disc_inequality_problem(2)
    x = np.array([0.3, 0.4])
    sol = solve(x)
    jac = gradient_inequality(problem, x, sol.y, sol.multipliers)
    un = gradient_unconstrained(
        DeclarativeProblem(objective=problem.objective, input_dim=2,
                           output_dim=2, derivatives=problem.derivatives),
        x, sol.y)
    np.testing.assert_allclose(jac.matrix, un.matrix, atol=1e-8)
    assert not jac.one_sided


def test_inequality_active_matches_equality():
    problem, solve = gallery.disc_inequality_problem(2)
    x = np.array([1.2, 1.6])
    sol = solve(x)
    jac = gradient_inequality(problem, x, sol.y, sol.multipliers)
    eq_problem, eq_solve = gallery.circle_equality_problem(2)
    eq_sol = eq_solve(x)
    eq_jac = gradient_equality(eq_problem, x, eq_sol.y, eq_sol.multipliers)
    np.testing.assert_allclose(jac.matrix, eq_jac.matrix, atol=1e-8)
    assert not jac.one_sided


def test_inequality_zero_multiplier_is_one_sided():
    problem, solve = gallery.disc_inequality_problem(2)
    x = np.array([0.6, 0.8])          # exactly on the boundary: lambda = 0
    sol = solve(x)
    jac = gradient_inequality(problem, x, sol.y, sol.multipliers)
    assert jac.one_sided


def test_inequality_zero_multiplier_branch_switch():
    problem, solve = gallery.disc_inequality_problem(2)
    x = np.array([0.6, 0.8])
    sol = solve(x)
    constrained = gradient_inequality(problem, x, sol.y, sol.multipliers,
                                      zero_multiplier_branch="constrained")
    unconstrained = gradient_inequality(problem, x, sol.y, sol.multipliers,
                                        zero_multiplier_branch="unconstrained")
    # the two branches genuinely differ at the touching point
    assert np.max(np.abs(constrained.matrix - unconstrained.matrix)) > 0.1
    np.testing.assert_allclose(unconstrained.matrix, np.eye(2), atol=1e-9)
    with pytest.raises(UndefinedGradient):
        gradient_inequality(problem, x, sol.y, sol.multipliers,
                            zero_multiplier_branch="reject")


# --- feasibility path -----------------------------------------------------

def test_feasibility_identity_constraint():
    problem = DeclarativeProblem(
        objective=None, input_dim=3, output_dim=3,
        eq_constraints=lambda x, u: u - x)
    x = np.array([0.5, -0.2, 0.9])
    jac = gradient_feasibility(problem, x, x.copy())
    np.testing.assert_allclose(jac.matrix, np.eye(3), atol=1e-9)


def test_feasibility_branch_slopes():
    for branch, slope in (("plus", 1.0), ("minus", -1.0)):
        problem, solve = gallery.two_branch_problem(branch)
        x = np.array([0.8])
        sol = solve(x)
        jac = gradient_feasibility(problem, x, sol.y)
        assert jac.matrix[0, 0] == slope


def test_feasibility_linear_system_inverse():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    problem = DeclarativeProblem(
        objective=None, input_dim=3, output_dim=3,
        eq_constraints=lambda x, u: A @ u - x)
    x = rng.normal(size=3)
    y = np.linalg.solve(A, x)
    jac = gradient_feasibility(problem, x, y)
    np.testing.assert_allclose(jac.matrix, np.linalg.inv(A), atol=1e-7)
    J_fd = fd_jacobian(lambda z: np.linalg.solve(A, z), x)
    np.testing.assert_allclose(jac.matrix, J_fd, atol=1e-7)


def test_feasibility_rank_deficient_minimum_norm():
    # one constraint row, m = 2: minimum-norm solution via pseudo-inverse
    problem = DeclarativeProblem(
        objective=None, input_dim=1, output_dim=2,
        eq_constraints=lambda x, u: np.array([u[0] + u[1] - x[0]]))
    x = np.array([1.0])
    jac = gradient_feasibility(problem, x, np.array([0.5, 0.5]))
    assert jac.rank_deficient_fallback
    np.testing.assert_allclose(jac.matrix, [[0.5], [0.5]], atol=1e-9)


def test_feasibility_zero_rows_raise():
    problem = DeclarativeProblem(
        objective=None, input_dim=1, output_dim=1,
        eq_constraints=lambda x, u: np.array([0.0 * u[0]]))
    with pytest.raises(RankDeficientConstraints):
        gradient_feasibility(problem, np.zeros(1), np.zeros(1))


# --- single-constraint and fixed-target linear equality problems -----------

def test_single_constraint_l2_sphere():
    problem = _l2_projection_problem(2)
    x = np.array([3.0, 4.0])
    sol = projection.project(x, projection.ProjectionSpec("l2"))
    jac = gradient_equality(problem, x, sol.y)
    expected = np.array([[0.128, -0.096], [-0.096, 0.072]])
    np.testing.assert_allclose(jac.matrix, expected, atol=1e-12)


def test_single_constraint_tangency():
    problem, solve = gallery.sphere_equality_problem(3, 4, seed=8)
    x = np.array([0.3, 0.1, -0.5])
    sol = solve(x)
    jac = gradient_equality(problem, x, sol.y)
    assert np.max(np.abs(sol.y @ jac.matrix)) <= 1e-8


def test_single_constraint_zero_gradient_rejected():
    # D_Y h = 0: rank repair leaves no row, so the stack is rank deficient
    problem = DeclarativeProblem(
        objective=lambda x, u: float(u @ u), input_dim=1, output_dim=2,
        eq_constraints=lambda x, u: np.array([u[0] ** 2]),
        derivatives=Derivatives(h_y=lambda x, u: np.array([[2 * u[0], 0.0]])))
    with pytest.raises(RankDeficientConstraints):
        gradient_equality(problem, np.zeros(1), np.zeros(2))


def test_linear_equality_centering_projector():
    # f = 0.5||u - x||^2 with a sum constraint: the formula forces the
    # centering projector I - (1/m) 1 1'
    m = 4
    A = np.ones((1, m))
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
        input_dim=m, output_dim=m,
        eq_constraints=lambda x, u: A @ u - 1.0,
        derivatives=Derivatives(f_y=lambda x, u: u - x,
                                f_yy=lambda x, u: np.eye(m),
                                f_xy=lambda x, u: -np.eye(m),
                                h_y=lambda x, u: A,
                                h_x=lambda x, u: np.zeros((1, m)),
                                h_yy=lambda x, u, lam: np.zeros((m, m)),
                                h_xy=lambda x, u, lam: np.zeros((m, m))))
    x = np.array([0.3, -0.2, 0.6, 0.1])
    y = x - (np.sum(x) - 1.0) / m          # projection onto sum = 1
    jac = gradient_equality(problem, x, y)
    np.testing.assert_allclose(jac.matrix, np.eye(m) - np.ones((m, m)) / m,
                               atol=1e-12)


def test_linear_equality_vs_oracle():
    problem, solve = gallery.linear_equality_problem(
        4, 6, 2, seed=11, rhs_depends_on_x=False)
    x = np.array([0.1, 0.5, -0.3, 0.2])
    sol = solve(x)
    jac = gradient_equality(problem, x, sol.y, sol.multipliers)
    J_fd = fd_jacobian(lambda z: solve(z).y, x)
    scale = max(1.0, float(np.max(np.abs(J_fd))))
    assert np.max(np.abs(jac.matrix - J_fd)) / scale <= 1e-5


# --- pseudo-inverse descent ----------------------------------------------

def test_pseudo_inverse_zero_hessian():
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.0, input_dim=2, output_dim=2,
        derivatives=Derivatives(f_yy=lambda x, u: np.zeros((2, 2)),
                                f_xy=lambda x, u: np.eye(2)))
    jac = pseudo_inverse_descent(problem, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(jac.matrix, np.zeros((2, 2)))
    assert jac.rank_deficient_fallback


def test_pseudo_inverse_rank_one_consistency():
    # H+ H Dy = Dy must hold for the minimum-norm choice
    v = np.array([1.0, 2.0, -1.0])
    H = np.outer(v, v)
    B = np.array([[0.5, 0.1], [1.0, -0.2], [-0.5, 0.3]])
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.0, input_dim=2, output_dim=3,
        derivatives=Derivatives(f_yy=lambda x, u: H, f_xy=lambda x, u: B))
    jac = pseudo_inverse_descent(problem, np.zeros(2), np.zeros(3))
    Hp = np.linalg.pinv(H)
    np.testing.assert_allclose(Hp @ H @ jac.matrix, jac.matrix, atol=1e-12)


def test_pseudo_inverse_descent_on_a_well_conditioned_hessian():
    """H passes the condition gate, and the path still takes -H^+ B and
    flags the fallback."""
    problem, solve = gallery.strongly_convex_problem(3, 4, seed=31)
    x = np.array([0.4, -0.2, 0.9])
    y = solve(x).y
    ctx = build_context(problem, x, y)
    assert not ctx.rank_deficient_fallback
    jac = pseudo_inverse_descent(problem, x, y)
    assert jac.rank_deficient_fallback
    np.testing.assert_allclose(
        jac.matrix, -np.linalg.pinv(ctx.H, rcond=1e-10) @ ctx.B,
        rtol=0, atol=1e-12)


def test_pseudo_inverse_alignment_closed_form():
    problem, solve = gallery.spherical_alignment_problem(4)
    x = np.array([0.5, -0.5, 0.5, 0.5])
    y = solve(x).y
    jac = pseudo_inverse_descent(problem, x, y)
    nx = float(np.linalg.norm(x))
    expected = (np.eye(4) - np.outer(x, x) / nx ** 2) / nx
    np.testing.assert_allclose(jac.matrix, expected, atol=1e-8)


# --- contexts and VJPs ----------------------------------------------------

def test_vjp_basis_vector_extracts_rows():
    problem, solve = gallery.strongly_convex_problem(3, 2, seed=14)
    x = np.array([0.2, -0.1, 0.4])
    y = solve(x).y
    ctx = build_context(problem, x, y)
    Dy = jacobian_from_context(ctx)
    for k in range(2):
        e = np.zeros(2); e[k] = 1.0
        np.testing.assert_allclose(vjp(e, ctx), Dy[k], atol=1e-12)


def test_vjp_stream_matches_materialize_equality():
    problem, solve = gallery.linear_equality_problem(7, 4, 2, seed=15)
    rng = np.random.default_rng(15)
    x = rng.normal(size=7) * 0.4
    sol = solve(x)
    ctx = build_context(problem, x, sol.y, multipliers=sol.multipliers)
    v = rng.normal(size=4)
    a = vjp(v, ctx, mode="materialize")
    b = vjp(v, ctx, mode="stream_columns")
    assert np.max(np.abs(a - b)) <= 1e-12


def test_vjp_streaming_context_never_builds_b():
    problem, solve = gallery.wide_coupling_problem(4, 50, seed=16)
    rng = np.random.default_rng(16)
    x = rng.normal(size=50)
    y = solve(x).y
    ctx = build_context(problem, x, y)
    assert ctx.B is None and ctx.b_columns is not None
    v = rng.normal(size=4)
    out = vjp(v, ctx, mode="stream_columns")
    np.testing.assert_allclose(
        out, vjp(v, ctx, mode="materialize"), atol=1e-12)


def test_vjp_unknown_mode_rejected():
    problem, solve = gallery.strongly_convex_problem(2, 2, seed=17)
    x = np.array([0.1, 0.2])
    y = solve(x).y
    ctx = build_context(problem, x, y)
    with pytest.raises(ValueError):
        vjp(np.ones(2), ctx, mode="full")


def test_allocation_counter_tracks_peak():
    c = AllocationCounter()
    a = c.adopt(np.zeros(10))
    b = c.adopt(np.zeros((3, 4)))
    assert c.live == 22 and c.peak == 22 and c.total == 22
    c.release(a)
    assert c.live == 12 and c.peak == 22
    c.adopt(np.zeros(5))
    assert c.peak == 22 and c.total == 27
    assert b.shape == (3, 4)


def test_stream_vjp_auxiliary_storage_stays_small():
    m, n = 3, 400
    problem, solve = gallery.wide_coupling_problem(m, n, seed=18)
    rng = np.random.default_rng(18)
    x = rng.normal(size=n)
    y = solve(x).y
    ctx = build_context(problem, x, y)
    counter = AllocationCounter()
    vjp(rng.normal(size=m), ctx, mode="stream_columns", counter=counter)
    assert counter.peak < 10 * (m + n)

    dense = AllocationCounter()
    jacobian_from_context(ctx, counter=dense)
    assert dense.peak >= m * n          # materializing really is O(m n)


def test_build_context_auto_dispatch():
    feas_problem, feas_solve = gallery.two_branch_problem("plus")
    x = np.array([0.6])
    ctx = build_context(feas_problem, x, feas_solve(x).y)
    np.testing.assert_allclose(jacobian_from_context(ctx), [[1.0]], atol=1e-12)

    disc_problem, disc_solve = gallery.disc_inequality_problem(2)
    dx = np.array([1.5, 0.0])
    dsol = disc_solve(dx)
    ctx2 = build_context(disc_problem, dx, dsol.y,
                         multipliers=dsol.multipliers)
    jac = gradient_inequality(disc_problem, dx, dsol.y, dsol.multipliers)
    np.testing.assert_allclose(jacobian_from_context(ctx2), jac.matrix,
                               atol=1e-12)


def test_build_context_nan_y_is_a_node_error():
    problem, _ = gallery.strongly_convex_problem(4, 3, 0)
    with pytest.raises(NodeError, match=r"H shape \(3, 3\)"):
        build_context(problem, np.zeros(4), np.array([np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("count", [1, 3])
def test_equality_multiplier_length_is_checked(count):
    problem, solve = gallery.linear_equality_problem(5, 4, 2, 1)
    x = np.full(5, 0.3)
    sol = solve(x)
    lam = np.resize(sol.multipliers, count)     # p = 2 rows
    for call in (gradient_equality, build_context):
        with pytest.raises(DimensionMismatch,
                           match=rf"expected length 2 \(p\), got {count}"):
            call(problem, x, sol.y, multipliers=lam)


@pytest.mark.parametrize("count", [0, 2])
def test_inequality_multiplier_length_is_checked(count):
    problem, solve = gallery.disc_inequality_problem(2)
    x = np.array([1.5, 0.0])                    # active: p + q = 0 + 1
    sol = solve(x)
    lam = np.resize(sol.multipliers, count)
    for call in (gradient_inequality, build_context):
        with pytest.raises(DimensionMismatch,
                           match=rf"expected length 1 \(p \+ q\), got {count}"):
            call(problem, x, sol.y, multipliers=lam)


def test_nonfinite_multiplier_is_a_node_error():
    """The disc's multiplier 1 - ||x|| is -inf once ||x|| passes the float
    range; the engine names it rather than weighting curvature by it."""
    problem, solve = gallery.disc_inequality_problem(2)
    x = np.array([1e308, 1.7e308])
    sol = solve(x)
    assert sol.multipliers[0] == -np.inf
    with pytest.raises(UndefinedGradient,
                       match=r"multipliers of shape \(1,\) has 1 non-finite"):
        build_context(problem, x, sol.y, multipliers=sol.multipliers)


def test_build_context_pseudo_inverse_path():
    """The alignment problem's H alone is singular: with the constraint
    stripped, the context takes the pseudo-inverse."""
    problem, solve = gallery.spherical_alignment_problem(3)
    x = np.array([0.7, -0.1, 0.7])
    y = solve(x).y
    ctx = build_context(dataclasses.replace(problem, eq_constraints=None),
                        x, y)
    assert ctx.rank_deficient_fallback
    nx = float(np.linalg.norm(x))
    expected = (np.eye(3) - np.outer(x, x) / nx ** 2) / nx
    np.testing.assert_allclose(jacobian_from_context(ctx), expected, atol=1e-8)


def _recording(derivatives, calls):
    """derivatives with every callback appending its name to calls."""
    def wrap(name, fn):
        def recorded(*args):
            calls.append(name)
            return fn(*args)
        return recorded
    return Derivatives(**{name: wrap(name, fn)
                          for name, fn in vars(derivatives).items()
                          if fn is not None})


def test_build_context_nan_x_is_a_node_error():
    problem, _ = gallery.strongly_convex_problem(4, 3, 0)
    calls = []
    counted = dataclasses.replace(
        problem, derivatives=_recording(problem.derivatives, calls))
    x = np.array([np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(UndefinedGradient,
                       match=r"x of shape \(4,\) has 1 non-finite"):
        build_context(counted, x, np.zeros(3))
    assert calls == []                  # rejected before any callback ran


@pytest.mark.parametrize("make, field, value, x, y, match", [
    (lambda: gallery.two_branch_problem("plus"), "h_y", [[np.inf]],
     [0.5], [1.5], r"constraint Jacobian A of shape \(1, 1\) has 1 non-finite"),
    (lambda: gallery.two_branch_problem("plus"), "h_x", [[np.nan]],
     [0.5], [1.5], r"constraint Jacobian C of shape \(1, 1\) has 1 non-finite"),
    (lambda: gallery.linear_equality_problem(4, 5, 2, 0), "f_y",
     [np.inf, 0.0, 0.0, 0.0, np.nan], [0.0] * 4, [0.0] * 5,
     r"D_Y f of shape \(5,\) has 2 non-finite"),
], ids=["A", "C", "f_y"])
def test_build_context_nonfinite_stack_or_gradient_is_a_node_error(
        make, field, value, x, y, match):
    """A non-finite constraint Jacobian, or a non-finite D_Y f reaching
    multiplier recovery, is named before any factorisation."""
    problem, _ = make()
    d = dataclasses.replace(problem.derivatives,
                            **{field: lambda x, u: np.array(value)})
    with pytest.raises(UndefinedGradient, match=match):
        build_context(dataclasses.replace(problem, derivatives=d),
                      np.array(x), np.array(y))


def test_nonfinite_mixed_derivative_is_a_node_error():
    """A NaN f_xy at a finite (x, y) is named when the context is built,
    not returned as an all-NaN streamed vjp or met as cho_solve's raw
    ValueError by the materialized paths."""
    problem, solve = gallery.strongly_convex_problem(3, 2, 0)
    x = np.array([0.3, -0.2, 0.5])
    d = dataclasses.replace(problem.derivatives,
                            f_xy=lambda x, u: np.full((2, 3), np.nan))
    with pytest.raises(UndefinedGradient,
                       match=r"mixed derivative B of shape \(2, 3\) has 6 "
                             r"non-finite"):
        build_context(dataclasses.replace(problem, derivatives=d), x,
                      solve(x).y)


def test_nonfinite_b_columns_block_is_named_by_its_column_range():
    """A streamed B block with a NaN column raises UndefinedGradient naming
    the block's columns, in both vjp modes and in jacobian_from_context."""
    problem, solve = gallery.wide_coupling_problem(2, 5, 0)
    x = np.linspace(-0.5, 0.5, 5)
    columns = problem.derivatives.b_columns

    def b_columns(x, u, cols):
        block = columns(x, u, cols).copy()
        block[:, cols == 3] = np.nan
        return block

    d = dataclasses.replace(problem.derivatives, b_columns=b_columns)
    ctx = build_context(dataclasses.replace(problem, derivatives=d), x,
                        solve(x).y)
    v = np.array([1.0, -2.0])
    # blocks of n // m = 2 columns: 0..1, 2..3, 4..4
    with pytest.raises(UndefinedGradient,
                       match=r"B columns 2\.\.3 of shape \(2, 2\) has 2 "
                             r"non-finite"):
        vjp(v, ctx, mode="stream_columns")
    for apply in (lambda: vjp(v, ctx), lambda: jacobian_from_context(ctx)):
        with pytest.raises(UndefinedGradient, match=r"B columns 0\.\.4 "):
            apply()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("y", [[800.0, 0.0], [np.nan, 0.0]],
                         ids=["overflow", "nan"])
def test_numeric_derivative_of_nonfinite_value_is_undefined_gradient(y):
    """Without analytic derivatives, numdiff differences the objective; a
    non-finite value there (cosh(800) overflows) is an UndefinedGradient
    naming the shapes, not numdiff's raw ValueError."""
    problem = dataclasses.replace(gallery.strongly_convex_problem(3, 2, 0)[0],
                                  derivatives=None)
    with pytest.raises(UndefinedGradient,
                       match=r"x of shape \(3,\), y of shape \(2,\)"):
        build_context(problem, np.zeros(3), np.array(y))


def test_singular_hessian_fallback_fetches_second_derivatives_once():
    calls = []
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.0, input_dim=2, output_dim=2,
        derivatives=_recording(
            Derivatives(f_yy=lambda x, u: np.zeros((2, 2)),
                        f_xy=lambda x, u: np.eye(2)), calls))
    jac = gradient_unconstrained(problem, np.zeros(2), np.zeros(2))
    assert jac.rank_deficient_fallback
    assert sorted(calls) == ["f_xy", "f_yy"]


@pytest.mark.parametrize("field, value, want", [
    ("h_yy", lambda x, u, lam: np.ones(4), "expected shape (4, 4), got (4,)"),
    ("f_yy", lambda x, u: np.eye(4, 5), "expected shape (4, 4), got (4, 5)"),
    ("f_xy", lambda x, u: np.ones((3, 4)),
     "expected shape (4, 3), got (3, 4)"),
    ("h_xy", lambda x, u, lam: np.zeros(4), "expected shape (4, 3), got (4,)"),
    ("h_x", lambda x, u: np.ones((1, 4)), "expected shape (1, 3), got (1, 4)"),
    ("h_y", lambda x, u: np.ones((1, 3)), "expected shape (1, 4), got (1, 3)"),
], ids=["h_yy", "f_yy", "f_xy", "h_xy", "h_x", "h_y"])
def test_misshapen_derivative_block_is_dimension_mismatch(field, value, want):
    """A callback block of the wrong shape is named with the shape it
    returned and the one expected, not broadcast into H (h_yy of shape
    (m,)) or met as a raw numpy or scipy ValueError."""
    problem, solve = gallery.sphere_equality_problem(3, 4, 0)
    x = np.array([0.4, -0.3, 0.9])
    sol = solve(x)
    d = dataclasses.replace(problem.derivatives, **{field: value})
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"{field}: {want}")):
        gradient_equality(dataclasses.replace(problem, derivatives=d), x,
                          sol.y, sol.multipliers)


@pytest.mark.parametrize("numeric_f_yy", [False, True],
                         ids=["recovered_multipliers", "numeric_f_yy"])
def test_misshapen_f_y_is_dimension_mismatch(numeric_f_yy):
    """An f_y of shape (m + 1,) is named with both shapes, whether it
    meets multiplier recovery (no multipliers given) or the numeric f_yy
    pass (the solver's multipliers, no f_yy), not left to numpy's matmul
    or reshape."""
    problem, solve = gallery.sphere_equality_problem(3, 4, 0)
    x = np.array([0.4, -0.3, 0.9])
    sol = solve(x)
    fields = {"f_y": lambda x, u: np.ones(5)}
    if numeric_f_yy:
        fields["f_yy"] = None
    d = dataclasses.replace(problem.derivatives, **fields)
    with pytest.raises(DimensionMismatch,
                       match=re.escape("f_y: expected shape (4,), got (5,)")):
        build_context(dataclasses.replace(problem, derivatives=d), x, sol.y,
                      sol.multipliers if numeric_f_yy else None)


def test_missing_mixed_block_costs_one_pass_in_x():
    """Without f_xy the engine differences f_y in x only: 2n calls, and
    the analytic f_yy spares the 2m of a pass in y."""
    n, m = 3, 4
    problem, solve = gallery.strongly_convex_problem(n, m, 0)
    x = np.array([0.3, -0.2, 0.5])
    y = solve(x).y
    calls = []
    d = _recording(dataclasses.replace(problem.derivatives, f_xy=None), calls)
    build_context(dataclasses.replace(problem, derivatives=d), x, y)
    assert calls.count("f_y") == 2 * n and calls.count("f_yy") == 1


def test_missing_constraint_curvature_costs_one_pass_per_variable():
    """Numeric h curvature differences h_y once in y and once in x and
    never evaluates h to count its rows: 1 + 2(m + n) h_y calls in all."""
    n, m, p = 10, 20, 8
    problem, solve = gallery.linear_equality_problem(n, m, p, 3)
    x = np.linspace(-0.5, 0.5, n)
    sol = solve(x)
    calls = []

    def h(x, u):
        calls.append("h")
        return problem.eq_constraints(x, u)

    d = _recording(dataclasses.replace(problem.derivatives, h_yy=None,
                                       h_xy=None), calls)
    build_context(dataclasses.replace(problem, eq_constraints=h,
                                      derivatives=d),
                  x, sol.y, multipliers=sol.multipliers)
    assert calls.count("h") == 0
    assert calls.count("h_y") == 1 + 2 * (m + n)


def _one_apply_scenarios():
    """name -> () -> (context, expected stack rows)."""
    def unconstrained():
        problem, solve = gallery.strongly_convex_problem(3, 2, seed=21)
        x = np.array([0.3, -0.7, 0.2])
        return build_context(problem, x, solve(x).y), 0

    def equality(make, n, rows):
        def build():
            problem, solve = make()
            x = np.linspace(-0.4, 0.5, n)
            sol = solve(x)
            return build_context(problem, x, sol.y, sol.multipliers), rows
        return build

    def disc(x, branch="constrained", rows=1):
        def build():
            problem, solve = gallery.disc_inequality_problem(2)
            sol = solve(np.array(x))
            ctx = build_context(problem, np.array(x), sol.y, sol.multipliers,
                                zero_multiplier_branch=branch)
            return ctx, rows
        return build

    def feasibility_square():
        problem, solve = gallery.two_branch_problem("plus")
        x = np.array([0.8])
        return build_context(problem, x, solve(x).y), 1

    def feasibility_one_row():
        problem = DeclarativeProblem(
            objective=None, input_dim=1, output_dim=2,
            eq_constraints=lambda x, u: np.array([u[0] + u[1] - x[0]]))
        ctx = build_context(problem, np.array([1.0]), np.array([0.5, 0.5]))
        assert ctx.rank_deficient_fallback
        return ctx, 1

    def alignment():
        problem, solve = gallery.spherical_alignment_problem(3)
        x = np.array([0.7, -0.1, 0.7])
        return build_context(dataclasses.replace(
            problem, eq_constraints=None), x, solve(x).y), 0

    def wide():
        problem, solve = gallery.wide_coupling_problem(4, 50, seed=22)
        x = np.random.default_rng(22).normal(size=50)
        ctx = build_context(problem, x, solve(x).y)
        assert ctx.B is None
        return ctx, 0

    return {
        "unconstrained": unconstrained,
        "equality-linear": equality(
            lambda: gallery.linear_equality_problem(4, 5, 2, seed=23), 4, 2),
        "equality-sphere": equality(
            lambda: gallery.sphere_equality_problem(3, 4, seed=24), 3, 1),
        "disc-inactive": disc([0.3, 0.4], rows=0),
        "disc-active": disc([1.2, 1.6]),
        "disc-touching-constrained": disc([0.6, 0.8]),
        "disc-touching-unconstrained": disc([0.6, 0.8], "unconstrained", 0),
        "feasibility-square": feasibility_square,
        "feasibility-one-row": feasibility_one_row,
        "alignment-pseudo-inverse": alignment,
        "streamed-wide": wide,
    }


@pytest.mark.parametrize("scenario", sorted(_one_apply_scenarios()))
def test_one_apply_serves_every_path(scenario):
    """Both vjp modes and v @ jacobian_from_context agree on every path, and
    active inequality and feasibility rows live in the context's stack."""
    ctx, rows = _one_apply_scenarios()[scenario]()
    assert ctx.A.shape[0] == rows
    Dy = jacobian_from_context(ctx)
    rng = np.random.default_rng(0)
    for _ in range(3):
        v = rng.normal(size=Dy.shape[0])
        streamed = vjp(v, ctx, mode="stream_columns")
        np.testing.assert_allclose(streamed, v @ Dy, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vjp(v, ctx, mode="materialize"), v @ Dy,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("scenario", sorted(
    set(_one_apply_scenarios()) - {"alignment-pseudo-inverse"}))
def test_one_apply_is_the_dense_kkt_solve(scenario):
    """Every context whose factor is not the pseudo-inverse differentiates
    to the top block of the dense saddle-point solve
    [[H, A^T], [A, 0]] [Dy; S] = [-B; -C], and its streamed vjp to v @
    that block."""
    ctx, _ = _one_apply_scenarios()[scenario]()
    H, A, C = ctx.H, ctx.A, ctx.C
    B = ctx.B if ctx.B is not None else ctx.b_columns(np.arange(ctx.n))
    m, k = H.shape[0], A.shape[0]
    K = np.block([[H, A.T], [A, np.zeros((k, k))]])
    dense = np.linalg.solve(K, -np.vstack([B, C]))[:m]
    Dy = jacobian_from_context(ctx)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(Dy - dense)) <= 1e-10 * scale
    rng = np.random.default_rng(1)
    for _ in range(3):
        v = rng.normal(size=m)
        np.testing.assert_allclose(vjp(v, ctx, mode="stream_columns"),
                                   v @ dense, rtol=0, atol=1e-12)


def test_gradient_paths_registry_is_complete():
    assert GRADIENT_PATHS == ("unconstrained", "equality", "inequality",
                              "feasibility", "pseudo_inverse", "vjp")


# --- contracted constraint curvature ----------------------------------------

def _per_row_lagrangian(f_yy, f_xy, lam, rows_yy, rows_xy):
    """The per-row Lagrangian H, B the engine formed before the callbacks
    took the multipliers: one subtraction per constraint row."""
    H, B = 0.5 * (f_yy + f_yy.T), f_xy.copy()
    for l, yy, xy in zip(lam, rows_yy, rows_xy):
        H -= l * yy
        B -= l * xy
    return 0.5 * (H + H.T), B


def test_contracted_curvature_matches_per_row_sum_analytic():
    problem, solve = gallery.sphere_equality_problem(5, 4, seed=3)
    x = np.array([0.4, -0.3, 0.9, 0.1, -0.6])
    sol = solve(x)
    ctx = build_context(problem, x, sol.y, multipliers=sol.multipliers)
    d = problem.derivatives
    # the per-row blocks of h = (u'u - 1)/2: D2_YY h = I, D2_XY h = 0
    H, B = _per_row_lagrangian(d.f_yy(x, sol.y), d.f_xy(x, sol.y),
                               sol.multipliers, np.eye(4)[None],
                               np.zeros((1, 4, 5)))
    assert sol.multipliers[0] != 0.0
    np.testing.assert_allclose(ctx.H, H, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ctx.B, B, rtol=0, atol=1e-12)


def _three_curved_rows():
    """m = 4, n = 3: f = u'u/2 - u[:3]'x and three nonlinear equality rows
    with analytic first derivatives only, so numdiff supplies curvature."""
    def h(x, u):
        return np.array([u[0] ** 2 + x[0] * u[1] - 1.0,
                         u[2] * u[3] + x[1] * np.sin(u[0]),
                         x[2] * np.exp(0.1 * u[1]) + u[3] ** 2])

    def h_y(x, u):
        return np.array([[2.0 * u[0], x[0], 0.0, 0.0],
                         [x[1] * np.cos(u[0]), 0.0, u[3], u[2]],
                         [0.0, 0.1 * x[2] * np.exp(0.1 * u[1]), 0.0,
                          2.0 * u[3]]])

    def h_x(x, u):
        return np.array([[u[1], 0.0, 0.0], [0.0, np.sin(u[0]), 0.0],
                         [0.0, 0.0, np.exp(0.1 * u[1])]])

    def rows(x, u):
        """Analytic per-row D2_YY h_i and D2_XY h_i."""
        yy = np.zeros((3, 4, 4)); xy = np.zeros((3, 4, 3))
        yy[0, 0, 0] = 2.0
        yy[1, 0, 0] = -x[1] * np.sin(u[0])
        yy[1, 2, 3] = yy[1, 3, 2] = 1.0
        yy[2, 1, 1] = 0.01 * x[2] * np.exp(0.1 * u[1])
        yy[2, 3, 3] = 2.0
        xy[0, 1, 0] = 1.0
        xy[1, 0, 1] = np.cos(u[0])
        xy[2, 1, 2] = 0.1 * np.exp(0.1 * u[1])
        return yy, xy

    f_xy = -np.eye(4, 3)
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(u @ u) - float(u[:3] @ x),
        input_dim=3, output_dim=4, eq_constraints=h,
        derivatives=Derivatives(f_y=lambda x, u: u - np.append(x, 0.0),
                                f_yy=lambda x, u: np.eye(4),
                                f_xy=lambda x, u: f_xy, h_y=h_y, h_x=h_x))
    return problem, rows


def test_contracted_curvature_matches_per_row_sum_numeric():
    problem, rows = _three_curved_rows()
    x = np.array([0.5, -1.2, 0.8])
    y = np.array([0.7, -0.4, 0.3, 0.9])
    lam = np.array([0.3, -0.7, 0.45])
    ctx = build_context(problem, x, y, multipliers=lam)
    assert ctx.A.shape == (3, 4)
    blocks = fd_hessian_blocks(dataclasses.replace(problem, objective=None),
                               x, y)
    H, B = _per_row_lagrangian(np.eye(4), -np.eye(4, 3), lam, blocks.h_yy,
                               blocks.h_xy)
    np.testing.assert_allclose(ctx.H, H, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ctx.B, B, rtol=0, atol=1e-12)
    # and both are the Lagrangian of the analytic rows, to fd accuracy
    H_exact, B_exact = _per_row_lagrangian(np.eye(4), -np.eye(4, 3), lam,
                                           *rows(x, y))
    np.testing.assert_allclose(ctx.H, H_exact, rtol=0, atol=1e-6)
    np.testing.assert_allclose(ctx.B, B_exact, rtol=0, atol=1e-6)


def test_curvature_callbacks_get_stack_multipliers():
    """g callbacks see q multipliers with zeros on the inactive rows; a
    family whose multipliers are all zero is never called."""
    n = 2
    seen = []

    def g_yy(x, u, lam):
        seen.append(np.array(lam))
        return lam[0] * np.eye(n)

    def never(*args):
        raise AssertionError("curvature of a zero-multiplier family fetched")

    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
        input_dim=n, output_dim=n,
        eq_constraints=lambda x, u: np.array([u[0] - u[1]]),
        ineq_constraints=lambda x, u: np.array([0.5 * (u @ u - 1.0),
                                                u[0] - 5.0]),
        derivatives=Derivatives(
            f_y=lambda x, u: u - x, f_yy=lambda x, u: np.eye(n),
            f_xy=lambda x, u: -np.eye(n),
            h_y=lambda x, u: np.array([[1.0, -1.0]]),
            h_x=lambda x, u: np.zeros((1, n)), h_yy=never, h_xy=never,
            g_y=lambda x, u: np.array([u, [1.0, 0.0]]),
            g_x=lambda x, u: np.zeros((2, n)), g_yy=g_yy,
            g_xy=lambda x, u, lam: np.zeros((n, n))))
    y = np.full(n, np.sqrt(0.5))            # on the circle, far from u0 = 5
    x = 2.0 * y
    # the caller's 0.3 on the inactive second row does not reach g_yy
    ctx = build_context(problem, x, y, multipliers=[0.0, -1.0, 0.3])
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], [-1.0, 0.0])
    np.testing.assert_allclose(ctx.H, 2.0 * np.eye(n), rtol=0, atol=1e-15)


@pytest.mark.parametrize("make, x", [
    (lambda: gallery.linear_equality_problem(6, 5, 2, seed=4),
     [0.3, -1.1, 0.6, 0.2, -0.4, 0.9]),
    (lambda: gallery.sphere_equality_problem(3, 4, 24), [0.4, -0.3, 0.9]),
    (lambda: gallery.disc_inequality_problem(3), [1.5, -0.5, 0.8]),
], ids=["linear-zero", "sphere", "disc"])
def test_curvature_subtraction_keeps_the_bits_of_the_full_formula(make, x):
    """H and B are bit for bit 0.5 ((H_f - yy) + (H_f - yy)^T) and B_f - xy:
    an exactly-zero curvature (the linear constraints') is skipped with no
    bit moved, and a non-zero one (sphere, disc) is still subtracted."""
    problem, solve = make()
    x = np.array(x)
    sol = solve(x)
    ctx = build_context(problem, x, sol.y, multipliers=sol.multipliers)
    f_yy, B_f = _curvature(problem, x, sol.y, "f", np.ones(1))
    H_f = 0.5 * (f_yy + f_yy.T)
    d, which = problem.derivatives, "h" if problem.eq_constraints else "g"
    yy = getattr(d, which + "_yy")(x, sol.y, sol.multipliers)
    xy = getattr(d, which + "_xy")(x, sol.y, sol.multipliers)
    H = H_f - yy
    assert ctx.H.tobytes() == (0.5 * (H + H.T)).tobytes()
    assert ctx.B.tobytes() == (B_f - xy).tobytes()
    assert yy.any() == (ctx.H.tobytes() != H_f.tobytes())


def test_build_context_memory_on_linear_constraints():
    """Linear constraints contribute one (m, m) and one (m, n) block of
    zeros, not p of each: 21 MB of per-row zeros at (400, 200, 20)."""
    problem, solve = gallery.linear_equality_problem(400, 200, 20, seed=0)
    x = np.random.default_rng(0).standard_normal(400)
    sol = solve(x)
    tracemalloc.start()
    try:
        build_context(problem, x, sol.y, multipliers=sol.multipliers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"build_context peak {peak / 1e6:.1f} MB"


# --- direct LAPACK calls against scipy.linalg's wrappers --------------------

def _symmetric(m, definite, seed):
    """An SPD matrix, or the same with its first diagonal entry negated."""
    G = np.random.default_rng(seed).normal(size=(m, m))
    H = G.T @ G / m + 0.5 * np.eye(m)
    if not definite:
        H[0, 0] = -H[0, 0]
    return H


@pytest.mark.parametrize("definite", [True, False], ids=["spd", "not-pd"])
@pytest.mark.parametrize("m", [1, 7, 60, 200])
def test_factor_solve_keeps_the_bits_of_cho_solve_and_lu_solve(definite, m):
    """_Factor.solve calls dpotrs / dgetrs itself; its result, for vector
    and (m, k) right-hand sides in C and F order, is cho_solve's
    (Cholesky) or lu_solve's (LU, for an H that is not positive definite)
    bit for bit."""
    import scipy.linalg
    H = _symmetric(m, definite, seed=m)
    f = _Factor(H)
    assert (f._cho is not None) == definite
    rng = np.random.default_rng(m + 1)
    for rhs in (rng.normal(size=m), rng.normal(size=(m, 3)),
                np.asfortranarray(rng.normal(size=(m, 5)))):
        if definite:
            ref = scipy.linalg.cho_solve(f._cho, rhs, check_finite=False)
        else:
            ref = scipy.linalg.lu_solve(f._lu, rhs, check_finite=False)
        out = f.solve(rhs)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


def _qr_rank_repair(A):
    """The rank repair written on scipy.linalg.qr, as the reference."""
    import scipy.linalg
    _, R, piv = scipy.linalg.qr(A.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return np.array([], dtype=int), np.arange(A.shape[0])
    nkeep = int(np.sum(diag >= PIVOT_RTOL * diag[0]))
    return np.sort(piv[:nkeep]), np.sort(piv[nkeep:])


def _stacks():
    """Random stacks, stacks with rows that are combinations of others up
    to noise around the pivot cutoff, more rows than columns, and p > 32
    rows (past dgeqp3's block size)."""
    rng = np.random.default_rng(0)
    for p, m in [(1, 5), (3, 3), (8, 20), (20, 200), (40, 30), (45, 120),
                 (119, 200)]:
        yield rng.normal(size=(p, m))
        r = max(1, p // 2)
        for noise in (1e-8, 1e-10, 1e-11, 1e-13, 0.0):
            low = rng.normal(size=(p, r)) @ rng.normal(size=(r, m))
            yield low + noise * rng.normal(size=(p, m))


def test_rank_repair_keeps_the_rows_of_scipy_pivoted_qr():
    """_rank_repair calls dgeqp3 itself and never forms Q; it keeps and
    drops the rows that scipy.linalg.qr's pivots and R diagonal give."""
    some_dropped = 0
    for A in _stacks():
        kept, dropped = _rank_repair(A)
        ref_kept, ref_dropped = _qr_rank_repair(A)
        assert np.array_equal(kept, ref_kept), A.shape
        assert np.array_equal(dropped, ref_dropped), A.shape
        some_dropped += dropped.size > 0
    assert some_dropped >= 10
