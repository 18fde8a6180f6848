"""Domain types, validation, and the post-solve Solution invariants."""

import numpy as np
import pytest

from optnode.core import (DeclarativeProblem, Derivatives, DimensionMismatch,
                          InfeasibleProblem, Jacobian, Solution, SolverDiverged,
                          SolverInfo, solution_residuals, validate_problem)
from optnode import gallery, implicit_diff, pooling, projection


def _quadratic_problem(n=3):
    return DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
        input_dim=n, output_dim=n)


def test_validate_wellformed_pooling_problem():
    problem = pooling.as_problem(pooling.PenaltySpec("quadratic"), 3)
    dims = validate_problem(problem)
    assert (dims.n, dims.m, dims.p, dims.q) == (3, 1, 0, 0)


def test_validate_rejects_vector_objective():
    bad = DeclarativeProblem(objective=lambda x, u: u, input_dim=2, output_dim=2)
    with pytest.raises(DimensionMismatch):
        validate_problem(bad)


def test_validate_rejects_overdetermined_equalities():
    # p = m + 1 equality rows
    bad = DeclarativeProblem(
        objective=lambda x, u: float(u @ u),
        input_dim=2, output_dim=2,
        eq_constraints=lambda x, u: np.array([u[0], u[1], u[0] + u[1]]))
    with pytest.raises(DimensionMismatch):
        validate_problem(bad)


def test_validate_rejects_bad_derivative_shape():
    bad = DeclarativeProblem(
        objective=lambda x, u: float(u @ u), input_dim=2, output_dim=2,
        derivatives=Derivatives(f_y=lambda x, u: np.zeros(3)))
    with pytest.raises(DimensionMismatch):
        validate_problem(bad)


def test_validate_requires_objective_or_constraints():
    with pytest.raises(DimensionMismatch):
        validate_problem(DeclarativeProblem(objective=None, input_dim=1,
                                            output_dim=1))


def test_problem_rejects_nonpositive_dims():
    with pytest.raises(DimensionMismatch):
        DeclarativeProblem(objective=lambda x, u: 0.0, input_dim=0, output_dim=1)


def test_solution_arrays_are_frozen():
    sol = Solution(y=np.array([1.0]), multipliers=np.zeros(0),
                   active_set=np.zeros(0, dtype=bool), objective_value=0.0,
                   solver_info=SolverInfo(iterations=1, converged=True))
    with pytest.raises(ValueError):
        sol.y[0] = 2.0


def test_jacobian_matrix_is_frozen():
    jac = Jacobian(np.eye(2))
    with pytest.raises(ValueError):
        jac.matrix[0, 0] = 5.0


def test_error_detail_carries_dimensions():
    """Every raised NodeError names the offending shapes or condition
    estimate, so failures are diagnosable from the message alone."""
    problem = _quadratic_problem(2)
    singular = DeclarativeProblem(
        objective=problem.objective, input_dim=2, output_dim=2,
        derivatives=Derivatives(f_yy=lambda x, u: np.zeros((2, 2)),
                                f_xy=lambda x, u: -np.eye(2)))
    with pytest.raises(implicit_diff.SingularHessian) as err:
        implicit_diff.gradient_unconstrained(singular, np.zeros(2), np.zeros(2),
                                             pseudo_inverse_fallback=False)
    assert "cond" in str(err.value) and "(2, 2)" in str(err.value)

    with pytest.raises(DimensionMismatch) as err2:
        validate_problem(DeclarativeProblem(
            objective=lambda x, u: u, input_dim=2, output_dim=2))
    assert "scalar" in str(err2.value)


# --- Solution invariants post-solve, for each built-in node family --------

def _assert_solution_invariants(problem, x, sol, tol=1e-7):
    res = solution_residuals(problem, x, sol)
    assert res.stationarity <= tol
    assert res.eq_violation <= tol
    assert res.ineq_violation <= tol
    assert res.sign_violation <= tol   # active inequality multipliers <= 0


def test_solution_invariants_gallery_unconstrained():
    problem, solve = gallery.strongly_convex_problem(3, 4, seed=0)
    x = np.array([0.3, -0.5, 0.8])
    _assert_solution_invariants(problem, x, solve(x))


def test_solution_invariants_gallery_linear_equality():
    problem, solve = gallery.linear_equality_problem(3, 5, 2, seed=1)
    x = np.array([0.2, 0.4, -0.1])
    sol = solve(x)
    assert sol.multipliers.shape == (2,)
    _assert_solution_invariants(problem, x, sol)


def test_solution_invariants_gallery_sphere():
    problem, solve = gallery.sphere_equality_problem(3, 4, seed=2)
    x = np.array([0.5, -0.2, 0.9])
    _assert_solution_invariants(problem, x, solve(x))


def test_solution_invariants_disc_active_and_inactive():
    problem, solve = gallery.disc_inequality_problem(3)
    inside = np.array([0.2, 0.1, -0.3])
    sol_in = solve(inside)
    assert not sol_in.active_set.any()
    assert sol_in.multipliers[0] == 0.0
    _assert_solution_invariants(problem, inside, sol_in)

    outside = np.array([1.2, -0.9, 0.6])
    sol_out = solve(outside)
    assert sol_out.active_set.all()
    assert sol_out.multipliers[0] < 0.0   # sign condition, active row
    _assert_solution_invariants(problem, outside, sol_out)


GALLERY = {
    "strongly_convex": lambda: gallery.strongly_convex_problem(4, 3, 0),
    "linear_equality": lambda: gallery.linear_equality_problem(4, 5, 2, 0),
    "sphere_equality": lambda: gallery.sphere_equality_problem(4, 3, 0),
    "disc_inequality": lambda: gallery.disc_inequality_problem(3),
    "circle_equality": lambda: gallery.circle_equality_problem(3),
    "spherical_alignment": lambda: gallery.spherical_alignment_problem(3),
    "two_branch": lambda: gallery.two_branch_problem("minus"),
    "wide_coupling": lambda: gallery.wide_coupling_problem(3, 6, 0),
}


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_solve_rejects_nonfinite_input(name):
    """Every gallery solve names a non-finite x before any work."""
    problem, solve = GALLERY[name]()
    n = problem.input_dim
    for bad in (np.inf, -np.inf, np.nan):
        x = np.full(n, 0.6)
        x[-1] = bad
        with pytest.raises(InfeasibleProblem, match=rf"1 non-finite of n={n} "):
            solve(x)


def test_gallery_solve_nonfinite_output_is_solver_diverged():
    """W x overflows on a finite x: the wide solve reports it rather than
    letting scipy's finiteness check raise a ValueError."""
    _, solve = GALLERY["wide_coupling"]()
    with pytest.raises(SolverDiverged, match=r"non-finite y of m=3 .* n=6"):
        solve(np.full(6, 1e308))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["disc_inequality", "circle_equality",
                                  "spherical_alignment"])
def test_gallery_sphere_solves_survive_norm_overflow(name):
    """||x|| overflows when squared although it is finite: y is still the
    unit direction of x."""
    _, solve = GALLERY[name]()
    y = solve(np.array([1e308, 1e308, 0.0])).y
    np.testing.assert_allclose(y, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
                               rtol=1e-15, atol=0.0)
    assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-15)


def test_solution_invariants_pooling():
    rng = np.random.default_rng(3)
    x = rng.normal(size=8)
    for kind in ("quadratic", "pseudo_huber", "welsch"):
        spec = pooling.PenaltySpec(kind, alpha=1.0)
        sol = pooling.robust_pool(x, spec)
        problem = pooling.as_problem(spec, 8)
        _assert_solution_invariants(problem, x, sol)
        assert sol.solver_info.converged


def test_solution_invariants_projection():
    # the smooth single-constraint formulation holds off the plateau points:
    # full support for L1, one clipped coordinate for Linf
    points = {"l1": np.array([0.9, -0.8, 0.7]),
              "l2": np.array([1.3, -0.4, 0.7]),
              "linf": np.array([1.4, -0.2, 0.6])}
    for norm, x in points.items():
        spec = projection.ProjectionSpec(norm)
        sol = projection.project(x, spec)
        problem = projection.as_problem(spec, 3)
        _assert_solution_invariants(problem, x, sol)


def test_jacobian_dims_for_every_gradient_path():
    """Each gradient path returns an (m, n) matrix."""
    shapes = {}

    problem, solve = gallery.strongly_convex_problem(3, 2, seed=5)
    x = np.array([0.1, 0.2, -0.4])
    y = solve(x).y
    shapes["unconstrained"] = implicit_diff.gradient_unconstrained(
        problem, x, y).matrix.shape
    shapes["pseudo_inverse"] = implicit_diff.pseudo_inverse_descent(
        problem, x, y).matrix.shape

    eq_problem, eq_solve = gallery.linear_equality_problem(3, 4, 2, seed=5)
    sol = eq_solve(x)
    shapes["equality"] = implicit_diff.gradient_equality(
        eq_problem, x, sol.y, sol.multipliers).matrix.shape

    disc_problem, disc_solve = gallery.disc_inequality_problem(3)
    dx = np.array([1.4, -0.2, 0.6])
    dsol = disc_solve(dx)
    shapes["inequality"] = implicit_diff.gradient_inequality(
        disc_problem, dx, dsol.y, dsol.multipliers).matrix.shape

    feas_problem, feas_solve = gallery.two_branch_problem("plus")
    fx = np.array([0.7])
    shapes["feasibility"] = implicit_diff.gradient_feasibility(
        feas_problem, fx, feas_solve(fx).y).matrix.shape

    ctx = implicit_diff.build_context(problem, x, y)
    shapes["vjp"] = implicit_diff.jacobian_from_context(ctx).shape

    expected = {"unconstrained": (2, 3), "pseudo_inverse": (2, 3),
                "equality": (4, 3), "inequality": (3, 3),
                "feasibility": (1, 1), "vjp": (2, 3)}
    assert shapes == expected
    assert set(implicit_diff.GRADIENT_PATHS) == set(expected)
