"""Projection nodes: exact solver outputs, closed-form gradients, masked
variants against the fd oracle, and the ball/sphere regimes."""

import math

import numpy as np
import pytest

from optnode.core import (DeclarativeProblem, Derivatives, DimensionMismatch,
                          InfeasibleProblem, Solution, SolverInfo,
                          UndefinedGradient)
from optnode.implicit_diff import gradient_equality, gradient_inequality
from optnode.numdiff import FdConfig, fd_jacobian
from optnode.projection import (Norm, ProjectionSpec, Surface, project,
                                project_gradient, project_vjp, as_problem)

ALL_SPHERES = [ProjectionSpec(n) for n in ("l1", "l2", "linf")]
ALL_BALLS = [ProjectionSpec(n, surface="ball") for n in ("l1", "l2", "linf")]


def _p_norm(v, norm):
    if norm is Norm.L1:
        return float(np.sum(np.abs(v)))
    if norm is Norm.L2:
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))


def test_spec_coerces_strings():
    spec = ProjectionSpec("linf", surface="ball", radius=2.0)
    assert spec.norm is Norm.LINF and spec.surface is Surface.BALL


def test_spec_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        ProjectionSpec("l2", radius=0.0)


def test_spec_rejects_infinite_radius():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            ProjectionSpec("l2", radius=bad)


def test_l2_sphere_normalizes():
    sol = project(np.array([3.0, 4.0]), ProjectionSpec("l2"))
    np.testing.assert_allclose(sol.y, [0.6, 0.8], atol=1e-15)
    assert sol.multipliers[0] == pytest.approx(-4.0, abs=1e-12)


def test_l1_sphere_vertex_point():
    sol = project(np.array([2.0, 0.75]), ProjectionSpec("l1"))
    np.testing.assert_allclose(sol.y, [1.0, 0.0], atol=1e-12)


def test_linf_sphere_face_point():
    sol = project(np.array([2.0, 0.75]), ProjectionSpec("linf"))
    np.testing.assert_allclose(sol.y, [1.0, 0.75], atol=1e-12)


def test_l1_sphere_interior_support():
    # all coordinates survive when the threshold stays below the smallest
    x = np.array([0.9, -0.8, 0.7])
    sol = project(x, ProjectionSpec("l1"))
    expected = np.abs(x) - (2.4 - 1.0) / 3
    np.testing.assert_allclose(sol.y, np.sign(x) * expected, atol=1e-12)


def test_l2_sphere_rejects_origin():
    with pytest.raises(InfeasibleProblem):
        project(np.zeros(2), ProjectionSpec("l2"))


def test_interior_points_pushed_to_sphere():
    # inputs strictly inside the unit object still land on the sphere
    x = np.array([0.3, -0.1, 0.2])
    for spec in ALL_SPHERES:
        y = project(x, spec).y
        assert _p_norm(y, spec.norm) == pytest.approx(1.0, abs=1e-10)


def test_linf_interior_pushes_all_tied_coordinates():
    x = np.array([0.4, -0.4, 0.1])
    y = project(x, ProjectionSpec("linf")).y
    np.testing.assert_allclose(y, [1.0, -1.0, 0.1], atol=1e-12)


@pytest.mark.parametrize("spec", ALL_SPHERES + ALL_BALLS,
                         ids=lambda s: f"{s.norm.value}-{s.surface.value}")
def test_idempotence_and_feasibility(spec):
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=4) * 2.0
        if spec.norm is Norm.L2 and np.linalg.norm(x) < 1e-6:
            continue
        y = project(x, spec).y
        y2 = project(y.copy(), spec).y
        np.testing.assert_allclose(y2, y, atol=1e-12)
        if spec.surface is Surface.SPHERE:
            assert _p_norm(y, spec.norm) == pytest.approx(1.0, abs=1e-10)
        else:
            assert _p_norm(y, spec.norm) <= 1.0 + 1e-10


def test_l2_gradient_closed_form():
    x = np.array([3.0, 4.0])
    sol = project(x, ProjectionSpec("l2"))
    jac = project_gradient(x, ProjectionSpec("l2"), sol.y)
    expected = np.array([[0.128, -0.096], [-0.096, 0.072]])
    np.testing.assert_allclose(jac.matrix, expected, atol=1e-10)


def test_l2_gradient_spectrum():
    # eigenvalue 0 along y, 1/||x|| across it
    rng = np.random.default_rng(13)
    x = rng.normal(size=4) * 1.5
    sol = project(x, ProjectionSpec("l2"))
    jac = project_gradient(x, ProjectionSpec("l2"), sol.y)
    nx = float(np.linalg.norm(x))
    np.testing.assert_allclose(jac.matrix @ sol.y, np.zeros(4), atol=1e-12)
    evals = np.sort(np.linalg.eigvalsh(jac.matrix))
    np.testing.assert_allclose(evals, [0.0] + [1.0 / nx] * 3, atol=1e-10)


def test_l2_gradient_undefined_at_origin():
    with pytest.raises(UndefinedGradient):
        project_gradient(np.zeros(2), ProjectionSpec("l2"), np.array([1.0, 0.0]))


def test_linf_masked_face_gradient():
    x = np.array([2.0, 0.75])
    spec = ProjectionSpec("linf", masked_gradient=True)
    y = project(x, spec).y
    jac = project_gradient(x, spec, y)
    np.testing.assert_allclose(jac.matrix, np.diag([0.0, 1.0]), atol=1e-15)


def test_l1_masked_vertex_gradient_matches_fd():
    """At the vertex the fd oracle sees a locally constant plateau in the
    dropped coordinate; the masked form reproduces that zero row."""
    x = np.array([2.0, 0.75])
    spec = ProjectionSpec("l1", masked_gradient=True)
    y = project(x, spec).y
    jac = project_gradient(x, spec, y)
    J_fd = fd_jacobian(lambda z: project(z, spec).y, x)
    np.testing.assert_allclose(jac.matrix, J_fd, atol=1e-6)
    assert np.max(np.abs(jac.matrix[:, 1])) == 0.0   # plateau column


def test_sphere_tangency_invariant():
    rng = np.random.default_rng(23)
    for spec in ALL_SPHERES:
        for _ in range(6):
            x = rng.normal(size=4) * 1.8
            sol = project(x, spec)
            y = sol.y
            try:
                jac = project_gradient(x, spec, y)
            except UndefinedGradient:
                continue
            if spec.norm is Norm.L2:
                a = y
            elif spec.norm is Norm.L1:
                a = np.sign(y)          # support coordinates only
            else:
                tie = np.abs(y) >= np.max(np.abs(y)) - 1e-9
                a = np.where(tie, np.sign(y), 0.0)
            assert np.max(np.abs(a @ jac.matrix)) <= 1e-8


def test_generic_engine_agreement_at_smooth_points():
    """gradient_equality on the declarative formulation equals the closed
    forms where h is smooth (no ties, no zero coordinates)."""
    cases = {
        "l1": np.array([0.9, -0.8, 0.7]),       # full support
        "l2": np.array([1.3, -0.4, 0.7]),
        "linf": np.array([1.4, -0.2, 0.6]),     # single max coordinate
    }
    for norm, x in cases.items():
        spec = ProjectionSpec(norm)
        sol = project(x, spec)
        closed = project_gradient(x, spec, sol.y)
        problem = as_problem(spec, 3)
        engine = gradient_equality(problem, x, sol.y)
        np.testing.assert_allclose(engine.matrix, closed.matrix, atol=1e-8,
                                   err_msg=norm)


def test_unmasked_matches_fd_at_smooth_points():
    cases = {
        "l1": np.array([0.9, -0.8, 0.7]),
        "l2": np.array([1.3, -0.4, 0.7]),
        "linf": np.array([1.4, -0.2, 0.6]),
    }
    for norm, x in cases.items():
        spec = ProjectionSpec(norm)
        sol = project(x, spec)
        jac = project_gradient(x, spec, sol.y)
        J_fd = fd_jacobian(lambda z: project(z, spec).y, x)
        np.testing.assert_allclose(jac.matrix, J_fd, atol=1e-6, err_msg=norm)


def test_ball_interior_identity_and_zero_gradient():
    x = np.array([0.1, 0.2])
    for spec in ALL_BALLS:
        sol = project(x, spec)
        np.testing.assert_allclose(sol.y, x, atol=0.0)
        jac = project_gradient(x, spec, sol.y)
        assert np.all(jac.matrix == 0.0)
        assert not jac.one_sided


def test_ball_boundary_is_one_sided():
    spec = ProjectionSpec("l2", surface="ball")
    x = np.array([0.6, 0.8])
    sol = project(x, spec)
    jac = project_gradient(x, spec, sol.y)
    assert jac.one_sided
    np.testing.assert_allclose(
        jac.matrix, (np.eye(2) - np.outer(sol.y, sol.y)), atol=1e-10)


def test_ball_exterior_matches_sphere():
    rng = np.random.default_rng(33)
    for ball, sphere in zip(ALL_BALLS, ALL_SPHERES):
        x = rng.normal(size=3) * 3.0
        if _p_norm(x, ball.norm) <= 1.1:
            x = x / _p_norm(x, ball.norm) * 1.7
        np.testing.assert_allclose(project(x, ball).y,
                                   project(x, sphere).y, atol=1e-12)
        a = project_gradient(x, ball, project(x, ball).y)
        b = project_gradient(x, sphere, project(x, sphere).y)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)


def test_radius_scaling():
    x = np.array([3.0, 4.0])
    spec = ProjectionSpec("l2", radius=2.5)
    sol = project(x, spec)
    np.testing.assert_allclose(sol.y, [1.5, 2.0], atol=1e-12)
    jac = project_gradient(x, spec, sol.y)
    y_unit = sol.y / 2.5
    expected = (np.eye(2) - np.outer(y_unit, y_unit)) * (2.5 / 5.0)
    np.testing.assert_allclose(jac.matrix, expected, atol=1e-12)
    J_fd = fd_jacobian(lambda z: project(z, spec).y, x)
    np.testing.assert_allclose(jac.matrix, J_fd, atol=1e-7)


def test_declarative_relu_regression():
    """Projection onto the nonnegative orthant built from the same
    machinery gives y = max(x, 0) with the 0/1 diagonal Jacobian."""
    n = 4

    def solve(x):
        y = np.maximum(x, 0.0)
        active = y <= 1e-12
        lam = np.where(active, -(x - y), 0.0)   # f_y = y - x = -lam on active rows
        return Solution(y=y, multipliers=lam, active_set=active,
                        objective_value=0.5 * float(np.sum((y - x) ** 2)),
                        solver_info=SolverInfo(iterations=0, converged=True))

    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
        input_dim=n, output_dim=n,
        ineq_constraints=lambda x, u: -u,
        derivatives=Derivatives(
            f_y=lambda x, u: u - x,
            f_yy=lambda x, u: np.eye(n),
            f_xy=lambda x, u: -np.eye(n),
            g_y=lambda x, u: -np.eye(n),
            g_x=lambda x, u: np.zeros((n, n)),
            g_yy=lambda x, u, lam: np.zeros((n, n)),
            g_xy=lambda x, u, lam: np.zeros((n, n))))

    x = np.array([1.2, -0.7, 0.4, -2.0])
    sol = solve(x)
    jac = gradient_inequality(problem, x, sol.y, sol.multipliers)
    np.testing.assert_allclose(jac.matrix, np.diag([1.0, 0.0, 1.0, 0.0]),
                               atol=1e-12)


# --- boundary contracts -----------------------------------------------------

NONFINITE = [[0.5, math.inf], [math.nan, 1.0], [-math.inf, 0.0]]


@pytest.mark.parametrize("spec", ALL_SPHERES + ALL_BALLS)
@pytest.mark.parametrize("bad", NONFINITE)
def test_nonfinite_input_is_infeasible(spec, bad):
    # L1 raised a raw ValueError, L2 returned [0, nan], Linf returned NaN
    with pytest.raises(InfeasibleProblem, match=r"1 non-finite of n=2"):
        project(np.array(bad), spec)


@pytest.mark.parametrize("spec", ALL_SPHERES + ALL_BALLS)
def test_gradient_at_nonfinite_point_is_undefined(spec):
    # the L2 ball gradient at [0.5, inf] was silently zero
    x = np.array([0.5, 0.25])
    y = project(x, spec).y
    for xb, yb in ((np.array([0.5, math.inf]), y),
                   (x, np.array([math.nan, 0.0]))):
        with pytest.raises(UndefinedGradient, match="non-finite"):
            project_gradient(xb, spec, yb)
        with pytest.raises(UndefinedGradient, match="non-finite"):
            project_vjp(np.ones(2), xb, spec, yb)


def test_l2_norm_is_scaled_before_squaring():
    spec = ProjectionSpec("l2")
    # ||x||^2 underflowed to 0 (rejected as x = 0) or overflowed to inf
    np.testing.assert_array_equal(project(np.array([1e-300, 0.0]), spec).y,
                                  [1.0, 0.0])
    np.testing.assert_allclose(project(np.array([1e200, -1e200]), spec).y,
                               [math.sqrt(0.5), -math.sqrt(0.5)], rtol=1e-15)
    ball = ProjectionSpec("l2", surface="ball")
    np.testing.assert_allclose(project(np.array([3e200, 4e200]), ball).y,
                               [0.6, 0.8], rtol=1e-15)


def test_l2_gradient_beyond_float_range_is_undefined():
    x = np.array([5e-324, 0.0])
    spec = ProjectionSpec("l2")
    y = project(x, spec).y
    np.testing.assert_array_equal(y, [1.0, 0.0])
    with pytest.raises(UndefinedGradient, match="overflows"):
        project_gradient(x, spec, y)


def test_l1_sphere_of_ties_far_beyond_the_radius():
    # the threshold search found no index (raw ValueError) once the
    # radius fell below the rounding of the entries
    spec = ProjectionSpec("l1")
    for big in (1e17, 1e308):
        y = project(np.array([big, big, -big / 4]), spec).y
        np.testing.assert_allclose(y, [0.5, 0.5, 0.0], rtol=1e-15)


def test_radius_overflow_is_infeasible():
    with pytest.raises(InfeasibleProblem, match=r"overflows for n=2"):
        project(np.array([1e308, 1.0]), ProjectionSpec("l2", radius=0.5))


def test_vjp_rejects_wrong_length():
    x = np.array([3.0, 4.0])
    spec = ProjectionSpec("l2")
    with pytest.raises(DimensionMismatch, match="length 3 for n=2"):
        project_vjp(np.ones(3), x, spec, project(x, spec).y)
