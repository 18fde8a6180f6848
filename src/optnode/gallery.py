"""Reference problem constructors used by the checks and the CLI.

Each constructor returns (problem, solve) where solve(x) -> Solution and
the DeclarativeProblem carries analytic derivative callbacks.  Solvers
are deterministic smooth functions of the input so they can be
differentiated numerically and compared against the implicit-gradient
engine.  Every solve raises InfeasibleProblem on an x with a non-finite
entry, before any work, and SolverDiverged when y comes out non-finite.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import (DeclarativeProblem, Derivatives, InfeasibleProblem,
                   SolverDiverged, Solution, SolverInfo)

_SOFT_CURVE = 0.1  # weight of the cosh barrier in the convex objectives


def _spd(rng, m):
    G = rng.normal(size=(m, m))
    return G.T @ G / m + 0.5 * np.eye(m)


def _unit(x, nx):
    """(||x||, x / ||x||) given nx = np.linalg.norm(x) > 0.  Only when nx
    overflowed are both taken from x / max|x|, so ordinary inputs keep
    their bits."""
    if nx < np.inf:
        return nx, x / nx
    s = float(np.max(np.abs(x)))
    ns = float(np.linalg.norm(x / s))
    return s * ns, (x / s) / ns


def _solution(y, multipliers, iterations, value):
    lam = np.asarray(multipliers, dtype=float).ravel()
    return Solution(y=np.asarray(y, dtype=float),
                    multipliers=lam,
                    active_set=np.zeros(0, dtype=bool),
                    objective_value=float(value),
                    solver_info=SolverInfo(iterations=iterations,
                                           converged=True))


def _finite_io(solve):
    """solve with the gallery's boundary contract (module docstring)."""
    def checked(x):
        x = np.asarray(x, dtype=float)
        bad = x.size - int(np.count_nonzero(np.isfinite(x)))
        if bad:
            raise InfeasibleProblem(
                f"gallery input has {bad} non-finite of n={x.size} entries")
        sol = solve(x)
        if not np.isfinite(sol.y).all():
            raise SolverDiverged(
                f"gallery solve gave a non-finite y of m={sol.y.size} "
                f"from a finite x of n={x.size} (max|x| = "
                f"{float(np.max(np.abs(x), initial=0.0)):.3e})")
        return sol
    return checked


def _convex_pieces(rng, input_dim, output_dim):
    """Shared smooth strongly-convex objective:

        f(x, u) = 0.5 u'Qu + eps * sum cosh(u_j) - u' tanh(Mx)

    Q is SPD with spectrum bounded away from zero, so the Hessian
    Q + eps*diag(cosh(u)) is uniformly positive definite.
    """
    Q = _spd(rng, output_dim)
    M = rng.normal(size=(output_dim, input_dim)) / np.sqrt(input_dim)
    e = _SOFT_CURVE

    def value(x, u):
        return float(0.5 * u @ Q @ u + e * np.sum(np.cosh(u))
                     - u @ np.tanh(M @ x))

    def f_y(x, u):
        return Q @ u + e * np.sinh(u) - np.tanh(M @ x)

    def f_yy(x, u):
        return Q + e * np.diag(np.cosh(u))

    def f_xy(x, u):
        t = np.tanh(M @ x)
        return -(1.0 - t * t)[:, None] * M

    return Q, M, value, f_y, f_yy, f_xy


def _damped_newton(f_y, f_yy, u0, tol=1e-12, max_iters=100, label=""):
    """Newton iteration with step halving on the gradient norm."""
    u = np.asarray(u0, dtype=float).copy()
    g = f_y(u)
    for it in range(max_iters):
        gn = float(np.max(np.abs(g)))
        if gn <= tol:
            return u, it
        du = np.linalg.solve(f_yy(u), g)
        step = 1.0
        for _ in range(50):
            cand = u - step * du
            gc = f_y(cand)
            if float(np.max(np.abs(gc))) < gn:
                u, g = cand, gc
                break
            step *= 0.5
        else:
            raise SolverDiverged(f"{label} newton stalled at |grad|={gn:.3e}")
    raise SolverDiverged(f"{label} newton exceeded {max_iters} iterations")


def strongly_convex_problem(input_dim, output_dim, seed):
    """Unconstrained smooth problem with a unique minimizer."""
    rng = np.random.default_rng(seed)
    Q, M, value, f_y, f_yy, f_xy = _convex_pieces(rng, input_dim, output_dim)
    problem = DeclarativeProblem(
        objective=value, input_dim=input_dim, output_dim=output_dim,
        derivatives=Derivatives(f_y=f_y, f_yy=f_yy, f_xy=f_xy))

    def solve(x):
        y, it = _damped_newton(lambda u: f_y(x, u), lambda u: f_yy(x, u),
                               np.zeros(output_dim), label="unconstrained")
        return _solution(y, np.zeros(0), it, value(x, y))

    return problem, _finite_io(solve)


def linear_equality_problem(input_dim, output_dim, n_constraints, seed,
                            rhs_depends_on_x=True):
    """Convex objective with h(x, u) = A u - (P x + d) = 0.

    rhs_depends_on_x=False sets P = 0, giving the fixed-target system
    A u = d, whose constraint stack has C = 0."""
    rng = np.random.default_rng(seed)
    Q, M, value, f_y, f_yy, f_xy = _convex_pieces(rng, input_dim, output_dim)
    A = rng.normal(size=(n_constraints, output_dim))
    P = rng.normal(size=(n_constraints, input_dim)) / np.sqrt(input_dim)
    if not rhs_depends_on_x:
        P = np.zeros_like(P)
    d = rng.normal(size=n_constraints) * 0.1

    derivs = Derivatives(
        f_y=f_y, f_yy=f_yy, f_xy=f_xy,
        h_y=lambda x, u: A,
        h_x=lambda x, u: -P,
        h_yy=lambda x, u, lam: np.zeros((output_dim, output_dim)),
        h_xy=lambda x, u, lam: np.zeros((output_dim, input_dim)))
    problem = DeclarativeProblem(
        objective=value, input_dim=input_dim, output_dim=output_dim,
        eq_constraints=lambda x, u: A @ u - (P @ x + d),
        derivatives=derivs)

    def solve(x):
        b = P @ x + d
        u = np.zeros(output_dim)
        lam = np.zeros(n_constraints)
        def residual(u, lam):
            r1 = f_y(x, u) - A.T @ lam
            r2 = A @ u - b
            return r1, r2, max(float(np.max(np.abs(r1))),
                               float(np.max(np.abs(r2))))

        r1, r2, res = residual(u, lam)
        for it in range(100):
            if res <= 1e-12:
                return _solution(u, lam, it, value(x, u))
            H = f_yy(x, u)
            K = np.block([[H, -A.T],
                          [A, np.zeros((n_constraints, n_constraints))]])
            step = np.linalg.solve(K, np.concatenate([r1, r2]))
            t = 1.0
            for _ in range(40):
                un = u - t * step[:output_dim]
                ln = lam - t * step[output_dim:]
                with np.errstate(over="ignore"):
                    r1n, r2n, resn = residual(un, ln)
                if np.isfinite(resn) and resn < res:
                    u, lam, r1, r2, res = un, ln, r1n, r2n, resn
                    break
                t *= 0.5
            else:
                break
        raise SolverDiverged(f"equality KKT newton stalled at residual {res:.3e}")

    return problem, _finite_io(solve)


def sphere_equality_problem(input_dim, output_dim, seed):
    """Convex objective restricted to the unit sphere h = (u'u - 1)/2."""
    rng = np.random.default_rng(seed)
    Q, M, value, f_y, f_yy, f_xy = _convex_pieces(rng, input_dim, output_dim)
    m = output_dim

    derivs = Derivatives(
        f_y=f_y, f_yy=f_yy, f_xy=f_xy,
        h_y=lambda x, u: u[None, :],
        h_x=lambda x, u: np.zeros((1, input_dim)),
        h_yy=lambda x, u, lam: lam[0] * np.eye(m),
        h_xy=lambda x, u, lam: np.zeros((m, input_dim)))
    problem = DeclarativeProblem(
        objective=value, input_dim=input_dim, output_dim=output_dim,
        eq_constraints=lambda x, u: np.array([0.5 * (u @ u - 1.0)]),
        derivatives=derivs)

    def solve(x):
        # deterministic smooth start: normalized unconstrained direction
        w = np.linalg.solve(Q, np.tanh(M @ x))
        nw = float(np.linalg.norm(w))
        u = w / nw if nw > 1e-8 else np.eye(m)[0]
        # iterates stay retracted onto the sphere, with lam the
        # least-squares multiplier u'f_y; keeps cosh(u) bounded no matter
        # how hard a raw Newton step overshoots
        def tangential(u):
            lam = float(u @ f_y(x, u))
            r1 = f_y(x, u) - lam * u
            return lam, r1, float(np.max(np.abs(r1)))

        # descent phase: projected gradient with Armijo on f, pulling the
        # start into a basin where the Newton tail contracts
        fu = value(x, u)
        lam, r1, res = tangential(u)
        it = 0
        while res > 1e-6 and it < 500:
            t, stepped = 1.0, False
            while t > 1e-16:
                un = u - t * r1
                un = un / float(np.linalg.norm(un))
                fn = value(x, un)
                if fn < fu - 1e-4 * t * float(r1 @ r1):
                    u, fu, stepped = un, fn, True
                    break
                t *= 0.5
            if not stepped:
                break
            lam, r1, res = tangential(u)
            it += 1
        for it in range(it, it + 200):
            if res <= 1e-12:
                return _solution(u, [lam], it, value(x, u))
            K = np.zeros((m + 1, m + 1))
            K[:m, :m] = f_yy(x, u) - lam * np.eye(m)
            K[:m, m] = -u
            K[m, :m] = u
            step = np.linalg.solve(K, np.concatenate([r1, [0.0]]))
            t = 1.0
            for _ in range(50):
                un = u - t * step[:m]
                nn = float(np.linalg.norm(un))
                if nn > 1e-12:
                    un = un / nn
                    ln, r1n, resn = tangential(un)
                    if resn < res:
                        u, lam, r1, res = un, ln, r1n, resn
                        break
                t *= 0.5
            else:
                break
        raise SolverDiverged(f"sphere KKT newton stalled at residual {res:.3e}")

    return problem, _finite_io(solve)


def disc_inequality_problem(dim):
    """Projection of x onto the unit disc: f = 0.5||u - x||^2 with the
    single constraint g = (u'u - 1)/2 <= 0.  Closed-form solution; the
    input norm selects the inactive / active / just-touching regimes."""
    n = dim

    derivs = Derivatives(
        f_y=lambda x, u: u - x,
        f_yy=lambda x, u: np.eye(n),
        f_xy=lambda x, u: -np.eye(n),
        g_y=lambda x, u: u[None, :],
        g_x=lambda x, u: np.zeros((1, n)),
        g_yy=lambda x, u, lam: lam[0] * np.eye(n),
        g_xy=lambda x, u, lam: np.zeros((n, n)))
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
        input_dim=n, output_dim=n,
        ineq_constraints=lambda x, u: np.array([0.5 * (u @ u - 1.0)]),
        derivatives=derivs)

    def solve(x):
        nx = float(np.linalg.norm(x))
        if nx <= 1.0:
            y, lam = x.copy(), 0.0
        else:
            nx, y = _unit(x, nx)
            lam = 1.0 - nx
        active = 0.5 * (y @ y - 1.0) >= -1e-8
        return Solution(y=y, multipliers=np.array([lam]),
                        active_set=np.array([active]),
                        objective_value=0.5 * float(np.sum((y - x) ** 2)),
                        solver_info=SolverInfo(iterations=0, converged=True))

    return problem, _finite_io(solve)


def circle_equality_problem(dim):
    """Equality twin of the disc problem: same objective, h = (u'u - 1)/2."""
    n = dim

    derivs = Derivatives(
        f_y=lambda x, u: u - x,
        f_yy=lambda x, u: np.eye(n),
        f_xy=lambda x, u: -np.eye(n),
        h_y=lambda x, u: u[None, :],
        h_x=lambda x, u: np.zeros((1, n)),
        h_yy=lambda x, u, lam: lam[0] * np.eye(n),
        h_xy=lambda x, u, lam: np.zeros((n, n)))
    problem = DeclarativeProblem(
        objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
        input_dim=n, output_dim=n,
        eq_constraints=lambda x, u: np.array([0.5 * (u @ u - 1.0)]),
        derivatives=derivs)

    def solve(x):
        nx, y = _unit(x, float(np.linalg.norm(x)))
        return _solution(y, [1.0 - nx], 0, 0.5 * float(np.sum((y - x) ** 2)))

    return problem, _finite_io(solve)


def spherical_alignment_problem(dim):
    """Maximize alignment of a unit vector with x:

        f(x, u) = -x'u / ||u||   subject to  (u'u - 1)/2 = 0

    The solution is x/||x||.  The objective is scale-invariant in u, so
    the constrained Hessian is singular on purpose: the gradient only
    exists through the pseudo-inverse fallback."""
    n = dim

    def f_y(x, u):
        nu = float(np.linalg.norm(u))
        return -x / nu + (x @ u) * u / nu ** 3

    def f_yy(x, u):
        nu = float(np.linalg.norm(u))
        return ((np.outer(x, u) + np.outer(u, x) + (x @ u) * np.eye(n))
                / nu ** 3 - 3.0 * (x @ u) * np.outer(u, u) / nu ** 5)

    def f_xy(x, u):
        nu = float(np.linalg.norm(u))
        return -np.eye(n) / nu + np.outer(u, u) / nu ** 3

    derivs = Derivatives(
        f_y=f_y, f_yy=f_yy, f_xy=f_xy,
        h_y=lambda x, u: u[None, :],
        h_x=lambda x, u: np.zeros((1, n)),
        h_yy=lambda x, u, lam: lam[0] * np.eye(n),
        h_xy=lambda x, u, lam: np.zeros((n, n)))
    problem = DeclarativeProblem(
        objective=lambda x, u: float(-(x @ u) / np.linalg.norm(u)),
        input_dim=n, output_dim=n,
        eq_constraints=lambda x, u: np.array([0.5 * (u @ u - 1.0)]),
        derivatives=derivs)

    def solve(x):
        nx, y = _unit(x, float(np.linalg.norm(x)))
        # stationarity  f_y = lam * u  holds with lam = 0 at the optimum
        return _solution(y, [0.0], 0, -nx)

    return problem, _finite_io(solve)


def two_branch_problem(branch="plus"):
    """Feasibility-only scalar problem h(x, u) = (u - 1)^2 - x^2 = 0 with
    two solution branches u = 1 +- x.  The solution map is differentiable
    on each branch even though h_y vanishes where the branches cross."""
    sign = 1.0 if branch == "plus" else -1.0

    derivs = Derivatives(
        h_y=lambda x, u: np.array([[2.0 * (u[0] - 1.0)]]),
        h_x=lambda x, u: np.array([[-2.0 * x[0]]]),
        h_yy=lambda x, u, lam: np.array([[2.0 * lam[0]]]),
        h_xy=lambda x, u, lam: np.zeros((1, 1)))
    problem = DeclarativeProblem(
        objective=None, input_dim=1, output_dim=1,
        eq_constraints=lambda x, u: np.array([(u[0] - 1.0) ** 2 - x[0] ** 2]),
        derivatives=derivs)

    def solve(x):
        y = np.array([1.0 + sign * x[0]])
        return _solution(y, [0.0], 0, 0.0)

    return problem, _finite_io(solve)


def wide_coupling_problem(output_dim, input_dim, seed):
    """Low-dimensional output coupled to a wide input through

        f(x, u) = 0.5 u'Qu - u'Wx

    so the mixed second derivative is the (m, n) block -W.  The problem
    exposes column-block access to that block instead of a dense f_xy,
    which is what the streaming vector-Jacobian product consumes."""
    rng = np.random.default_rng(seed)
    m, n = output_dim, input_dim
    Q = _spd(rng, m)
    W = rng.normal(size=(m, n)) / np.sqrt(n)
    cho = scipy.linalg.cho_factor(Q)

    derivs = Derivatives(
        f_y=lambda x, u: Q @ u - W @ x,
        f_yy=lambda x, u: Q,
        b_columns=lambda x, u, cols: -W[:, cols])
    problem = DeclarativeProblem(
        objective=lambda x, u: float(0.5 * u @ Q @ u - u @ (W @ x)),
        input_dim=n, output_dim=m, derivatives=derivs)

    def solve(x):
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflowing W x gives a non-finite y: SolverDiverged
            Wx = W @ x
            y = scipy.linalg.cho_solve(cho, Wx, check_finite=False)
            value = float(0.5 * y @ Q @ y - y @ Wx)
        return _solution(y, np.zeros(0), 1, value)

    return problem, _finite_io(solve)
