"""Reference problem constructors used by the checks and the CLI.

Each constructor returns (problem, solve) where solve(x) -> Solution and
the DeclarativeProblem carries analytic derivative callbacks.  Solvers
are deterministic smooth functions of the input, so they can be checked
numerically against the implicit-gradient engine; two share one
range-space KKT Newton (_kkt_newton says why the sphere keeps its own).
Every solve raises DimensionMismatch on an x not of shape (n,) and
InfeasibleProblem on an x with a non-finite entry, before any work, and
SolverDiverged when y comes out non-finite.  A solve raises no numpy
floating-point warning: an overflow in it gives that error or an
objective_value of inf.  The functions that factor call LAPACK directly,
importing scipy.linalg.lapack on their first call: dpotrf and dtrtrs,
which scipy.linalg.cholesky and solve_triangular run, and dpotrs, which
cho_solve runs.  The results are the wrappers' bit for bit, without
their per-call Python checks, which at these sizes cost more than a
triangular solve.

At m >= 100 unknowns the shared Newton reuses one step's factors for the
next while the residual contracts fast (_kkt_newton), and the strongly
convex and linear equality problems keep one thing across solves: the
factors of the first Newton step.  Every solve starts at u = 0, and their
f_yy(x, u) = Q + eps*diag(cosh u) never reads x, so that step's Hessian,
its Cholesky factor L and, with constraints, L^-1 A' and its Gram matrix
are the same for every x.  At m >= 100 a solve whose steps all contract
fast runs on those factors alone.  They are computed on the problem's
first solve, not when it is built.  A factorisation that fails
caches nothing, so every later solve raises the same SolverDiverged.  Two
threads racing through a cold problem at worst compute the same factors
twice, so the nodes built on these problems stay shareable.  Within one
solve of the strongly convex, linear equality or sphere problem, tanh(Mx)
is computed once and shared by every residual and objective value.

Every problem is assembled by projection._problem from pieces defined
once: the convex objective (_convex_pieces), the constraint row
(u'u - 1)/2 (_unit_row), an equality for the sphere, circle and
alignment problems and an inequality for the disc, and projection's
nearest-point objective 0.5 ||u - x||^2, which the disc and circle share
with the projection nodes.  The disc and circle solve with
projection._l2 where ||x|| overflows or underflows.
"""

from __future__ import annotations

import functools
import types

import numpy as np

from .core import (InfeasibleProblem, SolverDiverged, Solution, SolverInfo,
                   checked, finite)
from .projection import _NEAREST, _l2, _problem, _row

_SOFT_CURVE = 0.1  # weight of the cosh barrier in the convex objectives
# Chord steps (_kkt_newton).  Near the solution a step on stale factors
# still contracts linearly, at a rate set by how far H has moved since
# they were made, so one step that cut max|r| to _CHORD_RATE of its value
# predicts the next.  0.05, 0.1 and 0.25 ran kkt-chain equally fast within
# noise; 0.1 factors rarely and keeps the steps few (kkt-chain's bilevel
# solve: 6.2 steps, 13.6 at 0.25).  Chord solves take about twice Newton's
# steps, so they pay only where a factorisation costs several steps: per
# solve of the strongly convex and linear equality problems (x86-64, one
# BLAS thread) they took 1.3-1.5x Newton's time at m = 10 to 40, broke
# even between m = 80 and 120, and took 0.6x at m = 200.
_CHORD_RATE = 0.1
_CHORD_MIN_DIM = 100
# Below this norm the squares that np.linalg.norm sums may have lost digits
# to underflow (_unit).  Above it their sum is at least 2^-1000, and a
# square that underflows errs by at most 2^-1075, far below the sum's ulp.
_TINY_NORM = 2.0 ** -500


def _spd(rng, m):
    G = rng.normal(size=(m, m))
    return G.T @ G / m + 0.5 * np.eye(m)


def _unit(x, nx):
    """(||x||, x / ||x||) given nx = np.linalg.norm(x), nan at x = 0.
    Where nx overflowed, or is below 2^-500 so that squaring an entry may
    have underflowed, both come from projection._l2, which scales x by
    max|x| first; ordinary inputs keep their bits."""
    if (nx == np.inf or nx < _TINY_NORM) and x.any():
        return _l2(x)
    return nx, x / nx


def _solution(y, multipliers, iterations, value, active=()):
    return Solution(y=y, multipliers=multipliers,
                    active_set=np.array(active, dtype=bool),
                    objective_value=float(value),
                    solver_info=SolverInfo(iterations=iterations,
                                           converged=True))


def _finite_io(problem, solve):
    """(problem, solve under the module docstring's boundary contract)."""
    def bounded(x):
        x = finite("x", checked("x", x, problem.input_dim, problem.output_dim),
                   InfeasibleProblem)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sol = solve(x)
        if not np.isfinite(sol.y).all():
            raise SolverDiverged(
                f"gallery solve gave a non-finite y of m={sol.y.size} "
                f"from a finite x of n={x.size} (max|x| = "
                f"{float(np.max(np.abs(x), initial=0.0)):.3e})")
        return sol
    return problem, bounded


def _unit_row(family):
    """The constraint row (u'u - 1)/2 of family "h" (= 0) or "g" (<= 0),
    with its _y, _x, _yy and _xy callbacks, as the fields of a problem."""
    return _row(family, lambda x, u: np.array([0.5 * (u @ u - 1.0)]),
                lambda x, u: u[None, :],
                lambda x, u, lam: lam[0] * np.eye(u.size))


def _convex_pieces(rng, input_dim, output_dim):
    """Shared smooth strongly-convex objective:

        f(x, u) = 0.5 u'Qu + eps * sum cosh(u_j) - u' tanh(Mx)

    Q is SPD with spectrum bounded away from zero, so the Hessian
    Q + eps*diag(cosh(u)) is uniformly positive definite.  Returns its
    pieces by name: Q and M; energy(u, t) and gradient(u, t), which are f
    and f_y given t = tanh(Mx); f_yy; fields, the objective's fields of a
    problem; and newton(label, A=None, rhs=None), which returns the solve
    x -> Solution of _kkt_newton on f subject to A u = rhs(x), with the
    first step's factors cached as the module docstring says.
    """
    Q = _spd(rng, output_dim)
    M = rng.normal(size=(output_dim, input_dim)) / np.sqrt(input_dim)
    e = _SOFT_CURVE

    def energy(u, t):
        return float(0.5 * u @ Q @ u + e * np.sum(np.cosh(u)) - u @ t)

    def gradient(u, t):
        return Q @ u + e * np.sinh(u) - t

    def f_yy(x, u):
        return Q + e * np.diag(np.cosh(u))

    def f_xy(x, u):
        with np.errstate(over="ignore"):   # tanh saturates where M x overflows
            t = np.tanh(M @ x)
        return -(1.0 - t * t)[:, None] * M

    def newton(label, A=None, rhs=None):
        A = np.zeros((0, output_dim)) if A is None else A

        @functools.cache
        def first():   # f_yy(x, 0) is the same for every x; shared read-only
            factors = _step_factors(f_yy(None, np.zeros(output_dim)), A,
                                    label)
            for a in factors:
                if a is not None:
                    a.setflags(write=False)
            return factors

        def solve(x):
            t = np.tanh(M @ x)
            b = None if rhs is None else rhs(x)
            u, lam, it = _kkt_newton(lambda _, u: gradient(u, t), f_yy, x,
                                     output_dim, A, b, label, first)
            return _solution(u, lam, it, energy(u, t))
        return solve

    fields = dict(objective=lambda x, u: energy(u, np.tanh(M @ x)),
                  f_y=lambda x, u: gradient(u, np.tanh(M @ x)),
                  f_yy=f_yy, f_xy=f_xy)
    return types.SimpleNamespace(Q=Q, M=M, energy=energy, gradient=gradient,
                                 f_yy=f_yy, fields=fields, newton=newton)


def _diverged(label, H, A):
    return SolverDiverged(f"{label} KKT newton: H {H.shape} not positive "
                          f"definite or A {A.shape} rank deficient")


def _tri(L, b, trans=0):
    """L^-1 b (trans=1: L^-T b) for a lower-triangular L in column-major
    order, as dpotrf returns it: dtrtrs, which solve_triangular calls for
    such an L, without that wrapper.  A failure (an exactly zero pivot,
    which a successful dpotrf never leaves) raises LinAlgError."""
    from scipy.linalg import lapack
    x, info = lapack.dtrtrs(L, b, lower=1, trans=trans)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")
    return x


def _step_factors(H, A, label):
    """(L, V, V'V) of one range-space step: H = LL' and V = L^-1 A', with
    V and V'V None when A has no rows.  H not finite or not positive
    definite raises SolverDiverged naming label.  L is dpotrf's, called
    directly rather than through scipy.linalg.cholesky."""
    from scipy.linalg import lapack
    if not np.isfinite(H).all():
        raise SolverDiverged(f"{label} KKT newton: H {H.shape} not finite")
    L, info = lapack.dpotrf(H, lower=1, clean=1)
    if info:
        raise _diverged(label, H, A)
    if not A.shape[0]:
        return L, None, None
    try:
        V = _tri(L, A.T)
    except np.linalg.LinAlgError as err:
        raise _diverged(label, H, A) from err
    return L, V, V.T @ V


def _kkt_newton(f_y, f_yy, x, m, A=None, b=None, label="", first=None):
    """(u, lam, iterations): u = argmin f(x, .) s.t. A u = b (A None: p = 0).

    Range-space KKT Newton (Nocedal & Wright, 2nd ed., sec. 16.2) from
    u = 0, lam = 0: with r = (f_y - A'lam, A u - b), H = f_yy = LL',
    V = L^-1 A' and w = L^-1 r1, the step solves V'V dlam = r2 - V'w and
    du = L^-T (w + V dlam), and is halved until max|r| falls, to 1e-12
    within 100 steps.  When m >= _CHORD_MIN_DIM, a step taken in full
    that left max|r| at most _CHORD_RATE times its value hands its
    factors (L, V, V'V) to the next step, a chord step (Kelley, Iterative
    Methods for Linear and Nonlinear Equations, sec. 5.4); any other step
    makes the next one refactor at its own u, and after the first halved
    step every step refactors, so a solve that needs the line search runs
    plain Newton from there on.  A smaller m runs plain Newton
    throughout.  H not finite or not positive definite raises
    SolverDiverged naming label, and so does giving up: "stalled" when 50
    halvings of one step found no decrease, "did not converge in 100
    steps" when every step decreased max|r| but not to 1e-12; both give
    the residual.  first, when given, returns the factors (L, V, V'V) of
    the step from u = 0 in place of factoring f_yy(x, 0): a caller whose
    f_yy(x, 0) does not depend on x passes a cached one, so a later solve
    makes one factorisation fewer, or none when m >= _CHORD_MIN_DIM and
    every step contracts fast.  The sphere keeps its own loop: its
    Lagrangian Hessian f_yy - lam I is indefinite at most sphere points
    off the solution (82 % of 28 800 sampled), where a Cholesky fails."""
    A = np.zeros((0, m)) if A is None else A
    b = np.zeros(0) if b is None else b
    u, lam = np.zeros(m), np.zeros(A.shape[0])

    def residual(u, lam):
        r1, r2 = f_y(x, u) - A.T @ lam, A @ u - b
        return r1, r2, float(np.max(np.abs(np.concatenate([r1, r2]))))

    r1, r2, res = residual(u, lam)
    factors, chord = None, m >= _CHORD_MIN_DIM
    for it in range(100):
        if res <= 1e-12:
            return u, lam, it
        if factors is None:
            factors = (first() if it == 0 and first is not None
                       else _step_factors(f_yy(x, u), A, label))
        L, V, VtV = factors
        w, dlam = _tri(L, r1), np.zeros(0)
        if V is not None:
            try:
                dlam = np.linalg.solve(VtV, r2 - V.T @ w)
            except np.linalg.LinAlgError as err:
                raise _diverged(label, L, A) from err
            w = w + V @ dlam
        du = _tri(L, w, trans=1)
        for t in 0.5 ** np.arange(50):
            un, ln = u - t * du, lam - t * dlam
            r1n, r2n, resn = residual(un, ln)
            if resn < res:
                chord = chord and t == 1.0   # a damped step ends the chords
                if not (chord and resn <= _CHORD_RATE * res):
                    factors = None
                u, lam, r1, r2, res = un, ln, r1n, r2n, resn
                break
        else:
            raise SolverDiverged(f"{label} KKT newton stalled at residual "
                                 f"{res:.3e}: 50 halvings of step {it} found "
                                 f"no decrease")
    raise SolverDiverged(f"{label} KKT newton did not converge in 100 steps: "
                         f"residual {res:.3e}")


def strongly_convex_problem(input_dim, output_dim, seed):
    """Unconstrained smooth problem with a unique minimizer."""
    c = _convex_pieces(np.random.default_rng(seed), input_dim, output_dim)
    return _finite_io(_problem(input_dim, output_dim, **c.fields),
                      c.newton("unconstrained"))


def linear_equality_problem(input_dim, output_dim, n_constraints, seed,
                            rhs_depends_on_x=True):
    """Convex objective with h(x, u) = A u - (P x + d) = 0.

    rhs_depends_on_x=False sets P = 0, giving the fixed-target system
    A u = d, whose constraint stack has C = 0."""
    rng = np.random.default_rng(seed)
    c = _convex_pieces(rng, input_dim, output_dim)
    A = rng.normal(size=(n_constraints, output_dim))
    P = rng.normal(size=(n_constraints, input_dim)) / np.sqrt(input_dim)
    if not rhs_depends_on_x:
        P = np.zeros_like(P)
    d = rng.normal(size=n_constraints) * 0.1
    zero = np.zeros((output_dim, output_dim + input_dim))   # h is linear

    problem = _problem(
        input_dim, output_dim, **c.fields,
        eq_constraints=lambda x, u: A @ u - (P @ x + d),
        h_y=lambda x, u: A,
        h_x=lambda x, u: -P,
        h_yy=lambda x, u, lam: zero[:, :output_dim],
        h_xy=lambda x, u, lam: zero[:, output_dim:])
    return _finite_io(problem,
                      c.newton("equality", A, lambda x: P @ x + d))


def sphere_equality_problem(input_dim, output_dim, seed):
    """Convex objective restricted to the unit sphere h = (u'u - 1)/2."""
    c = _convex_pieces(np.random.default_rng(seed), input_dim, output_dim)
    energy, gradient, f_yy = c.energy, c.gradient, c.f_yy
    m = output_dim

    def solve(x):
        t = np.tanh(c.M @ x)
        # deterministic smooth start: normalized unconstrained direction
        w = np.linalg.solve(c.Q, t)
        nw = float(np.linalg.norm(w))
        u = w / nw if nw > 1e-8 else np.eye(m)[0]
        # iterates stay retracted onto the sphere, with lam the
        # least-squares multiplier u'f_y; keeps cosh(u) bounded no matter
        # how hard a raw Newton step overshoots
        def tangential(u):
            g = gradient(u, t)
            lam = float(u @ g)
            r1 = g - lam * u
            return lam, r1, float(np.max(np.abs(r1)))

        # descent phase: projected gradient with Armijo on f, pulling the
        # start into a basin where the Newton tail contracts
        fu = energy(u, t)
        lam, r1, res = tangential(u)
        it = 0
        while res > 1e-6 and it < 500:
            s, stepped = 1.0, False
            while s > 1e-16:
                un = u - s * r1
                un = un / float(np.linalg.norm(un))
                fn = energy(un, t)
                if fn < fu - 1e-4 * s * float(r1 @ r1):
                    u, fu, stepped = un, fn, True
                    break
                s *= 0.5
            if not stepped:
                break
            lam, r1, res = tangential(u)
            it += 1
        for it in range(it, it + 200):
            if res <= 1e-12:
                return _solution(u, [lam], it, energy(u, t))
            K = np.zeros((m + 1, m + 1))
            K[:m, :m] = f_yy(x, u) - lam * np.eye(m)
            K[:m, m] = -u
            K[m, :m] = u
            step = np.linalg.solve(K, np.concatenate([r1, [0.0]]))
            s = 1.0
            for _ in range(50):
                un = u - s * step[:m]
                nn = float(np.linalg.norm(un))
                if nn > 1e-12:
                    un = un / nn
                    ln, r1n, resn = tangential(un)
                    if resn < res:
                        u, lam, r1, res = un, ln, r1n, resn
                        break
                s *= 0.5
            else:
                break
        raise SolverDiverged(f"sphere KKT newton stalled at residual {res:.3e}")

    problem = _problem(input_dim, output_dim, **c.fields, **_unit_row("h"))
    return _finite_io(problem, solve)


def disc_inequality_problem(dim):
    """Projection of x onto the unit disc: f = 0.5||u - x||^2 with the
    single constraint g = (u'u - 1)/2 <= 0.  Closed-form solution; the
    input norm selects the inactive / active / just-touching regimes."""
    def solve(x):
        nx = float(np.linalg.norm(x))
        if nx <= 1.0:
            y, lam = x.copy(), 0.0
        else:
            nx, y = _unit(x, nx)
            lam = 1.0 - nx
        active = 0.5 * (y @ y - 1.0) >= -1e-8
        return _solution(y, [lam], 0, _NEAREST["objective"](x, y), [active])

    return _finite_io(_problem(dim, dim, **_NEAREST, **_unit_row("g")),
                      solve)


def circle_equality_problem(dim):
    """Equality twin of the disc problem: same objective, h = (u'u - 1)/2."""
    def solve(x):
        nx, y = _unit(x, float(np.linalg.norm(x)))
        return _solution(y, [1.0 - nx], 0, _NEAREST["objective"](x, y))

    return _finite_io(_problem(dim, dim, **_NEAREST, **_unit_row("h")),
                      solve)


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
        with np.errstate(all="ignore"):   # inf H is the engine's NodeError
            return ((np.outer(x, u) + np.outer(u, x) + (x @ u) * np.eye(n))
                    / nu ** 3 - 3.0 * (x @ u) * np.outer(u, u) / nu ** 5)

    def f_xy(x, u):
        nu = float(np.linalg.norm(u))
        return -np.eye(n) / nu + np.outer(u, u) / nu ** 3

    problem = _problem(
        n, n, lambda x, u: float(-(x @ u) / np.linalg.norm(u)),
        f_y=f_y, f_yy=f_yy, f_xy=f_xy, **_unit_row("h"))

    def solve(x):
        nx, y = _unit(x, float(np.linalg.norm(x)))
        # stationarity  f_y = lam * u  holds with lam = 0 at the optimum
        return _solution(y, [0.0], 0, -nx)

    return _finite_io(problem, solve)


def two_branch_problem(branch="plus"):
    """Feasibility-only scalar problem h(x, u) = (u - 1)^2 - x^2 = 0 with
    two solution branches u = 1 +- x.  The solution map is differentiable
    on each branch even though h_y vanishes where the branches cross."""
    sign = 1.0 if branch == "plus" else -1.0

    problem = _problem(
        1, 1, None,
        eq_constraints=lambda x, u: np.array([(u[0] - 1.0) ** 2 - x[0] ** 2]),
        h_y=lambda x, u: np.array([[2.0 * (float(u[0]) - 1.0)]]),
        h_x=lambda x, u: np.array([[-2.0 * float(x[0])]]),
        h_yy=lambda x, u, lam: np.array([[2.0 * lam[0]]]),
        h_xy=lambda x, u, lam: np.zeros((1, 1)))

    def solve(x):
        return _solution([1.0 + sign * x[0]], [0.0], 0, 0.0)

    return _finite_io(problem, solve)


def wide_coupling_problem(output_dim, input_dim, seed):
    """Low-dimensional output coupled to a wide input through

        f(x, u) = 0.5 u'Qu - u'Wx

    so the mixed second derivative is the (m, n) block -W.  The problem
    exposes column-block access to that block instead of a dense f_xy,
    which is what the streaming vector-Jacobian product consumes."""
    from scipy.linalg import lapack
    rng = np.random.default_rng(seed)
    m, n = output_dim, input_dim
    Q = _spd(rng, m)
    W = rng.normal(size=(m, n)) / np.sqrt(n)
    U, info = lapack.dpotrf(Q)   # upper, as scipy.linalg.cho_factor(Q)
    if info:
        raise np.linalg.LinAlgError(f"dpotrf failed with info {info}")

    problem = _problem(
        n, m, lambda x, u: float(0.5 * u @ Q @ u - u @ (W @ x)),
        f_y=lambda x, u: Q @ u - W @ x,
        f_yy=lambda x, u: Q,
        b_columns=lambda x, u, cols: -W[:, cols])

    def solve(x):
        Wx = W @ x   # an overflowing W x gives a non-finite y
        y, info = lapack.dpotrs(U, Wx)
        if info:
            raise ValueError(f"illegal argument {-info} to LAPACK dpotrs")
        return _solution(y, np.zeros(0), 1, float(0.5 * y @ Q @ y - y @ Wx))

    return _finite_io(problem, solve)
