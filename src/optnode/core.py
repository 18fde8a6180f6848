"""Shared domain types: problems, solutions, Jacobians, and the error taxonomy.

Every other module trades in these records.  A problem is a bundle of
callbacks f(x, u), h(x, u), g(x, u) over an input vector x (length n) and a
decision vector u (length m); a solution is the minimizer y together with
multipliers and solver diagnostics; a Jacobian is the dense m x n derivative
of the solution map with flags describing how it was obtained.

All record types are immutable after construction (arrays are marked
read-only), so problems and solutions can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

# Default absolute tolerance on unit-scale problems.  Tight enough that the
# 1e-5 oracle comparisons downstream are solver-noise-dominated by at most
# one order of magnitude.
STATIONARITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class NodeError(Exception):
    """Base class for all domain errors.

    Attributes
    ----------
    kind : str
        Machine-readable error kind; equals the subclass name.
    detail : str
        Human-readable context.  Always carries the offending quantity's
        dimensions or condition estimate.
    """

    def __init__(self, detail=""):
        self.kind = type(self).__name__
        self.detail = detail
        super().__init__(f"{self.kind}: {detail}" if detail else self.kind)


class InfeasibleProblem(NodeError):
    """No feasible point exists, or the solution set is non-isolated."""


class SolverDiverged(NodeError):
    """A forward solver exhausted its iteration budget without converging."""


class SingularHessian(NodeError):
    """H is numerically singular where an inverse is required."""


class RankDeficientConstraints(NodeError):
    """Constraint Jacobian lost rank where full rank is required."""


class UndefinedGradient(NodeError):
    """The gradient does not exist at this point (and no fallback applies)."""


class DimensionMismatch(NodeError):
    """A callback's output shape violates the problem's declared dimensions."""


ERROR_KINDS = (
    "InfeasibleProblem",
    "SolverDiverged",
    "SingularHessian",
    "RankDeficientConstraints",
    "UndefinedGradient",
    "DimensionMismatch",
)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def _freeze(a):
    """Return a float64 copy of `a` marked read-only."""
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Derivatives:
    """Optional analytic derivative callbacks for a problem.

    Each callback takes (x, y), or (x, y, lam) for the curvature
    callbacks, and returns an array with the shape noted below (n = input
    dim, m = output dim, p = equality rows, q = inequality rows).  Any
    subset may be provided; the gradient engine falls back to finite
    differences for the rest.  The shapes are exact (SHAPES): f_y is not
    (1, m), and a single-row Jacobian is (1, m) or (1, n), never 1-D.

    f_y : (m,)          first derivative of the objective in u
    f_yy : (m, m)       second derivative of the objective in u
    f_xy : (m, n)       mixed second derivative, d2 f / dx_j du_i
    b_columns : (x, y, cols) -> (m, len(cols))   the columns f_xy[:, cols]
                        for an integer index array cols, generated on
                        demand.  The streaming VJP asks for blocks of
                        max(1, n // m) consecutive columns, one call per
                        block, so f_xy is never stored whole.
    h_y : (p, m)        constraint Jacobian in u
    h_x : (p, n)        constraint Jacobian in x
    h_yy : (x, y, lam) -> (m, m)   the multiplier-weighted curvature
                        sum_i lam_i D2_YY h_i for lam of length p
    h_xy : (x, y, lam) -> (m, n)   the mixed analogue sum_i lam_i D2_XY h_i
    g_y, g_x, g_yy, g_xy : same, for inequality constraints (q rows); lam
                        has length q with zeros on the inactive rows

    Constraint curvature enters the Lagrangian Hessian only through these
    sums (the Lagrangian-Hessian contract of Ipopt), so a callback never
    returns per-row blocks: a linear constraint returns zeros of one
    (m, m) or (m, n) size, and the engine skips a family whose
    multipliers are all zero without calling it.
    """

    f_y: Optional[Callable] = None
    f_yy: Optional[Callable] = None
    f_xy: Optional[Callable] = None
    b_columns: Optional[Callable] = None
    h_y: Optional[Callable] = None
    h_x: Optional[Callable] = None
    h_yy: Optional[Callable] = None
    h_xy: Optional[Callable] = None
    g_y: Optional[Callable] = None
    g_x: Optional[Callable] = None
    g_yy: Optional[Callable] = None
    g_xy: Optional[Callable] = None


@dataclass(frozen=True)
class DeclarativeProblem:
    """One node's defining optimization problem.

    minimize (over u in R^m)   objective(x, u)
    subject to                 eq_constraints(x, u) = 0      (p rows)
                               ineq_constraints(x, u) <= 0   (q rows)

    `objective` may be None for pure feasibility problems (constraints
    only); every other use requires it.  Inputs are plain 1-D vectors; the
    multi-dimensional case is out of scope.
    """

    objective: Optional[Callable]          # (x, u) -> scalar
    input_dim: int                         # n
    output_dim: int                        # m
    eq_constraints: Optional[Callable] = None    # (x, u) -> (p,)
    ineq_constraints: Optional[Callable] = None  # (x, u) -> (q,)
    derivatives: Optional[Derivatives] = None

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise DimensionMismatch(
                f"dims must be positive, got n={self.input_dim} m={self.output_dim}")


@dataclass(frozen=True)
class SolverInfo:
    iterations: int
    converged: bool
    restarts: int = 0


@dataclass(frozen=True)
class Solution:
    """Solver output for one problem instance.

    multipliers has length p + q with entries for inactive inequalities
    fixed at exact zero (placeholder zeros keep the stacked indexing
    aligned).  active_set marks which inequality rows are active at y.
    """

    y: np.ndarray                 # (m,)
    multipliers: np.ndarray       # (p + q,)
    active_set: np.ndarray        # (q,) bool
    objective_value: float
    solver_info: SolverInfo

    def __post_init__(self):
        object.__setattr__(self, "y", _freeze(np.atleast_1d(self.y)))
        object.__setattr__(self, "multipliers", _freeze(np.atleast_1d(
            np.asarray(self.multipliers, dtype=float))))
        act = np.array(self.active_set, dtype=bool, copy=True)
        act.setflags(write=False)
        object.__setattr__(self, "active_set", act)
        object.__setattr__(self, "objective_value", float(self.objective_value))


@dataclass(frozen=True)
class Jacobian:
    """Dense derivative Dy(x) of a solution map, shape (m, n).

    one_sided is set whenever the value is a one-sided choice (an active
    inequality with zero multiplier, or a non-smooth kink).
    rank_deficient_fallback is set when a pseudo-inverse path was taken.
    """

    matrix: np.ndarray
    one_sided: bool = False
    rank_deficient_fallback: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(np.atleast_2d(self.matrix)))


@dataclass(frozen=True)
class ProblemDims:
    n: int
    m: int
    p: int
    q: int


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# The one shape table: every array that a problem's callbacks (Derivatives)
# or a node's user callables (jac) return, or a caller hands the engine or a
# node, in n, m, a constraint family's row count r and b_columns' c columns.
SHAPES = {"x": "n", "y": "m", "u": "m", "v": "m", "jac": "mn",
          "f_y": "m", "f_yy": "mm", "f_xy": "mn", "b_columns": "mc",
          "h_y": "rm", "h_x": "rn", "h_yy": "mm", "h_xy": "mn",
          "g_y": "rm", "g_x": "rn", "g_yy": "mm", "g_xy": "mn"}


def checked(name, value, n, m, r=0, c=0):
    """value as a float array of the shape SHAPES gives name, or
    DimensionMismatch naming the shape expected and the shape got."""
    out = np.asarray(value, dtype=float)
    dims = {"n": n, "m": m, "r": r, "c": c}
    want = tuple(dims[k] for k in SHAPES[name])
    if out.shape != want:
        raise DimensionMismatch(f"{name}: expected shape {want}, got {out.shape}")
    return out


def finite(name, a, error=UndefinedGradient):
    """a, or error naming its shape and non-finite count: the one guard."""
    bad = a.size - int(np.count_nonzero(np.isfinite(a)))
    if bad:
        raise error(f"{name} of shape {a.shape} has {bad} non-finite of "
                    f"n={a.size} entries")
    return a


def checked_multipliers(problem, multipliers, count):
    """multipliers as a finite vector of length count (p, or p + q)."""
    lam = np.asarray(multipliers, dtype=float).ravel()
    if lam.size != count:
        rows = "p" if problem.ineq_constraints is None else "p + q"
        raise DimensionMismatch(
            f"multipliers: expected length {count} ({rows}), got {lam.size}")
    return finite("multipliers", lam)


def validate_problem(problem, x=None, u=None):
    """Probe all callbacks at one point and confirm dimensional consistency.

    Parameters
    ----------
    problem : DeclarativeProblem
    x, u : optional probe point; zeros are used when not supplied.

    Returns
    -------
    ProblemDims with the discovered constraint counts.

    Raises
    ------
    DimensionMismatch on any shape violation, including an objective that
    returns a non-scalar and an equality system with more rows than m.
    """
    n, m = problem.input_dim, problem.output_dim
    x = checked("x", np.zeros(n) if x is None else x, n, m)
    u = checked("u", np.zeros(m) if u is None else u, n, m)

    if problem.objective is not None:
        val = problem.objective(x, u)
        if np.ndim(val) != 0:
            raise DimensionMismatch(
                f"objective: expected scalar, got shape {np.shape(val)}")
    elif problem.eq_constraints is None and problem.ineq_constraints is None:
        raise DimensionMismatch("problem has neither objective nor constraints")

    rows = []
    for name in ("eq_constraints", "ineq_constraints"):
        fn = getattr(problem, name)
        c = np.zeros(0) if fn is None else np.atleast_1d(fn(x, u))
        if c.ndim != 1:
            raise DimensionMismatch(f"{name}: expected vector, got shape {c.shape}")
        rows.append(c.size)
    p, q = rows
    if problem.objective is not None and p > m:
        raise DimensionMismatch(
            f"eq_constraints: p={p} rows exceed output_dim m={m} (over-determined)")

    d = problem.derivatives
    cols = np.arange(min(n, 2))
    for name in SHAPES:
        fn = getattr(d, name, None)   # None for x, y, u, v and jac
        if fn is None:
            continue
        r = {"h": p, "g": q}.get(name[0], 0)
        args = (x, u)
        if name == "b_columns":
            args += (cols,)
        elif name[0] in "hg" and name.endswith(("yy", "xy")):
            args += (np.ones(r),)   # curvature sums, at unit multipliers
        checked(name, fn(*args), n, m, r, cols.size)
    return ProblemDims(n=n, m=m, p=p, q=q)


@dataclass(frozen=True)
class SolutionResiduals:
    stationarity: float     # inf-norm of D_Y f - lambda^T D_Y h-tilde
    eq_violation: float     # inf-norm of h
    ineq_violation: float   # max_i g_i (negative means strictly feasible)
    sign_violation: float   # max over active inequality rows of lambda_i (>0 is bad)


def solution_residuals(problem, x, sol):
    """KKT residuals of a Solution, for asserting the Solution invariants.

    First derivatives in u come from numdiff.first_y: analytic when the
    problem provides them, central finite differences otherwise; each
    constraint Jacobian is checked against its constraint's row count, and
    the multipliers against p + q (checked_multipliers).
    """
    from . import numdiff  # late import; numdiff has no core dependency cycle

    x, y = np.asarray(x, dtype=float), sol.y
    h = g = np.zeros(0)
    if problem.eq_constraints is not None:
        h = np.atleast_1d(problem.eq_constraints(x, y))
    if problem.ineq_constraints is not None:
        g = np.atleast_1d(problem.ineq_constraints(x, y))
    p = h.size
    lam = checked_multipliers(problem, sol.multipliers, p + g.size)
    stacked = (np.zeros(problem.output_dim) if problem.objective is None
               else numdiff.first_y(problem, "f")(x, y)[0].copy())
    for which, lam_c in (("h", lam[:p]), ("g", lam[p:])):
        if lam_c.size:
            stacked -= lam_c @ checked(
                which + "_y", numdiff.first_y(problem, which)(x, y), x.size,
                y.size, lam_c.size)
    sign_violation = -np.inf
    if g.size and sol.active_set.size:
        sign_violation = float(np.max(lam[p:], initial=-np.inf,
                                      where=sol.active_set))
    return SolutionResiduals(
        stationarity=float(np.max(np.abs(stacked))) if stacked.size else 0.0,
        eq_violation=float(np.max(np.abs(h))) if p else 0.0,
        ineq_violation=float(np.max(g)) if g.size else -np.inf,
        sign_violation=sign_violation,
    )
