"""Euclidean projection nodes onto L1/L2/Linf spheres and balls.

    y(x) = argmin_u  0.5 ||u - x||^2   subject to  ||u||_p = r  (sphere)
                                                or ||u||_p <= r (ball)

Forward solvers are exact: normalization for L2, sign-decomposed
sort-and-threshold simplex projection for L1, coordinate clamping for
Linf.  Gradients are the closed forms I - a a^T / (a^T a) with
a = (D_Y h)^T, plus masked variants that zero the plateau dimensions and
thereby match what numerical differentiation of the solver produces.
Each is diag(d) - c a a^T, so project_vjp applies one in O(n) without
forming the n x n matrix.

Radius != 1 is handled by the exact scaling reduction: project x/r onto
the unit object and rescale (gradients are unaffected, multipliers scale
by r).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (DeclarativeProblem, Derivatives, InfeasibleProblem,
                   Jacobian, Solution, SolverInfo, UndefinedGradient, checked,
                   finite)

TIE_TOL = 1e-9        # Linf largest-magnitude tie detection
BOUNDARY_RTOL = 1e-9  # ball boundary detection, relative to radius


class Norm(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


class Surface(enum.Enum):
    SPHERE = "sphere"
    BALL = "ball"


@dataclass(frozen=True)
class ProjectionSpec:
    norm: Norm
    surface: Surface = Surface.SPHERE
    radius: float = 1.0
    masked_gradient: bool = False

    def __post_init__(self):
        if not isinstance(self.norm, Norm):
            object.__setattr__(self, "norm", Norm(self.norm))
        if not isinstance(self.surface, Surface):
            object.__setattr__(self, "surface", Surface(self.surface))
        if not 0 < self.radius < math.inf:
            raise ValueError(
                f"radius must be positive and finite, got {self.radius}")


def _l2(z):
    """(||z||_2, z / ||z||_2), computed on z / max|z| so that squaring an
    entry can neither underflow nor overflow; the direction is None at
    z = 0."""
    s = float(np.max(np.abs(z))) if z.size else 0.0
    if s == 0.0:
        return 0.0, None
    u = z / s
    nu = float(np.linalg.norm(u))
    return s * nu, u / nu


def _norm(z, norm):
    if norm is Norm.L2:
        return _l2(z)[0]
    if norm is Norm.L1:
        with np.errstate(over="ignore"):    # inf is the norm's float value
            return float(np.sum(np.abs(z)))
    return float(np.max(np.abs(z))) if z.size else 0.0


def _sign_out(z):
    """sign with sign(0) = +1; used when pushing outward from the interior
    so zero coordinates get a deterministic direction."""
    s = np.sign(z)
    s[s == 0.0] = 1.0
    return s


def _simplex_project(v, total):
    """Project nonnegative v (not all zero) onto the simplex
    {w >= 0, sum w = total} by the sort-and-threshold rule.  O(n log n).

    Works on v / max(v), so the running sums cannot overflow.  The
    threshold index rho is the last j with j u_j - sum_{i<=j} u_i + total
    > 0 over the sorted u, which holds exactly at j = 1, and each kept
    entry is (total - (sum_{i<=rho} u_i - rho v_k)) / rho: when total is
    below the rounding of v the ties at the top still share it instead of
    cancelling to zero.
    """
    s = float(np.max(v))
    v, total = v / s, total / s
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.flatnonzero(j * u - css + total > 0.0)[-1]) + 1
    return s * np.maximum((total - (css[rho - 1] - rho * v)) / rho, 0.0)


def _unit_sphere_project(z, norm):
    """Projection of z onto the unit p-sphere; returns (w, lam)."""
    if norm is Norm.L2:
        nz, w = _l2(z)
        if w is None:
            raise InfeasibleProblem(
                f"L2 sphere projection of x = 0 (solution set is the entire "
                f"sphere), n={z.size}")
        return w, 1.0 - nz
    if norm is Norm.L1:
        with np.errstate(over="ignore"):    # s = inf still takes the simplex
            s = float(np.sum(np.abs(z)))
        if s >= 1.0:
            w = np.sign(z) * _simplex_project(np.abs(z), 1.0)
        else:
            # strictly inside: spread the deficit over every coordinate,
            # which is the closest point on the sphere surface
            w = z + _sign_out(z) * ((1.0 - s) / z.size)
        i = int(np.argmax(np.abs(w)))
        return w, float(np.sign(w[i]) * (w[i] - z[i]))
    # Linf
    mx = float(np.max(np.abs(z)))
    if mx >= 1.0:
        w = np.clip(z, -1.0, 1.0)
    else:
        # strictly inside: push every tied largest-magnitude coordinate to
        # the boundary (deterministic choice among the non-unique optima)
        w = z.copy()
        ties = np.abs(z) >= mx - TIE_TOL
        w[ties] = _sign_out(z[ties])
    i = int(np.argmax(np.abs(w)))
    return w, float(np.sign(w[i]) * (w[i] - z[i]))


def project(x, spec):
    """Solve the projection problem for x of shape (n,), n >= 1 (any other
    shape is a DimensionMismatch).  Returns a Solution with m = n.

    Sphere solutions carry the single equality multiplier; ball solutions
    carry the single inequality multiplier (zero when inactive) and the
    active_set flag.  L2-sphere projection of x = 0 is infeasible (the
    solution set is the whole sphere), and so is an x with a non-finite
    entry, or one whose x / radius overflows; both raise InfeasibleProblem
    before any work.  y is finite for every accepted x; the multiplier and
    objective_value may overflow to inf when ||x|| nears the float range,
    as their exact values do.
    """
    n = max(np.size(x), 1)
    x = checked("x", x, n, n)
    spec = spec if isinstance(spec, ProjectionSpec) else ProjectionSpec(spec)
    r = spec.radius
    with np.errstate(over="ignore"):
        z = x / r
    if not np.isfinite(z).all():
        finite("x", x, InfeasibleProblem)
        raise InfeasibleProblem(
            f"x / radius overflows for n={n} "
            f"(max|x| = {float(np.max(np.abs(x))):.3e}, radius={r})")
    if spec.surface is Surface.SPHERE:
        w, lam = _unit_sphere_project(z, spec.norm)
        y = r * w
        mult = np.array([r * lam])
        active = np.zeros(0, dtype=bool)
    else:
        nz = _norm(z, spec.norm)
        if nz <= 1.0 + BOUNDARY_RTOL:
            y = x.copy()
            on_boundary = abs(nz - 1.0) <= BOUNDARY_RTOL
            mult = np.array([0.0])
            active = np.array([on_boundary])
        else:
            w, lam = _unit_sphere_project(z, spec.norm)
            y = r * w
            mult = np.array([r * lam])
            active = np.array([True])
    with np.errstate(over="ignore"):        # documented: may be inf
        objective = 0.5 * float(np.sum((y - x) ** 2))
    return Solution(y=y, multipliers=mult, active_set=active,
                    objective_value=objective,
                    solver_info=SolverInfo(iterations=0, converged=True))


def _sphere_gradient(z, w, norm, masked):
    """(d, c, a) with the sphere Jacobian diag(d) - c a a^T."""
    n = z.size
    if norm is Norm.L2:
        nz = _l2(z)[0]
        if nz == 0.0:
            raise UndefinedGradient(f"L2 gradient undefined at x = 0, n={n}")
        c = 1.0 / nz
        if not math.isfinite(c):
            raise UndefinedGradient(
                f"L2 gradient scale 1/||x|| overflows at ||x|| = {nz:.3e}, "
                f"n={n}")
        return np.full(n, c), c, w
    if norm is Norm.L1:
        a = np.sign(w)              # sign(0) = 0: plateau dimensions
        ata = float(a @ a)
        if ata == 0.0:
            raise UndefinedGradient(f"L1 constraint gradient vanished, n={n}")
        # masked: zero the rows and columns off the support |a|
        return (np.abs(a) if masked else np.ones(n)), 1.0 / ata, a
    # Linf
    amax = float(np.max(np.abs(w)))
    tie = np.abs(w) >= amax - TIE_TOL
    a = np.where(tie, np.sign(w), 0.0)
    if not np.any(a):
        raise UndefinedGradient(f"Linf constraint gradient vanished, n={n}")
    if masked:
        return 1.0 - np.abs(a), 0.0, a
    return np.ones(n), 1.0 / float(a @ a), a


def _gradient_structure(x, spec, y):
    """(d, c, a, one_sided): the projection Jacobian is diag(d) - c a a^T."""
    n = max(np.size(x), 1)
    x = finite("x", checked("x", x, n, n))
    y = finite("y", checked("y", y, n, n))
    spec = spec if isinstance(spec, ProjectionSpec) else ProjectionSpec(spec)
    z = x / spec.radius
    w = y / spec.radius
    if spec.surface is Surface.SPHERE:
        return (*_sphere_gradient(z, w, spec.norm, spec.masked_gradient),
                False)
    nz = _norm(z, spec.norm)
    if nz < 1.0 - BOUNDARY_RTOL:
        zero = np.zeros(x.size)
        return zero, 0.0, zero, False
    return (*_sphere_gradient(z, w, spec.norm, spec.masked_gradient),
            abs(nz - 1.0) <= BOUNDARY_RTOL)


def project_gradient(x, spec, y):
    """Closed-form Jacobian of the projection, shape (n, n).

    Sphere: (1/||x||)(I - y y^T) for L2 (at unit radius); I - a a^T/(a^T a)
    for L1/Linf with a the constraint gradient (Linf ties detected to
    1e-9).  masked_gradient selects the plateau-zeroing variants, which
    agree with one-sided numerical differentiation of the solver.  Ball:
    exact zero strictly inside, sphere form outside; on the boundary
    (within 1e-9 relative) the sphere form is returned with
    one_sided = true.  Every form is diag(d) - c a a^T, materialized here;
    project_vjp applies the same structure without forming it.  x and y
    not both of one shape (n,), n >= 1, raise DimensionMismatch; a
    non-finite x or y, or an L2 scale 1/||x|| beyond the float range,
    raises UndefinedGradient.
    """
    d, c, a, one_sided = _gradient_structure(x, spec, y)
    return Jacobian(np.diag(d) - c * np.outer(a, a), one_sided=one_sided)


def project_vjp(v, x, spec, y):
    """v^T Dy for the projection in O(n), never forming the n x n Jacobian.

    Dy = diag(d) - c a a^T is the structure project_gradient materializes,
    so v^T Dy = v * d - c (v . a) a.  Returns (v^T Dy, one_sided), with
    one_sided as project_gradient sets it; raises what project_gradient
    raises, DimensionMismatch when v is not of shape (n,) and
    UndefinedGradient when v has a non-finite entry or v^T Dy overflows.
    """
    d, c, a, one_sided = _gradient_structure(x, spec, y)
    v = finite("v", checked("v", v, d.size, d.size))
    with np.errstate(over="ignore", invalid="ignore"):   # finite() reports
        out = v * d - (c * float(v @ a)) * a
    return finite("v^T Dy", out), one_sided


# The nearest-point objective 0.5 ||u - x||^2 that every projection
# minimises, as the fields of a problem (_problem).
_NEAREST = dict(objective=lambda x, u: 0.5 * float(np.sum((u - x) ** 2)),
                f_y=lambda x, u: u - x,
                f_yy=lambda x, u: np.eye(u.size),
                f_xy=lambda x, u: -np.eye(u.size))


def _problem(n, m, objective, eq_constraints=None, ineq_constraints=None,
             **derivatives):
    """The DeclarativeProblem over x of length n and u of length m with
    these callbacks, each Derivatives callback passed by its field name."""
    return DeclarativeProblem(objective, n, m, eq_constraints,
                              ineq_constraints, Derivatives(**derivatives))


def _row(family, value, c_y, c_yy):
    """One constraint row that does not read x, of family "h" (value = 0)
    or "g" (value <= 0), as the fields of a problem (_problem): value, its
    _y and _yy callbacks c_y and c_yy, and zero _x and _xy callbacks."""
    return {"eq_constraints" if family == "h" else "ineq_constraints": value,
            f"{family}_y": c_y, f"{family}_yy": c_yy,
            f"{family}_x": lambda x, u: np.zeros((1, x.size)),
            f"{family}_xy": lambda x, u, lam: np.zeros((u.size, x.size))}


def as_problem(spec, n):
    """The projection node as a DeclarativeProblem with analytic callbacks,
    for cross-checking against the generic engine (one equality row, or one
    inequality row for the ball) at smooth points."""
    spec = spec if isinstance(spec, ProjectionSpec) else ProjectionSpec(spec)
    r = spec.radius

    def constraint_grad(u):
        if spec.norm is Norm.L2:
            return u / np.linalg.norm(u)
        if spec.norm is Norm.L1:
            return np.sign(u)
        amax = np.max(np.abs(u))
        return np.where(np.abs(u) >= amax - TIE_TOL, np.sign(u), 0.0)

    def constraint(x, u):
        return np.array([_norm(u, spec.norm) - r])

    def c_y(x, u):
        return constraint_grad(u)[None, :]

    def c_yy(x, u, lam):
        if spec.norm is Norm.L2:
            nu = float(np.linalg.norm(u))
            uh = u / nu
            return lam[0] * (np.eye(n) - np.outer(uh, uh)) / nu
        return np.zeros((n, n))

    family = "h" if spec.surface is Surface.SPHERE else "g"
    return _problem(n, n, **_NEAREST, **_row(family, constraint, c_y, c_yy))
