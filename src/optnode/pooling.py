"""Robust pooling node: the one-dimensional robust mean.

    y(x) = argmin_u  sum_i phi(u - x_i; alpha)

for five penalty functions phi.  Quadratic pooling is the ordinary mean;
the others trade efficiency for outlier resistance, controlled by alpha.
Forward solvers are exact scalar searches (safeguarded Newton for the
convex penalties, two-start local descent for the non-convex ones), and
the backward pass has closed-form normalized-weight gradients.

Penalties, with z = u - x_i:

    quadratic            0.5 z^2
    pseudo_huber         alpha^2 (sqrt(1 + (z/alpha)^2) - 1)
    huber                0.5 z^2 if |z| <= alpha else alpha (|z| - alpha/2)
    welsch               1 - exp(-z^2 / (2 alpha^2))
    truncated_quadratic  0.5 z^2 if |z| <= alpha else 0.5 alpha^2
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (DeclarativeProblem, Derivatives, Jacobian, Solution,
                   SolverDiverged, SolverInfo, UndefinedGradient,
                   STATIONARITY_TOL)

KINK_TOL = 1e-9          # |y - x_i| within this of alpha counts as a kink
TIE_TOL = 1e-12          # multi-start objective tie breaker
MAX_ITERS = 200


class Penalty(enum.Enum):
    QUADRATIC = "quadratic"
    PSEUDO_HUBER = "pseudo_huber"
    HUBER = "huber"
    WELSCH = "welsch"
    TRUNCATED_QUADRATIC = "truncated_quadratic"


_CODES = {
    Penalty.QUADRATIC: _kernels.QUADRATIC,
    Penalty.PSEUDO_HUBER: _kernels.PSEUDO_HUBER,
    Penalty.HUBER: _kernels.HUBER,
    Penalty.WELSCH: _kernels.WELSCH,
    Penalty.TRUNCATED_QUADRATIC: _kernels.TRUNCATED_QUADRATIC,
}


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty selection plus robustness parameter alpha (> 0)."""

    kind: Penalty
    alpha: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, Penalty):
            object.__setattr__(self, "kind", Penalty(self.kind))
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def code(self):
        return _CODES[self.kind]


_ZERO1 = np.zeros(1)


def penalty_value(spec, z):
    """phi(z) for the selected penalty."""
    v, _, _ = _kernels.penalty_sums(spec.code, spec.alpha, float(z), _ZERO1)
    return v


def penalty_d1(spec, z):
    """phi'(z).  One-sided (inner-branch) value at kinks."""
    _, d1, _ = _kernels.penalty_sums(spec.code, spec.alpha, float(z), _ZERO1)
    return d1


def penalty_d2(spec, z):
    """phi''(z).  At |z| = alpha the inner quadratic branch is used."""
    _, _, d2 = _kernels.penalty_sums(spec.code, spec.alpha, float(z), _ZERO1)
    return d2


def _sums(spec, u, x):
    return _kernels.penalty_sums(spec.code, spec.alpha, float(u), x)


def _newton_bisect(spec, x, tol, max_iters):
    """Safeguarded Newton on f'(u) = 0 over the bracket [min x, max x].

    The convex penalties give a nondecreasing f', so the bracket is valid
    and bisection alone would converge; Newton steps are taken whenever
    they stay inside the shrinking bracket.
    """
    lo = float(np.min(x)); hi = float(np.max(x))
    if lo == hi:
        return lo, 0, True
    u = float(np.mean(x))
    for it in range(1, max_iters + 1):
        _, d1, d2 = _sums(spec, u, x)
        if abs(d1) <= tol:
            return u, it, True
        if d1 > 0.0:
            hi = u
        else:
            lo = u
        if d2 > 0.0:
            un = u - d1 / d2
            if not (lo < un < hi):
                un = 0.5 * (lo + hi)
        else:
            un = 0.5 * (lo + hi)
        if un == u or hi - lo <= 1e-15 * max(1.0, abs(u)):
            return u, it, abs(d1) <= STATIONARITY_TOL
        u = un
    _, d1, _ = _sums(spec, u, x)
    return u, max_iters, abs(d1) <= STATIONARITY_TOL


def _golden_section(spec, x, a, b, iters=120):
    """Golden-section search for a minimum of f inside [a, b]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _sums(spec, c, x)[0]
    fd = _sums(spec, d, x)[0]
    for _ in range(iters):
        if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _sums(spec, c, x)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _sums(spec, d, x)[0]
    return 0.5 * (a + b)


def _local_descent(spec, x, u0, lo, hi, tol, max_iters):
    """Damped Newton from u0, staying in [lo, hi]; golden-section fallback.

    Returns (u, iterations, converged).  Descends to the local minimum of
    the (possibly non-convex) objective nearest the start in the descent
    direction; never jumps basins uphill.
    """
    u = min(max(float(u0), lo), hi)
    f_u, d1, d2 = _sums(spec, u, x)
    for it in range(1, max_iters + 1):
        if abs(d1) <= tol:
            return u, it, True
        moved = False
        if d2 > 1e-300:
            step = -d1 / d2
            t = 1.0
            for _ in range(60):
                un = min(max(u + t * step, lo), hi)
                if un == u:
                    break
                f_n, d1_n, d2_n = _sums(spec, un, x)
                if f_n < f_u or (f_n == f_u and abs(d1_n) < abs(d1)):
                    u, f_u, d1, d2 = un, f_n, d1_n, d2_n
                    moved = True
                    break
                t *= 0.5
        if not moved:
            # flat or uphill curvature: bracket a local minimum by walking
            # in the descent direction, then refine by golden section
            direction = -1.0 if d1 > 0.0 else 1.0
            span = max(spec.alpha, (hi - lo) / max(1, x.size)) * 0.5
            a, b = u, u
            f_prev = f_u
            for _ in range(80):
                nxt = min(max(u + direction * span, lo), hi)
                f_nxt = _sums(spec, nxt, x)[0]
                if f_nxt >= f_prev or nxt in (lo, hi) or nxt == b:
                    a = min(u, nxt); b = max(u, nxt)
                    break
                f_prev = f_nxt
                span *= 2.0
                b = nxt
            u = _golden_section(spec, x, a, b)
            f_u, d1, d2 = _sums(spec, u, x)
            if abs(d1) <= max(tol, STATIONARITY_TOL):
                return u, it, True
    return u, max_iters, abs(d1) <= STATIONARITY_TOL


def _polish(spec, x, u, lo, hi):
    """Undamped Newton on f' from an already-converged u.

    Quadratic convergence drives the root to machine precision in a few
    steps, so candidates that landed in the same basin become bit-identical
    and the multi-start tie break cannot wobble between them.
    """
    for _ in range(8):
        _, d1, d2 = _sums(spec, u, x)
        if d1 == 0.0 or not d2 > 0.0:
            return u
        un = min(max(u - d1 / d2, lo), hi)
        if un == u:
            return u
        if abs(_sums(spec, un, x)[1]) >= abs(d1):
            return u
        u = un
    return u


def robust_pool(x, spec, tol=1e-10, max_iters=MAX_ITERS):
    """Solve the pooling problem.  Returns a Solution with m = 1.

    Quadratic is the closed-form mean.  PseudoHuber/Huber are convex and
    solved globally by safeguarded Newton.  Welsch/TruncatedQuadratic run
    local descent from both the mean and the median and keep the lower
    local minimum; an objective tie within 1e-12 breaks toward smaller y.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 1:
        raise ValueError("robust_pool needs at least one value")
    spec = spec if isinstance(spec, PenaltySpec) else PenaltySpec(spec)

    restarts = 0
    if spec.kind is Penalty.QUADRATIC:
        y, iters, converged = float(np.mean(x)), 0, True
    elif spec.kind in (Penalty.PSEUDO_HUBER, Penalty.HUBER):
        y, iters, converged = _newton_bisect(spec, x, tol, max_iters)
        y = _polish(spec, x, y, float(np.min(x)), float(np.max(x)))
        if not converged:
            converged = abs(_sums(spec, y, x)[1]) <= max(tol, STATIONARITY_TOL)
    else:
        lo = float(np.min(x)); hi = float(np.max(x))
        cands = []
        iters = 0
        for u0 in (float(np.mean(x)), float(np.median(x))):
            u, it, ok = _local_descent(spec, x, u0, lo, hi, tol, max_iters)
            u = _polish(spec, x, u, lo, hi)
            if not ok:
                # the descent loop can stall a few ulps short of its own
                # tolerance; what matters is where the polish landed
                ok = abs(_sums(spec, u, x)[1]) <= max(tol, STATIONARITY_TOL)
            cands.append((u, _sums(spec, u, x)[0], ok))
            iters += it
        (ya, fa, oka), (yb, fb, okb) = cands
        if abs(fa - fb) <= TIE_TOL:
            y, converged = (ya, oka) if ya <= yb else (yb, okb)
        elif fa < fb:
            y, converged = ya, oka
        else:
            y, converged = yb, okb
        restarts = 1
    if not converged:
        d1 = _sums(spec, y, x)[1]
        raise SolverDiverged(
            f"pooling stalled at |f'| = {abs(d1):.3e} after {iters} iterations "
            f"(n={x.size}, penalty={spec.kind.value}, alpha={spec.alpha})")
    return Solution(y=np.array([y]), multipliers=np.zeros(0),
                    active_set=np.zeros(0, dtype=bool),
                    objective_value=_sums(spec, y, x)[0],
                    solver_info=SolverInfo(iterations=iters, converged=True,
                                           restarts=restarts))


def robust_pool_gradient(x, spec, y):
    """Closed-form gradient row Dy(x), shape (1, n): normalized weights.

        quadratic            w_i = 1                      (exactly (1/n) 1^T)
        pseudo_huber         w_i = (1 + ((y-x_i)/alpha)^2)^(-3/2)
        huber / trunc. quad. w_i = 1{|y - x_i| <= alpha}  (identical forms)
        welsch               w_i = (alpha^2 - (y-x_i)^2)/alpha^4 * exp(...)

    Welsch weights are scaled by the largest exponent before normalization
    so they stay representable.  A zero (or fully cancelling) weight sum
    raises UndefinedGradient.  one_sided is set when y sits on a Huber or
    TruncatedQuadratic kink (|y - x_i| = alpha within 1e-9).
    """
    x = np.asarray(x, dtype=float).ravel()
    spec = spec if isinstance(spec, PenaltySpec) else PenaltySpec(spec)
    y = float(np.asarray(y, dtype=float).ravel()[0]) if np.ndim(y) else float(y)
    w, wsum = _kernels.penalty_weights(spec.code, spec.alpha, y, x)
    if wsum == 0.0 or abs(wsum) <= 1e-12 * float(np.sum(np.abs(w))):
        raise UndefinedGradient(
            f"penalty weight sum {wsum!r} at y={y} over n={x.size} points "
            f"(penalty={spec.kind.value}, alpha={spec.alpha})")
    one_sided = False
    if spec.kind in (Penalty.HUBER, Penalty.TRUNCATED_QUADRATIC):
        one_sided = bool(np.any(np.abs(np.abs(y - x) - spec.alpha) <= KINK_TOL))
    return Jacobian((w / wsum)[None, :], one_sided=one_sided)


def as_problem(spec, n):
    """The pooling node as a DeclarativeProblem (m = 1) with analytic first
    derivatives and on-demand mixed-derivative column blocks, for
    cross-checking against the generic gradient engine."""
    spec = spec if isinstance(spec, PenaltySpec) else PenaltySpec(spec)

    def objective(x, u):
        return _sums(spec, u[0], np.asarray(x, dtype=float))[0]

    def f_y(x, u):
        return np.array([_sums(spec, u[0], np.asarray(x, dtype=float))[1]])

    def b_columns(x, u, cols):
        # columns cols of D2_XY f: d2 phi/du dx_i = -phi''(u - x_i)
        return np.array([[-penalty_d2(spec, u[0] - x[i]) for i in cols]])

    return DeclarativeProblem(
        objective=objective, input_dim=n, output_dim=1,
        derivatives=Derivatives(f_y=f_y, b_columns=b_columns))
