"""Robust pooling node: the one-dimensional robust mean.

    y(x) = argmin_u  sum_i phi(u - x_i; alpha)

for five penalty functions phi.  Quadratic pooling is the ordinary mean;
the others trade efficiency for outlier resistance, controlled by alpha.
Forward solvers are exact scalar searches: safeguarded Newton for the
convex penalties, and for the non-convex ones Newton with a half-quadratic
majorise-minimise safeguard from two starts; each takes a small, bounded
number of kernel passes.  The backward pass has closed-form
normalized-weight gradients.

Penalties, with z = u - x_i:

    quadratic            0.5 z^2
    pseudo_huber         alpha^2 (sqrt(1 + (z/alpha)^2) - 1)
    huber                0.5 z^2 if |z| <= alpha else alpha (|z| - alpha/2)
    welsch               1 - exp(-z^2 / (2 alpha^2))
    truncated_quadratic  0.5 z^2 if |z| <= alpha else 0.5 alpha^2
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (DeclarativeProblem, Derivatives, InfeasibleProblem,
                   Jacobian, Solution, SolverDiverged, SolverInfo,
                   UndefinedGradient, STATIONARITY_TOL)

KINK_TOL = 1e-9          # |y - x_i| within this of alpha counts as a kink
TIE_TOL = 1e-12          # multi-start objective tie breaker
LEVEL_RTOL = 1e-14       # relative gap in f that is level to rounding
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
    """Penalty selection plus robustness parameter alpha (finite, > 0)."""

    kind: Penalty
    alpha: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, Penalty):
            object.__setattr__(self, "kind", Penalty(self.kind))
        if not 0 < self.alpha < math.inf:
            raise ValueError(
                f"alpha must be positive and finite, got {self.alpha}")

    @property
    def code(self):
        return _CODES[self.kind]


_ZERO1 = np.zeros(1)


def penalty_value(spec, z):
    """phi(z) for the selected penalty."""
    return _kernels.penalty_sums(spec.code, spec.alpha, float(z), _ZERO1)[0]


def penalty_d1(spec, z):
    """phi'(z).  One-sided (inner-branch) value at kinks."""
    return _kernels.penalty_sums(spec.code, spec.alpha, float(z), _ZERO1)[1]


def penalty_d2(spec, z):
    """phi''(z).  At |z| = alpha the inner quadratic branch is used."""
    return _kernels.penalty_sums(spec.code, spec.alpha, float(z), _ZERO1)[2]


def _sums(spec, u, x):
    return _kernels.penalty_sums(spec.code, spec.alpha, float(u), x)


def _newton_bisect(spec, x, lo, hi, tol, max_iters):
    """Safeguarded Newton on f'(u) = 0 over the bracket [lo, hi] of x.

    The convex penalties give a nondecreasing f', so the bracket is valid
    and bisection alone would converge; Newton steps are taken whenever
    they stay inside the shrinking bracket.  Returns (u, iterations,
    (f, f', f'') at u).
    """
    if lo == hi:
        return lo, 0, _sums(spec, lo, x)
    u = float(np.mean(x))
    for it in range(1, max_iters + 1):
        sums = _sums(spec, u, x)
        _, d1, d2 = sums
        if abs(d1) <= tol:
            return u, it, sums
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
            return u, it, sums
        u = un
    return u, max_iters, _sums(spec, u, x)


def _local_descent(spec, x, u0, lo, hi, tol, max_iters):
    """Newton with a majorise-minimise (MM) safeguard from u0, in [lo, hi].

    Newton is taken when f'' > 0 and it lowers f (or, with f level to
    rounding, |f'|).  Otherwise the step minimises the half-quadratic
    majoriser of f at u (Holland & Welsch 1977; Black & Rangarajan 1996):
    u - f'/M, M = sum_i exp(-z_i^2 / 2 alpha^2) / alpha^2 = (n - f) / alpha^2
    for Welsch; for the truncated quadratic M = f'', so Newton is the MM
    step.  The MM step never raises f, and it keeps doubling while f falls.
    No step goes uphill, so the search never jumps basins uphill.  Returns
    (u, iterations, (f, f', f'') at u).
    """
    u = min(max(float(u0), lo), hi)
    sums = _sums(spec, u, x)
    it = 0
    for it in range(1, max_iters + 1):
        f, d1, d2 = sums
        if abs(d1) <= tol:
            break
        if d2 > 0.0:
            un = min(max(u - d1 / d2, lo), hi)
            if un != u:
                sn = _sums(spec, un, x)
                if sn[0] < f or (sn[0] <= f + LEVEL_RTOL * f
                                 and abs(sn[1]) < abs(d1)):
                    u, sums = un, sn
                    continue
        if spec.kind is not Penalty.WELSCH:
            break                      # the rejected Newton step was the MM step
        m = (x.size - f) / (spec.alpha * spec.alpha)
        # every weight below the rounding of f: walk by alpha instead
        step = -d1 / m if m > 0.0 else -math.copysign(spec.alpha, d1)
        un = min(max(u + step, lo), hi)
        if un == u:
            break
        sn = _sums(spec, un, x)
        if not (sn[0] <= f or _concave_fall(sums, sn)):
            break
        while True:
            step *= 2.0
            uc = min(max(u + step, lo), hi)
            if uc == un:
                break
            sc = _sums(spec, uc, x)
            if not (sc[0] < sn[0] or _concave_fall(sn, sc)):
                break
            un, sn = uc, sc
        u, sums = un, sn
    return u, it, sums


def _concave_fall(sums, sn):
    """Both points concave with f' of one sign: f fell between them along
    the descent direction, even where the fall is below its rounding."""
    return sums[2] <= 0.0 and sn[2] <= 0.0 and sums[1] * sn[1] > 0.0


def _polish(spec, x, u, sums, lo, hi):
    """Undamped Newton on f' from an already-converged u with sums at u.

    Quadratic convergence drives the root to machine precision in a few
    steps, so candidates that landed in the same basin become bit-identical
    and the multi-start tie break cannot wobble between them.  Each step is
    kept only if it shrinks |f'|.  Returns (u, (f, f', f'') at u).
    """
    for _ in range(8):
        _, d1, d2 = sums
        if d1 == 0.0 or not d2 > 0.0:
            break
        un = min(max(u - d1 / d2, lo), hi)
        if un == u:
            break
        sn = _sums(spec, un, x)
        if abs(sn[1]) >= abs(d1):
            break
        u, sums = un, sn
    return u, sums


def robust_pool(x, spec, tol=1e-10, max_iters=MAX_ITERS):
    """Solve the pooling problem.  Returns a Solution with m = 1.

    Quadratic is the closed-form mean.  PseudoHuber/Huber are convex and
    solved globally by safeguarded Newton.  Welsch/TruncatedQuadratic run
    Newton with the majorise-minimise safeguard from both the mean and the
    median and keep the lower local minimum; an objective tie within 1e-12
    breaks toward smaller y.  The solvers return the (f, f', f'') they last
    computed, which give the objectives and the stationarity check without
    another kernel pass.  Non-finite x raises InfeasibleProblem first.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 1:
        raise ValueError("robust_pool needs at least one value")
    spec = spec if isinstance(spec, PenaltySpec) else PenaltySpec(spec)
    lo = float(np.min(x)); hi = float(np.max(x))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = x.size - int(np.count_nonzero(np.isfinite(x)))
        raise InfeasibleProblem(
            f"pooling input has {bad} non-finite of n={x.size} entries "
            f"(penalty={spec.kind.value}, alpha={spec.alpha})")

    restarts = 0
    if spec.kind is Penalty.QUADRATIC:
        y, iters = float(np.mean(x)), 0
        sums = _sums(spec, y, x)
    elif spec.kind in (Penalty.PSEUDO_HUBER, Penalty.HUBER):
        u, iters, sums = _newton_bisect(spec, x, lo, hi, tol, max_iters)
        y, sums = _polish(spec, x, u, sums, lo, hi)
    else:
        cands = []
        iters = 0
        for u0 in (float(np.mean(x)), float(np.median(x))):
            u, it, sums = _local_descent(spec, x, u0, lo, hi, tol, max_iters)
            cands.append(_polish(spec, x, u, sums, lo, hi))
            iters += it
        (ya, sa), (yb, sb) = cands
        if abs(sa[0] - sb[0]) <= TIE_TOL:
            y, sums = cands[0] if ya <= yb else cands[1]
        else:
            y, sums = cands[0] if sa[0] < sb[0] else cands[1]
        restarts = 1
    # the polish only ever shrinks |f'|, so a solver that stalled a few
    # ulps short of tol is judged by where the polish landed
    if spec.kind is not Penalty.QUADRATIC and not (
            abs(sums[1]) <= max(tol, STATIONARITY_TOL)):
        raise SolverDiverged(
            f"pooling stalled at |f'| = {abs(sums[1]):.3e} after {iters} "
            f"iterations (n={x.size}, penalty={spec.kind.value}, "
            f"alpha={spec.alpha})")
    return Solution(y=np.array([y]), multipliers=np.zeros(0),
                    active_set=np.zeros(0, dtype=bool),
                    objective_value=sums[0],
                    solver_info=SolverInfo(iterations=iters, converged=True,
                                           restarts=restarts))


def robust_pool_gradient(x, spec, y):
    """Closed-form gradient row Dy(x), shape (1, n): normalized weights.

        quadratic            w_i = 1                      (exactly (1/n) 1^T)
        pseudo_huber         w_i = (1 + ((y-x_i)/alpha)^2)^(-3/2)
        huber / trunc. quad. w_i = 1{|y - x_i| <= alpha}  (identical forms)
        welsch               w_i = (alpha^2 - (y-x_i)^2)/alpha^4 * exp(...)

    Welsch weights are scaled by the largest exponent before normalization
    so they stay representable.  A non-finite x or y, or a zero (or fully
    cancelling) weight sum, raises UndefinedGradient.  one_sided is set when y sits on a Huber or
    TruncatedQuadratic kink (|y - x_i| = alpha within 1e-9).
    """
    x = np.asarray(x, dtype=float).ravel()
    spec = spec if isinstance(spec, PenaltySpec) else PenaltySpec(spec)
    y = float(np.asarray(y, dtype=float).ravel()[0]) if np.ndim(y) else float(y)
    if not (math.isfinite(y) and np.all(np.isfinite(x))):
        bad = x.size - int(np.count_nonzero(np.isfinite(x)))
        raise UndefinedGradient(
            f"non-finite pooling point: y={y}, {bad} non-finite of n={x.size} "
            f"entries of x (penalty={spec.kind.value}, alpha={spec.alpha})")
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
