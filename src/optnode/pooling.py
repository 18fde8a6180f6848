"""Robust pooling node: the one-dimensional robust mean.

    y(x) = argmin_u  sum_i phi(u - x_i; alpha)

for five penalty functions phi.  Quadratic pooling is the ordinary mean;
the others trade efficiency for outlier resistance, controlled by alpha.
The forward solve of every non-quadratic penalty is one exact scalar
search, Newton with a majorise-minimise safeguard: from the median for the
convex penalties, and from the mean and the median for the non-convex
ones.  Each takes a small, bounded number of kernel passes.  The backward
pass has closed-form normalized-weight gradients.

robust_pool also pools each row of a (B, n) stack: y has shape (B,) and
the objective is the sum of the row objectives.  The rows (and both starts
of a non-convex row) are solved in lockstep, one kernel pass over the
stack per step, and each row is bit-identical to pooling it alone; a
vector is the B = 1 stack.

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
                   UndefinedGradient, STATIONARITY_TOL, checked, finite)

KINK_TOL = 1e-9          # |y - x_i| within this of alpha counts as a kink
TIE_TOL = 1e-12          # multi-start objective tie breaker
LEVEL_RTOL = 1e-14       # relative gap in f that is level to rounding
MAX_ITERS = 200
_HALF_MAX = 0.5 * float(np.finfo(float).max)


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


# The solvers below are row programs: generators that keep the scalar
# control logic of one row, yield each point u at which they need
# (f, f', f''), are sent those sums back, and return their result.
# _lockstep runs one program per row side by side and makes one kernel
# pass over the stack per step.

def _local_descent(spec, n, u0, lo, hi, tol, max_iters):
    """Newton with a majorise-minimise (MM) safeguard from u0, in [lo, hi],
    over n points: the search for every non-quadratic penalty.

    Newton is taken when f'' > 0 and it lowers f (or, with f level to
    rounding, |f'|).  Otherwise the step minimises a quadratic majoriser of
    f at u, u - f'/M (Holland & Welsch 1977; Black & Rangarajan 1996):
    M = n for pseudo-Huber and Huber, whose phi'' <= 1 makes f' n-Lipschitz;
    M = sum_i exp(-z_i^2 / 2 alpha^2) / alpha^2 = (n - f) / alpha^2 for
    Welsch; for the truncated quadratic M = f'', so Newton is the MM step.
    The MM step never raises f, and it keeps doubling while f falls.  No
    step goes uphill, so the search never jumps basins uphill.  Started
    inside the data, its cost does not grow with the data's scale.  Returns
    (u, iterations, (f, f', f'') at u).
    """
    u = min(max(float(u0), lo), hi)
    sums = yield u
    it = 0
    for it in range(1, max_iters + 1):
        f, d1, d2 = sums
        if abs(d1) <= tol:
            break
        if d2 > 0.0:
            un = min(max(u - d1 / d2, lo), hi)
            if un != u:
                sn = yield un
                if sn[0] < f or (sn[0] <= f + LEVEL_RTOL * f
                                 and abs(sn[1]) < abs(d1)):
                    u, sums = un, sn
                    continue
        if spec.kind is Penalty.TRUNCATED_QUADRATIC:
            break                      # the rejected Newton step was the MM step
        m = ((n - f) / (spec.alpha * spec.alpha)
             if spec.kind is Penalty.WELSCH else float(n))
        # every Welsch weight below the rounding of f: walk by alpha instead
        step = -d1 / m if m > 0.0 else -math.copysign(spec.alpha, d1)
        un = min(max(u + step, lo), hi)
        if un == u:
            break
        sn = yield un
        if not (sn[0] <= f or _concave_fall(sums, sn)):
            break
        while True:
            step *= 2.0
            uc = min(max(u + step, lo), hi)
            if uc == un:
                break
            sc = yield uc
            if not (sc[0] < sn[0] or _concave_fall(sn, sc)):
                break
            un, sn = uc, sc
        u, sums = un, sn
    return u, it, sums


def _concave_fall(sums, sn):
    """Both points concave with f' of one sign: f fell between them along
    the descent direction, even where the fall is below its rounding."""
    return sums[2] <= 0.0 and sn[2] <= 0.0 and sums[1] * sn[1] > 0.0


def _polish(u, sums, lo, hi):
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
        sn = yield un
        if abs(sn[1]) >= abs(d1):
            break
        u, sums = un, sn
    return u, sums


def _polished(search, lo, hi):
    """The search, then _polish from where it stopped: (y, sums,
    iterations of the search)."""
    u, iters, sums = yield from search
    y, sums = yield from _polish(u, sums, lo, hi)
    return y, sums, iters


def _lockstep(spec, X, programs):
    """Run programs[k] on row k of X side by side and return their results.

    Each step makes one kernel pass over the stack of the rows still
    running, so a stack costs as many passes as its longest row.
    """
    out = [None] * len(programs)
    live = list(range(len(programs)))
    us = [next(prog) for prog in programs]    # each needs at least one point
    while live:
        rows = X if len(live) == len(programs) else X[live]
        f, d1, d2 = _kernels.penalty_sums(spec.code, spec.alpha,
                                          np.array(us), rows)
        still, us = [], []
        for k, sums in zip(live, zip(f.tolist(), d1.tolist(), d2.tolist())):
            try:
                us.append(programs[k].send(sums))
                still.append(k)
            except StopIteration as stop:
                out[k] = stop.value
        live = still
    return out


def robust_pool(x, spec, tol=1e-10, max_iters=MAX_ITERS):
    """Solve the pooling problem for a vector x of shape (n,) or for each
    row of a stack x of shape (B, n).  Returns one Solution with y of shape
    (B,), B = 1 for a vector.

    Quadratic is the closed-form mean.  Every other penalty runs one search,
    _local_descent (Newton with a majorise-minimise safeguard).  Pseudo-
    Huber and Huber are convex, so one start at the row median finds the
    global minimum.  Welsch/TruncatedQuadratic start from both the mean and
    the median and keep the lower local minimum; an objective tie within
    1e-12 breaks toward smaller y.  The searches return the (f, f', f'')
    they last computed, which give the objectives and the stationarity
    check without another kernel pass.

    All rows, and both starts of each row, are solved in lockstep with one
    kernel pass per step; row i of a stack is bit-identical to pooling
    x[i] alone.  objective_value is the sum of the row objectives in row
    order, and solver_info.iterations the total over rows.  A row with a
    non-finite entry raises InfeasibleProblem before any kernel pass; a
    finite row whose y or objective overflows (or turns NaN) raises
    SolverDiverged.  Both name the first such row.  An empty stack or row,
    or more than two dimensions, raises ValueError.
    """
    X = np.asarray(x, dtype=float)
    if X.ndim > 2 or X.size < 1:
        raise ValueError(
            f"robust_pool needs a non-empty (n,) or (B, n) array, got shape "
            f"{X.shape}")
    X = np.ascontiguousarray(np.atleast_2d(X))
    B, n = X.shape
    spec = spec if isinstance(spec, PenaltySpec) else PenaltySpec(spec)
    lo, hi = X.min(-1), X.max(-1)
    ok = np.isfinite(lo) & np.isfinite(hi)
    if not ok.all():
        i = int(np.argmin(ok))
        count = n - int(np.count_nonzero(np.isfinite(X[i])))
        raise InfeasibleProblem(
            f"pooling input row {i} has {count} non-finite of n={n} entries "
            f"(penalty={spec.kind.value}, alpha={spec.alpha})")
    lo, hi = lo.tolist(), hi.tolist()

    restarts = 0
    if spec.kind is Penalty.QUADRATIC:
        with np.errstate(over="ignore"):   # an inf y or f is SolverDiverged
            ys = X.mean(-1)
            f, d1, d2 = _kernels.penalty_sums(spec.code, spec.alpha, ys, X)
        rows = [(y, sums, 0) for y, sums in zip(
            ys.tolist(), zip(f.tolist(), d1.tolist(), d2.tolist()))]
    else:
        big = n * max(max(hi), -min(lo)) > _HALF_MAX   # a start may overflow
        starts = _refilled(lambda: _medians(X),
                           lambda: 2.0 * _medians(0.5 * X), big).tolist()
        if spec.kind in (Penalty.WELSCH, Penalty.TRUNCATED_QUADRATIC):
            # lanes 0..B-1 start at the row means, lanes B..2B-1 at the medians
            starts = _refilled(lambda: X.mean(-1), lambda: (X / n).sum(-1),
                               big).tolist() + starts
            X, restarts = np.concatenate([X, X]), 1
        rows = _lockstep(spec, X, [
            _polished(_local_descent(spec, n, u0, lo[k % B], hi[k % B], tol,
                                     max_iters), lo[k % B], hi[k % B])
            for k, u0 in enumerate(starts)])
        if restarts:
            rows = [_lower(a, b) for a, b in zip(rows[:B], rows[B:])]

    objective, iters = 0.0, 0
    for i, (y, sums, it) in enumerate(rows):
        _check_row(spec, i, n, y, sums, it, tol, max(-lo[i], hi[i]))
        objective += sums[0]
        iters += it
    return Solution(y=np.array([row[0] for row in rows]),
                    multipliers=np.zeros(0),
                    active_set=np.zeros(0, dtype=bool),
                    objective_value=objective,
                    solver_info=SolverInfo(iterations=iters, converged=True,
                                           restarts=restarts))


def _medians(X):
    """Row medians of a finite (B, n) stack, bit-identical to
    np.median(X, -1): one partition around the middle, without np.median's
    NaN scan and generic mean.  The sum starts from +0.0, as np.median's
    mean does, so a zero sum is +0.0."""
    n = X.shape[1]
    k = n // 2
    if n % 2:
        return np.partition(X, k, -1)[:, k] + 0.0
    part = np.partition(X, [k - 1, k], -1)
    return 0.5 * (part[:, k - 1] + part[:, k] + 0.0)


def _refilled(ordinary, halved, big):
    """ordinary(); when big, each entry that overflowed to +-inf is taken
    from halved(), the same value computed without the overflowing sum."""
    if not big:
        return ordinary()
    with np.errstate(over="ignore"):
        out = ordinary()
    return np.where(np.isinf(out), halved(), out)


def _lower(a, b):
    """The lower of two local minima (y, sums, iterations) from the two
    starts, iterations summed; an objective tie within TIE_TOL breaks
    toward smaller y."""
    (ya, sa, ia), (yb, sb, ib) = a, b
    if abs(sa[0] - sb[0]) <= TIE_TOL:
        y, sums = (ya, sa) if ya <= yb else (yb, sb)
    else:
        y, sums = (ya, sa) if sa[0] < sb[0] else (yb, sb)
    return y, sums, ia + ib


def _check_row(spec, i, n, y, sums, iters, tol, scale):
    """SolverDiverged for row i if its y or objective is not finite, or if
    its f' at y missed the stationarity tolerance."""
    if not (math.isfinite(y) and math.isfinite(sums[0])):
        raise SolverDiverged(
            f"pooling overflowed in row {i}: y = {y!r}, objective = "
            f"{sums[0]!r} (n={n}, penalty={spec.kind.value}, "
            f"alpha={spec.alpha}, max|x| = {scale:.3e})")
    # the polish only ever shrinks |f'|, so a solver that stalled a few
    # ulps short of tol is judged by where the polish landed
    if spec.kind is not Penalty.QUADRATIC and not (
            abs(sums[1]) <= max(tol, STATIONARITY_TOL)):
        raise SolverDiverged(
            f"pooling stalled in row {i} at |f'| = {abs(sums[1]):.3e} after "
            f"{iters} iterations (n={n}, penalty={spec.kind.value}, "
            f"alpha={spec.alpha})")


def robust_pool_gradient(x, spec, y):
    """Closed-form gradient row Dy(x), shape (1, n): normalized weights.

        quadratic            w_i = 1                      (exactly (1/n) 1^T)
        pseudo_huber         w_i = (1 + ((y-x_i)/alpha)^2)^(-3/2)
        huber / trunc. quad. w_i = 1{|y - x_i| <= alpha}  (identical forms)
        welsch               w_i = (alpha^2 - (y-x_i)^2)/alpha^4 * exp(...)

    Welsch weights are scaled by the largest exponent before normalization
    so they stay representable.  An x not of shape (n,), n >= 1, or a y
    neither a float nor of shape (1,), raises DimensionMismatch; a
    non-finite x or y, or a zero (or fully cancelling) weight sum, raises
    UndefinedGradient.  one_sided is set when y sits on a Huber or
    TruncatedQuadratic kink (|y - x_i| = alpha within 1e-9).
    """
    x = finite("x", checked("x", x, max(np.size(x), 1), 1))
    y = float(finite("y", checked("y", np.atleast_1d(y), x.size, 1))[0])
    spec = spec if isinstance(spec, PenaltySpec) else PenaltySpec(spec)
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
        z = u[0] - x[cols]
        return -_kernels.penalty_sums(spec.code, spec.alpha, z,
                                      np.zeros((z.size, 1)))[2][None, :]

    return DeclarativeProblem(
        objective=objective, input_dim=n, output_dim=1,
        derivatives=Derivatives(f_y=f_y, b_columns=b_columns))
