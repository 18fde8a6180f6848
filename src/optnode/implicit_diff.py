"""Backward-pass engine: exact Jacobians of argmin solution maps.

Given a problem, an input x, and a stationary solution y, these functions
return the dense derivative Dy(x) of the solution map without ever
differentiating through solver iterates.  Each problem sub-class has its
own path:

* gradient_unconstrained      -H^-1 B
* gradient_equality           full multiplier-corrected formula over h
* gradient_inequality         same formula over the active constraint stack
* gradient_feasibility        A Dy = -C for constraint-only problems
* gradient_single_constraint  rank-one shortcut for one x-independent h
* gradient_linear_equality    shortcut for Au = d
* pseudo_inverse_descent      minimum-norm descent direction, singular H

with H = D2_YY f - sum_i lambda_i D2_YY h~_i and B the mixed x/u analogue,
A = D_Y h~, C = D_X h~ over the active stack h~.  Second derivatives come
from analytic callbacks when the problem carries them and from numdiff
otherwise.  vjp() evaluates v^T Dy(x) left-to-right, optionally streaming
B in blocks of max(1, n // m) columns from the problem's b_columns callback,
one callback and one product per block, so the full matrix is never stored.
H is factored once per context (Cholesky, LU when that fails); its condition
gate reads LAPACK's estimate on that factor rather than an SVD.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from . import numdiff
from .core import (DimensionMismatch, Jacobian, RankDeficientConstraints,
                   SingularHessian, UndefinedGradient)

COND_LIMIT = 1e12        # condition-estimate gate for H and AA^T
PIVOT_RTOL = 1e-10       # rank-repair pivot cutoff, relative to largest pivot
SV_CUTOFF_RTOL = 1e-10   # pseudo-inverse singular-value cutoff
ACTIVE_TOL = 1e-8        # g_i active iff g_i(x, y) >= -ACTIVE_TOL
ZERO_MULTIPLIER_TOL = 1e-8

# Names used by the gradcheck registry to assert coverage.
GRADIENT_PATHS = ("unconstrained", "equality", "inequality", "feasibility",
                  "single_constraint", "linear_equality", "pseudo_inverse",
                  "vjp")


# ---------------------------------------------------------------------------
# Factorizations and allocation accounting
# ---------------------------------------------------------------------------

class _Factor:
    """Solve handle for symmetric H, factored once on construction:
    Cholesky when positive definite, LU otherwise.

    cond is LAPACK's estimate of the 1-norm condition number, read off the
    factor just computed (dpocon for Cholesky, dgecon for LU), so callers
    can gate before solving without an SVD.  H with a non-finite entry is
    not factored and gets cond = inf.
    """

    def __init__(self, H):
        self.H = H
        self._cho = None
        self._lu = None
        if not np.all(np.isfinite(H)):
            self.cond = np.inf
            return
        anorm = float(np.linalg.norm(H, 1))
        try:
            self._cho = scipy.linalg.cho_factor(H, lower=True,
                                                check_finite=False)
            rcond, _ = lapack.dpocon(self._cho[0], anorm, uplo="L")
        except scipy.linalg.LinAlgError:
            with warnings.catch_warnings():
                # an exactly singular pivot shows up as rcond = 0 below
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                self._lu = scipy.linalg.lu_factor(H, check_finite=False)
            rcond, _ = lapack.dgecon(self._lu[0], anorm, norm="1")
        self.cond = 1.0 / rcond if rcond > 0.0 else np.inf

    def solve(self, rhs):
        if self._cho is not None:
            return scipy.linalg.cho_solve(self._cho, rhs)
        return scipy.linalg.lu_solve(self._lu, rhs)


class _PinvFactor:
    """Solve handle backed by the Moore-Penrose pseudo-inverse."""

    def __init__(self, H):
        if not np.all(np.isfinite(H)):
            raise SingularHessian(
                f"cond(H) ~ inf (non-finite entries), H shape {H.shape}")
        self.H = H
        self._pinv = np.linalg.pinv(H, rcond=SV_CUTOFF_RTOL)

    def solve(self, rhs):
        return self._pinv @ rhs


class AllocationCounter:
    """Counts scalars of auxiliary storage allocated on vjp's behalf.

    peak is the high-water mark of live auxiliary scalars; the returned
    result vector is not counted.  Used by tests to verify the streaming
    path's O(m) claim against the materialized path's O(mn).
    """

    def __init__(self):
        self.live = 0
        self.peak = 0
        self.total = 0

    def adopt(self, a):
        self.live += a.size
        self.total += a.size
        self.peak = max(self.peak, self.live)
        return a

    def release(self, a):
        self.live -= a.size


class _NullCounter:
    def adopt(self, a):
        return a

    def release(self, a):
        pass


# ---------------------------------------------------------------------------
# Derivative sourcing (analytic callbacks preferred, numdiff otherwise)
# ---------------------------------------------------------------------------

def _f_y(problem, x, y):
    d = problem.derivatives
    if d is not None and d.f_y is not None:
        return np.asarray(d.f_y(x, y), dtype=float)
    return numdiff.fd_gradient(lambda u: problem.objective(x, u), y)


def _objective_blocks(problem, x, y):
    """(H_f symmetrized, B_f); numeric pieces only where analytic missing."""
    d = problem.derivatives
    f_yy = np.asarray(d.f_yy(x, y), dtype=float) if d and d.f_yy else None
    f_xy = np.asarray(d.f_xy(x, y), dtype=float) if d and d.f_xy else None
    if f_yy is None or f_xy is None:
        stripped = dataclasses.replace(problem, eq_constraints=None,
                                       ineq_constraints=None)
        fdb = numdiff.fd_hessian_blocks(stripped, x, y)
        f_yy = fdb.H_f if f_yy is None else f_yy
        f_xy = fdb.B_f if f_xy is None else f_xy
    return 0.5 * (f_yy + f_yy.T), f_xy


def _constraint_first(problem, x, y, which):
    """Constraint Jacobians (A, C) = (D_Y, D_X) for 'h' or 'g' rows."""
    fn = problem.eq_constraints if which == "h" else problem.ineq_constraints
    if fn is None:
        return (np.zeros((0, problem.output_dim)),
                np.zeros((0, problem.input_dim)))
    d = problem.derivatives
    a_cb = getattr(d, which + "_y", None) if d is not None else None
    c_cb = getattr(d, which + "_x", None) if d is not None else None
    A = (np.asarray(a_cb(x, y), dtype=float) if a_cb is not None
         else numdiff.fd_jacobian(lambda u: fn(x, u), y))
    C = (np.asarray(c_cb(x, y), dtype=float) if c_cb is not None
         else numdiff.fd_jacobian(lambda z: fn(z, y), x))
    return np.atleast_2d(A), np.atleast_2d(C)


def _constraint_second(problem, x, y, which):
    """Per-row (yy, xy) second-derivative blocks for 'h' or 'g'."""
    d = problem.derivatives
    yy_cb = getattr(d, which + "_yy", None) if d is not None else None
    xy_cb = getattr(d, which + "_xy", None) if d is not None else None
    if yy_cb is not None and xy_cb is not None:
        return (np.asarray(yy_cb(x, y), dtype=float),
                np.asarray(xy_cb(x, y), dtype=float))
    keep = {"eq_constraints": None, "ineq_constraints": None, "objective": None}
    key = "eq_constraints" if which == "h" else "ineq_constraints"
    keep[key] = getattr(problem, key)
    stripped = dataclasses.replace(problem, **keep)
    fdb = numdiff.fd_hessian_blocks(stripped, x, y)
    yy, xy = (fdb.h_yy, fdb.h_xy) if which == "h" else (fdb.g_yy, fdb.g_xy)
    if yy_cb is not None:
        yy = np.asarray(yy_cb(x, y), dtype=float)
    if xy_cb is not None:
        xy = np.asarray(xy_cb(x, y), dtype=float)
    return yy, xy


# ---------------------------------------------------------------------------
# Rank repair and multiplier recovery
# ---------------------------------------------------------------------------

def _rank_repair(A):
    """Indices of a maximal well-conditioned row subset of A, via pivoted QR.

    Rows whose pivot magnitude falls below PIVOT_RTOL times the largest
    pivot are dropped (their multipliers are fixed to zero by callers).
    Returns (kept_indices, dropped_indices), kept in original order.
    """
    if A.shape[0] == 0:
        return np.array([], dtype=int), np.array([], dtype=int)
    _, R, piv = scipy.linalg.qr(A.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return np.array([], dtype=int), np.arange(A.shape[0])
    nkeep = int(np.sum(diag >= PIVOT_RTOL * diag[0]))
    kept = np.sort(piv[:nkeep])
    dropped = np.sort(piv[nkeep:])
    return kept, dropped


def _checked_multipliers(multipliers, want, rows):
    """Caller-supplied multipliers as a float vector of length want."""
    lam = np.asarray(multipliers, dtype=float).ravel()
    if lam.size != want:
        raise DimensionMismatch(
            f"multipliers: expected length {want} ({rows}), got {lam.size}")
    return lam


def recover_multipliers(A, grad_f):
    """Analytic multipliers lambda = (A A^T)^-1 A (D_Y f)^T.

    A must have full row rank; the residual ||lambda^T A - D_Y f||_inf is
    zero (to tolerance) whenever y is a stationary point.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    grad_f = np.asarray(grad_f, dtype=float).ravel()
    fm = _Factor(A @ A.T)
    if not np.isfinite(fm.cond) or fm.cond > COND_LIMIT:
        raise RankDeficientConstraints(
            f"cond(AA^T) ~ {fm.cond:.3e} for A of shape {A.shape}")
    return fm.solve(A @ grad_f)


# ---------------------------------------------------------------------------
# Gradient context (shared by the paths and by vjp)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientContext:
    """Everything the backward pass needs at one (x, y).

    H is symmetrized on construction; A has no all-zero rows (rank repair
    runs before the context is built).  B may be None when b_columns
    generates blocks of columns on demand (streaming): b_columns(cols)
    returns B[:, cols], shape (m, len(cols)), for an integer index array
    cols.  h_factorization is an opaque solve handle for H, reusable
    across blocks and across VJPs.
    """

    H: np.ndarray                      # (m, m)
    B: Optional[np.ndarray]            # (m, n) or None when streaming
    A: np.ndarray                      # (k, m), k = p + active inequality count
    C: np.ndarray                      # (k, n)
    h_factorization: object
    n: int
    b_columns: Optional[Callable] = None   # cols -> (m, len(cols))
    one_sided: bool = False
    rank_deficient_fallback: bool = False


def _gate_hessian(H, constrained, problem_dims):
    fr = _Factor(H)
    if not np.isfinite(fr.cond) or fr.cond > COND_LIMIT:
        where = "constrained" if constrained else "unconstrained"
        raise SingularHessian(
            f"cond(H) ~ {fr.cond:.3e} on {where} problem, H shape {H.shape}, "
            f"dims {problem_dims}")
    return fr


def _gate_schur(A, HiAt):
    """Factor of the symmetric A H^-1 A^T, gated on its condition estimate."""
    M = A @ HiAt
    fm = _Factor(0.5 * (M + M.T))
    if not np.isfinite(fm.cond) or fm.cond > COND_LIMIT:
        raise RankDeficientConstraints(
            f"cond(A H^-1 A^T) ~ {fm.cond:.3e}, A shape {A.shape}")
    return fm


def _constrained_dy(fr, A, B, C, cnt=None):
    """Dy = H^-1 A^T (A H^-1 A^T)^-1 (A H^-1 B - C) - H^-1 B."""
    cnt = cnt if cnt is not None else _NullCounter()
    HiB = cnt.adopt(fr.solve(B))
    HiAt = cnt.adopt(fr.solve(A.T))
    S = cnt.adopt(_gate_schur(A, HiAt).solve(A @ HiB - C))
    return cnt.adopt(HiAt @ S - HiB)


# ---------------------------------------------------------------------------
# Gradient paths
# ---------------------------------------------------------------------------

def gradient_unconstrained(problem, x, y, pseudo_inverse_fallback=True):
    """Dy = -H^-1 B for an unconstrained stationary y.

    Falls back to pseudo_inverse_descent when H's condition estimate
    exceeds 1e12, unless the fallback is disabled, in which case
    SingularHessian is raised.
    """
    x = np.asarray(x, dtype=float); y = np.asarray(y, dtype=float)
    H, B = _objective_blocks(problem, x, y)
    fr = _Factor(H)
    if not np.isfinite(fr.cond) or fr.cond > COND_LIMIT:
        if pseudo_inverse_fallback:
            return pseudo_inverse_descent(problem, x, y)
        raise SingularHessian(
            f"cond(H) ~ {fr.cond:.3e}, H shape {H.shape}, fallback disabled")
    return Jacobian(-fr.solve(B))


def gradient_equality(problem, x, y, multipliers=None):
    """Equality-constrained Dy via the multiplier-corrected formula.

    Rank repair drops linearly dependent rows of A (their multipliers are
    fixed to zero); multipliers are recovered analytically when absent.
    """
    ctx, _ = _equality_context(problem, x, y, multipliers)
    return Jacobian(jacobian_from_context(ctx),
                    rank_deficient_fallback=ctx.rank_deficient_fallback)


def _equality_context(problem, x, y, multipliers=None):
    x = np.asarray(x, dtype=float); y = np.asarray(y, dtype=float)
    A_all, C_all = _constraint_first(problem, x, y, "h")
    p = A_all.shape[0]
    if multipliers is not None:
        multipliers = _checked_multipliers(multipliers, p, "p")
    if p == 0:
        # degenerate stack: lambda is empty and the formula collapses to
        # the unconstrained -H^-1 B
        H_f, B_f = _objective_blocks(problem, x, y)
        H = 0.5 * (H_f + H_f.T)
        fr = _gate_hessian(H, constrained=False,
                           problem_dims=f"m={y.size} n={x.size} p=0")
        ctx = GradientContext(H=H, B=B_f, A=np.zeros((0, y.size)),
                              C=np.zeros((0, x.size)), h_factorization=fr,
                              n=x.size)
        return ctx, np.zeros(0)
    kept, dropped = _rank_repair(A_all)
    if kept.size == 0:
        raise RankDeficientConstraints(
            f"all {p} equality rows dropped by rank repair (A = 0), m={y.size}")
    A = A_all[kept]
    if multipliers is None:
        lam_kept = recover_multipliers(A, _f_y(problem, x, y))
        lam = np.zeros(p)
        lam[kept] = lam_kept
    else:
        lam = multipliers.copy()
        lam[dropped] = 0.0

    H_f, B_f = _objective_blocks(problem, x, y)
    h_yy, h_xy = _constraint_second(problem, x, y, "h")
    H = H_f.copy()
    B = B_f.copy()
    for i in range(p):
        if lam[i] != 0.0:
            H -= lam[i] * h_yy[i]
            B -= lam[i] * h_xy[i]
    H = 0.5 * (H + H.T)
    fr = _gate_hessian(H, constrained=True,
                       problem_dims=f"m={y.size} n={x.size} p={p}")
    ctx = GradientContext(H=H, B=B, A=A, C=C_all[kept], h_factorization=fr,
                          n=x.size, rank_deficient_fallback=dropped.size > 0)
    return ctx, lam


def gradient_inequality(problem, x, y, multipliers=None,
                        zero_multiplier_branch="constrained"):
    """Dy over the active constraint stack (equalities plus active
    inequalities), per the active-set formula.

    Active means g_i(x, y) >= -1e-8.  one_sided is set whenever an active
    inequality multiplier is within 1e-8 of zero; for such rows the rule
    selected by zero_multiplier_branch applies:

    * "constrained" (default): keep the row in the stack,
    * "unconstrained": drop it and differentiate as if inactive,
    * "reject": raise UndefinedGradient.

    Neither branch is claimed optimal for learning dynamics; the true
    derivative is one-sided either way.
    """
    x = np.asarray(x, dtype=float); y = np.asarray(y, dtype=float)
    if zero_multiplier_branch not in ("constrained", "unconstrained", "reject"):
        raise ValueError(f"unknown branch rule {zero_multiplier_branch!r}")

    gv = (np.atleast_1d(np.asarray(problem.ineq_constraints(x, y), dtype=float))
          if problem.ineq_constraints is not None else np.zeros(0))
    q = gv.shape[0]
    active = gv >= -ACTIVE_TOL

    A_h, C_h = _constraint_first(problem, x, y, "h")
    p = A_h.shape[0]
    A_g, C_g = _constraint_first(problem, x, y, "g")
    if multipliers is not None:
        multipliers = _checked_multipliers(multipliers, p + q, "p + q")
    act_idx = np.flatnonzero(active)
    A_all = np.vstack([A_h, A_g[act_idx]])
    C_all = np.vstack([C_h, C_g[act_idx]])
    k = A_all.shape[0]

    if k == 0:
        return gradient_unconstrained(problem, x, y,
                                      pseudo_inverse_fallback=False)

    kept, dropped = _rank_repair(A_all)
    if kept.size == 0:
        raise RankDeficientConstraints(
            f"all {k} active rows dropped by rank repair (A = 0), m={y.size}")
    lam = np.zeros(k)
    if multipliers is None:
        lam[kept] = recover_multipliers(A_all[kept], _f_y(problem, x, y))
    else:
        lam[:p] = multipliers[:p]
        lam[p:] = multipliers[p:][act_idx]
        lam[dropped] = 0.0

    # scenario handling for active inequalities with (near-)zero multiplier
    ineq_lam = lam[p:]
    zero_rows = np.flatnonzero(np.abs(ineq_lam) <= ZERO_MULTIPLIER_TOL) + p
    one_sided = zero_rows.size > 0
    if one_sided and zero_multiplier_branch == "reject":
        raise UndefinedGradient(
            f"{zero_rows.size} active inequality rows with zero multiplier "
            f"(gradient one-sided), stack shape {A_all.shape}")
    stack = [i for i in kept
             if not (zero_multiplier_branch == "unconstrained" and i in zero_rows)]

    H_f, B_f = _objective_blocks(problem, x, y)
    H = H_f.copy()
    B = B_f.copy()
    if p and np.any(lam[:p] != 0.0):
        h_yy, h_xy = _constraint_second(problem, x, y, "h")
        for i in range(p):
            if lam[i] != 0.0:
                H -= lam[i] * h_yy[i]
                B -= lam[i] * h_xy[i]
    if act_idx.size and np.any(lam[p:] != 0.0):
        g_yy, g_xy = _constraint_second(problem, x, y, "g")
        for j, gi in enumerate(act_idx):
            if lam[p + j] != 0.0:
                H -= lam[p + j] * g_yy[gi]
                B -= lam[p + j] * g_xy[gi]
    H = 0.5 * (H + H.T)
    fr = _gate_hessian(H, constrained=bool(stack),
                       problem_dims=f"m={y.size} n={x.size} p={p} q={q}")
    if not stack:
        return Jacobian(-fr.solve(B), one_sided=one_sided)
    stack = np.asarray(stack, dtype=int)
    Dy = _constrained_dy(fr, A_all[stack], B, C_all[stack])
    return Jacobian(Dy, one_sided=one_sided,
                    rank_deficient_fallback=dropped.size > 0)


def gradient_feasibility(problem, x, y):
    """Dy for constraint-only problems: solve A Dy = -C.

    Exact solve when rank(A) = m (square or consistent over-determined).
    For 1 <= rank < m the minimum-norm pseudo-inverse solution is returned
    with rank_deficient_fallback set.  A = 0 raises.
    """
    x = np.asarray(x, dtype=float); y = np.asarray(y, dtype=float)
    A_h, C_h = _constraint_first(problem, x, y, "h")
    blocks_A, blocks_C = [A_h], [C_h]
    if problem.ineq_constraints is not None:
        gv = np.atleast_1d(problem.ineq_constraints(x, y))
        A_g, C_g = _constraint_first(problem, x, y, "g")
        act = np.flatnonzero(gv >= -ACTIVE_TOL)
        blocks_A.append(A_g[act]); blocks_C.append(C_g[act])
    A = np.vstack(blocks_A)
    C = np.vstack(blocks_C)
    if A.shape[0] == 0 or not np.any(A):
        raise RankDeficientConstraints(
            f"A = 0 for feasibility problem, stack shape {A.shape}")
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(sv > PIVOT_RTOL * sv[0]))
    m = y.size
    if rank == m:
        if A.shape[0] == m:
            return Jacobian(np.linalg.solve(A, -C))
        Dy, *_ = np.linalg.lstsq(A, -C, rcond=None)
        return Jacobian(Dy)
    Dy = -np.linalg.pinv(A, rcond=SV_CUTOFF_RTOL) @ C
    return Jacobian(Dy, rank_deficient_fallback=True)


def gradient_single_constraint(problem, x, y):
    """Rank-one shortcut for exactly one x-independent equality constraint.

    Dy = (H^-1 a a^T H^-1 / (a^T H^-1 a) - H^-1) B, with the multiplier
    recovered from any nonzero coordinate of a = (D_Y h)^T (the largest in
    magnitude is used for stability).
    """
    x = np.asarray(x, dtype=float); y = np.asarray(y, dtype=float)
    A, _ = _constraint_first(problem, x, y, "h")
    if A.shape[0] != 1:
        raise DimensionMismatch(
            f"single-constraint path requires p=1, got p={A.shape[0]}")
    a = A[0]
    i = int(np.argmax(np.abs(a)))
    if a[i] == 0.0:
        raise UndefinedGradient(f"D_Y h(y) = 0 at y of size {y.size}")
    lam = float(_f_y(problem, x, y)[i] / a[i])

    H_f, B = _objective_blocks(problem, x, y)
    h_yy, _ = _constraint_second(problem, x, y, "h")
    H = 0.5 * ((H_f - lam * h_yy[0]) + (H_f - lam * h_yy[0]).T)
    fr = _gate_hessian(H, constrained=True,
                       problem_dims=f"m={y.size} n={x.size} p=1")
    Ha = fr.solve(a)
    den = float(a @ Ha)
    if den == 0.0 or not np.isfinite(den):
        raise SingularHessian(
            f"a^T H^-1 a = {den!r} degenerate, H shape {H.shape}")
    return Jacobian(np.outer(Ha, Ha @ B) / den - fr.solve(B))


def gradient_linear_equality(problem, x, y, A):
    """Shortcut for linear constraints A u = d with d independent of x:
    Dy = (H^-1 A^T (A H^-1 A^T)^-1 A H^-1 - H^-1) B with plain H, B."""
    x = np.asarray(x, dtype=float); y = np.asarray(y, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    kept, _ = _rank_repair(A)
    if kept.size == 0:
        raise RankDeficientConstraints(f"A = 0, shape {A.shape}")
    A = A[kept]
    H_f, B = _objective_blocks(problem, x, y)
    H = 0.5 * (H_f + H_f.T)
    fr = _gate_hessian(H, constrained=True,
                       problem_dims=f"m={y.size} n={x.size} p={A.shape[0]}")
    return Jacobian(_constrained_dy(fr, A, B, np.zeros((A.shape[0], x.size))))


def pseudo_inverse_descent(problem, x, y):
    """Minimum-norm descent direction -H^+ B for singular H.

    Singular values below 1e-10 times the largest are cut off.  This is
    the zero-extra-term member of the family of valid descent directions;
    no selection among the family is attempted.
    """
    x = np.asarray(x, dtype=float); y = np.asarray(y, dtype=float)
    H, B = _objective_blocks(problem, x, y)
    return Jacobian(-_PinvFactor(H).solve(B), rank_deficient_fallback=True)


# ---------------------------------------------------------------------------
# Contexts and VJPs
# ---------------------------------------------------------------------------

def build_context(problem, x, y, multipliers=None, path="auto",
                  zero_multiplier_branch="constrained"):
    """Build a GradientContext for repeated VJPs at one (x, y).

    path "auto" dispatches on the problem's constraint structure.  For the
    feasibility path the solved Jacobian is stored directly (H = I,
    B = -Dy), which keeps both vjp modes exact.  Streaming contexts (B
    generated in column blocks) arise when the problem supplies a
    b_columns callback and the path is unconstrained.  A non-finite H
    raises SingularHessian.
    """
    x = np.asarray(x, dtype=float); y = np.asarray(y, dtype=float)
    if path == "auto":
        if problem.objective is None:
            path = "feasibility"
        elif problem.ineq_constraints is not None:
            path = "inequality"
        elif problem.eq_constraints is not None:
            path = "equality"
        else:
            path = "unconstrained"

    m, n = y.size, x.size
    if path == "unconstrained" or path == "pseudo_inverse":
        d = problem.derivatives
        stream = (path == "unconstrained" and d is not None
                  and d.b_columns is not None)
        if stream:
            # never touch f_xy here: H alone, so no (m, n) block is formed
            if d.f_yy is not None:
                H = np.asarray(d.f_yy(x, y), dtype=float)
            elif d.f_y is not None:
                H = numdiff.fd_jacobian(
                    lambda u: np.asarray(d.f_y(x, u), dtype=float), y)
            else:
                H = numdiff.fd_jacobian(
                    lambda u: numdiff.fd_gradient(
                        lambda uu: problem.objective(x, uu), u), y)
            H = 0.5 * (H + H.T)
            B = None
            b_col = lambda cols: np.asarray(d.b_columns(x, y, cols),
                                            dtype=float)
        else:
            H, B = _objective_blocks(problem, x, y)
            b_col = None
        if path == "pseudo_inverse":
            fr = _PinvFactor(H)
            return GradientContext(H=H, B=B, A=np.zeros((0, m)),
                                   C=np.zeros((0, n)), h_factorization=fr,
                                   n=n, b_columns=b_col,
                                   rank_deficient_fallback=True)
        fr = _Factor(H)
        if not np.isfinite(fr.cond) or fr.cond > COND_LIMIT:
            fr = _PinvFactor(H)
            return GradientContext(H=H, B=B, A=np.zeros((0, m)),
                                   C=np.zeros((0, n)), h_factorization=fr,
                                   n=n, b_columns=b_col,
                                   rank_deficient_fallback=True)
        return GradientContext(H=H, B=B, A=np.zeros((0, m)),
                               C=np.zeros((0, n)), h_factorization=fr, n=n,
                               b_columns=b_col)

    if path == "equality":
        ctx, _ = _equality_context(problem, x, y, multipliers)
        return ctx

    if path == "inequality":
        # reuse gradient_inequality's stack logic by rebuilding the pieces
        jac = gradient_inequality(problem, x, y, multipliers,
                                  zero_multiplier_branch)
        return _context_from_jacobian(jac, m, n)

    if path == "feasibility":
        jac = gradient_feasibility(problem, x, y)
        return _context_from_jacobian(jac, m, n)

    raise ValueError(f"unknown gradient path {path!r}")


def _context_from_jacobian(jac, m, n):
    """Wrap an already-solved Jacobian as a context: H = I, B = -Dy."""
    H = np.eye(m)
    return GradientContext(H=H, B=-jac.matrix, A=np.zeros((0, m)),
                           C=np.zeros((0, n)), h_factorization=_Factor(H),
                           n=n, one_sided=jac.one_sided,
                           rank_deficient_fallback=jac.rank_deficient_fallback)


def jacobian_from_context(context, counter=None):
    """Materialize the full Dy(x) from a context, shape (m, n)."""
    cnt = counter if counter is not None else _NullCounter()
    fr = context.h_factorization
    B = context.B
    if B is None:
        B = cnt.adopt(context.b_columns(np.arange(context.n)))
    if context.A.shape[0] == 0:
        return cnt.adopt(-fr.solve(B))
    return _constrained_dy(fr, context.A, B, context.C, cnt)


def vjp(v, context, mode="materialize", counter=None):
    """v^T Dy(x) for a prepared context, shape (n,).

    mode "materialize" forms Dy and multiplies.  mode "stream_columns"
    computes the cached intermediate v~ = -H^-1 v (plus constraint
    correction terms) and returns v~^T B - s^T C.  On a streaming context
    B is generated in blocks of max(1, n // m) columns, one b_columns
    call and one product per block, so auxiliary storage stays O(m + n)
    and the full matrix is never stored; both modes agree to 1e-12.  Pass
    an AllocationCounter to measure auxiliary storage.
    """
    v = np.asarray(v, dtype=float).ravel()
    cnt = counter if counter is not None else _NullCounter()
    if mode == "materialize":
        Dy = jacobian_from_context(context, counter)
        return v @ Dy
    if mode != "stream_columns":
        raise ValueError(f"unknown vjp mode {mode!r}")

    fr = context.h_factorization
    k = context.A.shape[0]
    if k:
        w = cnt.adopt(fr.solve(v))
        HiAt = cnt.adopt(fr.solve(context.A.T))
        s = cnt.adopt(_gate_schur(context.A, HiAt).solve(context.A @ w))
        vt = cnt.adopt(fr.solve(context.A.T @ s - v))
    else:
        s = None
        vt = cnt.adopt(-fr.solve(v))

    if context.B is not None:
        out = vt @ context.B
    else:
        n = context.n
        out = np.empty(n)   # the result itself, not auxiliary storage
        step = max(1, n // vt.size)
        for start in range(0, n, step):
            cols = cnt.adopt(np.arange(start, min(start + step, n)))
            block = cnt.adopt(context.b_columns(cols))
            out[start:start + cols.size] = vt @ block
            cnt.release(block)
            cnt.release(cols)
    if s is not None:
        out -= s @ context.C
    return out
