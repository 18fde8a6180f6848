"""Backward-pass engine: exact Jacobians of argmin solution maps.

Given a problem, an input x, and a stationary solution y, build_context
assembles the one KKT system of the implicit function theorem, without
ever differentiating through solver iterates.  Every problem class shares
one formula,

    Dy = H^-1 A^T (A H^-1 A^T)^-1 (A H^-1 B - C) - H^-1 B,

with H = D2_YY f - sum_i lambda_i D2_YY h~_i and B the mixed x/u analogue,
A = D_Y h~, C = D_X h~ over the constraint stack h~.  The classes differ
only in the stack: empty when unconstrained (Dy = -H^-1 B), the p
equality rows, or those plus the active inequality rows.  A feasibility
problem (no objective) takes H = I and B = 0.  Every apply is one
range-space solve of [[H, A^T], [A, 0]] (a, b) = (r1, r2), an empty stack
included: jacobian_from_context takes (B, C) and returns Dy = -a, and
vjp's streamed mode takes (v, 0) and returns -a^T B - b^T C.  The named
paths gradient_unconstrained / _equality / _inequality / _feasibility and
pseudo_inverse_descent strip what they ignore and materialize one context.

One helper sources every second-derivative block: the objective is the
single row with lam = [1], and constraint curvature is fetched already
contracted with the multipliers (the h_yy / h_xy / g_yy / g_xy callbacks
take lam and return one (m, m) or (m, n) sum).  Each block comes from its
callback when the problem has one and otherwise from one numdiff pass
over the matching first derivatives, in y or in x, contracted with lam;
a supplied block costs no pass.  Every block, like x, y, v and each
b_columns block, is checked against core's one shape table.  A family
whose multipliers are all zero is skipped, and a sum that is exactly
zero (a linear constraint's) is not subtracted.  An empty stack streams
B in blocks of max(1, n // m) columns from the problem's b_columns
callback, one callback and one product per block, so the full matrix is
never stored.  H is factored once per context (Cholesky, LU when that
fails); its condition gate reads LAPACK's estimate on that factor rather
than an SVD, and so does the gate on the Schur complement A H^-1 A^T.
scipy.linalg is imported inside the functions that factor, so importing
this module does not load it.  The solves and the rank repair's pivoted
QR call LAPACK directly (dpotrs, dgetrs, dgeqp3 from scipy.linalg.lapack):
these are the routines cho_solve, lu_solve and qr run, so the bits are
the same, and a small solve no longer pays for the wrappers' Python
checks, which cost more than the solve itself at m = 20.  The factor
keeps scipy.linalg.cho_factor / lu_factor, because the benchmark's
tracer counts factorisations by wrapping those two functions.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .core import (Jacobian, RankDeficientConstraints, SingularHessian,
                   UndefinedGradient, checked, checked_multipliers, finite)

COND_LIMIT = 1e12        # condition-estimate gate for H and AA^T
PIVOT_RTOL = 1e-10       # rank-repair pivot cutoff, relative to largest pivot
SV_CUTOFF_RTOL = 1e-10   # pseudo-inverse singular-value cutoff
ACTIVE_TOL = 1e-8        # g_i active iff g_i(x, y) >= -ACTIVE_TOL
ZERO_MULTIPLIER_TOL = 1e-8

# Scenarios the gradcheck registry must cover.
GRADIENT_PATHS = ("unconstrained", "equality", "inequality", "feasibility",
                  "pseudo_inverse", "vjp")


# ---------------------------------------------------------------------------
# Factorizations and allocation accounting
# ---------------------------------------------------------------------------

class _Factor:
    """Solve handle for symmetric H, factored once on construction:
    Cholesky when positive definite, LU otherwise.

    cond is LAPACK's estimate of the 1-norm condition number, read off the
    factor just computed (dpocon for Cholesky, dgecon for LU), so callers
    can gate before solving without an SVD.  H with a non-finite entry is
    not factored and gets cond = inf.  The empty H (0, 0), the Gram matrix
    of an empty constraint stack, is not factored either: it gets cond =
    1, as LAPACK's own quick return for n = 0 gives, and solves to the
    empty result (scipy's dpocon and dpotrs wrappers reject n = 0).
    """

    def __init__(self, H):
        import scipy.linalg
        from scipy.linalg import lapack
        self._cho = None
        self._lu = None
        if not np.all(np.isfinite(H)):
            self.cond = np.inf
            return
        if not H.shape[0]:
            self.cond = 1.0
            return
        anorm = float(np.linalg.norm(H, 1))
        try:
            self._cho = scipy.linalg.cho_factor(H, lower=True,
                                                check_finite=False)
            rcond, _ = lapack.dpocon(self._cho[0], anorm, uplo="L")
        except np.linalg.LinAlgError:
            with warnings.catch_warnings():
                # an exactly singular pivot shows up as rcond = 0 below
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                self._lu = scipy.linalg.lu_factor(H, check_finite=False)
            rcond, _ = lapack.dgecon(self._lu[0], anorm, norm="1")
        self.cond = 1.0 / rcond if rcond > 0.0 else np.inf

    def solve(self, rhs):
        """H^-1 rhs, without rescanning the factor for non-finite entries:
        a non-finite rhs gives a non-finite result, and every caller
        checks its result with core.finite.  Calls dpotrs / dgetrs, the
        routines cho_solve / lu_solve run, without their wrappers."""
        from scipy.linalg import lapack
        if not np.shape(rhs)[0]:   # H is (0, 0)
            return np.zeros(np.shape(rhs))
        if self._cho is not None:
            x, info = lapack.dpotrs(self._cho[0], rhs, lower=1)
        else:
            x, info = lapack.dgetrs(*self._lu, rhs)
        if info:
            raise ValueError(f"illegal argument {-info} to a LAPACK solve")
        return x


class _PinvFactor:
    """Solve handle backed by the Moore-Penrose pseudo-inverse; cond is
    the estimate that sent H here (inf when none was taken)."""

    def __init__(self, H, cond=np.inf):
        if not np.all(np.isfinite(H)):
            raise SingularHessian(
                f"cond(H) ~ inf (non-finite entries), H shape {H.shape}")
        self.cond = cond
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


# ---------------------------------------------------------------------------
# Derivative sourcing (analytic callbacks preferred, numdiff otherwise)
# ---------------------------------------------------------------------------

def _sourced(helper):
    """helper with a non-finite value met by numdiff reported as
    UndefinedGradient naming the x and y shapes; numdiff's own callers
    still see its ValueError."""
    def sourced(problem, x, y, *args, **kwargs):
        try:
            return helper(problem, x, y, *args, **kwargs)
        except numdiff.NonFiniteValue as err:
            raise UndefinedGradient(
                f"a finite-difference derivative met a non-finite function "
                f"value at x of shape {x.shape}, y of shape {y.shape}"
            ) from err
    return sourced


@_sourced
def _f_y(problem, x, y):
    return numdiff.first_y(problem, "f")(x, y)[0]


@_sourced
def _constraint_first(problem, x, y, which, rows=None):
    """Constraint Jacobians (A, C) = (D_Y, D_X) for 'h' or 'g' rows, checked
    as (rows, m) and (rows, n); rows defaults to the row count of A."""
    fn = problem.eq_constraints if which == "h" else problem.ineq_constraints
    m, n = y.size, x.size
    if fn is None:
        return np.zeros((0, m)), np.zeros((0, n))
    c_cb = getattr(problem.derivatives, which + "_x", None)
    A = numdiff.first_y(problem, which)(x, y)
    C = (c_cb(x, y) if c_cb is not None
         else numdiff.fd_jacobian(lambda z: fn(z, y), x))
    rows = A.shape[0] if rows is None else rows
    return (checked(which + "_y", A, n, m, rows),
            checked(which + "_x", C, n, m, rows))


@_sourced
def _curvature(problem, x, y, which, lam, with_b=True):
    """(sum_i lam_i D2_YY c_i, sum_i lam_i D2_XY c_i), shapes (m, m) and
    (m, n), over the rows c_i of the objective ('f', the single row with
    lam = [1]) or of the 'h' or 'g' constraints.

    Each block comes from the problem's callback when it has one (the
    constraint callbacks take lam and return the sum) and otherwise from
    one numdiff.second_blocks pass over the rows' first derivatives,
    contracted with lam.  with_b=False returns None for the mixed block
    without touching it.
    """
    def block(kind, wrt):
        name = which + "_" + kind
        cb = getattr(problem.derivatives, name, None)
        if cb is None:
            out = np.tensordot(lam, numdiff.second_blocks(
                numdiff.first_y(problem, which), x, y, wrt), axes=1)
        else:
            out = cb(x, y) if which == "f" else cb(x, y, lam)
        return checked(name, out, x.size, y.size)

    return block("yy", "y"), block("xy", "x") if with_b else None


# ---------------------------------------------------------------------------
# Rank repair and multiplier recovery
# ---------------------------------------------------------------------------

def _rank_repair(A):
    """Indices of a maximal well-conditioned row subset of A, via pivoted QR.

    Rows whose pivot magnitude falls below PIVOT_RTOL times the largest
    pivot are dropped (their multipliers are fixed to zero by callers).
    Returns (kept_indices, dropped_indices), kept in original order.
    Only R's diagonal and the pivots are read, so dgeqp3 is called
    directly (with the workspace it asks for, as scipy.linalg.qr does)
    and Q is never formed.
    """
    if A.shape[0] == 0:
        return np.array([], dtype=int), np.array([], dtype=int)
    from scipy.linalg import lapack
    lwork = int(lapack.dgeqp3(A.T, lwork=-1)[3][0])
    qr, piv, _, _, info = lapack.dgeqp3(A.T, lwork=lwork)
    if info:
        raise ValueError(f"illegal argument {-info} to LAPACK dgeqp3")
    piv -= 1   # dgeqp3 numbers columns from 1
    diag = np.abs(np.diag(qr))
    if diag.size == 0 or diag[0] <= 0.0:
        return np.array([], dtype=int), np.arange(A.shape[0])
    nkeep = int(np.sum(diag >= PIVOT_RTOL * diag[0]))
    kept = np.sort(piv[:nkeep])
    dropped = np.sort(piv[nkeep:])
    return kept, dropped


def _gated_factor(M, message):
    """_Factor of the symmetric M, or RankDeficientConstraints with
    message(cond) when its condition estimate is past COND_LIMIT."""
    fm = _Factor(M)
    if not np.isfinite(fm.cond) or fm.cond > COND_LIMIT:
        raise RankDeficientConstraints(message(fm.cond))
    return fm


def recover_multipliers(A, grad_f):
    """Analytic multipliers lambda = (A A^T)^-1 A (D_Y f)^T.

    A must have full row rank; the residual ||lambda^T A - D_Y f||_inf is
    zero (to tolerance) whenever y is a stationary point.  Multipliers
    that overflow raise UndefinedGradient.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    grad_f = np.asarray(grad_f, dtype=float).ravel()
    return finite("multipliers", _gated_factor(A @ A.T, lambda cond: (
        f"cond(AA^T) ~ {cond:.3e} for A of shape {A.shape}")).solve(A @ grad_f))


# ---------------------------------------------------------------------------
# Gradient context: the one builder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientContext:
    """Everything the backward pass needs at one (x, y).

    H is the symmetric Lagrangian Hessian; A and C hold the constraint
    stack that remains after rank repair and the zero-multiplier rule (no
    all-zero rows; k = 0 for an unconstrained problem).  B may be None
    when b_columns generates blocks of columns on demand (streaming):
    b_columns(cols) returns B[:, cols], shape (m, len(cols)), for an
    integer index array cols.  h_factorization is an opaque solve handle
    for H, reusable across blocks and across VJPs.
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


def build_context(problem, x, y, multipliers=None,
                  zero_multiplier_branch="constrained"):
    """Build the GradientContext for repeated Jacobians and VJPs at (x, y).

    The stack is the equality rows plus the inequality rows with
    g(x, y) >= -1e-8.  Rank repair drops dependent rows (their multipliers
    are fixed to zero).  Multipliers are recovered analytically when
    absent, and otherwise checked against p, or p + q when the problem has
    inequalities.  one_sided is set whenever an active inequality
    multiplier is within 1e-8 of zero; for such rows the rule selected by
    zero_multiplier_branch applies:

    * "constrained" (default): keep the row in the stack,
    * "unconstrained": drop it and differentiate as if inactive,
    * "reject": raise UndefinedGradient.

    Neither branch is claimed optimal for learning dynamics; the true
    derivative is one-sided either way.

    H failing the condition gate raises SingularHessian when the stack is
    non-empty; an empty stack takes the pseudo-inverse instead and sets
    rank_deficient_fallback.  An empty stack streams B when the
    problem has a b_columns callback.  A problem without objective uses
    H = I and B = 0: the minimum-norm solution of A Dy = -C, flagged when
    fewer than m rows are kept.  A non-finite x raises UndefinedGradient
    before any callback runs, and so does a non-finite multiplier, or a
    non-finite constraint Jacobian or D_Y f (for multiplier recovery)
    before it is factored, or a non-finite B.  An x, y or callback block
    not of its core.SHAPES shape raises DimensionMismatch.  A streamed B
    is checked block by block as the context's b_columns returns it, and
    the error names the block's column range.
    """
    n, m = problem.input_dim, problem.output_dim
    x, y = finite("x", checked("x", x, n, m)), checked("y", y, n, m)
    if zero_multiplier_branch not in ("constrained", "unconstrained", "reject"):
        raise ValueError(f"unknown branch rule {zero_multiplier_branch!r}")
    feasibility = problem.objective is None

    # constraint stack: the h rows, then the active g rows
    A, C = _constraint_first(problem, x, y, "h")
    p, q = A.shape[0], 0
    act = np.zeros(0, dtype=int)
    if problem.ineq_constraints is not None:
        gv = np.atleast_1d(problem.ineq_constraints(x, y))
        q = gv.size
        act = np.flatnonzero(gv >= -ACTIVE_TOL)
        A_g, C_g = _constraint_first(problem, x, y, "g", q)
        A, C = np.vstack([A, A_g[act]]), np.vstack([C, C_g[act]])
    if multipliers is not None:
        multipliers = checked_multipliers(problem, multipliers, p + q)
    k = A.shape[0]
    finite("constraint Jacobian A", A)
    finite("constraint Jacobian C", C)
    kept, dropped = _rank_repair(A)
    if kept.size == 0 and (k or feasibility):
        raise RankDeficientConstraints(
            f"no constraint row survives rank repair (A = 0), stack shape "
            f"{A.shape}")

    lam = np.zeros(k)
    stack, one_sided = kept, False
    if k and not feasibility:
        if multipliers is None:
            f_y = finite("D_Y f", _f_y(problem, x, y))
            lam[kept] = recover_multipliers(A[kept], f_y)
        else:
            lam = multipliers[np.concatenate([np.arange(p), p + act])]
            lam[dropped] = 0.0
        zero_rows = np.flatnonzero(np.abs(lam[p:]) <= ZERO_MULTIPLIER_TOL) + p
        one_sided = zero_rows.size > 0
        if one_sided and zero_multiplier_branch == "reject":
            raise UndefinedGradient(
                f"{zero_rows.size} active inequality rows with zero "
                f"multiplier (gradient one-sided), stack shape {A.shape}")
        if zero_multiplier_branch == "unconstrained":
            stack = np.setdiff1d(kept, zero_rows)

    # Lagrangian H, B; an empty stack never forms B when it can stream
    d = problem.derivatives
    stream = k == 0 and d is not None and d.b_columns is not None
    if feasibility:
        H, B = np.eye(m), np.zeros((m, n))
    else:
        H, B = _curvature(problem, x, y, "f", np.ones(1), with_b=not stream)
        H = 0.5 * (H + H.T)
    lam_g = np.zeros(q)
    lam_g[act] = lam[p:]
    curved = False
    for which, lam_c in (("h", lam[:p]), ("g", lam_g)):
        if lam_c.any():
            yy, xy = _curvature(problem, x, y, which, lam_c)
            if yy.any():   # exactly-zero curvature leaves H as it is
                H, curved = H - yy, True
            if xy.any():
                B = B - xy
    if curved:   # halves first, so a finite H cannot overflow
        H = 0.5 * H + 0.5 * H.T
    if B is not None:
        finite("mixed derivative B", B)

    fr, pinv = _Factor(H), False
    if not np.isfinite(fr.cond) or fr.cond > COND_LIMIT:
        if stack.size:
            raise SingularHessian(
                f"cond(H) ~ {fr.cond:.3e} with a stack of {stack.size} rows, "
                f"H shape {H.shape}, dims m={m} n={n} p={p} q={q}")
        fr, pinv = _PinvFactor(H, fr.cond), True
    b_columns = None
    if stream:
        def b_columns(cols):
            block = checked("b_columns", d.b_columns(x, y, cols), n, m,
                            c=cols.size)
            return finite(f"B columns {cols[0]}..{cols[-1]}", block)
    if stack.size < k:
        A, C = A[stack], C[stack]
    return GradientContext(
        H=H, B=B, A=A, C=C, h_factorization=fr, n=n,
        b_columns=b_columns, one_sided=one_sided,
        rank_deficient_fallback=pinv or bool(
            kept.size < m if feasibility else dropped.size))


# ---------------------------------------------------------------------------
# The one apply: Jacobians and VJPs
# ---------------------------------------------------------------------------

def _kkt_solve(fr, A, r1, r2, cnt):
    """(a, b) solving H a + A^T b = r1, A a = r2 in range space, with fr
    the factor of H: b = (A H^-1 A^T)^-1 (A H^-1 r1 - r2) and
    a = H^-1 r1 - H^-1 A^T b.  An empty A gives a = H^-1 r1 and an empty b.
    The Schur complement A H^-1 A^T is gated on its condition estimate."""
    a = cnt.adopt(fr.solve(r1))
    if A.shape[0] == 0:
        return a, np.zeros((0,) + a.shape[1:])
    HiAt = cnt.adopt(fr.solve(A.T))
    M = A @ HiAt
    schur = _gated_factor(0.5 * (M + M.T), lambda cond: (
        f"cond(A H^-1 A^T) ~ {cond:.3e}, A shape {A.shape}"))
    b = cnt.adopt(schur.solve(A @ a - r2))
    a -= HiAt @ b
    return a, b


def jacobian_from_context(context, counter=None):
    """Materialize the full Dy(x) from a context, shape (m, n): -a of the
    KKT solve with right-hand side (B, C).  A Dy that overflows raises
    UndefinedGradient."""
    cnt = counter if counter is not None else AllocationCounter()
    B = context.B
    if B is None:
        B = cnt.adopt(context.b_columns(np.arange(context.n)))
    with np.errstate(over="ignore", invalid="ignore"):   # finite() reports
        a, _ = _kkt_solve(context.h_factorization, context.A, B, context.C,
                          cnt)
    np.negative(a, out=a)   # in place: Dy may be the largest array
    return finite("Dy", a)


def _streamed(v, context, cnt):
    """v~^T B - s^T C from the KKT solve with right-hand side (v, 0)."""
    a, s = _kkt_solve(context.h_factorization, context.A, v, 0.0, cnt)
    vt = -a
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
    out -= s @ context.C
    return out


def vjp(v, context, mode="materialize", counter=None):
    """v^T Dy(x) for a prepared context, shape (n,).

    mode "materialize" forms Dy and multiplies.  mode "stream_columns"
    solves the KKT system with right-hand side (v, 0) and returns
    v~^T B - s^T C with v~ = -a and s = b.  On a streaming context B is
    generated in blocks of max(1, n // m) columns, one b_columns call and
    one product per block, so auxiliary storage stays O(m + n) and the
    full matrix is never stored; both modes agree to 1e-12.  A v not of
    shape (m,) raises DimensionMismatch in either mode, and a v with a
    non-finite entry, or a result that overflows, UndefinedGradient.  Pass
    an AllocationCounter to measure auxiliary storage.
    """
    v = finite("v", checked("v", v, context.n, context.H.shape[0]))
    cnt = counter if counter is not None else AllocationCounter()
    if mode not in ("materialize", "stream_columns"):
        raise ValueError(f"unknown vjp mode {mode!r}")
    with np.errstate(over="ignore", invalid="ignore"):   # finite() reports
        out = (v @ jacobian_from_context(context, cnt)
               if mode == "materialize" else _streamed(v, context, cnt))
    return finite("v^T Dy", out)


# ---------------------------------------------------------------------------
# Named paths: each strips what it ignores and materializes one context
# ---------------------------------------------------------------------------

def _jacobian(ctx):
    return Jacobian(jacobian_from_context(ctx), one_sided=ctx.one_sided,
                    rank_deficient_fallback=ctx.rank_deficient_fallback)


def gradient_unconstrained(problem, x, y, pseudo_inverse_fallback=True):
    """Dy = -H^-1 B for an unconstrained stationary y (constraints ignored).

    Falls back to the pseudo-inverse when H's condition estimate exceeds
    1e12, unless the fallback is disabled, in which case SingularHessian
    is raised.
    """
    ctx = build_context(dataclasses.replace(
        problem, eq_constraints=None, ineq_constraints=None), x, y)
    if ctx.rank_deficient_fallback and not pseudo_inverse_fallback:
        raise SingularHessian(
            f"cond(H) ~ {ctx.h_factorization.cond:.3e}, H shape "
            f"{ctx.H.shape}, fallback disabled")
    return _jacobian(ctx)


def gradient_equality(problem, x, y, multipliers=None):
    """Equality-constrained Dy (inequalities ignored); see build_context."""
    return _jacobian(build_context(dataclasses.replace(
        problem, ineq_constraints=None), x, y, multipliers))


def gradient_inequality(problem, x, y, multipliers=None,
                        zero_multiplier_branch="constrained"):
    """Dy over the equalities plus the active inequalities; see
    build_context for the zero-multiplier rules."""
    return _jacobian(build_context(problem, x, y, multipliers,
                                   zero_multiplier_branch))


def gradient_feasibility(problem, x, y):
    """Dy for constraint-only problems (objective ignored): the solution
    of A Dy = -C, minimum-norm with rank_deficient_fallback set when fewer
    than m independent rows exist.  A = 0 raises."""
    return _jacobian(build_context(
        dataclasses.replace(problem, objective=None), x, y))


def pseudo_inverse_descent(problem, x, y):
    """Minimum-norm descent direction -H^+ B for singular H (constraints
    ignored).

    Singular values below 1e-10 times the largest are cut off.  This is
    the zero-extra-term member of the family of valid descent directions;
    no selection among the family is attempted.  The pseudo-inverse is
    taken even when H passes the condition gate, and the result is always
    flagged rank_deficient_fallback.
    """
    ctx = build_context(dataclasses.replace(
        problem, eq_constraints=None, ineq_constraints=None), x, y)
    if not ctx.rank_deficient_fallback:
        ctx = dataclasses.replace(ctx, h_factorization=_PinvFactor(ctx.H),
                                  rank_deficient_fallback=True)
    return _jacobian(ctx)
