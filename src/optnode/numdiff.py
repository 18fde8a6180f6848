"""Finite-difference oracle.

First derivatives of arbitrary vector maps (in particular, of solver
outputs) and second-derivative blocks of problem callbacks.  first_y is
the one source of first derivatives in u, and second_blocks the one
numeric pass over them: the gradient engine takes it, contracted with
the multipliers, for each second-derivative block a problem does not
supply, and fd_hessian_blocks, the oracle for the analytic blocks, is
built on it.  Every derived expected value in the test suite flows
through this module, so it carries its own self-tests against
polynomials with known derivatives.

The oracle differentiates solver *outputs*; callers must run those solvers
at tolerance <= 1e-10 or solver noise dominates the difference quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import checked

# Standard optimum for central differences on unit-scale arguments.
CUBE_ROOT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference scheme selection.

    step_rule "cube_root_eps" uses h_i = max(1, |x_i|) * eps**(1/3) per
    coordinate; "fixed" uses fixed_step as given.  A negative fixed_step
    with the forward scheme probes from the other side, which is how
    one-sided derivatives at domain boundaries are taken.
    """

    step_rule: str = "cube_root_eps"     # cube_root_eps | fixed
    fixed_step: Optional[float] = None
    scheme: str = "central"              # central | forward

    def steps(self, x):
        x = np.asarray(x, dtype=float)
        if self.step_rule == "cube_root_eps":
            return np.maximum(1.0, np.abs(x)) * CUBE_ROOT_EPS
        if self.step_rule == "fixed":
            if self.fixed_step is None:
                raise ValueError("step_rule 'fixed' requires fixed_step")
            return np.full(x.shape, float(self.fixed_step))
        raise ValueError(f"unknown step_rule {self.step_rule!r}")


class NonFiniteValue(ValueError):
    """A differenced function returned a non-finite value."""


def _eval(fun, x):
    out = np.atleast_1d(np.asarray(fun(x), dtype=float))
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue(f"non-finite function value at x={x!r}")
    return out


def fd_jacobian(fun, x, config=FdConfig()):
    """Finite-difference Jacobian of fun: R^n -> R^m at x, shape (m, n).

    Central differences by default; the forward scheme is one-sided and
    honors the sign of a fixed step (use it at points where only one side
    of x is in the function's smooth domain).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = config.steps(x)
    f0 = _eval(fun, x) if config.scheme == "forward" else None
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        if config.scheme == "central":
            cols.append((_eval(fun, x + e) - _eval(fun, x - e)) / (2.0 * h[i]))
        elif config.scheme == "forward":
            cols.append((_eval(fun, x + e) - f0) / h[i])
        else:
            raise ValueError(f"unknown scheme {config.scheme!r}")
    return np.stack(cols, axis=1)


def fd_gradient(fun, x, config=FdConfig()):
    """Gradient of a scalar function, shape (n,)."""
    return fd_jacobian(lambda z: np.array([fun(z)]), x, config)[0]


@dataclass(frozen=True)
class HessianBlocks:
    """Second-derivative blocks of one problem at (x, y).

    H_f  : (m, m)      d2 f / du du, symmetrized
    B_f  : (m, n)      d2 f / dx du
    h_yy : (p, m, m)   per-equality-constraint blocks, symmetrized
    h_xy : (p, m, n)
    g_yy : (q, m, m)   per-inequality-constraint blocks, symmetrized
    g_xy : (q, m, n)
    """

    H_f: np.ndarray
    B_f: np.ndarray
    h_yy: np.ndarray
    h_xy: np.ndarray
    g_yy: np.ndarray
    g_xy: np.ndarray


def first_y(problem, which):
    """First derivative in u of the objective ("f") or a constraint bundle
    ("h" or "g"), as a function (x, y) -> (rows, m): the problem's
    analytic callback when it has one, central differences otherwise.
    Every first derivative in u in the package comes from here.  A
    callback value is checked against core.SHAPES, with its own leading
    axis as the row count, and a misshapen one raises DimensionMismatch."""
    cb = getattr(problem.derivatives, which + "_y", None)
    if cb is not None:
        def rows(x, y):
            out = cb(x, y)
            return checked(which + "_y", out, x.size, y.size,
                           len(np.atleast_2d(out))).reshape(-1, y.size)
        return rows
    if which == "f":
        return lambda x, y: fd_jacobian(
            lambda u: np.array([problem.objective(x, u)]), y)
    fn = problem.eq_constraints if which == "h" else problem.ineq_constraints
    return lambda x, y: fd_jacobian(lambda u: fn(x, u), y)


def second_blocks(rows_fn, x, y, wrt, config=FdConfig()):
    """Central differences of a first-derivative bundle rows_fn(x, y) ->
    (rows, m) in y (wrt "y": shape (rows, m, m), each row's block
    symmetrized) or in x (wrt "x": shape (rows, m, n)).

    One pass differentiates the whole bundle; each entry's difference
    quotient is the one a per-row pass would take, so the blocks are
    identical to differencing each row on its own.
    """
    m = y.size
    if wrt == "y":
        yy = fd_jacobian(lambda u: rows_fn(x, u).ravel(), y, config)
        yy = yy.reshape(-1, m, m)
        return 0.5 * (yy + yy.transpose(0, 2, 1))
    xy = fd_jacobian(lambda z: rows_fn(z, y).ravel(), x, config)
    return xy.reshape(-1, m, x.size)


def fd_hessian_blocks(problem, x, y, config=FdConfig()):
    """Numeric H, B, and per-constraint second-derivative blocks at (x, y).

    second_blocks in y, then in x, over each whole first-derivative
    bundle (f, h, g); the first derivatives are analytic when the problem
    supplies them and finite differences of the raw callbacks otherwise.
    Analytic *second* derivatives are never consulted here: this op is
    the oracle for them.
    """
    n, m = problem.input_dim, problem.output_dim
    x, y = checked("x", x, n, m), checked("y", y, n, m)

    def blocks(fn, which):
        if fn is None:
            return np.zeros((0, m, m)), np.zeros((0, m, n))
        rows_fn = first_y(problem, which)
        return (second_blocks(rows_fn, x, y, "y", config),
                second_blocks(rows_fn, x, y, "x", config))

    if problem.objective is None:
        H_f, B_f = np.zeros((m, m)), np.zeros((m, n))
    else:
        (H_f,), (B_f,) = blocks(problem.objective, "f")
    return HessianBlocks(H_f, B_f, *blocks(problem.eq_constraints, "h"),
                         *blocks(problem.ineq_constraints, "g"))
