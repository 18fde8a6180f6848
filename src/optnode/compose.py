"""Composition of nodes into chains, and gradient descent through them.

A node is anything with solve / jacobian / vjp and declared dimensions.
Nodes are stateless: one holds its dimensions, its spec or problem and
its solver, nothing per call, so one node can be shared across threads
and chains.  vjp(v, x, solution) returns the pair (v^T Dy, one_sided),
where one_sided is the flag the node's Jacobian at (x, solution) carries.

Chains validate adjacent dimensions, cache every intermediate Solution on
the forward pass, and run the backward pass as right-to-left VJPs so no
intermediate Jacobian product is ever materialized unless asked for.  A
declarative node's vjp applies the streamed formula of
implicit_diff.vjp, and a projection node's vjp applies
projection.project_vjp, so neither forms its own Dy either.

bilevel_train drives full-batch gradient descent of an upper objective
J(theta, y(theta)) through a lower declarative node.  When the upper
objective IS the lower objective, the total derivative collapses to the
partial derivative in theta (the terms through y vanish at the lower
minimizer), and the backward pass is skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import implicit_diff, numdiff, pooling, projection
from .core import (DimensionMismatch, InfeasibleProblem, Jacobian, NodeError,
                   Solution, SolverInfo)

STEP_TOL = 1e-10  # descent stops when ||step||_inf falls below this


class Node:
    """Base: a differentiable block y = y(x) with solver-backed forward."""

    def __init__(self, input_dim, output_dim):
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)

    def solve(self, x):
        raise NotImplementedError

    def jacobian(self, x, solution):
        raise NotImplementedError

    def vjp(self, v, x, solution):
        """(v^T Dy, one_sided) at (x, solution), from the node's Jacobian."""
        jac = self.jacobian(x, solution)
        return np.asarray(v, dtype=float) @ jac.matrix, jac.one_sided


class ImperativeNode(Node):
    """Plain differentiable function with an explicit (or numerical)
    Jacobian; participates in chains alongside declarative nodes."""

    def __init__(self, fun, input_dim, output_dim, jac=None):
        super().__init__(input_dim, output_dim)
        self._fun = fun
        self._jac = jac

    def solve(self, x):
        y = np.asarray(self._fun(np.asarray(x, dtype=float)), dtype=float)
        return Solution(y=y, multipliers=np.zeros(0),
                        active_set=np.zeros(0, dtype=bool),
                        objective_value=float("nan"),
                        solver_info=SolverInfo(iterations=0, converged=True))

    def jacobian(self, x, solution):
        x = np.asarray(x, dtype=float)
        if self._jac is not None:
            return Jacobian(np.asarray(self._jac(x), dtype=float))
        return Jacobian(numdiff.fd_jacobian(self._fun, x))


def _multipliers(solution):
    """The solver's multipliers, or None (recover them) when it has none."""
    return solution.multipliers if solution.multipliers.size else None


class DeclarativeNode(Node):
    """A DeclarativeProblem plus its solver, differentiated implicitly."""

    def __init__(self, problem, solver):
        super().__init__(problem.input_dim, problem.output_dim)
        self.problem = problem
        self.solver = solver

    def solve(self, x):
        return self.solver(np.asarray(x, dtype=float))

    def jacobian(self, x, solution):
        return implicit_diff.gradient_inequality(
            self.problem, x, solution.y, _multipliers(solution))

    def vjp(self, v, x, solution):
        ctx = implicit_diff.build_context(self.problem, x, solution.y,
                                          _multipliers(solution))
        return (implicit_diff.vjp(v, ctx, mode="stream_columns"),
                ctx.one_sided)


class PoolingNode(Node):
    """Robust penalty pooling of n inputs to one output."""

    def __init__(self, spec, input_dim):
        super().__init__(input_dim, 1)
        self.spec = spec

    def solve(self, x):
        return pooling.robust_pool(x, self.spec)

    def jacobian(self, x, solution):
        return pooling.robust_pool_gradient(x, self.spec, solution.y[0])

    vjp = Node.vjp  # an entry of its own, so a tracer can wrap it per class


class ProjectionNode(Node):
    """Norm-sphere / norm-ball projection of an n-vector."""

    def __init__(self, spec, dim):
        super().__init__(dim, dim)
        self.spec = spec

    def solve(self, x):
        return projection.project(x, self.spec)

    def jacobian(self, x, solution):
        return projection.project_gradient(x, self.spec, solution.y)

    def vjp(self, v, x, solution):
        return projection.project_vjp(v, x, self.spec, solution.y)


class NodeChain:
    """Nodes composed left to right; dimensions checked at construction."""

    def __init__(self, nodes):
        nodes = list(nodes)
        if not nodes:
            raise ValueError("empty chain")
        for left, right in zip(nodes, nodes[1:]):
            if left.output_dim != right.input_dim:
                raise DimensionMismatch(
                    f"chain link {left.output_dim} -> {right.input_dim}")
        self.nodes = nodes
        self.input_dim = nodes[0].input_dim
        self.output_dim = nodes[-1].output_dim

    def forward(self, x):
        """Run every node; returns the list of Solutions in order."""
        solutions = []
        value = np.asarray(x, dtype=float)
        for k, node in enumerate(self.nodes):
            try:
                sol = node.solve(value)
            except NodeError as err:
                # keep the subclass; tag where in the chain it happened
                err.detail = f"chain node {k}: {err.detail}"
                err.args = (f"{err.kind}: {err.detail}",)
                raise
            solutions.append(sol)
            value = sol.y
        return solutions

    def _inputs(self, x, solutions):
        return [np.asarray(x, dtype=float)] + [s.y for s in solutions[:-1]]

    def backward(self, x, solutions, v):
        """v^T (Dy_last / Dx) by right-to-left VJPs over cached inputs."""
        if len(solutions) != len(self.nodes):
            raise DimensionMismatch(
                f"{len(solutions)} solutions for {len(self.nodes)} nodes")
        inputs = self._inputs(x, solutions)
        out = np.asarray(v, dtype=float).ravel()
        for node, x_i, sol in zip(reversed(self.nodes), reversed(inputs),
                                  reversed(solutions)):
            out, _ = node.vjp(out, x_i, sol)
        return out

    def jacobian(self, x, solutions):
        """Materialized end-to-end Jacobian (product of node Jacobians)."""
        inputs = self._inputs(x, solutions)
        J = None
        for node, x_i, sol in zip(self.nodes, inputs, solutions):
            Ji = node.jacobian(x_i, sol).matrix
            J = Ji if J is None else Ji @ J
        return J

    def value(self, x):
        return self.forward(x)[-1].y


@dataclass
class BilevelTask:
    """Upper objective J(theta, y) over a lower solver-backed node.

    upper_grad_theta / upper_grad_y are optional analytic partials; when
    absent the partials come from central differences.  When
    upper_is_lower_objective is set, the descent direction is the partial
    in theta alone and no VJP is performed, so every row reports
    one_sided False.
    """
    upper_objective: object
    lower: Node
    step_size: float = 0.01
    max_iters: int = 100
    upper_grad_theta: object = None
    upper_grad_y: object = None
    upper_is_lower_objective: bool = False


@dataclass
class TrainResult:
    theta: np.ndarray
    rows: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def _upper_partials(task, theta, y):
    if task.upper_grad_theta is not None:
        gt = np.asarray(task.upper_grad_theta(theta, y), dtype=float)
    else:
        gt = numdiff.fd_gradient(lambda z: task.upper_objective(z, y), theta)
    if task.upper_is_lower_objective:
        return gt, None
    if task.upper_grad_y is not None:
        gy = np.asarray(task.upper_grad_y(theta, y), dtype=float)
    else:
        gy = numdiff.fd_gradient(lambda u: task.upper_objective(theta, u), y)
    return gt, gy


def bilevel_train(task, theta0):
    """Full-batch gradient descent on J(theta, y(theta)).

    Each iteration re-solves the lower problem at the current theta,
    assembles the total gradient (partial in theta plus the VJP of the
    partial in y through the lower node, unless the shortcut applies), and
    takes a fixed step.  Stops at max_iters or when the step is below
    1e-10 in the max norm.  Each row's one_sided is the flag returned by
    that iteration's lower vjp, False on the shortcut where none runs.  A
    lower-solver failure is reported as InfeasibleProblem tagged with the
    iteration at which it occurred.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    result = TrainResult(theta=theta)
    for it in range(task.max_iters):
        try:
            sol = task.lower.solve(theta)
        except NodeError as err:
            raise InfeasibleProblem(
                f"lower solve failed at iteration {it}: "
                f"{err.kind}: {err.detail}") from err
        J = float(task.upper_objective(theta, sol.y))
        gt, gy = _upper_partials(task, theta, sol.y)
        if gy is None:
            total, one_sided = gt, False   # no backward pass ran
        else:
            g, one_sided = task.lower.vjp(gy, theta, sol)
            total = gt + g
        step = -task.step_size * total
        theta = theta + step
        step_inf = float(np.max(np.abs(step)))
        result.rows.append({
            "iteration": it,
            "objective": J,
            "grad_inf": float(np.max(np.abs(total))),
            "step_inf": step_inf,
            "one_sided": bool(one_sided),
            "theta": theta.copy(),
        })
        result.iterations = it + 1
        if step_inf <= STEP_TOL:
            result.converged = True
            break
    result.theta = theta
    return result
