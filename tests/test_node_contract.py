"""One input contract at every node boundary: x has its declared shape
and is finite, and the y and jac a user callable returns have theirs.
Each repro below used to be accepted silently or to escape as a raw numpy
error; each is now a DimensionMismatch naming both shapes."""

import numpy as np
import pytest

from optnode import gallery
from optnode.compose import (DeclarativeNode, ImperativeNode, NodeChain,
                             PoolingNode, ProjectionNode)
from optnode.core import DimensionMismatch, InfeasibleProblem, NodeError
from optnode.pooling import PenaltySpec, robust_pool_gradient
from optnode.projection import ProjectionSpec, project, project_gradient

L2, L1, LINF = (ProjectionSpec(k) for k in ("l2", "l1", "linf"))
HUBER = PenaltySpec("huber", 1.0)


def _declarative(solver_m=3):
    """A (4 -> 3) node whose solver returns y of length solver_m."""
    problem, _ = gallery.strongly_convex_problem(4, 3, 0)
    return DeclarativeNode(
        problem, gallery.strongly_convex_problem(4, solver_m, 0)[1])


REPROS = {
    "pool_gradient_stacked_x": (
        lambda: robust_pool_gradient(np.ones((2, 5)), HUBER, np.ones(2)),
        "x: expected shape (10,), got (2, 5)"),
    "pool_gradient_long_y": (
        lambda: robust_pool_gradient(np.ones(3), HUBER, np.array([1.0, 5.0])),
        "y: expected shape (1,), got (2,)"),
    "project_2d_x": (lambda: project(np.ones((2, 3)), L2),
                     "x: expected shape (6,), got (2, 3)"),
    "project_0d_x": (lambda: project(np.float64(2.0), L2),
                     "x: expected shape (1,), got ()"),
    "project_empty_l1": (lambda: project(np.zeros(0), L1),
                         "x: expected shape (1,), got (0,)"),
    "project_empty_linf": (lambda: project(np.zeros(0), LINF),
                           "x: expected shape (1,), got (0,)"),
    "project_gradient_short_y": (
        lambda: project_gradient(np.ones(3), L2, np.ones(2)),
        "y: expected shape (3,), got (2,)"),
    "projection_node_long_x": (
        lambda: ProjectionNode(L2, 3).solve(np.ones(4)),
        "x: expected shape (3,), got (4,)"),
    "projection_chain_long_x": (
        lambda: NodeChain([ProjectionNode(L2, 3)]).forward(np.ones(4)),
        "chain node 0: x: expected shape (3,), got (4,)"),
    "pooling_node_long_x": (lambda: PoolingNode(HUBER, 3).solve(np.ones(4)),
                            "x: expected shape (3,), got (4,)"),
    "pooling_node_stacked_x": (
        lambda: PoolingNode(HUBER, 3).solve(np.ones((2, 3))),
        "x: expected shape (3,), got (2, 3)"),
    "imperative_node_long_x": (
        lambda: ImperativeNode(lambda z: 2.0 * z, 3, 3).solve(np.ones(4)),
        "x: expected shape (3,), got (4,)"),
    "imperative_node_short_y": (
        lambda: ImperativeNode(lambda z: z[:2], 3, 3).solve(np.ones(3)),
        "y: expected shape (3,), got (2,)"),
    "imperative_node_jac": (
        lambda: ImperativeNode(lambda z: 2.0 * z, 3, 3,
                               jac=lambda z: np.eye(2)).jacobian(np.ones(3),
                                                                 None),
        "jac: expected shape (3, 3), got (2, 2)"),
    "declarative_node_long_x": (lambda: _declarative().solve(np.ones(5)),
                                "x: expected shape (4,), got (5,)"),
    "declarative_node_short_y": (lambda: _declarative(2).solve(np.ones(4)),
                                 "y: expected shape (3,), got (2,)"),
}


@pytest.mark.parametrize("name", sorted(REPROS))
def test_misshapen_input_or_output_is_dimension_mismatch(name):
    call, message = REPROS[name]
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert str(err.value) == f"DimensionMismatch: {message}"


NODES = {
    "imperative": lambda: ImperativeNode(lambda z: 2.0 * z, 3, 3),
    "declarative": lambda: DeclarativeNode(
        *gallery.strongly_convex_problem(3, 2, 0)),
    "pooling": lambda: PoolingNode(HUBER, 3),
    "projection": lambda: ProjectionNode(L2, 3),
}


@pytest.mark.parametrize("kind", sorted(NODES))
def test_every_node_checks_its_input(kind):
    """A wrong-length x is a DimensionMismatch and a non-finite one an
    InfeasibleProblem, before the node's forward runs; a good x solves.
    The backward pass checks x too."""
    node = NODES[kind]()
    x = np.array([0.5, -1.0, 2.0])
    sol = node.solve(x)
    assert np.isfinite(sol.y).all()
    for backward in (lambda z: node.jacobian(z, sol),
                     lambda z: node.vjp(np.ones(node.output_dim), z, sol)):
        backward(x)
        with pytest.raises(DimensionMismatch, match=r"x: expected shape "):
            backward(np.ones(4))
    for bad in (np.ones(2), np.ones(4), np.ones((1, 3))):
        with pytest.raises(DimensionMismatch, match=r"x: expected shape "
                                                    r"\(3,\), got "):
            node.solve(bad)
    for value in (np.nan, np.inf):
        with pytest.raises(InfeasibleProblem, match=r"1 non-finite of n=3"):
            node.solve(np.array([0.5, value, 2.0]))
    with pytest.raises(NodeError):
        NodeChain([node]).forward(np.ones(5))
