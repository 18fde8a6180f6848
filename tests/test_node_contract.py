"""One input contract at every node boundary: x has its declared shape
and is finite, and the y and jac a user callable returns have theirs.
Each repro below used to be accepted silently or to escape as a raw numpy
error; each is now a DimensionMismatch naming both shapes.  Every vjp
checks its cotangent v the same way: a non-finite v, which used to give
NaN or scipy's raw ValueError, is an UndefinedGradient, and so is a
backward pass whose result overflows."""

import numpy as np
import pytest

from optnode import gallery, implicit_diff
from optnode.compose import (DeclarativeNode, ImperativeNode, NodeChain,
                             PoolingNode, ProjectionNode)
from optnode.core import (DeclarativeProblem, Derivatives, DimensionMismatch,
                          InfeasibleProblem, NodeError, UndefinedGradient)
from optnode.pooling import PenaltySpec, robust_pool_gradient
from optnode.projection import (ProjectionSpec, project, project_gradient,
                                project_vjp)

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


def _context(m=3, problem=None):
    problem = problem or gallery.strongly_convex_problem(4, m, 0)[0]
    x = np.array([0.1, 0.2, -0.3, 0.4])[:problem.input_dim]
    return implicit_diff.build_context(problem, x, np.zeros(m))


def _node_vjp(node, v):
    x = np.array([0.5, -1.0, 2.0])
    return node.vjp(v, x, node.solve(x))


def _chain_backward(v):
    node = DeclarativeNode(*gallery.strongly_convex_problem(3, 3, 0))
    x = np.array([0.5, -1.0, 2.0])
    return NodeChain([node]).backward(x, [node.solve(x)], v)


NAN3 = np.array([np.nan, 0.0, 0.0])
V_REPROS = {
    "engine_stream_columns": (
        lambda: implicit_diff.vjp(NAN3, _context(), mode="stream_columns"),
        "v of shape (3,) has 1 non-finite of n=3 entries"),
    "engine_materialize": (
        lambda: implicit_diff.vjp(NAN3, _context(), mode="materialize"),
        "v of shape (3,) has 1 non-finite of n=3 entries"),
    "declarative_node": (
        lambda: _node_vjp(DeclarativeNode(
            *gallery.strongly_convex_problem(3, 3, 0)), NAN3),
        "v of shape (3,) has 1 non-finite of n=3 entries"),
    "declarative_chain_backward": (
        lambda: _chain_backward(np.array([np.inf, np.nan, 0.0])),
        "v of shape (3,) has 2 non-finite of n=3 entries"),
    "pooling_node": (lambda: _node_vjp(PoolingNode(HUBER, 3),
                                       np.array([np.inf])),
                     "v of shape (1,) has 1 non-finite of n=1 entries"),
    "projection_node": (lambda: _node_vjp(ProjectionNode(L2, 3), NAN3),
                        "v of shape (3,) has 1 non-finite of n=3 entries"),
    "project_vjp": (
        lambda: project_vjp(NAN3, np.array([0.5, -1.0, 2.0]), L2,
                            project(np.array([0.5, -1.0, 2.0]), L2).y),
        "v of shape (3,) has 1 non-finite of n=3 entries"),
    "imperative_node": (
        lambda: _node_vjp(ImperativeNode(lambda z: 2.0 * z, 3, 3), NAN3),
        "v of shape (3,) has 1 non-finite of n=3 entries"),
}


@pytest.mark.parametrize("name", sorted(V_REPROS))
def test_nonfinite_cotangent_is_undefined_gradient(name):
    call, message = V_REPROS[name]
    with pytest.raises(UndefinedGradient) as err:
        call()
    assert str(err.value) == f"UndefinedGradient: {message}"


def _overflowing():
    """H = 1e-300 I and B = 1e10 I: every entry of Dy = -H^-1 B is -1e310,
    past the float range, from finite derivative blocks."""
    H, B = 1e-300 * np.eye(2), 1e10 * np.eye(2)
    return DeclarativeProblem(
        objective=lambda x, u: float(0.5e-300 * u @ u + 1e10 * x @ u),
        input_dim=2, output_dim=2,
        derivatives=Derivatives(f_y=lambda x, u: 1e-300 * u + 1e10 * x,
                                f_yy=lambda x, u: H, f_xy=lambda x, u: B))


OVERFLOWS = {
    "jacobian": (lambda ctx: implicit_diff.jacobian_from_context(ctx),
                 "Dy of shape (2, 2) has 3 non-finite of n=4 entries"),
    "vjp_materialize": (
        lambda ctx: implicit_diff.vjp(np.ones(2), ctx, mode="materialize"),
        "Dy of shape (2, 2) has 3 non-finite of n=4 entries"),
    "vjp_stream_columns": (
        lambda ctx: implicit_diff.vjp(np.ones(2), ctx, mode="stream_columns"),
        "v^T Dy of shape (2,) has 2 non-finite of n=2 entries"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_overflowing_backward_pass_is_undefined_gradient(name):
    """The engine's solves do not rescan their factor for non-finite
    entries; the result is checked instead, so an overflow is a NodeError
    (inf and NaN came back before) and leaks no numpy warning."""
    call, message = OVERFLOWS[name]
    with pytest.raises(UndefinedGradient) as err:
        call(_context(2, _overflowing()))
    assert str(err.value) == f"UndefinedGradient: {message}"


TINY = np.array([1e-300, 1e-300, 0.0])   # the L2 sphere scales by 1/||x||
NODE_OVERFLOWS = {
    "imperative_node": lambda: _node_vjp(
        ImperativeNode(lambda z: 4.0 * z, 3, 3), np.full(3, 1e308)),
    "project_vjp": lambda: project_vjp(np.array([1e10, 0.0, 0.0]), TINY, L2,
                                       project(TINY, L2).y),
}


@pytest.mark.parametrize("name", sorted(NODE_OVERFLOWS))
def test_overflowing_node_vjp_is_undefined_gradient(name):
    """A finite v whose v^T Dy passes the float range raised numpy's raw
    overflow warning and returned inf."""
    with pytest.raises(UndefinedGradient) as err:
        NODE_OVERFLOWS[name]()
    assert str(err.value) == ("UndefinedGradient: v^T Dy of shape (3,) has "
                              "3 non-finite of n=3 entries")
