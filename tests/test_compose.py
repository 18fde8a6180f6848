"""Chains of nodes and the bilevel trainer: forward caching, right-to-left
VJP sweeps against materialized products and fd oracles, the objective
shortcut, and the branch-consistency hazard."""

import numpy as np
import pytest

from optnode import gallery
from optnode.cli import build_train_task
from optnode.compose import (BilevelTask, DeclarativeNode, ImperativeNode,
                             Node, NodeChain, PoolingNode, ProjectionNode,
                             bilevel_train)
from optnode.core import (DimensionMismatch, InfeasibleProblem, NodeError,
                          SolverDiverged)
from optnode.numdiff import fd_jacobian
from optnode.pooling import Penalty, PenaltySpec, robust_pool
from optnode.projection import ProjectionSpec, project


def _smooth_chain():
    # projection input chosen off every plateau, pooling penalty smooth
    proj = ProjectionNode(ProjectionSpec("l2"), 3)
    pool = PoolingNode(PenaltySpec(Penalty.PSEUDO_HUBER, 1.0), 3)
    square = ImperativeNode(lambda z: z ** 2, 1, 1,
                            jac=lambda z: np.array([[2.0 * z[0]]]))
    return NodeChain([proj, pool, square])


def test_single_projection_chain():
    chain = NodeChain([ProjectionNode(ProjectionSpec("l2"), 2)])
    sols = chain.forward(np.array([3.0, 4.0]))
    assert len(sols) == 1
    np.testing.assert_allclose(sols[0].y, [0.6, 0.8], atol=1e-12)


def test_pool_then_square_quadratic_limit():
    # huge alpha turns the smooth penalty into the plain mean
    chain = NodeChain([
        PoolingNode(PenaltySpec(Penalty.PSEUDO_HUBER, 1e6), 3),
        ImperativeNode(lambda z: z ** 2, 1, 1),
    ])
    sols = chain.forward(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(sols[0].y, [2.0], atol=1e-6)
    np.testing.assert_allclose(sols[1].y, [4.0], atol=1e-5)


def test_forward_matches_standalone_solvers():
    rng = np.random.default_rng(5)
    proj_spec = ProjectionSpec("l2")
    pool_spec = PenaltySpec(Penalty.PSEUDO_HUBER, 1.0)
    chain = NodeChain([ProjectionNode(proj_spec, 4), PoolingNode(pool_spec, 4)])
    for _ in range(5):
        x = rng.normal(size=4) * 2.0
        sols = chain.forward(x)
        z = project(x, proj_spec).y
        np.testing.assert_allclose(sols[0].y, z, atol=0.0)
        np.testing.assert_allclose(sols[1].y, robust_pool(z, pool_spec).y,
                                   atol=0.0)


def test_forward_error_carries_chain_position():
    chain = NodeChain([
        ImperativeNode(lambda z: 0.0 * z, 2, 2),
        ProjectionNode(ProjectionSpec("l2"), 2),   # origin is infeasible
    ])
    with pytest.raises(InfeasibleProblem, match="chain node 1"):
        chain.forward(np.array([1.0, 1.0]))


def test_identity_imperative_backward_is_identity():
    chain = NodeChain([ImperativeNode(lambda z: z, 3, 3,
                                      jac=lambda z: np.eye(3))])
    v = np.array([0.3, -1.2, 0.5])
    sols = chain.forward(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(chain.backward(np.array([1.0, 2.0, 3.0]),
                                              sols, v), v, atol=0.0)


def test_two_node_backward_matches_materialized_product():
    chain = NodeChain([
        ProjectionNode(ProjectionSpec("l2"), 3),
        PoolingNode(PenaltySpec(Penalty.PSEUDO_HUBER, 1.0), 3),
    ])
    x = np.array([1.3, -0.4, 0.7])
    sols = chain.forward(x)
    J = chain.jacobian(x, sols)
    v = np.array([0.7])
    np.testing.assert_allclose(chain.backward(x, sols, v), v @ J, atol=1e-10)


def test_full_chain_backward_matches_fd_oracle():
    chain = _smooth_chain()
    x = np.array([1.3, -0.4, 0.7])
    sols = chain.forward(x)
    v = np.array([1.0])
    got = chain.backward(x, sols, v)
    J_fd = fd_jacobian(chain.value, x)
    want = v @ J_fd
    assert np.max(np.abs(got - want)) <= 1e-5 * max(1.0, np.max(np.abs(want)))


def test_backward_is_linear_in_the_seed():
    chain = NodeChain([
        ProjectionNode(ProjectionSpec("l2"), 3),
        ImperativeNode(lambda z: np.array([z[0] - z[2], z[1] * 2.0]), 3, 2,
                       jac=lambda z: np.array([[1.0, 0.0, -1.0],
                                               [0.0, 2.0, 0.0]])),
    ])
    x = np.array([1.3, -0.4, 0.7])
    sols = chain.forward(x)
    v1 = np.array([0.4, -1.1])
    v2 = np.array([-0.9, 0.3])
    a, b = 1.7, -0.6
    lhs = chain.backward(x, sols, a * v1 + b * v2)
    rhs = (a * chain.backward(x, sols, v1)
           + b * chain.backward(x, sols, v2))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _count_calls(node, *names):
    """Wrap node's named methods on the instance; returns the call counts
    by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(node, name)

        def counted(*args, _name=name, _method=method):
            counts[_name] += 1
            return _method(*args)
        setattr(node, name, counted)
    return counts


def test_backward_consumes_cached_solutions_only():
    chain = _smooth_chain()
    x = np.array([1.3, -0.4, 0.7])
    sols = chain.forward(x)
    counts = [_count_calls(n, "solve", "vjp") for n in chain.nodes]
    chain.backward(x, sols, np.array([1.0]))
    assert all(c["solve"] == 0 for c in counts)
    assert all(c["vjp"] == 1 for c in counts)


def _square_node(jac):
    return ImperativeNode(lambda z: z ** 2, 2, 2, jac=jac)


def _disc_node():
    return DeclarativeNode(*gallery.disc_inequality_problem(2))


# (node factory, x, expected one_sided)
VJP_CASES = {
    "imperative-analytic": (lambda: _square_node(lambda z: np.diag(2.0 * z)),
                            [0.7, -1.3], False),
    "imperative-fd": (lambda: _square_node(None), [0.7, -1.3], False),
    "huber-off-kink": (lambda: PoolingNode(PenaltySpec(Penalty.HUBER, 1.0), 3),
                       [0.0, 0.5, 3.0], False),
    "huber-at-kink": (lambda: PoolingNode(PenaltySpec(Penalty.HUBER, 1.0), 2),
                      [-1.0, 1.0], True),
    "disc-touching": (_disc_node, [1.0, 0.0], True),
    "disc-active": (_disc_node, [2.0, 0.5], False),
    "disc-inactive": (_disc_node, [0.3, -0.2], False),
}


@pytest.mark.parametrize("case", sorted(VJP_CASES))
def test_node_vjp_returns_product_and_jacobian_flag(case):
    make, x, expected = VJP_CASES[case]
    node, x = make(), np.array(x)
    sol = node.solve(x)
    v = np.random.default_rng(3).normal(size=node.output_dim)
    g, one_sided = node.vjp(v, x, sol)
    jac = node.jacobian(x, sol)
    want = v @ jac.matrix
    assert np.max(np.abs(g - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert one_sided == jac.one_sided == expected


def test_backward_rejects_stale_solution_list():
    chain = _smooth_chain()
    x = np.array([1.3, -0.4, 0.7])
    sols = chain.forward(x)
    with pytest.raises(DimensionMismatch):
        chain.backward(x, sols[:-1], np.array([1.0]))


def test_chain_rejects_incompatible_dims():
    with pytest.raises(DimensionMismatch):
        NodeChain([PoolingNode(PenaltySpec(Penalty.QUADRATIC, 1.0), 3),
                   ProjectionNode(ProjectionSpec("l2"), 2)])
    with pytest.raises(ValueError):
        NodeChain([])


def test_declarative_node_in_chain_matches_fd():
    problem, solve = gallery.strongly_convex_problem(3, 2, seed=11)
    node = DeclarativeNode(problem, solve)
    chain = NodeChain([node,
                       ImperativeNode(lambda z: np.array([z @ z]), 2, 1,
                                      jac=lambda z: 2.0 * z[None, :])])
    x = np.array([0.4, -0.2, 0.9])
    sols = chain.forward(x)
    got = chain.backward(x, sols, np.array([1.0]))
    J_fd = fd_jacobian(chain.value, x)
    assert np.max(np.abs(got - J_fd[0])) <= 1e-5


def test_fixed_branch_gradient_is_constant_plus_one():
    problem, solve = gallery.two_branch_problem("plus")
    node = DeclarativeNode(problem, solve)
    # dyadic inputs keep 1 + x exact, so the slope comes out bit-exact
    for xv in (0.25, 0.5, 1.5):
        x = np.array([xv])
        sol = node.solve(x)
        assert node.jacobian(x, sol).matrix[0, 0] == 1.0


def test_alternating_branches_flip_the_gradient_sign():
    """A solver that hops between the two solution branches hands the
    backward pass alternating +1 / -1 slopes: consistent branch choice
    is part of the contract, not a nicety."""
    problem, solve_plus = gallery.two_branch_problem("plus")
    _, solve_minus = gallery.two_branch_problem("minus")
    calls = {"k": 0}

    def hopping(x):
        calls["k"] += 1
        return solve_plus(x) if calls["k"] % 2 else solve_minus(x)

    node = DeclarativeNode(problem, hopping)
    x = np.array([0.5])
    seen = []
    for _ in range(4):
        sol = node.solve(x)
        seen.append(node.jacobian(x, sol).matrix[0, 0])
    assert seen == [1.0, -1.0, 1.0, -1.0]


# ---------------------------------------------------------------------------
# bilevel trainer
# ---------------------------------------------------------------------------

def test_quadratic_pool_theta_gradient():
    # J = 0.5 (y - t)^2 over the plain mean: dJ/dtheta_i = (y - t) / n
    n, t = 6, 0.3
    rng = np.random.default_rng(7)
    theta0 = rng.normal(size=n)
    lower = PoolingNode(PenaltySpec(Penalty.QUADRATIC, 1.0), n)
    sol = lower.solve(theta0)
    gy = np.array([sol.y[0] - t])
    total, one_sided = lower.vjp(gy, theta0, sol)
    assert one_sided is False
    expected = np.full(n, (sol.y[0] - t) / n)
    np.testing.assert_allclose(total, expected, atol=1e-12)


def test_trainer_records_monotone_descent_on_robust_task():
    task, theta0 = build_train_task("robust-mean-fit", seed=0, steps=10,
                                    step_size=0.01)
    result = bilevel_train(task, theta0)
    objectives = [r["objective"] for r in result.rows]
    assert len(objectives) == 10
    assert all(b < a for a, b in zip(objectives, objectives[1:]))


def test_trainer_stops_when_steps_vanish():
    n = 4
    task = BilevelTask(
        upper_objective=lambda th, y: 0.5 * y[0] ** 2,
        lower=PoolingNode(PenaltySpec(Penalty.QUADRATIC, 1.0), n),
        step_size=0.5, max_iters=500,
        upper_grad_theta=lambda th, y: np.zeros(n),
        upper_grad_y=lambda th, y: np.array([y[0]]))
    result = bilevel_train(task, np.full(n, 2.0))
    assert result.converged and result.iterations < 500
    assert abs(np.mean(result.theta)) <= 1e-9


def test_objective_shortcut_skips_backward_pass():
    """When the upper objective IS the lower objective, the descent
    direction is the theta-partial alone and no VJP ever runs."""
    n = 5
    rng = np.random.default_rng(9)
    theta0 = rng.normal(size=n)
    spec = PenaltySpec(Penalty.QUADRATIC, 1.0)

    def pooled_value(th, y):
        return float(np.mean(0.5 * (y[0] - th) ** 2))

    def d_theta(th, y):
        return (th - y[0]) / n

    shortcut = BilevelTask(
        upper_objective=pooled_value,
        lower=PoolingNode(spec, n),
        step_size=0.05, max_iters=3,
        upper_grad_theta=d_theta,
        upper_is_lower_objective=True)
    shortcut_calls = _count_calls(shortcut.lower, "vjp")
    res = bilevel_train(shortcut, theta0)
    assert shortcut_calls["vjp"] == 0

    # recover the applied directions and check them against D_X f
    theta = theta0.copy()
    for row in res.rows:
        sol_y = float(np.mean(theta))   # quadratic pool is the mean
        direction = (theta - row["theta"]) / shortcut.step_size
        np.testing.assert_allclose(direction, (theta - sol_y) / n, atol=1e-12)
        theta = row["theta"]

    # the long way round (explicit y-partial plus VJP) lands on the same
    # iterates: the y-terms vanish at the lower minimizer
    full = BilevelTask(
        upper_objective=pooled_value,
        lower=PoolingNode(spec, n),
        step_size=0.05, max_iters=3,
        upper_grad_theta=d_theta,
        upper_grad_y=lambda th, y: np.array([float(np.mean(y[0] - th))]))
    full_calls = _count_calls(full.lower, "vjp")
    res_full = bilevel_train(full, theta0)
    assert full_calls["vjp"] == 3
    np.testing.assert_allclose(res.theta, res_full.theta, atol=1e-12)


def test_shortcut_rows_keep_no_flag_from_an_earlier_vjp():
    """Nodes keep no per-call state: a VJP taken at a Huber kink leaves
    nothing behind, and shortcut rows, where no backward pass runs,
    report one_sided False."""
    node = PoolingNode(PenaltySpec(Penalty.HUBER, 1.0), 2)
    kink = np.array([-1.0, 1.0])
    _, one_sided = node.vjp(np.ones(1), kink, node.solve(kink))
    assert one_sided

    def pooled_value(th, y):
        z = np.abs(y[0] - th)
        return float(np.sum(np.where(z <= 1.0, 0.5 * z ** 2, z - 0.5)))

    task = BilevelTask(
        upper_objective=pooled_value,
        lower=node, step_size=0.05, max_iters=3,
        upper_grad_theta=lambda th, y: -np.clip(y[0] - th, -1.0, 1.0),
        upper_is_lower_objective=True)
    res = bilevel_train(task, np.array([0.3, 2.0]))
    assert [r["one_sided"] for r in res.rows] == [False, False, False]


def test_trainer_tags_lower_failure_with_iteration():
    class FlakyNode(Node):
        def __init__(self, n, fail_at):
            super().__init__(n, 1)
            self._inner = PoolingNode(PenaltySpec(Penalty.QUADRATIC, 1.0), n)
            self._fail_at = fail_at
            self.solves = 0

        def solve(self, x):
            if self.solves >= self._fail_at:
                raise SolverDiverged("synthetic stall (n=3)")
            self.solves += 1
            return self._inner.solve(x)

        def vjp(self, v, x, solution):
            return self._inner.vjp(v, x, solution)

    task = BilevelTask(
        upper_objective=lambda th, y: 0.5 * y[0] ** 2,
        lower=FlakyNode(3, fail_at=2),
        step_size=0.1, max_iters=10,
        upper_grad_theta=lambda th, y: np.zeros(3),
        upper_grad_y=lambda th, y: np.array([y[0]]))
    with pytest.raises(InfeasibleProblem, match="iteration 2"):
        bilevel_train(task, np.array([1.0, 2.0, 3.0]))


def test_trainer_trace_records_one_sided_flags():
    task, theta0 = build_train_task("robust-mean-fit", seed=0, steps=3,
                                    step_size=0.01)
    result = bilevel_train(task, theta0)
    assert all(isinstance(r["one_sided"], bool) for r in result.rows)
