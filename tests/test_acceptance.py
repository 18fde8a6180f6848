"""The acceptance gate.  One test per shipped guarantee; the conftest
turns these into the per-criterion PASS/FAIL summary lines.

Everything here is seeded and self-contained: random problem batteries
against finite-difference oracles, closed-form anchors, the resource
bound on streamed VJPs, the robustness-study trend, and the trainer
properties."""

import time

import numpy as np
import pytest

from optnode import gallery
from optnode.cli import build_train_task, run_gradcheck, run_study
from optnode.compose import (BilevelTask, DeclarativeNode, ImperativeNode,
                             NodeChain, PoolingNode, ProjectionNode,
                             bilevel_train)
from optnode.implicit_diff import (AllocationCounter, build_context,
                                   gradient_equality, gradient_inequality,
                                   gradient_unconstrained,
                                   jacobian_from_context,
                                   pseudo_inverse_descent, vjp)
from optnode.numdiff import FdConfig, fd_jacobian
from optnode.pooling import (Penalty, PenaltySpec, as_problem, robust_pool,
                             robust_pool_gradient)
from optnode.projection import ProjectionSpec, project, project_gradient


def _rel_err(approx, oracle):
    denom = max(1.0, float(np.max(np.abs(oracle))))
    return float(np.max(np.abs(approx - oracle))) / denom


def test_criterion_01_unconstrained_oracle_battery():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([101, trial])
        m = int(rng.integers(1, 7))        # output dim up to 6
        n = int(rng.integers(1, 9))        # input dim up to 8
        problem, solve = gallery.strongly_convex_problem(n, m, seed=trial)
        x = rng.normal(size=n)
        y = solve(x).y
        jac = gradient_unconstrained(problem, x, y)
        oracle = fd_jacobian(lambda z: solve(z).y, x)
        worst = max(worst, _rel_err(jac.matrix, oracle))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5, f"worst rel err {worst:.3e}"
    assert elapsed <= 10.0, f"battery took {elapsed:.1f} s"


def test_criterion_02_equality_oracle_battery():
    worst, worst_feas = 0.0, 0.0
    for trial in range(100):
        rng = np.random.default_rng([102, trial])
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        if trial % 2 == 0:
            p = int(rng.integers(1, m))
            problem, solve = gallery.linear_equality_problem(n, m, p, seed=trial)
        else:
            problem, solve = gallery.sphere_equality_problem(n, m, seed=trial)
        x = rng.normal(size=n)
        sol = solve(x)
        jac = gradient_equality(problem, x, sol.y, multipliers=sol.multipliers)
        oracle = fd_jacobian(lambda z: solve(z).y, x)
        worst = max(worst, _rel_err(jac.matrix, oracle))
        A = problem.derivatives.h_y(x, sol.y)
        C = problem.derivatives.h_x(x, sol.y)
        feas = float(np.max(np.abs(A @ jac.matrix + C)))
        worst_feas = max(worst_feas, feas)
        assert feas <= 1e-7, f"trial {trial}: differentiated feasibility {feas:.3e}"
    assert worst <= 1e-5, f"worst rel err {worst:.3e}"


def test_criterion_03_inequality_scenarios():
    problem, solve = gallery.disc_inequality_problem(2)
    eq_problem, eq_solve = gallery.circle_equality_problem(2)

    # inactive constraint: gradient is the unconstrained one
    x1 = np.array([0.3, -0.45])
    s1 = solve(x1)
    j1 = gradient_inequality(problem, x1, s1.y, s1.multipliers)
    u1 = gradient_unconstrained(problem, x1, s1.y)
    assert not j1.one_sided
    np.testing.assert_allclose(j1.matrix, u1.matrix, atol=1e-8)

    # active with nonzero multiplier: gradient is the equality one
    x2 = np.array([1.3, -0.9])
    s2 = solve(x2)
    e2 = eq_solve(x2)
    j2 = gradient_inequality(problem, x2, s2.y, s2.multipliers)
    g2 = gradient_equality(eq_problem, x2, e2.y, multipliers=e2.multipliers)
    assert not j2.one_sided
    np.testing.assert_allclose(j2.matrix, g2.matrix, atol=1e-8)

    # just touching (multiplier zero): flagged one-sided
    x3 = np.array([0.6, 0.8])
    s3 = solve(x3)
    j3 = gradient_inequality(problem, x3, s3.y, s3.multipliers)
    assert j3.one_sided


def test_criterion_04_pooling_closed_forms():
    n = 6
    for kind in (Penalty.QUADRATIC, Penalty.PSEUDO_HUBER, Penalty.WELSCH):
        spec = PenaltySpec(kind, 1.0)
        problem = as_problem(spec, n)
        worst = 0.0
        for trial in range(50):
            rng = np.random.default_rng([104, trial])
            x = rng.normal(size=n)
            sol = robust_pool(x, spec, tol=1e-13)
            closed = robust_pool_gradient(x, spec, sol.y)
            engine = gradient_unconstrained(problem, x, sol.y)
            worst = max(worst, float(np.max(np.abs(closed.matrix
                                                   - engine.matrix))))
        assert worst <= 1e-6, f"{kind.value}: closed vs engine {worst:.3e}"

    # same gradient wherever Huber and the hard-truncated penalty both exist
    from optnode.core import UndefinedGradient
    rng = np.random.default_rng(104)
    compared = 0
    for _ in range(50):
        x = rng.normal(size=7) * 1.5
        y = float(rng.normal()) * 0.5
        if np.min(np.abs(np.abs(y - x) - 0.8)) < 1e-6:
            continue
        try:
            a = robust_pool_gradient(x, PenaltySpec(Penalty.HUBER, 0.8), y)
        except UndefinedGradient:
            with pytest.raises(UndefinedGradient):
                robust_pool_gradient(
                    x, PenaltySpec(Penalty.TRUNCATED_QUADRATIC, 0.8), y)
            continue
        b = robust_pool_gradient(
            x, PenaltySpec(Penalty.TRUNCATED_QUADRATIC, 0.8), y)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-15)
        compared += 1
    assert compared >= 30

    # the quadratic row is the exact uniform average
    x = rng.normal(size=n)
    spec = PenaltySpec(Penalty.QUADRATIC, 1.0)
    jac = robust_pool_gradient(x, spec, robust_pool(x, spec).y)
    assert np.all(jac.matrix == np.ones((1, n)) / n)


def test_criterion_05_projection_closed_forms():
    # L2 gradient formula over random inputs
    for trial in range(20):
        rng = np.random.default_rng([105, trial])
        x = rng.normal(size=4) * 2.0
        if np.linalg.norm(x) < 0.3:
            continue
        spec = ProjectionSpec("l2")
        y = project(x, spec).y
        jac = project_gradient(x, spec, y)
        nx = float(np.linalg.norm(x))
        expected = (np.eye(4) - np.outer(y, y)) / nx
        assert np.max(np.abs(jac.matrix - expected)) <= 1e-10

    # anchor points
    np.testing.assert_allclose(project(np.array([2.0, 0.75]),
                                       ProjectionSpec("l1")).y,
                               [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(project(np.array([2.0, 0.75]),
                                       ProjectionSpec("linf")).y,
                               [1.0, 0.75], atol=1e-12)

    # masked gradients against one-sided numerical differentiation at the
    # vertex (L1) and on the face (Linf)
    fd_cfg = FdConfig(scheme="forward")
    x = np.array([2.0, 0.75])
    for norm in ("l1", "linf"):
        spec = ProjectionSpec(norm, masked_gradient=True)
        y = project(x, spec).y
        jac = project_gradient(x, spec, y)
        oracle = fd_jacobian(lambda z: project(z, spec).y, x, config=fd_cfg)
        assert np.max(np.abs(jac.matrix - oracle)) <= 1e-6, norm

    # strictly inside the ball nothing moves
    for norm in ("l1", "l2", "linf"):
        spec = ProjectionSpec(norm, surface="ball")
        x = np.array([0.1, 0.2, -0.15])
        jac = project_gradient(x, spec, project(x, spec).y)
        assert np.all(jac.matrix == 0.0)


def test_criterion_06_branch_and_alignment_anchors():
    # the two solution branches carry slopes +1 and -1, bit-exact
    for branch, slope in (("plus", 1.0), ("minus", -1.0)):
        problem, solve = gallery.two_branch_problem(branch)
        node = DeclarativeNode(problem, solve)
        for xv in (0.25, 0.5, 1.5):
            x = np.array([xv])
            sol = node.solve(x)
            assert node.jacobian(x, sol).matrix[0, 0] == slope

    # scale-invariant alignment objective: singular constrained Hessian,
    # minimum-norm direction alpha (I - x x^T / ||x||^2), alpha = 1/||x||
    for seed in (0, 1, 2):
        rng = np.random.default_rng([106, seed])
        x = rng.normal(size=4)
        x /= max(0.5, np.linalg.norm(x) / 2.0)
        problem, solve = gallery.spherical_alignment_problem(4)
        y = solve(x).y
        jac = pseudo_inverse_descent(problem, x, y)
        nx = float(np.linalg.norm(x))
        expected = (np.eye(4) - np.outer(x, x) / nx ** 2) / nx
        np.testing.assert_allclose(jac.matrix, expected, atol=1e-8)


def test_criterion_07_streamed_vjp_economy():
    m, n = 4, 10_000
    problem, solve = gallery.wide_coupling_problem(m, n, seed=107)
    rng = np.random.default_rng(107)
    x = rng.normal(size=n)
    y = solve(x).y
    ctx = build_context(problem, x, y)
    assert ctx.B is None            # wide problem: coupling stays unformed
    v = rng.normal(size=m)
    counter = AllocationCounter()
    streamed = vjp(v, ctx, mode="stream_columns", counter=counter)
    dense = vjp(v, ctx, mode="materialize")
    np.testing.assert_allclose(streamed, dense, atol=1e-12)
    bound = 10 * (m + n)
    assert counter.peak < bound, f"peak {counter.peak} >= {bound}"


def test_criterion_08_chain_composition():
    proj = ProjectionNode(ProjectionSpec("l2"), 3)
    pool = PoolingNode(PenaltySpec(Penalty.PSEUDO_HUBER, 1.0), 3)
    chain = NodeChain([proj, pool])
    x = np.array([1.3, -0.4, 0.7])
    sols = chain.forward(x)
    v = np.array([1.0])

    J_product = (pool.jacobian(sols[0].y, sols[1]).matrix
                 @ proj.jacobian(x, sols[0]).matrix)
    got = chain.backward(x, sols, v)
    assert np.max(np.abs(got - v @ J_product)) <= 1e-10

    square = ImperativeNode(lambda z: z ** 2, 1, 1,
                            jac=lambda z: np.array([[2.0 * z[0]]]))
    full = NodeChain([proj, pool, square])
    fsols = full.forward(x)
    fgot = full.backward(x, fsols, v)
    oracle = v @ fd_jacobian(full.value, x)
    assert _rel_err(fgot, oracle) <= 1e-5


def test_criterion_09_robustness_trend():
    t0 = time.perf_counter()
    rows = run_study(seed=0, trials=200)
    elapsed = time.perf_counter() - t0
    err = {(r["outlier_fraction"], r["penalty"]): r["estimator_error"]
           for r in rows}
    for frac in (0.5, 0.9):
        quad = err[(frac, "quadratic")]
        assert err[(frac, "welsch")] < quad, frac
        assert err[(frac, "truncated_quadratic")] < quad, frac
    # sanity on the clean end: no penalty is wildly off the pack
    clean = [err[(0.0, p)] for p in
             ("quadratic", "pseudo_huber", "huber", "welsch",
              "truncated_quadratic")]
    assert max(clean) <= 2.0 * min(clean)
    # heavy contamination: the non-robust penalty trails everything
    heavy = {p: err[(0.9, p)] for p in
             ("pseudo_huber", "huber", "welsch", "truncated_quadratic")}
    assert all(v < err[(0.9, "quadratic")] for v in heavy.values())
    assert elapsed <= 30.0, f"study took {elapsed:.1f} s"


def test_criterion_10_bilevel_training():
    task, theta0 = build_train_task("robust-mean-fit", seed=0, steps=10,
                                    step_size=0.01)
    result = bilevel_train(task, theta0)
    objectives = [r["objective"] for r in result.rows]
    assert len(objectives) == 10
    assert all(b < a for a, b in zip(objectives, objectives[1:]))

    # J = f shortcut: direction is the plain theta-partial, zero VJPs
    n = 5
    rng = np.random.default_rng(110)
    theta0 = rng.normal(size=n)
    shortcut = BilevelTask(
        upper_objective=lambda th, y: float(np.mean(0.5 * (y[0] - th) ** 2)),
        lower=PoolingNode(PenaltySpec(Penalty.QUADRATIC, 1.0), n),
        step_size=0.05, max_iters=2,
        upper_grad_theta=lambda th, y: (th - y[0]) / n,
        upper_is_lower_objective=True)
    vjps = []
    lower_vjp = shortcut.lower.vjp
    shortcut.lower.vjp = lambda *args: vjps.append(args) or lower_vjp(*args)
    res = bilevel_train(shortcut, theta0)
    assert vjps == []
    theta = theta0.copy()
    for row in res.rows:
        direction = (theta - row["theta"]) / shortcut.step_size
        mean = float(np.mean(theta))
        np.testing.assert_allclose(direction, (theta - mean) / n, atol=1e-12)
        theta = row["theta"]


def test_criterion_11_determinism():
    a = run_gradcheck(["convex-unconstrained", "pool-welsch", "project-l2"],
                      trials=4, seed=0)
    b = run_gradcheck(["convex-unconstrained", "pool-welsch", "project-l2"],
                      trials=4, seed=0)
    assert a == b
    sa = run_study(seed=1, trials=10, points=40)
    sb = run_study(seed=1, trials=10, points=40)
    assert sa == sb
