"""Property tests for the backward-pass engine over the gallery problems:
both vjp modes against the materialized Jacobian on drawn inputs, and the
declarative node's boundary on arbitrary floats."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from optnode import gallery  # noqa: E402
from optnode.compose import DeclarativeNode  # noqa: E402
from optnode.core import NodeError, SolverDiverged  # noqa: E402
from optnode.implicit_diff import (build_context,  # noqa: E402
                                   jacobian_from_context, vjp)

# name -> (constructor, build_context keywords); one per engine path
PROBLEMS = {
    "unconstrained": (lambda: gallery.strongly_convex_problem(3, 2, 21), {}),
    "equality-linear": (
        lambda: gallery.linear_equality_problem(4, 5, 2, 23), {}),
    "equality-sphere": (
        lambda: gallery.sphere_equality_problem(3, 4, 24), {}),
    "disc-inequality": (lambda: gallery.disc_inequality_problem(2), {}),
    "circle-equality": (lambda: gallery.circle_equality_problem(3), {}),
    "alignment-pseudo-inverse": (
        lambda: gallery.spherical_alignment_problem(3),
        {"path": "pseudo_inverse"}),
    "feasibility-two-branch": (lambda: gallery.two_branch_problem("plus"), {}),
    "streamed-wide": (lambda: gallery.wide_coupling_problem(4, 50, 22), {}),
}


@settings(max_examples=60)
@given(st.sampled_from(sorted(PROBLEMS)), st.data())
def test_vjp_modes_match_the_materialized_jacobian(name, data):
    """Entries of x have magnitude in [0.1, 2], clear of the x = 0 points
    where circle, alignment and two-branch lose their gradient."""
    make, kwargs = PROBLEMS[name]
    problem, solve = make()
    n = problem.input_dim
    mags = data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n,
                               max_size=n))
    x = np.array(signs) * np.array(mags)
    sol = solve(x)
    lam = sol.multipliers if sol.multipliers.size else None
    ctx = build_context(problem, x, sol.y, multipliers=lam, **kwargs)
    Dy = jacobian_from_context(ctx)
    v = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))) \
        .normal(size=problem.output_dim)
    ref = v @ Dy
    tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    for mode in ("stream_columns", "materialize"):
        assert np.max(np.abs(vjp(v, ctx, mode=mode) - ref)) <= tol, mode


SPECIALS = [math.inf, -math.inf, math.nan, 5e-324, -1e-310, 2.2e-308,
            1e308, -1e308, 1.7e308, -1.7e308]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@settings(max_examples=30)
@given(data=st.data())
def test_declarative_node_gives_finite_results_or_node_errors(name, data):
    """solve then vjp on x with infinities, NaN, subnormals and entries near
    the float range: a finite y and v^T Dy, or a NodeError, and no numpy
    warning (the suite turns one into an error)."""
    problem, solve = PROBLEMS[name][0]()
    node = DeclarativeNode(problem, solve)
    entry = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIALS))
    x = np.array(data.draw(st.lists(entry, min_size=problem.input_dim,
                                    max_size=problem.input_dim)))
    try:
        sol = node.solve(x)
        out, _ = node.vjp(np.ones(problem.output_dim), x, sol)
    except NodeError:
        return
    assert np.isfinite(sol.y).all() and np.isfinite(out).all()


@settings(max_examples=60)
@given(st.integers(1, 5), st.integers(0, 2), st.data())
def test_kkt_newton_refuses_a_hessian_it_cannot_factor(m, p, data):
    """The gallery's KKT Newton needs a finite positive-definite Hessian:
    one with a non-positive eigenvalue or a non-finite entry is a
    SolverDiverged naming the helper's label, never a raw LinAlgError."""
    p = min(p, m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    eigs = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=m,
                                       max_size=m)))
    eigs[data.draw(st.integers(0, m - 1))] = data.draw(
        st.one_of(st.floats(-10.0, -1e-3), st.just(0.0)))
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    H = (Q * eigs) @ Q.T if eigs.min() < 0.0 else np.diag(eigs)
    if data.draw(st.booleans()):
        index = st.integers(0, m - 1)
        H[data.draw(index), data.draw(index)] = data.draw(
            st.sampled_from([math.inf, -math.inf, math.nan]))
    A = rng.normal(size=(p, m)) if p else None
    b = rng.normal(size=p) if p else None
    with pytest.raises(SolverDiverged, match="drawn KKT newton: H "):
        gallery._kkt_newton(lambda x, u: u - 1.0, lambda x, u: H, None, m,
                            A, b, label="drawn")
