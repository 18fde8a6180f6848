"""Property tests for the backward-pass engine: both vjp modes against the
materialized Jacobian on drawn inputs over the gallery problems."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from optnode import gallery  # noqa: E402
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
