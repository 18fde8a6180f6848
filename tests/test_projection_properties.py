"""Property tests for the projection nodes: idempotence, the O(n) VJP
against the materialized Jacobian for all twelve specs, and arbitrary
floats including inf, NaN and subnormals."""

import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from optnode.compose import ProjectionNode  # noqa: E402
from optnode.core import InfeasibleProblem, NodeError  # noqa: E402
from optnode.projection import (Norm, ProjectionSpec, Surface,  # noqa: E402
                                project, project_gradient, project_vjp)

# 3 norms x sphere/ball x masked
SPECS = [ProjectionSpec(norm, surface, masked_gradient=masked)
         for norm, surface, masked in itertools.product(
             Norm, Surface, (False, True))]


def _spec_id(spec):
    return (f"{spec.norm.value}-{spec.surface.value}"
            + ("-masked" if spec.masked_gradient else ""))


@st.composite
def vectors(draw, lo=-10.0, hi=10.0):
    """n in [1, 8] entries in [lo, hi], with some exact ties and zeros."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=n))
    pool = pool + [0.0, -pool[0]]
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n,
                                  max_size=n)))


def _rel_err(approx, ref):
    return (float(np.max(np.abs(approx - ref)))
            / max(1.0, float(np.max(np.abs(ref)))))


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
@settings(max_examples=40)
@given(x=vectors())
def test_projection_is_idempotent(spec, x):
    try:
        y = project(x, spec).y
    except NodeError:
        return
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(project(y, spec).y, y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
@settings(max_examples=40)
@given(x=vectors(), seed=st.integers(0, 2 ** 32 - 1))
def test_node_vjp_equals_v_times_jacobian(spec, x, seed):
    node = ProjectionNode(spec, x.size)
    try:
        sol = node.solve(x)
        jac = project_gradient(x, spec, sol.y)
    except NodeError:
        return
    v = np.random.default_rng(seed).normal(size=x.size)
    out, one_sided = node.vjp(v, x, sol)
    assert _rel_err(out, v @ jac.matrix) <= 1e-12
    assert one_sided == jac.one_sided


SPECIALS = [math.inf, -math.inf, math.nan, 5e-324, -1e-310, 2.2e-308,
            1e308, -1.7e308, 1e-300]


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
@settings(max_examples=60)
@given(x=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                            st.sampled_from(SPECIALS)),
                  min_size=1, max_size=6).map(np.array),
       seed=st.integers(0, 2 ** 32 - 1))
def test_arbitrary_floats_give_finite_results_or_node_errors(spec, x, seed):
    if not np.all(np.isfinite(x)):
        with pytest.raises(InfeasibleProblem, match=f"of n={x.size} entries"):
            project(x, spec)
        return
    try:
        sol = project(x, spec)
    except NodeError:
        return
    assert np.all(np.isfinite(sol.y))
    # the exact multiplier and objective can exceed the float range, but
    # neither is ever NaN
    assert not np.isnan(sol.multipliers).any()
    assert not math.isnan(sol.objective_value)
    v = np.random.default_rng(seed).normal(size=x.size)
    try:
        out, _ = project_vjp(v, x, spec, sol.y)
        jac = project_gradient(x, spec, sol.y)
    except NodeError:
        return
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(jac.matrix))

