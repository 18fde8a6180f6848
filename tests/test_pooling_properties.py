"""Property tests for robust pooling over clustered data, awkward scales and
non-finite or subnormal entries."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from optnode import _kernels  # noqa: E402
from optnode.core import (InfeasibleProblem, NodeError,  # noqa: E402
                          STATIONARITY_TOL)
from optnode.pooling import (Penalty, PenaltySpec, robust_pool,  # noqa: E402
                             robust_pool_gradient)

KINDS = list(Penalty)


@st.composite
def clustered(draw):
    """n in [1, 60] points around 1-3 centres with spread in [1e-4, 10],
    and alpha in [1e-2, 30]."""
    n = draw(st.integers(1, 60))
    centres = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
    spread = 10.0 ** draw(st.floats(-4.0, 1.0))
    alpha = 10.0 ** draw(st.floats(-2.0, math.log10(30.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = (np.asarray(centres)[rng.integers(0, len(centres), n)]
         + spread * rng.standard_normal(n))
    return x, alpha


def _f(spec, u, x):
    return _kernels.penalty_sums(spec.code, spec.alpha, float(u), x)


@settings(max_examples=60)
@given(clustered())
def test_every_penalty_is_stationary_or_a_node_error(case):
    x, alpha = case
    for kind in KINDS:
        spec = PenaltySpec(kind, alpha)
        try:
            y = float(robust_pool(x, spec).y[0])
        except NodeError:
            continue
        assert math.isfinite(y)
        assert abs(_f(spec, y, x)[1]) <= STATIONARITY_TOL


@settings(max_examples=60)
@given(clustered())
def test_nonconvex_result_is_no_worse_than_either_start(case):
    x, alpha = case
    for kind in (Penalty.WELSCH, Penalty.TRUNCATED_QUADRATIC):
        spec = PenaltySpec(kind, alpha)
        sol = robust_pool(x, spec)
        f_y = _f(spec, sol.y[0], x)[0]
        assert sol.objective_value == f_y
        starts = (float(np.mean(x)), float(np.median(x)))
        assert f_y <= min(_f(spec, u, x)[0] for u in starts) + 1e-12


SPECIALS = [math.inf, -math.inf, math.nan, 5e-324, -1e-310, 2.2e-308]


@settings(max_examples=40)
@given(clustered(), st.lists(st.sampled_from(SPECIALS), min_size=1,
                             max_size=3), st.integers(0, 2 ** 32 - 1))
def test_nonfinite_and_subnormal_entries(case, specials, seed):
    x, alpha = case
    x = np.insert(x, np.random.default_rng(seed).integers(0, x.size + 1,
                                                          len(specials)),
                  specials)
    finite = bool(np.all(np.isfinite(x)))
    for kind in KINDS:
        spec = PenaltySpec(kind, alpha)
        if not finite:
            with pytest.raises(InfeasibleProblem):
                robust_pool(x, spec)
            continue
        try:
            sol = robust_pool(x, spec)
        except NodeError:
            continue
        assert math.isfinite(sol.y[0]) and math.isfinite(sol.objective_value)
        try:
            jac = robust_pool_gradient(x, spec, sol.y)
        except NodeError:
            continue
        assert np.all(np.isfinite(jac.matrix))


CONVEX = (Penalty.QUADRATIC, Penalty.PSEUDO_HUBER, Penalty.HUBER)


@settings(max_examples=40)
@given(clustered(), st.integers(0, 2 ** 32 - 1))
def test_pooling_is_permutation_invariant(case, seed):
    """Reordering x keeps every objective; the convex penalties' unique
    minimiser stays put as well."""
    x, alpha = case
    xp = np.random.default_rng(seed).permutation(x)
    scale = 1.0 + float(np.max(np.abs(x)))
    for kind in KINDS:
        spec = PenaltySpec(kind, alpha)
        a, b = robust_pool(x, spec), robust_pool(xp, spec)
        assert abs(a.objective_value - b.objective_value) <= 1e-12 * max(
            abs(a.objective_value), abs(b.objective_value))
        if kind in CONVEX:
            assert abs(a.y[0] - b.y[0]) <= 1e-10 * scale


@settings(max_examples=40)
@given(clustered(), st.floats(-1e3, 1e3))
def test_convex_pooling_is_translation_equivariant(case, c):
    x, alpha = case
    scale = 1.0 + abs(c) + float(np.max(np.abs(x)))
    for kind in CONVEX:
        spec = PenaltySpec(kind, alpha)
        y = robust_pool(x, spec).y[0]
        assert abs(robust_pool(x + c, spec).y[0] - c - y) <= 1e-10 * scale
