"""Property tests for robust pooling over clustered data, awkward scales and
non-finite or subnormal entries."""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from optnode import _kernels  # noqa: E402
from optnode.core import (InfeasibleProblem, NodeError,  # noqa: E402
                          STATIONARITY_TOL)
from optnode.pooling import (Penalty, PenaltySpec, _medians,  # noqa: E402
                             robust_pool, robust_pool_gradient)

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


@st.composite
def stacks(draw):
    """A (B, n) stack, B in [1, 8] and n in [1, 60], of clustered rows with
    gross outliers, plus a penalty spec."""
    B, n = draw(st.integers(1, 8)), draw(st.integers(1, 60))
    spec = PenaltySpec(draw(st.sampled_from(KINDS)),
                       10.0 ** draw(st.floats(-2.0, math.log10(30.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = (rng.uniform(-3.0, 3.0, (B, 1))
         + 10.0 ** rng.uniform(-3.0, 1.0, (B, 1)) * rng.standard_normal((B, n)))
    out = rng.random((B, n)) < draw(st.floats(0.0, 0.5))
    X[out] = rng.uniform(-20.0, 20.0, int(out.sum()))
    return X, spec


def _counting_kernel():
    """(patch, passes): patching counts calls of the penalty-sum kernel."""
    passes = []
    inner = _kernels.penalty_sums

    def counted(*args):
        passes.append(args[2])
        return inner(*args)

    return mock.patch.object(_kernels, "penalty_sums", counted), passes


@settings(max_examples=80)
@given(stacks())
def test_stacked_rows_are_the_vector_pools(case):
    """Row i of a stacked pool is bit-identical to pooling X[i] alone; the
    objective is the row-order sum and the iterations the total."""
    X, spec = case
    rows = []
    for i, x in enumerate(X):
        try:
            rows.append(robust_pool(x, spec))
        except NodeError as err:
            with pytest.raises(type(err), match=rf"\brow {i}\b"):
                robust_pool(X, spec)
            return
    sol = robust_pool(X, spec)
    assert sol.y.shape == (len(X),)
    assert sol.y.tobytes() == b"".join(r.y.tobytes() for r in rows)
    objective = rows[0].objective_value
    for r in rows[1:]:
        objective += r.objective_value
    assert sol.objective_value == objective
    assert sol.solver_info.iterations == sum(r.solver_info.iterations
                                             for r in rows)
    assert sol.solver_info.restarts == rows[0].solver_info.restarts


@settings(max_examples=40)
@given(stacks(), st.sampled_from([math.inf, -math.inf, math.nan]),
       st.integers(0, 2 ** 32 - 1))
def test_stacked_nonfinite_row_raises_before_any_pass(case, bad, seed):
    X, spec = case
    rng = np.random.default_rng(seed)
    i, j = int(rng.integers(len(X))), int(rng.integers(X.shape[1]))
    X[i, j] = bad
    patch, passes = _counting_kernel()
    with patch, pytest.raises(
            InfeasibleProblem,
            match=rf"row {i} has 1 non-finite of n={X.shape[1]} "):
        robust_pool(X, spec)
    assert passes == []


@settings(max_examples=20)
@given(stacks())
def test_empty_or_three_dimensional_stack_is_a_value_error(case):
    X, spec = case
    B, n = X.shape
    for bad in (np.zeros((0, n)), np.zeros((B, 0)), X[None], X[..., None]):
        with pytest.raises(ValueError):
            robust_pool(bad, spec)


@settings(max_examples=200)
@given(hnp.arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 60)),
                  elements=st.floats(-1e300, 1e300)))
@example(np.array([[-0.0]]))
@example(np.array([[-5e-324, 0.0], [-0.0, -0.0]]))
def test_partition_median_is_np_median_bit_for_bit(X):
    """The descent's start: odd and even n, n = 1, ties, signed zeros and
    subnormals all give np.median's bits, so the non-convex starts keep
    them."""
    X = np.ascontiguousarray(X)
    np.testing.assert_array_equal(_medians(X).view(np.int64),
                                  np.median(X, -1).view(np.int64))
