"""Robust pooling: solvers against grid-search oracles, gradients against
closed forms and the generic engine."""

import collections
import math

import numpy as np
import pytest

from optnode import _kernels
from optnode.cli import (STUDY_ALPHA, STUDY_FRACTIONS, STUDY_PENALTIES,
                         main, run_study)
from optnode.core import InfeasibleProblem, SolverDiverged, UndefinedGradient
from optnode.implicit_diff import gradient_unconstrained
from optnode.numdiff import fd_jacobian
from optnode.pooling import (MAX_ITERS, Penalty, PenaltySpec, as_problem,
                             penalty_value, robust_pool, robust_pool_gradient)

ALL_KINDS = ["quadratic", "pseudo_huber", "huber", "welsch",
             "truncated_quadratic"]


def _objective(spec, u, x):
    return _kernels.penalty_sums(spec.code, spec.alpha, float(u),
                                 np.asarray(x, dtype=float))[0]


def _grid_search(spec, x, lo, hi, step=1e-4, on_grid=None):
    """Dense 1-D scan plus parabolic refinement: the slow, sure oracle.

    on_grid(grid) evaluates the objective at every grid point in array
    operations; without it the kernel is called once per point."""
    grid = np.arange(lo, hi + step, step)
    if on_grid is None:
        vals = np.array([_objective(spec, u, x) for u in grid])
    else:
        vals = on_grid(grid)
    i = int(np.argmin(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    # golden-section refinement inside the winning cell
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = _objective(spec, c, x), _objective(spec, d, x)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _objective(spec, c, x)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _objective(spec, d, x)
    return 0.5 * (a + b)


def test_spec_validates_alpha():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            PenaltySpec("huber", alpha=bad)
    with pytest.raises(ValueError):
        robust_pool(np.array([1.0, 2.0]),
                    PenaltySpec("pseudo_huber", float("inf")))
    assert PenaltySpec("welsch").kind is Penalty.WELSCH


def test_quadratic_is_the_mean():
    sol = robust_pool(np.array([1.0, 2.0, 3.0]), PenaltySpec("quadratic"))
    assert sol.y[0] == 2.0
    assert sol.solver_info.iterations == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unanimity(kind):
    x = np.full(5, -1.7)
    sol = robust_pool(x, PenaltySpec(kind, alpha=0.8))
    assert sol.y[0] == pytest.approx(-1.7, abs=1e-12)


def test_welsch_rejects_far_outlier():
    """Ten points at 0 and one at 100: Welsch stays at the cluster while
    the quadratic mean is dragged to ~9.09.  Oracle: dense grid search."""
    x = np.concatenate([np.zeros(10), [100.0]])
    spec = PenaltySpec("welsch", alpha=1.0)
    sol = robust_pool(x, spec)

    def welsch_on_grid(grid):
        # sum_i 1 - exp(-(u - x_i)^2 / 2 alpha^2) over the whole grid
        vals = np.zeros_like(grid)
        for xi in x:
            vals += 1.0 - np.exp(-0.5 * (grid - xi) ** 2 / spec.alpha ** 2)
        return vals

    oracle = _grid_search(spec, x, -1.0, 101.0, on_grid=welsch_on_grid)
    assert abs(sol.y[0] - oracle) <= 1e-6
    assert abs(sol.y[0]) <= 1e-3

    quad = robust_pool(x, PenaltySpec("quadratic"))
    assert quad.y[0] == pytest.approx(100.0 / 11.0, abs=1e-12)


def test_truncated_quadratic_rejects_far_outlier():
    x = np.concatenate([np.zeros(10), [100.0]])
    spec = PenaltySpec("truncated_quadratic", alpha=1.0)
    sol = robust_pool(x, spec)
    assert abs(sol.y[0]) <= 1e-6


@pytest.mark.parametrize("kind", ["quadratic", "pseudo_huber", "huber"])
def test_convex_solvers_match_global_grid_oracle(kind):
    rng = np.random.default_rng(21)
    x = np.sort(rng.normal(size=7)) * 2.0
    spec = PenaltySpec(kind, alpha=0.9)
    sol = robust_pool(x, spec, tol=1e-13)
    oracle = _grid_search(spec, x, float(np.min(x)) - 0.1,
                          float(np.max(x)) + 0.1)
    assert abs(sol.y[0] - oracle) <= 1e-6


@pytest.mark.parametrize("kind", ["welsch", "truncated_quadratic"])
def test_nonconvex_solver_returns_certified_local_minimum(kind):
    """The two-start protocol promises the lower of the two local minima it
    finds, not the global one.  Certify the returned point is a genuine
    local minimum (grid refinement around it agrees) and that it dominates
    both starting values."""
    rng = np.random.default_rng(21)
    x = np.sort(rng.normal(size=7)) * 2.0
    spec = PenaltySpec(kind, alpha=0.9)
    sol = robust_pool(x, spec, tol=1e-13)
    y = float(sol.y[0])
    local = _grid_search(spec, x, y - 0.05, y + 0.05, step=1e-5)
    assert abs(y - local) <= 1e-6
    f_y = _objective(spec, y, x)
    assert f_y <= _objective(spec, float(np.mean(x)), x) + 1e-12
    assert f_y <= _objective(spec, float(np.median(x)), x) + 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_shift_equivariance(kind):
    rng = np.random.default_rng(31)
    x = rng.normal(size=9)
    spec = PenaltySpec(kind, alpha=1.1)
    base = float(robust_pool(x, spec, tol=1e-13).y[0])
    for c in (-3.0, 0.7, 12.5):
        shifted = float(robust_pool(x + c, spec, tol=1e-13).y[0])
        assert shifted == pytest.approx(base + c, abs=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_rows_sum_to_one(kind):
    rng = np.random.default_rng(41)
    x = rng.normal(size=6)
    spec = PenaltySpec(kind, alpha=1.0)
    y = float(robust_pool(x, spec).y[0])
    jac = robust_pool_gradient(x, spec, y)
    assert float(np.sum(jac.matrix)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_large_alpha_limit_is_the_mean(kind):
    rng = np.random.default_rng(51)
    x = rng.normal(size=8) * 2.0
    spec = PenaltySpec(kind, alpha=1e6)
    sol = robust_pool(x, spec)
    assert sol.y[0] == pytest.approx(float(np.mean(x)), abs=1e-6)
    jac = robust_pool_gradient(x, spec, sol.y)
    np.testing.assert_allclose(jac.matrix, np.full((1, 8), 1 / 8), atol=1e-6)


def test_quadratic_gradient_exact():
    x = np.array([3.0, -1.0, 0.5, 2.5])
    jac = robust_pool_gradient(x, PenaltySpec("quadratic"), 1.25)
    assert np.all(jac.matrix == 0.25)


def test_huber_gradient_is_inlier_average():
    # alpha = 1, y = 0: inliers are the coordinates within distance 1
    x = np.array([0.2, -0.4, 5.0, -7.0, 0.9])
    spec = PenaltySpec("huber", alpha=1.0)
    jac = robust_pool_gradient(x, spec, 0.0)
    np.testing.assert_allclose(jac.matrix,
                               [[1 / 3, 1 / 3, 0.0, 0.0, 1 / 3]], atol=1e-15)


def test_huber_equals_truncated_quadratic_gradient():
    rng = np.random.default_rng(61)
    for _ in range(20):
        x = rng.normal(size=7) * 1.5
        y = float(rng.normal()) * 0.5
        a = robust_pool_gradient(x, PenaltySpec("huber", 0.8), y)
        b = robust_pool_gradient(x, PenaltySpec("truncated_quadratic", 0.8), y)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-15)


def test_undefined_gradient_when_no_inliers():
    # x = [0, 10], alpha = 1: the solver lands between the points where
    # every indicator is zero
    x = np.array([0.0, 10.0])
    spec = PenaltySpec("huber", alpha=1.0)
    sol = robust_pool(x, spec)
    with pytest.raises(UndefinedGradient):
        robust_pool_gradient(x, spec, sol.y)


def test_kink_sets_one_sided_flag():
    x = np.array([0.0, 2.0, 3.0])
    spec = PenaltySpec("truncated_quadratic", alpha=2.5)
    jac = robust_pool_gradient(x, spec, 2.5)   # |y - x_0| = alpha exactly
    assert jac.one_sided


@pytest.mark.parametrize("kind", ["quadratic", "pseudo_huber", "welsch"])
def test_closed_form_matches_generic_engine(kind):
    """Table row cross-check: normalized-weight closed form vs the implicit
    engine running on numeric Hessian blocks."""
    rng = np.random.default_rng(71)
    spec = PenaltySpec(kind, alpha=1.0)
    problem = as_problem(spec, 6)
    for _ in range(5):
        x = rng.normal(size=6)
        sol = robust_pool(x, spec, tol=1e-13)
        closed = robust_pool_gradient(x, spec, sol.y)
        engine = gradient_unconstrained(problem, x, sol.y)
        assert np.max(np.abs(closed.matrix - engine.matrix)) <= 1e-6


@pytest.mark.parametrize("kind", ["pseudo_huber", "welsch"])
def test_closed_form_matches_fd_oracle(kind):
    rng = np.random.default_rng(81)
    spec = PenaltySpec(kind, alpha=1.0)
    for _ in range(3):
        x = rng.normal(size=5)
        sol = robust_pool(x, spec, tol=1e-13)
        closed = robust_pool_gradient(x, spec, sol.y)
        J_fd = fd_jacobian(lambda z: robust_pool(z, spec, tol=1e-13).y, x)
        assert np.max(np.abs(closed.matrix - J_fd)) <= 1e-6


def test_multistart_reports_restart():
    rng = np.random.default_rng(91)
    x = rng.normal(size=6)
    sol = robust_pool(x, PenaltySpec("welsch", alpha=0.7))
    assert sol.solver_info.restarts == 1
    assert sol.solver_info.converged


def test_multistart_picks_lower_minimum():
    # two clusters of unequal size: the bigger basin must win regardless
    # of which start is nearer to it
    x = np.array([0.0, 0.05, -0.05, 0.02, 5.0, 5.01])
    spec = PenaltySpec("welsch", alpha=0.5)
    sol = robust_pool(x, spec)
    oracle = _grid_search(spec, x, -0.5, 5.5)
    assert abs(sol.y[0] - oracle) <= 1e-6
    assert abs(sol.y[0]) < 0.1


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        robust_pool(np.zeros(0), PenaltySpec("quadratic"))


@pytest.fixture
def kernel_passes(monkeypatch):
    """Counts calls of the penalty-sum kernel (one call is one pass)."""
    calls = []
    inner = _kernels.penalty_sums

    def counted(*args):
        calls.append(args[2])
        return inner(*args)

    monkeypatch.setattr(_kernels, "penalty_sums", counted)
    return calls


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_nonfinite_input_raises_before_any_pass(kind, bad, kernel_passes):
    x = np.array([0.0, 1.0, bad])
    spec = PenaltySpec(kind, alpha=1.0)
    with pytest.raises(InfeasibleProblem, match=r"1 non-finite of n=3"):
        robust_pool(x, spec)
    assert kernel_passes == []
    with pytest.raises(UndefinedGradient):
        robust_pool_gradient(x, spec, 0.5)
    with pytest.raises(UndefinedGradient):
        robust_pool_gradient(x[:2], spec, bad)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cli_pool_nonfinite_input_is_domain_error(kind, capsys):
    code = main(["pool", "--values", "0,1,inf", "--penalty", kind,
                 "--alpha", "1"])
    assert code == 1
    assert "InfeasibleProblem" in capsys.readouterr().err


# The pseudo-Huber kernel still overflows on the way (ROADMAP item 2);
# the quadratic closed form raises SolverDiverged with no numpy warning.
_KERNEL_WARNS = pytest.mark.filterwarnings("ignore::RuntimeWarning")
OVERFLOWS = [
    # (z/alpha)^2 overflows, so every f' term reads 0 at the mean: y = 1e200
    # with an infinite objective was reported as converged
    pytest.param([0.0, 0.0, 3e200], "pseudo_huber", 1.0, marks=_KERNEL_WARNS),
    # the mean itself overflows to inf
    ([1e308, 1.5e308], "quadratic", 1.0),
    # alpha^2 underflows to 0 against an infinite sum: a NaN objective
    pytest.param([0.0, 0.0, 3.0], "pseudo_huber", 1e-200, marks=_KERNEL_WARNS),
    # y = 1e200 is finite, but the objective (about 3e400) is not
    ([0.0, 0.0, 3e200], "quadratic", 1.0),
]


@pytest.mark.parametrize("values, kind, alpha", OVERFLOWS)
def test_overflow_from_finite_input_is_solver_diverged(values, kind, alpha,
                                                       capsys):
    spec = PenaltySpec(kind, alpha)
    with pytest.raises(SolverDiverged,
                       match=rf"n={len(values)}, penalty={kind}, "
                             rf"alpha={alpha}, max\|x\| = "):
        robust_pool(np.array(values), spec)
    code = main(["pool", "--values", ",".join(map(repr, values)),
                 "--penalty", kind, "--alpha", repr(alpha)])
    assert code == 1
    assert "SolverDiverged" in capsys.readouterr().err


def _study_draw(seed, fraction, points=100, sigma=0.1):
    """The array run_study pools for trial `seed` at `fraction`."""
    rng = np.random.default_rng([seed, 0])
    mu = float(rng.uniform(-1.0, 1.0))
    for f in STUDY_FRACTIONS:
        n_out = int(round(f * points))
        x = np.concatenate([mu + sigma * rng.standard_normal(points - n_out),
                            rng.uniform(-1.0, 1.0, n_out)])
        if f == fraction:
            return x
    raise ValueError(fraction)


@pytest.mark.parametrize("seed, fraction", [(327, 0.2), (355, 0.9)])
def test_welsch_passes_are_bounded_on_hard_study_draws(seed, fraction,
                                                       kernel_passes):
    """Study draws on which a Newton step next to the minimum raises f by
    its rounding; a safeguard that then hunts for a lower f by halving,
    bracketing and golden section spends 1814 and 1488 passes on them."""
    x = _study_draw(seed, fraction)
    spec = PenaltySpec("welsch", alpha=0.5)
    sol = robust_pool(x, spec)
    assert len(kernel_passes) <= 60
    assert sol.solver_info.iterations < MAX_ITERS
    y = float(sol.y[0])
    local = _grid_search(spec, x, y - 0.05, y + 0.05, step=1e-5)
    assert abs(y - local) <= 1e-6


def test_welsch_start_where_every_weight_is_below_rounding(kernel_passes):
    """At the mean of [0, 0, 2.6e-5] with alpha = 1e-6 the Welsch weights
    (about 1e-16) vanish in the rounding of f = n - sum exp(.), so the
    majoriser curvature (n - f) / alpha^2 reads 0 while f' is still 8e-10."""
    x = np.array([0.0, 0.0, 2.6e-5])
    spec = PenaltySpec("welsch", alpha=1e-6)
    assert _kernels.penalty_sums(spec.code, spec.alpha, float(np.mean(x)),
                                 x)[0] == x.size
    kernel_passes.clear()
    sol = robust_pool(x, spec)
    assert abs(sol.y[0]) <= 1e-9
    assert len(kernel_passes) <= 20


def _study_reference(seed, trials, points, sigma=0.1, alpha=STUDY_ALPHA):
    """run_study's rows recomputed with one vector pool per array."""
    specs = [PenaltySpec(kind, alpha) for kind in STUDY_PENALTIES]
    totals = {(f, s.kind.value): 0.0 for f in STUDY_FRACTIONS for s in specs}
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        mu = float(rng.uniform(-1.0, 1.0))
        for f in STUDY_FRACTIONS:
            n_out = int(round(f * points))
            x = np.concatenate([
                mu + sigma * rng.standard_normal(points - n_out),
                rng.uniform(-1.0, 1.0, n_out)])
            for s in specs:
                totals[(f, s.kind.value)] += abs(
                    float(robust_pool(x, s).y[0]) - mu)
    return [{"outlier_fraction": f, "penalty": s.kind.value,
             "estimator_error": totals[(f, s.kind.value)] / trials,
             "trials": trials}
            for f in STUDY_FRACTIONS for s in specs]


def test_study_pools_each_penalty_as_one_stack():
    """The study's stacked pools give exactly the per-array results."""
    assert run_study(seed=3, trials=5, points=40) == _study_reference(3, 5, 40)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stack_costs_no_more_passes_than_its_longest_row(kind,
                                                         kernel_passes):
    """Rows run in lockstep: a stack of the study's five arrays takes no
    more kernel passes than the costliest of them pooled alone."""
    spec = PenaltySpec(kind, alpha=0.5)
    X = np.stack([_study_draw(327, f) for f in STUDY_FRACTIONS])
    longest = 0
    for x in X:
        kernel_passes.clear()
        robust_pool(x, spec)
        longest = max(longest, len(kernel_passes))
    kernel_passes.clear()
    robust_pool(X, spec)
    assert 1 <= len(kernel_passes) <= longest


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_overflow_names_its_row():
    X = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3e200]])
    with pytest.raises(SolverDiverged, match=r"overflowed in row 1: "):
        robust_pool(X, PenaltySpec("pseudo_huber", 1.0))


@pytest.mark.parametrize("kind, scales, y_far", [
    ("huber", [3.0, 3e8, 3e20, 3e200], 0.5),
    ("pseudo_huber", [3.0, 3e8, 3e20], 1.0 / math.sqrt(3.0)),
], ids=["huber", "pseudo_huber"])
def test_convex_pooling_cost_does_not_grow_with_the_data_scale(kind, scales,
                                                                y_far):
    """[0, 0, s] with alpha = 1: the descent starts at the median 0, so the
    far point costs the same iterations at every scale.  A search over a
    bracket as wide as the data took 2, 29 and 69 Huber iterations at
    s = 3, 3e8 and 3e20, and overflowed at 3e200."""
    spec = PenaltySpec(kind, 1.0)
    iters = []
    for s in scales:
        sol = robust_pool(np.array([0.0, 0.0, s]), spec)
        iters.append(sol.solver_info.iterations)
        if s > 3.0 or kind == "huber":
            assert abs(sol.y[0] - y_far) <= 1e-12, s
    assert len(set(iters)) == 1, iters


@pytest.mark.parametrize("kind, y", [("huber", 0.5),
                                     ("truncated_quadratic", 0.0)])
def test_piecewise_kernels_never_square_an_outlier(kind, y):
    """[0, 0, 3e200] pools with no warning (the suite makes one an error):
    the inlier value 0.5 z^2 is formed from d1, which is z only for the
    inliers, so the far point's z is never squared."""
    sol = robust_pool(np.array([0.0, 0.0, 3e200]), PenaltySpec(kind, 1.0))
    assert sol.y[0] == y
    assert math.isfinite(sol.objective_value)


def test_study_kernel_passes_per_penalty_are_pinned(monkeypatch):
    """Kernel passes per penalty over run_study(seed=0, trials=50): the
    deterministic cost of the benchmark's pool-study workload, pinned so a
    pass regression fails here instead of hiding in timing noise."""
    passes = collections.Counter()
    inner = _kernels.penalty_sums

    def counted(code, *args):
        passes[code] += 1
        return inner(code, *args)

    monkeypatch.setattr(_kernels, "penalty_sums", counted)
    run_study(seed=0, trials=50)
    assert [passes[PenaltySpec(kind).code] for kind in ALL_KINDS] == [
        50, 286, 212, 374, 381]
