"""The gallery's range-space KKT Newton: its step against the full block
solve, its refusal of a Hessian it cannot factor, its step and
factorisation counts on the benchmark's problem sizes, the rule that
decides when a step reuses the last factors, and the first-step factors
that the strongly convex and linear equality problems keep across
solves."""

import re
import sys
import threading

import numpy as np
import pytest

from optnode import gallery
from optnode.core import SolverDiverged


def _quadratic(m, p, seed):
    """f(u) = u'Hu/2 - g'u with SPD H, and p random equality rows."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(m, m))
    H = G.T @ G / m + 0.5 * np.eye(m)
    return H, rng.normal(size=m), rng.normal(size=(p, m)), rng.normal(size=p)


@pytest.mark.parametrize("p", [0, 1, 3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_range_space_step_matches_the_block_lu_solve(p, seed):
    """On a quadratic one full step from (0, 0) reaches the KKT point, so
    the iterate after it is -(du, dlam); the step must agree with the LU
    solve of [[H, -A'], [A, 0]] (du, dlam) = (f_y(0), A 0 - b)."""
    m = 6
    H, g, A, b = _quadratic(m, p, seed)
    u, lam, it = gallery._kkt_newton(lambda x, u: H @ u - g,
                                     lambda x, u: H, None, m,
                                     A if p else None, b if p else None)
    K = np.block([[H, -A.T], [A, np.zeros((p, p))]])
    step = np.linalg.solve(K, np.concatenate([-g, -b]))
    assert it == 1
    err = np.concatenate([u, lam]) + step
    assert np.max(np.abs(err)) <= 1e-12 * np.max(np.abs(step))


@pytest.mark.parametrize("p", [0, 1])
def test_indefinite_hessian_is_solver_diverged_naming_the_label(p):
    """Drawn non-positive-definite and non-finite Hessians are the property
    test's (test_engine_properties); this is the plain case, with the
    whole message."""
    H = np.diag([1.0, -0.5, 2.0])
    A = np.array([[1.0, 1.0, 0.0]]) if p else None
    b = np.array([0.5]) if p else None
    with pytest.raises(SolverDiverged, match=re.escape(
            f"probe KKT newton: H (3, 3) not positive definite or A ({p}, 3) "
            "rank deficient")):
        gallery._kkt_newton(lambda x, u: u - 1.0, lambda x, u: H, None, 3,
                            A, b, label="probe")


def test_a_step_that_never_decreases_the_residual_is_stalled():
    """f_y = 1 - u against a positive f_yy: every halving of the step
    raises max|r|, so the solve stalls at its first step."""
    with pytest.raises(SolverDiverged, match=re.escape(
            "probe KKT newton stalled at residual 1.000e+00: 50 halvings "
            "of step 0 found no decrease")):
        gallery._kkt_newton(lambda x, u: 1.0 - u,
                            lambda x, u: np.eye(1), None, 1, label="probe")


def test_a_solve_that_decreases_too_slowly_did_not_converge():
    """An f_yy a million times too large shrinks max|r| by a factor of
    1 - 1e-6 per full step: every step is taken, and the solve gives up
    after 100 of them, not as a stall."""
    with pytest.raises(SolverDiverged, match=re.escape(
            "probe KKT newton did not converge in 100 steps: residual "
            "9.999e-01")):
        gallery._kkt_newton(lambda x, u: u - 1.0,
                            lambda x, u: 1e6 * np.eye(1), None, 1,
                            label="probe")


@pytest.mark.parametrize("p", [0, 1, 5, 20])
@pytest.mark.parametrize("m", [1, 6, 50])
def test_step_factors_keep_the_bits_of_cholesky_and_solve_triangular(m, p):
    """_step_factors and _tri call dpotrf / dtrtrs themselves; L, V, V'V
    and both triangular solves of a step are scipy.linalg.cholesky's and
    solve_triangular's bit for bit."""
    import scipy.linalg
    H, g, A, _ = _quadratic(m, p, seed=m + p)
    L, V, VtV = gallery._step_factors(H, A, "probe")
    ref = scipy.linalg.cholesky(H, lower=True, check_finite=False)
    assert L.tobytes() == ref.tobytes()
    if p:
        Vref = scipy.linalg.solve_triangular(ref, A.T, lower=True,
                                             check_finite=False)
        assert V.tobytes() == Vref.tobytes()
        assert VtV.tobytes() == (Vref.T @ Vref).tobytes()
    else:
        assert V is None and VtV is None
    w = gallery._tri(L, g)
    assert w.tobytes() == scipy.linalg.solve_triangular(
        ref, g, lower=True, check_finite=False).tobytes()
    assert gallery._tri(L, w, trans=1).tobytes() == \
        scipy.linalg.solve_triangular(ref, w, lower=True, trans="T",
                                      check_finite=False).tobytes()


def test_wide_coupling_solve_keeps_the_bits_of_cho_solve():
    """The wide-coupling solve factors Q with dpotrf and solves with dpotrs
    itself: y is scipy.linalg.cho_solve(cho_factor(Q), W x) bit for bit."""
    import scipy.linalg
    m, n = 8, 300
    problem, solve = gallery.wide_coupling_problem(m, n, seed=2)
    d = problem.derivatives
    cho = scipy.linalg.cho_factor(d.f_yy(None, None))
    for x in np.random.default_rng(3).normal(size=(4, n)):
        Wx = -d.f_y(x, np.zeros(m))   # f_y(x, 0) = -W x exactly
        ref = scipy.linalg.cho_solve(cho, Wx, check_finite=False)
        assert solve(x).y.tobytes() == ref.tobytes()


def _count_dpotrf(monkeypatch):
    """A list that gains one entry per scipy.linalg.lapack.dpotrf call."""
    from scipy.linalg import lapack
    calls, dpotrf = [], lapack.dpotrf

    def counted(*args, **kwargs):
        calls.append(1)
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "dpotrf", counted)
    return calls


@pytest.mark.parametrize("make, pinned", [
    (lambda s: gallery.strongly_convex_problem(400, 200, s),
     [(6, 2), (6, 2), (6, 2)]),
    (lambda s: gallery.linear_equality_problem(400, 200, 20, s),
     [(11, 1), (11, 1), (6, 2)]),
], ids=["strongly-convex", "linear-equality"])
def test_newton_iterations_per_solve_are_pinned(make, pinned, monkeypatch):
    """(Newton steps, Cholesky factorisations) of both kkt-chain forward
    solves on a fresh problem at these seeds, its first-step factor
    included: after a full step that cuts max|r| tenfold the next reuses
    the factors.  A change that factors more, or steps differently, fails
    here rather than in benchmark noise."""
    calls = _count_dpotrf(monkeypatch)
    for seed, expected in enumerate(pinned):
        _, solve = make(seed)
        x = np.random.default_rng(100 + seed).normal(size=400)
        before = len(calls)
        steps = solve(x).solver_info.iterations
        assert (steps, len(calls) - before) == expected, seed


SMALL = {
    "strongly-convex": lambda: gallery.strongly_convex_problem(6, 5, 0)[1],
    "linear-equality": lambda: gallery.linear_equality_problem(6, 5, 2, 0)[1],
}


def _inputs(count=6):
    return list(np.random.default_rng(7).normal(size=(count, 6)))


def _bits(sol):
    return (sol.y.tobytes(), np.asarray(sol.multipliers).tobytes(),
            sol.solver_info.iterations, sol.objective_value)


@pytest.mark.parametrize("name, pinned", [
    ("strongly-convex", [(4, 4), (3, 2), (4, 3), (4, 3), (4, 3), (4, 3)]),
    ("linear-equality", [(3, 3), (3, 2), (4, 3), (4, 3), (4, 3), (3, 2)]),
], ids=["strongly-convex", "linear-equality"])
def test_later_solves_reuse_the_first_step_factor(name, pinned, monkeypatch):
    """Every solve starts at u = 0 and f_yy there does not read x, so only
    a problem's first solve factors the first step's Hessian.  At m = 5,
    below gallery._CHORD_MIN_DIM, every other step factors, so a later
    solve makes one factorisation fewer than it takes steps.  Pinned per
    solve as (Newton steps, Cholesky factorisations)."""
    calls = _count_dpotrf(monkeypatch)
    solve = SMALL[name]()
    counts = []
    for x in _inputs():
        before = len(calls)
        steps = solve(x).solver_info.iterations
        counts.append((steps, len(calls) - before))
    assert counts == pinned


def _steps(events):
    """Per Newton step, (factored, damped) from the event log of one
    _kkt_newton call: "F" a dpotrf, "S" the step's back substitution (one
    per step, after its factors) and "r" a residual evaluation (the
    start's, then one per trial point of the line search)."""
    segments = "".join(events).split("S")
    return [("F" in before, after.count("r") > 1)
            for before, after in zip(segments, segments[1:])]


def test_once_a_step_is_damped_every_later_step_factors(monkeypatch):
    """linear_equality_problem(10, 200, 8, 3) at this x = 100 N(0, 1) takes
    a chord step, then damped steps: from the first damped step to the end
    of the solve, plain Newton runs and every step factors its own
    Hessian."""
    from scipy.linalg import lapack
    m = 200
    problem, _ = gallery.linear_equality_problem(10, m, 8, 3)
    d = problem.derivatives
    events, dpotrf, tri = [], lapack.dpotrf, gallery._tri

    def counted(*args, **kwargs):
        events.append("F")
        return dpotrf(*args, **kwargs)

    def substituted(L, b, trans=0):
        if trans:
            events.append("S")
        return tri(L, b, trans)

    def f_y(x, u):
        events.append("r")
        return d.f_y(x, u)

    monkeypatch.setattr(lapack, "dpotrf", counted)
    monkeypatch.setattr(gallery, "_tri", substituted)
    x = 100 * np.random.default_rng(0).normal(size=(5, 10))[4]
    A, b = d.h_y(x, None), -problem.eq_constraints(x, np.zeros(m))
    _, _, iterations = gallery._kkt_newton(f_y, d.f_yy, x, m, A, b)
    steps = _steps(events)
    assert len(steps) == iterations
    first = [damped for _, damped in steps].index(True)
    assert not all(factored for factored, _ in steps[:first + 1])
    assert all(factored for factored, _ in steps[first + 1:])
    assert len(steps) - first >= 3


@pytest.mark.parametrize("make", [
    lambda: gallery.strongly_convex_problem(10, 200, 3),
    lambda: gallery.linear_equality_problem(10, 200, 8, 3),
], ids=["strongly-convex", "linear-equality"])
def test_a_solve_on_chord_steps_meets_the_residual_tolerance(make,
                                                              monkeypatch):
    """Solves that factor fewer times than they step still end at
    max|r| <= 1e-12, with r recomputed here from f_y and the constraints."""
    problem, solve = make()
    d = problem.derivatives
    calls = _count_dpotrf(monkeypatch)
    for x in np.random.default_rng(5).normal(size=(4, 10)):
        before = len(calls)
        sol = solve(x)
        assert len(calls) - before < sol.solver_info.iterations - 1
        r = d.f_y(x, sol.y)
        if problem.eq_constraints is not None:
            r = np.concatenate([r - d.h_y(x, sol.y).T @ sol.multipliers,
                                problem.eq_constraints(x, sol.y)])
        assert np.max(np.abs(r)) <= 1e-12


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_warm_problem_gives_the_bits_of_a_fresh_one(name):
    """y, multipliers, iterations and objective from one problem solved
    many times equal those of a freshly built problem per x, bit for bit."""
    warm = SMALL[name]()
    for x in _inputs():
        assert _bits(warm(x)) == _bits(SMALL[name]()(x))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_threads_sharing_a_cold_problem_match_the_sequential_bits(name):
    """Two threads that start together on one cold problem may both fill
    its first-step cache; either way each gets the sequential bits."""
    xs = _inputs()
    expected = [_bits(SMALL[name]()(x)) for x in xs]
    solve = SMALL[name]()
    barrier = threading.Barrier(2, timeout=30)
    results = [None, None]

    def worker(slot):
        barrier.wait()
        results[slot] = [_bits(solve(x)) for x in xs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected, expected]
