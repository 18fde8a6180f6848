"""The benchmark's workloads: inputs, operations and output checks.

Each workload draws every input from the workload seed when it is
constructed, builds its problems and nodes in ``build``, performs op ``i``
in ``run`` and checks that op's output in ``check``.  ``run`` is the only
part the runner times.  Ops call the package through module attributes
(``cli.run_study``, ``pooling.robust_pool``, ...) so that the tracer's
wrappers, which rebind those attributes, see every call.

Inputs of the gated workloads are distinct per op: their input pools are
sized beyond what one run consumes and wrap around only if a run outlasts
them.  pool-wide reuses its 40 arrays.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from optnode import (_kernels, cli, compose, gallery, implicit_diff, numdiff,
                     pooling)
from optnode.pooling import Penalty, PenaltySpec
from optnode.projection import Norm, ProjectionSpec, Surface

STATIONARITY_TOL = 1e-8   # |sum phi'(y - x_i)| a pooled y must reach
GRADCHECK_TOL = 1e-6      # the package's gradcheck tolerance for these paths
STREAM_TOL = 1e-12        # streamed vs materialised VJP, per vjp's docstring
WEIGHT_SUM_TOL = 1e-9     # pooling gradient rows are normalised weights

_REFERENCE_SUMS = _kernels.IMPLEMENTATIONS["numpy"][0]


class Identity:
    """Instrumentation hooks that change nothing (the untraced run)."""

    def solver(self, solve):
        return solve

    def problem(self, problem):
        return problem


def _seeds(seed, tag, count):
    """count independent integer seeds derived from (seed, tag)."""
    state = np.random.SeedSequence([seed, tag]).generate_state(count, np.uint64)
    return [int(s) for s in state]


def _rel_err(approx, oracle):
    """Max abs error scaled by max(1, max |oracle|), as gradcheck does."""
    approx = np.asarray(approx, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    denom = max(1.0, float(np.max(np.abs(oracle))))
    return float(np.max(np.abs(approx - oracle))) / denom


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _pool_failure(x, spec, y):
    """None if y is a stationary point of the pooling objective over x."""
    if not np.isfinite(y):
        return f"non-finite pooled y {y!r} ({spec.kind.value})"
    d1 = _REFERENCE_SUMS(spec.code, spec.alpha, float(y), x)[1]
    if not abs(d1) <= STATIONARITY_TOL:
        return (f"pooled y={y!r} not stationary: sum phi' = {d1:.3e} "
                f"({spec.kind.value}, n={x.size})")
    return None


class _Workload:
    kinds = ()            # the op rotation; op i is of kind kinds[i % len]

    def kind(self, i):
        return self.kinds[i % len(self.kinds)]

    def build(self, hooks):
        """Construct problems and nodes; hooks may wrap them for tracing."""


class PoolStudy(_Workload):
    """One trial of ``optnode study`` per op: 25 pools at n=100."""

    name = "pool-study"
    kinds = ("study",)
    window = 100          # ops whose deterministic counts the trace reports
    POOL = 16384          # distinct op seeds; a 40 s run uses about 3000
    POINTS = 100
    SIGMA = 0.1
    ALPHA = 0.5

    def __init__(self, seed):
        self.op_seeds = _seeds(seed, 1, self.POOL)
        self.specs = [PenaltySpec(kind, self.ALPHA)
                      for kind in cli.STUDY_PENALTIES]

    def run(self, i):
        return cli.run_study(seed=self.op_seeds[i % self.POOL], trials=1,
                             points=self.POINTS, sigma=self.SIGMA,
                             alpha=self.ALPHA)

    def check(self, i, rows):
        # Regenerate the trial's data the way run_study draws it, recover
        # each pooled y from its error |y - mu| and test stationarity.
        rng = np.random.default_rng([self.op_seeds[i % self.POOL], 0])
        mu = float(rng.uniform(-1.0, 1.0))
        if len(rows) != len(cli.STUDY_FRACTIONS) * len(self.specs):
            return f"{len(rows)} study rows"
        k = 0
        for f in cli.STUDY_FRACTIONS:
            n_out = int(round(f * self.POINTS))
            x = np.concatenate([
                mu + self.SIGMA * rng.standard_normal(self.POINTS - n_out),
                rng.uniform(-1.0, 1.0, n_out)])
            for spec in self.specs:
                row = rows[k]
                k += 1
                if row["penalty"] != spec.kind.value or row["outlier_fraction"] != f:
                    return f"unexpected study row {row}"
                err = row["estimator_error"]
                why = _pool_failure(x, spec, mu + err)
                if why is not None and err != 0.0:
                    why = _pool_failure(x, spec, mu - err)
                if why is not None:
                    return why
        return None


class PoolWide(_Workload):
    """robust_pool plus robust_pool_gradient at n = 100 000 per op."""

    name = "pool-wide"
    kinds = tuple(p.value for p in Penalty)
    window = 10
    POOL = 40             # 40 inputs of 0.8 MB; ops wrap around after that
    N = 100_000
    ALPHA = 1.0

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.xs = []
        for _ in range(self.POOL):
            share = rng.uniform(0.0, 0.3)
            offset = rng.uniform(3.0, 10.0)
            x = rng.standard_normal(self.N)
            x[rng.random(self.N) < share] += offset
            self.xs.append(x)
        self.specs = [PenaltySpec(kind, self.ALPHA) for kind in Penalty]

    def run(self, i):
        x = self.xs[i % self.POOL]
        spec = self.specs[i % len(self.specs)]
        sol = pooling.robust_pool(x, spec)
        return sol, pooling.robust_pool_gradient(x, spec, sol.y[0])

    def check(self, i, out):
        sol, jac = out
        x = self.xs[i % self.POOL]
        why = _pool_failure(x, self.specs[i % len(self.specs)], float(sol.y[0]))
        if why is not None:
            return why
        g = jac.matrix
        if g.shape != (1, self.N) or not _finite(g):
            return f"gradient shape {g.shape} or non-finite entries"
        if abs(float(np.sum(g)) - 1.0) > WEIGHT_SUM_TOL:
            return f"gradient weights sum to {float(np.sum(g))!r}"
        return None


class KktChain(_Workload):
    """Engine ops in a fixed rotation, materialised and streamed.

    The chain runs twice per rotation.  That gives the materialised ops
    (chain, bilevel step, numeric Hessian) about the same share of the
    rotation's time as the streamed VJP, and puts the median op inside the
    chain's latency cluster instead of on the gap between two clusters.
    """

    name = "kkt-chain"
    kinds = ("chain", "bilevel", "chain", "stream", "hessian")
    window = 4 * len(kinds)
    POOL = 8192           # distinct windows per input bank
    SAMPLE_EVERY = 8      # full checks on every 8th rotation
    STEP = 0.1

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.problem_seeds = _seeds(seed, 4, 4)
        # op i reads the window bank[i : i + dim]: a distinct input per op
        # from a bank that is only dim + POOL long
        dims = {"chain": 400, "theta": 400, "stream": 20000, "v": 8,
                "hessian": 10}
        self.banks = {k: rng.standard_normal(d + self.POOL)
                      for k, d in dims.items()}
        self.dims = dims
        self.u_chain = _unit(rng.standard_normal(400))
        self.u_theta = _unit(rng.standard_normal(400))
        self.u_stream = _unit(rng.standard_normal(20000))
        self.target = 0.1 * rng.standard_normal(200)

    def _input(self, key, i):
        j = i % self.POOL
        return self.banks[key][j:j + self.dims[key]]

    def build(self, hooks):
        s1, s2, s3, s4 = self.problem_seeds
        p1, solve1 = gallery.linear_equality_problem(400, 200, 20, s1)
        self.chain = compose.NodeChain([
            compose.ProjectionNode(
                ProjectionSpec(Norm.L1, Surface.SPHERE, masked_gradient=True),
                400),
            compose.DeclarativeNode(hooks.problem(p1), hooks.solver(solve1)),
            compose.PoolingNode(PenaltySpec(Penalty.PSEUDO_HUBER, 1.0), 200)])
        p2, solve2 = gallery.strongly_convex_problem(400, 200, s2)
        target = self.target
        self.task = compose.BilevelTask(
            upper_objective=lambda th, y: 0.5 * float(np.sum((y - target) ** 2)),
            lower=compose.DeclarativeNode(hooks.problem(p2), hooks.solver(solve2)),
            step_size=self.STEP, max_iters=1,
            upper_grad_theta=lambda th, y: np.zeros(th.size),
            upper_grad_y=lambda th, y: y - target)
        p3, solve3 = gallery.wide_coupling_problem(8, 20000, s3)
        self.wide = (hooks.problem(p3), hooks.solver(solve3))
        p4, solve4 = gallery.linear_equality_problem(10, 20, 8, s4)
        # drop the constraint second derivatives: numdiff supplies them
        p4 = dataclasses.replace(p4, derivatives=dataclasses.replace(
            p4.derivatives, h_yy=None, h_xy=None))
        self.numeric = (hooks.problem(p4), hooks.solver(solve4))

    def run(self, i):
        kind = self.kind(i)
        if kind == "chain":
            x = self._input("chain", i)
            sols = self.chain.forward(x)
            return sols[-1].y, self.chain.backward(x, sols, np.ones(1))
        if kind == "bilevel":
            return compose.bilevel_train(self.task, self._input("theta", i))
        if kind == "stream":
            problem, solve = self.wide
            x = self._input("stream", i)
            y = solve(x).y
            ctx = implicit_diff.build_context(problem, x, y)
            return y, implicit_diff.vjp(self._input("v", i), ctx,
                                        mode="stream_columns")
        problem, solve = self.numeric
        x = self._input("hessian", i)
        sol = solve(x)
        ctx = implicit_diff.build_context(problem, x, sol.y,
                                          multipliers=sol.multipliers)
        return implicit_diff.jacobian_from_context(ctx)

    def check(self, i, out):
        kind = self.kind(i)
        full = (i // len(self.kinds)) % self.SAMPLE_EVERY == 0
        if kind == "chain":
            y, g = out
            if g.shape != (400,) or not _finite(y, g):
                return f"chain output shape {g.shape} or non-finite"
            if full:
                x = self._input("chain", i)
                u = self.u_chain
                fd = numdiff.fd_jacobian(
                    lambda t: self.chain.value(x + t[0] * u), np.zeros(1))
                return _gradcheck("chain", g @ u, fd[0, 0])
            return None
        if kind == "bilevel":
            theta0 = self._input("theta", i)
            theta1 = out.theta
            if theta1.shape != (400,) or out.iterations != 1 or not _finite(theta1):
                return "bilevel step output shape, count or non-finite"
            if full:
                total = (theta0 - theta1) / self.STEP
                u = self.u_theta
                solve = self.task.lower.solver
                upper = self.task.upper_objective
                fd = numdiff.fd_jacobian(
                    lambda t: np.array([upper(None, solve(theta0 + t[0] * u).y)]),
                    np.zeros(1))
                return _gradcheck("bilevel", total @ u, fd[0, 0])
            return None
        if kind == "stream":
            y, g = out
            if g.shape != (20000,) or not _finite(y, g):
                return f"streamed vjp shape {g.shape} or non-finite"
            if full:
                problem, solve = self.wide
                x = self._input("stream", i)
                v = self._input("v", i)
                ctx = implicit_diff.build_context(problem, x, y)
                ref = implicit_diff.vjp(v, ctx, mode="materialize")
                err = _rel_err(g, ref)
                if err > STREAM_TOL:
                    return f"streamed vjp differs from materialised by {err:.3e}"
                u = self.u_stream
                fd = numdiff.fd_jacobian(lambda t: solve(x + t[0] * u).y,
                                         np.zeros(1))
                return _gradcheck("stream", g @ u, v @ fd[:, 0])
            return None
        J = out
        if J.shape != (20, 10) or not _finite(J):
            return f"numeric-Hessian jacobian shape {J.shape} or non-finite"
        if full:
            solve = self.numeric[1]
            fd = numdiff.fd_jacobian(lambda z: solve(z).y,
                                     self._input("hessian", i))
            return _gradcheck("hessian", J, fd)
        return None


def _unit(v):
    return v / float(np.linalg.norm(v))


def _gradcheck(what, approx, oracle):
    err = _rel_err(approx, oracle)
    if not err <= GRADCHECK_TOL:
        return f"{what}: engine vs finite differences rel err {err:.3e}"
    return None


WORKLOADS = {w.name: w for w in (PoolStudy, PoolWide, KktChain)}
