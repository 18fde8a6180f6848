"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps the public functions of each optnode module (and the
numpy/scipy calls the engine makes for condition estimates and
factorisations) and rebinds every module attribute that refers to them, so
a caller that imported a name directly (``optnode.cli`` binds
``robust_pool`` at import) goes through the wrapper too.  Nothing in the
package is edited; ``uninstall`` restores every attribute.

Two kinds of wrapper:

* a span records name, start, end, parent span, op index and op kind.
  Spans stay in memory and are written out when the run ends.
* a leaf (kernel passes, factorisations, condition SVDs, problem callbacks
  under finite differences) is too frequent to keep one record per call.
  Its calls, points and seconds are summed per name, and its time counts
  as covered time of the enclosing span, so self time stays exact.

A span's self time is its duration minus the time covered by its direct
child spans and leaves.  Counts are taken over the first ``window`` ops of
the traced phase, which are the same inputs on every run of a seed, so
they repeat exactly.  Times are seconds per op over all traced ops.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

PENALTIES = ("quadratic", "pseudo_huber", "huber", "welsch",
             "truncated_quadratic")

# Per-layer metrics and their units, in report order.  The optnode._kernels
# module reports under "kernels." because metric names start with a letter.
UNITS = {
    "kernels.penalty_sums.calls": "count",
    "kernels.penalty_sums.points": "count",
    "kernels.penalty_sums.s": "s/op",
    "kernels.penalty_weights.calls": "count",
    "kernels.penalty_weights.s": "s/op",
    "kernels.points_per_s": "1/s",
    "kernels.bytes_computed": "B",
    **{f"pooling.passes_per_solve.{stat}.{p}": "count"
       for p in PENALTIES for stat in ("p50", "max")},
    "pooling.robust_pool.calls": "count",
    "pooling.robust_pool.s": "s/op",
    "pooling.robust_pool.self_s": "s/op",
    "pooling.iterations_per_solve": "iterations",
    "pooling.robust_pool_gradient.s": "s/op",
    "pooling.undefined_gradient": "count",
    "pooling.solver_diverged": "count",
    "cli.run_study.self_s": "s/op",
    "projection.project.s": "s/op",
    "projection.project_gradient.s": "s/op",
    "implicit_diff.build_context.s": "s/op",
    "implicit_diff.jacobian_from_context.s": "s/op",
    "implicit_diff.vjp.materialize.s": "s/op",
    "implicit_diff.vjp.stream_columns.s": "s/op",
    "implicit_diff.cond_svd.calls": "count",
    "implicit_diff.cond_svd.s": "s/op",
    "implicit_diff.factorizations": "count",
    "implicit_diff.stream_alloc_peak": "count",
    "implicit_diff.backward_over_forward": "ratio",
    "numdiff.fd_hessian_blocks.calls": "count",
    "numdiff.fd_hessian_blocks.s": "s/op",
    "numdiff.callback_evals": "count",
    "numdiff.callback_evals_per_hessian_op": "count",
    "numdiff.fd_jacobian.calls": "count",
    "compose.chain_forward.s": "s/op",
    "compose.chain_backward.s": "s/op",
    "compose.bilevel_step.s": "s/op",
    "compose.node_vjp.calls": "count",
    "gallery.solve.s": "s/op",
    "trace.overhead": "ratio",
}

# b_column is left unwrapped: numdiff never evaluates it, and the streamed
# VJP calls it once per input column, where a wrapper would dominate.
_DERIVATIVE_FIELDS = ("f_y", "f_yy", "f_xy", "h_y", "h_x", "h_yy", "h_xy",
                      "g_y", "g_x", "g_yy", "g_xy")
_PROBLEM_FIELDS = ("objective", "eq_constraints", "ineq_constraints")


class Span:
    __slots__ = ("id", "parent", "op", "kind", "name", "start", "end",
                 "child_s", "leaf_calls", "attrs")

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class _Leaf:
    __slots__ = ("calls", "s", "points", "window_calls", "window_points",
                 "window_by_kind")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.points = 0
        self.window_calls = 0
        self.window_points = 0
        self.window_by_kind = Counter()


class Tracer:
    """Spans and leaf counters for one traced run.

    Also serves as the workloads' build hooks: ``solver`` wraps a gallery
    solve closure and ``problem`` wraps a problem's callbacks, so the
    gallery forward solve and the callback evaluations made under finite
    differences are measured too.
    """

    def __init__(self, window):
        self.window = window
        self.active = False
        self.op = 0
        self.kind = ""
        self.spans = []
        self.leaves = defaultdict(_Leaf)
        self._stack = []
        self._open = Counter()        # open spans per module
        self._patches = []

    # -- op boundaries (the runner calls these around each timed op) --------

    def begin(self, op, kind):
        self.op, self.kind, self.active = op, kind, True

    def end(self):
        self.active = False

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, on_call=None, on_return=None):
        """Wrap fn in a span.  on_call(args, kwargs) may return a new
        (name, kwargs); on_return(span, args, kwargs, out) may set span
        attrs."""
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            s = Span()
            s.name = name
            if on_call is not None:
                s.name, kwargs = on_call(args, kwargs)
            module = s.name.split(".", 1)[0]
            s.id = len(self.spans)
            s.parent = self._stack[-1].id if self._stack else None
            s.op, s.kind = self.op, self.kind
            s.child_s = 0.0
            s.leaf_calls = None
            s.attrs = {}
            self.spans.append(s)
            self._stack.append(s)
            self._open[module] += 1
            s.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                s.attrs["error"] = type(err).__name__
                raise
            finally:
                s.end = perf_counter()
                self._stack.pop()
                self._open[module] -= 1
                if self._stack:
                    self._stack[-1].child_s += s.end - s.start
            if on_return is not None:
                on_return(s, args, kwargs, out)
            return out
        return wrapper

    def leaf(self, name, fn, within=None, points=None):
        """Wrap fn as a summed leaf; counted only inside a span of module
        `within` when that is given."""
        stat = self.leaves[name]

        def wrapper(*args, **kwargs):
            if not self.active or (within is not None and not self._open[within]):
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                n = points(args) if points is not None else 0
                stat.calls += 1
                stat.s += dt
                stat.points += n
                if self.op < self.window:
                    stat.window_calls += 1
                    stat.window_points += n
                    stat.window_by_kind[self.kind] += 1
                if self._stack:
                    top = self._stack[-1]
                    top.child_s += dt
                    if top.leaf_calls is None:
                        top.leaf_calls = Counter()
                    top.leaf_calls[name] += 1
        return wrapper

    # -- workload build hooks -------------------------------------------------

    def solver(self, solve):
        return self.span("gallery.solve", solve)

    def problem(self, problem):
        """Copy of problem whose callbacks count as numdiff callback
        evaluations while a numdiff span is open."""
        def wrap(field, fn):
            if fn is None:
                return None
            return self.leaf(f"numdiff.callback.{field}", fn, within="numdiff")

        d = problem.derivatives
        if d is not None:
            d = dataclasses.replace(d, **{f: wrap(f, getattr(d, f))
                                          for f in _DERIVATIVE_FIELDS})
        return dataclasses.replace(
            problem, derivatives=d,
            **{f: wrap(f, getattr(problem, f)) for f in _PROBLEM_FIELDS})

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, orig, new):
        """Point every optnode module attribute bound to orig at new."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "optnode"
                                   or modname.startswith("optnode.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, new)

    def install(self):
        import numpy.linalg
        import scipy.linalg
        from optnode import (_kernels, cli, compose, implicit_diff, numdiff,
                             pooling, projection)

        size = lambda args: args[3].size     # (code, alpha, u, x)
        for fn in ("penalty_sums", "penalty_weights"):
            orig = getattr(_kernels, fn)
            self._rebind(orig, self.leaf(f"kernels.{fn}", orig, points=size))

        def pool_attrs(s, args, kwargs, sol):
            spec = args[1] if len(args) > 1 else kwargs["spec"]
            s.attrs["penalty"] = getattr(getattr(spec, "kind", spec), "value", spec)
            s.attrs["iterations"] = sol.solver_info.iterations

        def vjp_call(args, kwargs):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "materialize")
            if mode == "stream_columns" and kwargs.get("counter") is None \
                    and len(args) < 4:
                kwargs = dict(kwargs, counter=implicit_diff.AllocationCounter())
            return f"implicit_diff.vjp.{mode}", kwargs

        def vjp_attrs(s, args, kwargs, out):
            if kwargs.get("counter") is not None:
                s.attrs["alloc_peak"] = kwargs["counter"].peak

        spans = [
            (pooling, "robust_pool", "pooling.robust_pool", None, pool_attrs),
            (pooling, "robust_pool_gradient", "pooling.robust_pool_gradient",
             None, None),
            (cli, "run_study", "cli.run_study", None, None),
            (projection, "project", "projection.project", None, None),
            (projection, "project_gradient", "projection.project_gradient",
             None, None),
            (implicit_diff, "build_context", "implicit_diff.build_context",
             None, None),
            (implicit_diff, "jacobian_from_context",
             "implicit_diff.jacobian_from_context", None, None),
            (implicit_diff, "vjp", "implicit_diff.vjp", vjp_call, vjp_attrs),
            (numdiff, "fd_hessian_blocks", "numdiff.fd_hessian_blocks",
             None, None),
            (numdiff, "fd_jacobian", "numdiff.fd_jacobian", None, None),
            (compose, "bilevel_train", "compose.bilevel_step", None, None),
        ]
        for mod, attr, name, on_call, on_return in spans:
            orig = getattr(mod, attr)
            self._rebind(orig, self.span(name, orig, on_call, on_return))

        chain = compose.NodeChain
        self._patch(chain, "forward",
                    self.span("compose.chain_forward", chain.forward))
        self._patch(chain, "backward",
                    self.span("compose.chain_backward", chain.backward))
        for cls in (compose.Node, compose.DeclarativeNode, compose.PoolingNode,
                    compose.ProjectionNode):
            self._patch(cls, "vjp",
                        self.span("compose.node_vjp", cls.__dict__["vjp"]))

        self._patch(numpy.linalg, "cond",
                    self.leaf("implicit_diff.cond_svd", numpy.linalg.cond,
                              within="implicit_diff"))
        for owner, attr in ((scipy.linalg, "cho_factor"),
                            (scipy.linalg, "lu_factor"),
                            (numpy.linalg, "pinv"), (numpy.linalg, "solve")):
            self._patch(owner, attr,
                        self.leaf("implicit_diff.factorization",
                                  getattr(owner, attr), within="implicit_diff"))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------------

    def metrics(self, traced_ops, overhead):
        """Per-layer metrics (see UNITS) over a traced phase of traced_ops ops."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        window = lambda name: [s for s in by_name[name] if s.op < self.window]
        per_op = lambda total: total / traced_ops
        dur = lambda name: per_op(sum(s.end - s.start for s in by_name[name]))
        leaf = self.leaves.__getitem__

        m = {}
        sums, weights = leaf("kernels.penalty_sums"), leaf("kernels.penalty_weights")
        m["kernels.penalty_sums.calls"] = sums.window_calls
        m["kernels.penalty_sums.points"] = sums.window_points
        m["kernels.penalty_sums.s"] = per_op(sums.s)
        m["kernels.penalty_weights.calls"] = weights.window_calls
        m["kernels.penalty_weights.s"] = per_op(weights.s)
        kernel_s = sums.s + weights.s
        m["kernels.points_per_s"] = ((sums.points + weights.points) / kernel_s
                                     if kernel_s else 0.0)
        # computed from array sizes: each pass reads x once (8 B a point);
        # penalty_weights also writes one weight per point
        m["kernels.bytes_computed"] = 8 * (sums.window_points
                                           + 2 * weights.window_points)

        pools = window("pooling.robust_pool")
        for p in PENALTIES:
            passes = [s.leaf_calls["kernels.penalty_sums"] if s.leaf_calls else 0
                      for s in pools if s.attrs.get("penalty") == p]
            m[f"pooling.passes_per_solve.p50.{p}"] = (
                statistics.median_low(passes) if passes else 0)
            m[f"pooling.passes_per_solve.max.{p}"] = max(passes, default=0)
        m["pooling.robust_pool.calls"] = len(pools)
        m["pooling.robust_pool.s"] = dur("pooling.robust_pool")
        m["pooling.robust_pool.self_s"] = per_op(
            sum(s.self_s for s in by_name["pooling.robust_pool"]))
        iters = [s.attrs["iterations"] for s in pools if "iterations" in s.attrs]
        m["pooling.iterations_per_solve"] = (statistics.fmean(iters)
                                             if iters else 0.0)
        m["pooling.robust_pool_gradient.s"] = dur("pooling.robust_pool_gradient")
        errors = Counter(s.attrs.get("error") for s in
                         pools + window("pooling.robust_pool_gradient"))
        m["pooling.undefined_gradient"] = errors["UndefinedGradient"]
        m["pooling.solver_diverged"] = errors["SolverDiverged"]

        m["cli.run_study.self_s"] = per_op(
            sum(s.self_s for s in by_name["cli.run_study"]))
        m["projection.project.s"] = dur("projection.project")
        m["projection.project_gradient.s"] = dur("projection.project_gradient")

        for name in ("build_context", "jacobian_from_context",
                     "vjp.materialize", "vjp.stream_columns"):
            m[f"implicit_diff.{name}.s"] = dur(f"implicit_diff.{name}")
        cond = leaf("implicit_diff.cond_svd")
        m["implicit_diff.cond_svd.calls"] = cond.window_calls
        m["implicit_diff.cond_svd.s"] = per_op(cond.s)
        m["implicit_diff.factorizations"] = leaf(
            "implicit_diff.factorization").window_calls
        m["implicit_diff.stream_alloc_peak"] = max(
            (s.attrs.get("alloc_peak", 0)
             for s in window("implicit_diff.vjp.stream_columns")), default=0)
        # ROADMAP item 2 gate: the bilevel lower node's backward pass over
        # its gallery forward solve (n=400, m=200)
        back = sum(s.end - s.start for s in by_name["compose.node_vjp"]
                   if s.kind == "bilevel")
        fwd = sum(s.end - s.start for s in by_name["gallery.solve"]
                  if s.kind == "bilevel")
        m["implicit_diff.backward_over_forward"] = back / fwd if fwd else 0.0

        m["numdiff.fd_hessian_blocks.calls"] = len(window("numdiff.fd_hessian_blocks"))
        m["numdiff.fd_hessian_blocks.s"] = dur("numdiff.fd_hessian_blocks")
        callbacks = [v for k, v in self.leaves.items()
                     if k.startswith("numdiff.callback.")]
        m["numdiff.callback_evals"] = sum(v.window_calls for v in callbacks)
        hessian_ops = len({s.op for s in window("gallery.solve")
                           if s.kind == "hessian"})
        m["numdiff.callback_evals_per_hessian_op"] = (
            sum(v.window_by_kind["hessian"] for v in callbacks) / hessian_ops
            if hessian_ops else 0)
        m["numdiff.fd_jacobian.calls"] = len(window("numdiff.fd_jacobian"))

        m["compose.chain_forward.s"] = dur("compose.chain_forward")
        m["compose.chain_backward.s"] = dur("compose.chain_backward")
        m["compose.bilevel_step.s"] = dur("compose.bilevel_step")
        m["compose.node_vjp.calls"] = len(window("compose.node_vjp"))
        m["gallery.solve.s"] = dur("gallery.solve")
        m["trace.overhead"] = overhead
        if list(m) != list(UNITS):
            raise RuntimeError("per-layer metrics out of step with UNITS")
        return m

    def write(self, path, header):
        """Write the spans, then the summed leaves, as JSON lines."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                rec = {"id": s.id, "parent": s.parent, "op": s.op,
                       "kind": s.kind, "name": s.name, "start": s.start,
                       "end": s.end, "self_s": s.self_s}
                if s.leaf_calls:
                    rec["leaf_calls"] = dict(s.leaf_calls)
                rec.update(s.attrs)
                f.write(json.dumps(rec) + "\n")
            for name, v in sorted(self.leaves.items()):
                f.write(json.dumps({"leaf": name, "calls": v.calls, "s": v.s,
                                    "points": v.points,
                                    "window_calls": v.window_calls}) + "\n")
