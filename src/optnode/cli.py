"""Command-line harness.

Subcommands:

    gradcheck   analytic-vs-numerical gradient reports over a selector
                registry that covers every gradient path and every
                built-in node
    pool        robust pooling of an input vector, value plus gradient
    project     norm sphere/ball projection, value plus Jacobian
    study       1-D outlier-robustness study of the pooling penalties
    train       bilevel gradient-descent demos

Common flags: --seed, --format json|csv|text, --out.  Reports are
deterministic per seed, numbers carry 17 significant digits, and the JSON
schema is {command, seed, config, rows}.  Exit codes: 0 success, 1 domain
failure (failed check, infeasible problem), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import gallery, implicit_diff, numdiff, pooling, projection
from .compose import BilevelTask, PoolingNode, ProjectionNode, bilevel_train
from .core import NodeError, UndefinedGradient
from .pooling import Penalty, PenaltySpec, robust_pool, robust_pool_gradient
from .projection import ProjectionSpec, project, project_gradient

FLOAT_FMT = "%.17g"

STUDY_FRACTIONS = (0.0, 0.1, 0.2, 0.5, 0.9)
STUDY_PENALTIES = (Penalty.QUADRATIC, Penalty.PSEUDO_HUBER, Penalty.HUBER,
                   Penalty.WELSCH, Penalty.TRUNCATED_QUADRATIC)
STUDY_ALPHA = 0.5
TRAIN_TASKS = ("robust-mean-fit", "projection-head-fit")


# ---------------------------------------------------------------------------
# Serialization (17 significant digits everywhere, all three formats)
# ---------------------------------------------------------------------------

def _fmt(v):
    return FLOAT_FMT % float(v)


def _jtext(obj):
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_jtext(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return ("{" + ", ".join(f"{json.dumps(str(k))}: {_jtext(v)}"
                                for k, v in obj.items()) + "}")
    raise TypeError(f"unserializable {type(obj)!r}")


def _flat(v):
    """One CSV cell: scalars formatted, vectors ';'-joined, matrices with
    '|' between rows."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple, np.ndarray)):
        items = list(v)
        if items and isinstance(items[0], (list, tuple, np.ndarray)):
            return "|".join(_flat(row) for row in items)
        return ";".join(_flat(it) for it in items)
    raise TypeError(f"unserializable {type(v)!r}")


def _text_value(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return " ".join(_text_value(it) for it in v)
    return _flat(v)


def _emit(args, command, config, rows):
    fmt = args.format
    if fmt == "json":
        text = _jtext({"command": command, "seed": args.seed,
                       "config": config, "rows": rows}) + "\n"
    elif fmt == "csv":
        keys = list(rows[0].keys()) if rows else []
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(_flat(row[k]) for k in keys))
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"command = {command}", f"seed = {args.seed}"]
        for k, v in config.items():
            lines.append(f"{k} = {_text_value(v)}")
        for row in rows:
            lines.append("")
            for k, v in row.items():
                if (isinstance(v, (list, tuple, np.ndarray)) and len(v)
                        and isinstance(v[0], (list, tuple, np.ndarray))):
                    for i, sub in enumerate(v):
                        lines.append(f"{k}.{i} = {_text_value(sub)}")
                else:
                    lines.append(f"{k} = {_text_value(v)}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_values(args, parser):
    if args.values is not None and args.input is not None:
        parser.error("give either --values or --input, not both")
    raw = []
    if args.values is not None:
        raw = [p for chunk in args.values.split(",") for p in chunk.split()]
    elif args.input is not None:
        try:
            with open(args.input) as fh:
                raw = [line.strip() for line in fh if line.strip()]
        except OSError as err:
            parser.error(f"cannot read --input file: {err}")
    else:
        parser.error("one of --values or --input is required")
    try:
        vals = [float(p) for p in raw]
    except ValueError as err:
        parser.error(f"bad numeric value: {err}")
    if not vals:
        parser.error("no input values given")
    return np.array(vals, dtype=float)


# ---------------------------------------------------------------------------
# gradcheck registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Selector:
    name: str
    paths: tuple
    nodes: tuple
    tol: float
    run: object  # rng -> (approx, oracle, one_sided, fallback)


def _rel_err(approx, oracle):
    denom = max(1.0, float(np.max(np.abs(oracle))))
    return float(np.max(np.abs(approx - oracle))) / denom


def _fd_of(solve):
    return lambda x: numdiff.fd_jacobian(lambda z: solve(z).y, x)


def _run(draw, gradient, multipliers=False):
    """A selector's run: draw(rng) gives (problem or spec, solve, x), and
    gradient(problem or spec, x, y) at y = solve(x).y, with the solver's
    multipliers appended when asked, is checked against finite
    differences of solve."""
    def run(rng):
        what, solve, x = draw(rng)
        sol = solve(x)
        lam = (sol.multipliers,) if multipliers else ()
        jac = gradient(what, x, sol.y, *lam)
        return (jac.matrix, _fd_of(solve)(x), jac.one_sided,
                jac.rank_deficient_fallback)
    return run


def _seed(rng):
    return int(rng.integers(2**63))


def _gallery(make, min_norm=0.0):
    """Draw make(rng)'s problem at a normal x with ||x|| >= min_norm."""
    def draw(rng):
        problem, solve = make(rng)
        x = rng.normal(size=problem.input_dim)
        while np.linalg.norm(x) < min_norm:
            x = rng.normal(size=problem.input_dim)
        return problem, solve, x
    return draw


def _draw_disc(rng):
    problem, solve = gallery.disc_inequality_problem(3)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    scale = rng.uniform(1.3, 2.0) if rng.integers(2) else rng.uniform(0.3, 0.8)
    return problem, solve, scale * u


def _run_vjp_stream(rng):
    prob, solve = gallery.wide_coupling_problem(4, 300, _seed(rng))
    x = rng.normal(size=300)
    v = rng.normal(size=4)
    sol = solve(x)
    ctx = implicit_diff.build_context(prob, x, sol.y)
    approx = implicit_diff.vjp(v, ctx, mode="stream_columns")[None, :]
    oracle = (v @ _fd_of(solve)(x))[None, :]
    return approx, oracle, ctx.one_sided, ctx.rank_deficient_fallback


def _pool_draw(kind):
    spec = PenaltySpec(kind, 1.0)
    kinked = kind in (Penalty.HUBER, Penalty.TRUNCATED_QUADRATIC)

    def solve(z):
        # oracle runs differentiate the solver, so solve extra tight
        return robust_pool(z, spec, tol=1e-13)

    def draw(rng):
        for _ in range(60):
            x = rng.normal(0.0, 1.0, 6)
            if kinked:
                y = solve(x).y[0]
                if np.min(np.abs(np.abs(y - x) - spec.alpha)) < 1e-3:
                    continue
                if not np.any(np.abs(y - x) < spec.alpha):
                    continue
            break
        return spec, solve, x

    return draw


def _project_draw(norm, surface, masked):
    spec = ProjectionSpec(norm, surface, masked_gradient=masked)

    def sample(rng):
        for _ in range(60):
            x = rng.normal(size=3)
            if norm is projection.Norm.L2:
                nx = float(np.linalg.norm(x))
                if nx < 0.3:
                    continue
                if surface is projection.Surface.BALL:
                    x *= rng.uniform(1.2, 2.0) / nx
                return x
            if norm is projection.Norm.L1:
                x *= rng.uniform(1.3, 2.5) / float(np.sum(np.abs(x)))
                y = project(x, spec).y
                supp = np.abs(y) > 0.0
                i = int(np.argmax(np.abs(y)))
                theta = abs(x[i]) - abs(y[i])
                margins = np.where(supp, np.abs(y), theta - np.abs(x))
                if float(np.min(margins)) > 1e-3:
                    return x
                continue
            x *= rng.uniform(1.2, 2.0) / float(np.max(np.abs(x)))
            if float(np.min(np.abs(np.abs(x) - 1.0))) > 1e-3:
                return x
        return x

    return lambda rng: (spec, lambda z: project(z, spec), sample(rng))


def gradcheck_selectors():
    d = implicit_diff
    sels = [
        _Selector("convex-unconstrained", ("unconstrained",), (), 1e-6,
                  _run(_gallery(lambda rng: gallery.strongly_convex_problem(
                      int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                      _seed(rng))), d.gradient_unconstrained)),
        _Selector("equality-linear", ("equality",), (), 1e-6,
                  _run(_gallery(lambda rng: gallery.linear_equality_problem(
                      3, 5, 2, _seed(rng))), d.gradient_equality,
                       multipliers=True)),
        _Selector("equality-sphere", ("equality",), (), 1e-6,
                  _run(_gallery(lambda rng: gallery.sphere_equality_problem(
                      3, 4, _seed(rng))), d.gradient_equality,
                       multipliers=True)),
        _Selector("equality-fixed-rhs", ("equality",), (), 1e-6,
                  _run(_gallery(lambda rng: gallery.linear_equality_problem(
                      3, 5, 2, _seed(rng), rhs_depends_on_x=False)),
                       d.gradient_equality)),
        _Selector("equality-circle", ("equality",), (), 1e-6,
                  _run(_gallery(lambda rng: gallery.circle_equality_problem(3),
                                0.3), d.gradient_equality)),
        _Selector("inequality-disc", ("inequality",), (), 1e-6,
                  _run(_draw_disc, d.gradient_inequality, multipliers=True)),
        _Selector("feasibility-branch", ("feasibility",), (), 1e-8,
                  _run(lambda rng: (*gallery.two_branch_problem("plus"),
                                    rng.uniform(0.5, 1.5, size=1)),
                       d.gradient_feasibility)),
        _Selector("alignment-pseudo-inverse", ("pseudo_inverse",), (), 1e-7,
                  _run(_gallery(
                      lambda rng: gallery.spherical_alignment_problem(4), 0.5),
                       d.pseudo_inverse_descent)),
        _Selector("vjp-stream-wide", ("vjp", "unconstrained"), (), 1e-6,
                  _run_vjp_stream),
    ]
    pool_names = {
        Penalty.QUADRATIC: "pool-quadratic",
        Penalty.PSEUDO_HUBER: "pool-pseudohuber",
        Penalty.HUBER: "pool-huber",
        Penalty.WELSCH: "pool-welsch",
        Penalty.TRUNCATED_QUADRATIC: "pool-truncated-quadratic",
    }
    for kind, name in pool_names.items():
        sels.append(_Selector(name, (), (name,), 1e-5, _run(
            _pool_draw(kind),
            lambda spec, x, y: robust_pool_gradient(x, spec, y))))
    proj = [
        ("project-l2", projection.Norm.L2, projection.Surface.SPHERE, False, 1e-7),
        ("project-l1", projection.Norm.L1, projection.Surface.SPHERE, True, 1e-6),
        ("project-linf", projection.Norm.LINF, projection.Surface.SPHERE, True, 1e-6),
        ("project-l2-ball", projection.Norm.L2, projection.Surface.BALL, False, 1e-7),
        ("project-l1-ball", projection.Norm.L1, projection.Surface.BALL, True, 1e-6),
        ("project-linf-ball", projection.Norm.LINF, projection.Surface.BALL, True, 1e-6),
    ]
    for name, norm, surface, masked, tol in proj:
        sels.append(_Selector(name, (), (name,), tol, _run(
            _project_draw(norm, surface, masked),
            lambda spec, x, y: project_gradient(x, spec, y))))
    return {s.name: s for s in sels}


REQUIRED_NODES = frozenset({
    "pool-quadratic", "pool-pseudohuber", "pool-huber", "pool-welsch",
    "pool-truncated-quadratic", "project-l2", "project-l1", "project-linf",
    "project-l2-ball", "project-l1-ball", "project-linf-ball"})


def registry_coverage():
    """(gradient paths, node families) covered by the selector registry."""
    sels = gradcheck_selectors().values()
    paths = {p for s in sels for p in s.paths}
    nodes = {n for s in sels for n in s.nodes}
    return paths, nodes


def run_gradcheck(names=None, trials=12, seed=0):
    """Execute selectors and return GradCheckReport rows."""
    registry = gradcheck_selectors()
    if names is None:
        names = list(registry)
        paths, nodes = registry_coverage()
        missing = (set(implicit_diff.GRADIENT_PATHS) - paths) | (REQUIRED_NODES - nodes)
        if missing:
            raise RuntimeError(f"selector registry does not cover: {sorted(missing)}")
    order = list(registry)
    rows = []
    for name in names:
        sel = registry[name]
        sidx = order.index(name)
        max_err, sum_err, ones, falls = 0.0, 0.0, 0, 0
        for t in range(trials):
            rng = np.random.default_rng([seed, sidx, t])
            approx, oracle, one_sided, fallback = sel.run(rng)
            err = _rel_err(approx, oracle)
            max_err = max(max_err, err)
            sum_err += err
            ones += int(one_sided)
            falls += int(fallback)
        rows.append({
            "node_id": name,
            "trials": trials,
            "max_rel_err": max_err,
            "mean_rel_err": sum_err / trials,
            "one_sided_count": ones,
            "fallback_count": falls,
            "seed": seed,
            "tol": sel.tol,
            "status": "pass" if max_err <= sel.tol else "fail",
        })
    return rows


def cmd_gradcheck(args, parser):
    names = None if args.all or args.node is None else [args.node]
    rows = run_gradcheck(names, trials=args.trials, seed=args.seed)
    _emit(args, "gradcheck",
          {"trials": args.trials,
           "selectors": [r["node_id"] for r in rows]}, rows)
    return 0 if all(r["status"] == "pass" for r in rows) else 1


# ---------------------------------------------------------------------------
# pool / project
# ---------------------------------------------------------------------------

def cmd_pool(args, parser):
    x = _read_values(args, parser)
    spec = PenaltySpec(args.penalty, args.alpha)
    sol = robust_pool(x, spec)
    row = {
        "y": float(sol.y[0]),
        "objective_value": sol.objective_value,
        "iterations": sol.solver_info.iterations,
        "converged": sol.solver_info.converged,
    }
    try:
        jac = robust_pool_gradient(x, spec, sol.y[0])
        row["gradient_defined"] = True
        row["one_sided"] = jac.one_sided
        row["gradient"] = [float(g) for g in jac.matrix[0]]
    except UndefinedGradient:
        row["gradient_defined"] = False
        row["one_sided"] = False
        row["gradient"] = []
    _emit(args, "pool",
          {"penalty": spec.kind.value, "alpha": spec.alpha, "n": int(x.size)},
          [row])
    return 0


def cmd_project(args, parser):
    x = _read_values(args, parser)
    spec = ProjectionSpec(args.norm, args.surface, radius=args.radius,
                          masked_gradient=args.masked)
    sol = project(x, spec)
    row = {
        "y": [float(v) for v in sol.y],
        "multiplier": float(sol.multipliers[0]),
        "active": bool(sol.active_set[0]) if sol.active_set.size else True,
        "objective_value": sol.objective_value,
    }
    try:
        jac = project_gradient(x, spec, sol.y)
        row["gradient_defined"] = True
        row["one_sided"] = jac.one_sided
        row["jacobian"] = [[float(v) for v in r] for r in jac.matrix]
    except UndefinedGradient:
        row["gradient_defined"] = False
        row["one_sided"] = False
        row["jacobian"] = []
    _emit(args, "project",
          {"norm": spec.norm.value, "surface": spec.surface.value,
           "radius": spec.radius, "masked": spec.masked_gradient,
           "n": int(x.size)},
          [row])
    return 0


# ---------------------------------------------------------------------------
# robustness study
# ---------------------------------------------------------------------------

def run_study(seed=0, trials=200, points=100, sigma=0.1, alpha=STUDY_ALPHA,
              fractions=STUDY_FRACTIONS):
    """Mean absolute estimator error per (outlier fraction, penalty).

    Per trial: inlier mean drawn uniformly from [-1, 1], inliers normal
    around it, outliers uniform on [-1, 1]; all penalties see the same
    data (paired comparison).  Deterministic per seed: each trial owns the
    stream default_rng([seed, trial]).  Each penalty pools a trial's
    fractions as one (len(fractions), points) stack.
    """
    if not fractions:
        return []                       # nothing to pool, so no stack
    specs = [PenaltySpec(kind, alpha) for kind in STUDY_PENALTIES]
    totals = {(f, s.kind.value): 0.0 for f in fractions for s in specs}
    X = np.empty((len(fractions), points))
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        mu = float(rng.uniform(-1.0, 1.0))
        for row, f in zip(X, fractions):
            n_out = int(round(f * points))
            n_in = points - n_out
            row[:n_in] = mu + sigma * rng.standard_normal(n_in)
            row[n_in:] = rng.uniform(-1.0, 1.0, n_out)
        for s in specs:
            ys = robust_pool(X, s).y.tolist()
            for f, y in zip(fractions, ys):
                totals[(f, s.kind.value)] += abs(y - mu)
    rows = []
    for f in fractions:
        for s in specs:
            rows.append({
                "outlier_fraction": f,
                "penalty": s.kind.value,
                "estimator_error": totals[(f, s.kind.value)] / trials,
                "trials": trials,
            })
    return rows


def cmd_study(args, parser):
    try:
        fractions = tuple(float(f) for f in args.fractions.split(",") if f != "")
    except ValueError as err:
        parser.error(f"bad --fractions: {err}")
    if not fractions or any(not 0.0 <= f <= 1.0 for f in fractions):
        parser.error("--fractions must be a comma list within [0, 1]")
    rows = run_study(seed=args.seed, trials=args.trials, points=args.points,
                     sigma=args.sigma, alpha=args.alpha, fractions=fractions)
    _emit(args, "study",
          {"trials": args.trials, "points": args.points, "sigma": args.sigma,
           "alpha": args.alpha, "fractions": list(fractions)}, rows)
    return 0


# ---------------------------------------------------------------------------
# training demos
# ---------------------------------------------------------------------------

def build_train_task(name, seed, steps, step_size):
    """(task, theta0) for the named demo."""
    if name == "robust-mean-fit":
        # pull the robust mean of a noisy, outlier-laden batch toward 0
        rng = np.random.default_rng([seed, 1])
        n = 12
        theta0 = 0.5 + 0.15 * rng.standard_normal(n)
        theta0[-2:] += 2.5      # two gross outliers the penalty should ignore
        target = 0.0
        task = BilevelTask(
            upper_objective=lambda th, y: 0.5 * (y[0] - target) ** 2,
            lower=PoolingNode(PenaltySpec(Penalty.WELSCH, 1.0), n),
            step_size=step_size, max_iters=steps,
            upper_grad_theta=lambda th, y: np.zeros(n),
            upper_grad_y=lambda th, y: np.array([y[0] - target]))
        return task, theta0
    if name == "projection-head-fit":
        # rotate a direction vector so its normalization hits a target
        rng = np.random.default_rng([seed, 2])
        n = 5
        theta0 = rng.normal(size=n)
        while np.linalg.norm(theta0) < 0.5:
            theta0 = rng.normal(size=n)
        tgt = rng.normal(size=n)
        tgt /= np.linalg.norm(tgt)
        task = BilevelTask(
            upper_objective=lambda th, y: 0.5 * float(np.sum((y - tgt) ** 2)),
            lower=ProjectionNode(
                ProjectionSpec(projection.Norm.L2, projection.Surface.SPHERE), n),
            step_size=step_size, max_iters=steps,
            upper_grad_theta=lambda th, y: np.zeros(n),
            upper_grad_y=lambda th, y: y - tgt)
        return task, theta0
    raise ValueError(f"unknown training task {name!r}")


def cmd_train(args, parser):
    task, theta0 = build_train_task(args.task, args.seed, args.steps,
                                    args.step_size)
    result = bilevel_train(task, theta0)
    rows = []
    for r in result.rows:
        rows.append({
            "iteration": r["iteration"],
            "objective": r["objective"],
            "step_inf": r["step_inf"],
            "one_sided": r["one_sided"],
            "theta": [float(v) for v in r["theta"]],
        })
    final = task.lower.solve(result.theta)
    rows.append({
        "iteration": result.iterations,
        "objective": float(task.upper_objective(result.theta, final.y)),
        "step_inf": 0.0,
        "one_sided": rows[-1]["one_sided"] if rows else False,
        "theta": [float(v) for v in result.theta],
    })
    _emit(args, "train",
          {"task": args.task, "steps": args.steps,
           "step_size": args.step_size}, rows)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _positive(convert):
    """argparse type: a positive finite int or float, else a usage error."""
    def parse(text):
        value = convert(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text!r}")
        return value
    parse.__name__ = convert.__name__   # argparse names the type on errors
    return parse


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("json", "csv", "text"),
                     default="text")
    sub.add_argument("--out", default=None)


def _add_values(sub):
    sub.add_argument("--values", default=None,
                     help="inline comma-separated input vector")
    sub.add_argument("--input", default=None,
                     help="file with one number per line")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="optnode",
        description="differentiable optimization nodes: checks and demos")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gradcheck", help="analytic vs numerical gradients")
    g.add_argument("--node", choices=sorted(gradcheck_selectors()),
                   default=None, help="single selector (default: all)")
    g.add_argument("--all", action="store_true",
                   help="run the full registry with coverage check")
    g.add_argument("--trials", type=_positive(int), default=12)
    _add_common(g)
    g.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("pool", help="robust pooling of a vector")
    _add_values(p)
    p.add_argument("--penalty", choices=[k.value for k in Penalty],
                   default="pseudo_huber")
    p.add_argument("--alpha", type=_positive(float), default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_pool)

    q = subs.add_parser("project", help="norm sphere/ball projection")
    _add_values(q)
    q.add_argument("--norm", choices=[n.value for n in projection.Norm],
                   default="l2")
    q.add_argument("--surface",
                   choices=[s.value for s in projection.Surface],
                   default="sphere")
    q.add_argument("--radius", type=_positive(float), default=1.0)
    q.add_argument("--masked", action="store_true",
                   help="plateau-zeroing gradient variant")
    _add_common(q)
    q.set_defaults(func=cmd_project)

    s = subs.add_parser("study", help="outlier robustness study")
    s.add_argument("--trials", type=_positive(int), default=200)
    s.add_argument("--points", type=_positive(int), default=100)
    s.add_argument("--sigma", type=float, default=0.1)
    s.add_argument("--alpha", type=_positive(float), default=STUDY_ALPHA)
    s.add_argument("--fractions",
                   default=",".join(str(f) for f in STUDY_FRACTIONS))
    _add_common(s)
    s.set_defaults(func=cmd_study)

    t = subs.add_parser("train", help="bilevel gradient descent demos")
    t.add_argument("--task", choices=TRAIN_TASKS, default="robust-mean-fit")
    t.add_argument("--steps", type=int, default=50)
    t.add_argument("--step-size", type=float, default=0.01)
    _add_common(t)
    t.set_defaults(func=cmd_train)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except NodeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
