"""Closed-loop benchmark of optnode: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload kkt-chain --seed 0 --seconds 40 --trace 0

Run from the root of a repository checkout; the package is imported from
its ``src/`` directory.  One client in one process sends each op only after
the previous one returned.  Every op's output is checked outside the timed
interval; an op that raises, returns a non-finite value or fails its check
counts as failed.  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("pool-study", "pool-wide", "kkt-chain")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 8              # fresh interpreters per run, half before and half
                        # after the timed loop, for setup_s and import_s
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10        # op_tail_ms keeps at least this many samples above it
MIN_OPS = 1000          # timed ops per run at least, so p99 always qualifies

# End-to-end metrics in the result line.  failed_frac is reported alongside
# but carried in the result as attempted/failed: it is 0 on a healthy run.
E2E_UNITS = {
    "setup_s": "s",
    "import_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_optnode():
    """Import optnode from this checkout's src/, or exit non-zero."""
    init = SRC / "optnode" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package at {init}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import optnode
    if Path(optnode.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported optnode from {optnode.__file__}, "
                         f"not {init}")
    return optnode


class Loop:
    """What one closed-loop pass over ops recorded."""

    def __init__(self):
        self.durations = []   # every op, in order
        self.ok = []          # whether it returned and passed its check
        self.failures = []    # (op index, kind, reason)
        self.busy = 0.0       # seconds spent inside ops


def timed_loop(wl, start, seconds, min_ops=0, tracer=None, ref=None):
    """Run ops start, start+1, ... until `seconds` were spent inside ops,
    at least min_ops ran, and the last rotation is complete.  The clock
    runs only around wl.run; checks, tracer switching and the speed
    reference's units run outside it."""
    loop = Loop()
    rotation = len(wl.kinds)
    i = start
    while (loop.busy < seconds or len(loop.durations) < min_ops
           or (i - start) % rotation):
        if tracer is not None:
            tracer.begin(i - start, wl.kind(i))
        t0 = perf_counter()
        try:
            out, why = wl.run(i), None
        except Exception as err:      # a failed op is counted, not fatal
            out, why = None, f"{type(err).__name__}: {err}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.end()
        loop.busy += dt
        loop.durations.append(dt)
        if why is None:
            try:
                why = wl.check(i, out)
            except Exception as err:
                why = f"check raised {type(err).__name__}: {err}"
        loop.ok.append(why is None)
        if why is not None:
            loop.failures.append((i, wl.kind(i), why))
        if ref is not None:
            ref.tick(len(loop.durations), loop.busy)
        i += 1
    return loop


def probe(workload, seed):
    """Child mode: time import and set-up in this fresh interpreter, and
    the interpreter reference around them."""
    import speed
    units = [speed.interpreter_unit() for _ in range(5)]
    t0 = perf_counter()
    import_optnode()
    t1 = perf_counter()
    import workloads
    g0 = perf_counter()
    wl = workloads.WORKLOADS[workload](seed)     # input generation: excluded
    g1 = perf_counter()
    wl.build(workloads.Identity())
    wl.run(0)
    t3 = perf_counter()
    units += [speed.interpreter_unit() for _ in range(5)]
    print(json.dumps({
        "import_s": t1 - t0, "setup_s": (t3 - t0) - (g1 - g0),
        "scale": speed.INTERPRETER_NOMINAL_S / statistics.median(units)}))


def run_probes(workload, seed, count):
    cmd = [sys.executable, str(HERE / "run.py"), "--probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _blas_threads():
    """Thread count numpy's bundled OpenBLAS reports, or None."""
    import ctypes
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_bytes():
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True,
                              text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    keys = {"LEVEL1_DCACHE_SIZE": "L1d", "LEVEL2_CACHE_SIZE": "L2",
            "LEVEL3_CACHE_SIZE": "L3"}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in keys and parts[1].isdigit():
            sizes[keys[parts[0]]] = int(parts[1])
    return sizes


def environment(args):
    import numpy
    import scipy
    from optnode import _kernels
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "kernel_backend": _kernels.backend_name(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_bytes(),
        "client": "closed loop, 1 client, 1 process",
    }


def _tail(sorted_values):
    """(value, percentile) at the highest of p90, p99, p99.9, ... that
    keeps at least TAIL_BEYOND samples above it; the maximum if none does.

    A fixed ladder keeps the percentile the same across runs whose op
    counts differ a little, such as a parent and a faster change."""
    n = len(sorted_values)
    if n == 0:
        return 0.0, 100.0
    q, best = 0.9, None
    while n * (1.0 - q) >= TAIL_BEYOND - 1e-9:
        best = q
        q = 1.0 - (1.0 - q) / 10.0
    if best is None:
        return sorted_values[-1], 100.0
    pos = best * (n - 1)           # linear interpolation between ranks
    k = int(pos)
    frac = pos - k
    hi = sorted_values[min(k + 1, n - 1)]
    return sorted_values[k] + frac * (hi - sorted_values[k]), 100.0 * best


def end_to_end(args):
    probes = run_probes(args.workload, args.seed, PROBES // 2)
    import speed
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.build(workloads.Identity())
    rotation = len(wl.kinds)
    warm = timed_loop(wl, 0, 0, min_ops=rotation)    # not timed
    ref = speed.Reference()
    loop = timed_loop(wl, rotation, args.seconds, min_ops=MIN_OPS, ref=ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes += run_probes(args.workload, args.seed, PROBES - PROBES // 2)

    factors = ref.factors(len(loop.durations))
    scaled = [dt * f for dt, f in zip(loop.durations, factors)]
    lat = sorted(t for t, ok in zip(scaled, loop.ok) if ok)
    raw = sorted(t for t, ok in zip(loop.durations, loop.ok) if ok)
    n = len(lat)
    tail, tail_pct = _tail(lat)
    attempted = len(warm.durations) + len(loop.durations)
    failures = warm.failures + loop.failures
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * p["scale"] for p in probes),
        "import_s": statistics.median(p["import_s"] * p["scale"] for p in probes),
        "ops_per_s": n / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {PROBES} fresh interpreters, scaled",
        "import_s": f"median of {PROBES} fresh interpreters, scaled",
        "ops_per_s": f"{n} ops in {sum(scaled):.3f} s scaled inside ops",
        "op_p50_ms": f"n={n}",
        "op_tail_ms": (f"p{tail_pct:g}, {n - math.ceil(tail_pct / 100 * n)} "
                       f"samples beyond, n={n}"),
        "peak_rss_mb": "ru_maxrss of this process after the timed loop",
    }
    rows = [(k, v, E2E_UNITS[k], notes[k]) for k, v in metrics.items()]
    rows.insert(5, ("failed_frac", len(failures) / attempted, "ratio",
                    f"{len(failures)} of {attempted} ops"))
    raw_tail, _ = _tail(raw)
    rows += [
        ("raw.setup_s", statistics.median(p["setup_s"] for p in probes), "s", ""),
        ("raw.import_s", statistics.median(p["import_s"] for p in probes), "s", ""),
        ("raw.ops_per_s", n / loop.busy, "ops/s", f"{loop.busy:.3f} s inside ops"),
        ("raw.op_p50_ms", 1e3 * statistics.median(raw) if raw else 0.0, "ms", ""),
        ("raw.op_tail_ms", 1e3 * raw_tail, "ms", ""),
        ("speed.scale", statistics.median(factors), "ratio",
         f"median over {len(ref.seconds)} reference units"),
    ]
    for kind in dict.fromkeys(wl.kinds):
        times = [t for j, t in enumerate(scaled) if wl.kind(rotation + j) == kind]
        rows.append((f"op_p50_ms[{kind}]", 1e3 * statistics.median(times),
                     "ms", f"n={len(times)}, scaled, not gated"))
    return metrics, E2E_UNITS, rows, attempted, failures


def traced(args, env):
    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer(wl.window)
    wl.build(tracer)
    rotation = len(wl.kinds)
    tracer.install()
    try:
        warm = timed_loop(wl, 0, 0, min_ops=rotation)
        # the window's ops untraced, then traced from the same op onwards:
        # the difference over the window is the tracing overhead
        base = timed_loop(wl, rotation, 0, min_ops=wl.window)
        loop = timed_loop(wl, rotation, args.seconds - base.busy,
                          min_ops=wl.window, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = sum(loop.durations[:wl.window]) / sum(base.durations) - 1.0
    metrics = tracer.metrics(len(loop.durations), overhead)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}.jsonl"
    tracer.write(path, {"env": env, "traced_ops": len(loop.durations)})
    rows = [(k, v, tracing.UNITS[k], "") for k, v in metrics.items()]
    rows += [("trace.window_ops", wl.window, "count", "ops the counts cover"),
             ("trace.traced_ops", len(loop.durations), "count",
              "ops the times cover"),
             ("spans", len(tracer.spans), "count", f"written to {path}")]
    loops = (warm, base, loop)
    attempted = sum(len(lp.durations) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    return metrics, tracing.UNITS, rows, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # pin BLAS threads before numpy loads; probe children inherit this
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    import_optnode()
    env = environment(args)
    metrics, units, rows, attempted, failures = (
        traced(args, env) if args.trace else end_to_end(args))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<10} {note}")
    for i, kind, why in failures[:5]:
        print(f"  failed op {i} ({kind}): {why}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
