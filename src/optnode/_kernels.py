"""Hot numeric kernels for robust pooling: penalty sums and gradient weights.

These run inside every iteration of the scalar pooling solvers, which makes
them the dominant cost of the gradient-check and robustness-study commands.
Two interchangeable backends are provided:

* a numba ``@njit(cache=True)`` scalar-loop backend (default when numba is
  importable), and
* a vectorized pure-numpy fallback.

Set ``OPTNODE_DISABLE_NUMBA=1`` in the environment to force the numpy
backend.  ``benchmarks/bench_kernels.py`` times one against the other.
Both backends implement identical formulas; they may differ in the last
couple of ulps because summation order differs.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit
    HAS_NUMBA = True
except ImportError:          # pragma: no cover - numba is an install extra
    njit = None
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and os.environ.get("OPTNODE_DISABLE_NUMBA", "0") in ("", "0")

# Penalty codes shared by both backends (branching on an int keeps the
# numba kernels free of object-mode dispatch).
QUADRATIC = 0
PSEUDO_HUBER = 1
HUBER = 2
WELSCH = 3
TRUNCATED_QUADRATIC = 4


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------

def _penalty_sums_numpy(code, alpha, u, x):
    """Sum over data points of penalty value / first / second derivative
    at residuals z_i = u - x_i.  Returns (value, d1, d2)."""
    z = u - x
    if code == QUADRATIC:
        return 0.5 * float(z @ z), float(np.add.reduce(z)), float(z.size)
    if code == PSEUDO_HUBER:
        t = 1.0 + (z / alpha) ** 2
        s = np.sqrt(t)
        return (float(alpha * alpha * np.add.reduce(s - 1.0)),
                float(np.add.reduce(z / s)),
                float(np.add.reduce(t ** -1.5)))
    if code == HUBER:
        inl = np.abs(z) <= alpha
        val = np.where(inl, 0.5 * z * z, alpha * (np.abs(z) - 0.5 * alpha))
        d1 = np.where(inl, z, alpha * np.sign(z))
        return (float(np.add.reduce(val)), float(np.add.reduce(d1)),
                float(np.count_nonzero(inl)))
    if code == WELSCH:
        a2 = alpha * alpha
        ex = np.exp(-0.5 * z * z / a2)
        return (float(np.add.reduce(1.0 - ex)),
                float(np.add.reduce(z / a2 * ex)),
                float(np.add.reduce((a2 - z * z) / (a2 * a2) * ex)))
    if code == TRUNCATED_QUADRATIC:
        inl = np.abs(z) <= alpha
        val = np.where(inl, 0.5 * z * z, 0.5 * alpha * alpha)
        return (float(np.add.reduce(val)),
                float(np.add.reduce(np.where(inl, z, 0.0))),
                float(np.count_nonzero(inl)))
    raise ValueError(f"unknown penalty code {code}")


def _penalty_weights_numpy(code, alpha, y, x):
    """Unnormalized gradient weights w_i at the solution y and their sum.

    For Welsch the weights are scaled by exp(-e_max) with e_i the Gaussian
    exponents, so they stay representable when all residuals are large; the
    scale cancels on normalization.  Returns (w, wsum).
    """
    z = y - x
    if code == QUADRATIC:
        w = np.ones_like(z)
    elif code == PSEUDO_HUBER:
        w = (1.0 + (z / alpha) ** 2) ** -1.5
    elif code in (HUBER, TRUNCATED_QUADRATIC):
        w = (np.abs(z) <= alpha).astype(float)
    elif code == WELSCH:
        a2 = alpha * alpha
        e = -0.5 * z * z / a2
        w = (a2 - z * z) / (a2 * a2) * np.exp(e - np.max(e))
    else:
        raise ValueError(f"unknown penalty code {code}")
    return w, float(np.sum(w))


# ---------------------------------------------------------------------------
# numba backend (same formulas, scalar loops)
# ---------------------------------------------------------------------------

def _penalty_sums_loop(code, alpha, u, x):
    val = 0.0
    d1 = 0.0
    d2 = 0.0
    a2 = alpha * alpha
    for i in range(x.shape[0]):
        z = u - x[i]
        if code == 0:                      # quadratic
            val += 0.5 * z * z
            d1 += z
            d2 += 1.0
        elif code == 1:                    # pseudo-huber
            t = 1.0 + (z / alpha) ** 2
            s = math.sqrt(t)
            val += a2 * (s - 1.0)
            d1 += z / s
            d2 += 1.0 / (t * s)
        elif code == 2:                    # huber
            if abs(z) <= alpha:
                val += 0.5 * z * z
                d1 += z
                d2 += 1.0
            else:
                val += alpha * (abs(z) - 0.5 * alpha)
                d1 += alpha if z > 0.0 else -alpha
        elif code == 3:                    # welsch
            ex = math.exp(-0.5 * z * z / a2)
            val += 1.0 - ex
            d1 += z / a2 * ex
            d2 += (a2 - z * z) / (a2 * a2) * ex
        else:                              # truncated quadratic
            if abs(z) <= alpha:
                val += 0.5 * z * z
                d1 += z
                d2 += 1.0
            else:
                val += 0.5 * a2
    return val, d1, d2


def _penalty_weights_loop(code, alpha, y, x):
    n = x.shape[0]
    w = np.empty(n)
    a2 = alpha * alpha
    if code == 3:                          # welsch: scale before dividing
        emax = -np.inf
        for i in range(n):
            z = y - x[i]
            e = -0.5 * z * z / a2
            if e > emax:
                emax = e
        s = 0.0
        for i in range(n):
            z = y - x[i]
            w[i] = (a2 - z * z) / (a2 * a2) * math.exp(-0.5 * z * z / a2 - emax)
            s += w[i]
        return w, s
    s = 0.0
    for i in range(n):
        z = y - x[i]
        if code == 0:
            w[i] = 1.0
        elif code == 1:
            w[i] = (1.0 + (z / alpha) ** 2) ** -1.5
        else:                              # huber / truncated quadratic
            w[i] = 1.0 if abs(z) <= alpha else 0.0
        s += w[i]
    return w, s


if HAS_NUMBA:
    _penalty_sums_numba = njit(cache=True)(_penalty_sums_loop)
    _penalty_weights_numba = njit(cache=True)(_penalty_weights_loop)
else:
    _penalty_sums_numba = None
    _penalty_weights_numba = None

# Both backends, keyed for the benchmark; the active pair is re-exported.
IMPLEMENTATIONS = {
    "numpy": (_penalty_sums_numpy, _penalty_weights_numpy),
    "numba": (_penalty_sums_numba, _penalty_weights_numba),
}

if USE_NUMBA:
    penalty_sums, penalty_weights = IMPLEMENTATIONS["numba"]
else:
    penalty_sums, penalty_weights = IMPLEMENTATIONS["numpy"]


def backend_name():
    """Active kernel backend: 'numba' or 'numpy'."""
    return "numba" if USE_NUMBA else "numpy"
