"""Hot numeric kernels for robust pooling: penalty sums and gradient weights.

These run inside every iteration of the scalar pooling solvers, which makes
them the dominant cost of the gradient-check and robustness-study commands.
There is one backend, vectorized numpy.  ``IMPLEMENTATIONS`` and
``backend_name()`` remain only because ``perfbench`` reads them: the table
supplies its untraced reference kernel, and the name goes into its recorded
environment.
"""

from __future__ import annotations

import numpy as np

# Penalty codes; pooling maps its Penalty enum onto these.
QUADRATIC = 0
PSEUDO_HUBER = 1
HUBER = 2
WELSCH = 3
TRUNCATED_QUADRATIC = 4


def penalty_sums(code, alpha, u, x):
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


def penalty_weights(code, alpha, y, x):
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


# Kept for perfbench (workloads.py and run.py), which reads both names.
IMPLEMENTATIONS = {"numpy": (penalty_sums, penalty_weights)}


def backend_name():
    """Kernel backend: always 'numpy'."""
    return "numpy"
