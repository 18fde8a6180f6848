"""Hot numeric kernels for robust pooling: penalty sums and gradient weights.

These run once per step of the pooling solves, over the whole stack of
live rows.  In the robustness study the Python around them (the lockstep
driver and the per-row checks) costs more than their arithmetic.
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
    at residuals z_i = u - x_i.  Returns (value, d1, d2).

    A float u and x of shape (n,) give three floats.  A stack, u of shape
    (B,) and C-contiguous x of shape (B, n), gives three (B,) arrays whose
    entry i is bit-identical to the call on (u[i], x[i]): every reduction
    runs pairwise along one contiguous row, as it does on a vector.
    """
    z = np.asarray(u)[..., None] - x
    add = lambda a: np.add.reduce(a, -1)
    if code == QUADRATIC:
        # a stack of (1, n) @ (n, 1) products rounds as the vector z @ z
        sums = (0.5 * (z[..., None, :] @ z[..., :, None])[..., 0, 0], add(z),
                np.full(z.shape[:-1], float(z.shape[-1])))
    elif code == PSEUDO_HUBER:
        t = 1.0 + (z / alpha) ** 2
        s = np.sqrt(t)
        sums = alpha * alpha * add(s - 1.0), add(z / s), add(t ** -1.5)
    elif code == HUBER:
        # square d1, not z: an outlier's z is never squared, so cannot overflow
        inl = np.abs(z) <= alpha
        d1 = np.where(inl, z, alpha * np.sign(z))
        val = np.where(inl, 0.5 * d1 * d1, alpha * (np.abs(z) - 0.5 * alpha))
        sums = add(val), add(d1), np.add.reduce(inl, -1, float)
    elif code == WELSCH:
        a2 = alpha * alpha
        ex = np.exp(-0.5 * z * z / a2)
        sums = (add(1.0 - ex), add(z / a2 * ex),
                add((a2 - z * z) / (a2 * a2) * ex))
    elif code == TRUNCATED_QUADRATIC:
        inl = np.abs(z) <= alpha
        d1 = np.where(inl, z, 0.0)
        val = np.where(inl, 0.5 * d1 * d1, 0.5 * alpha * alpha)
        sums = add(val), add(d1), np.add.reduce(inl, -1, float)
    else:
        raise ValueError(f"unknown penalty code {code}")
    if z.ndim > 1:
        return sums
    return float(sums[0]), float(sums[1]), float(sums[2])


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
