"""Dense uniform-node contour inversion, kept as the reference for the factored one.

The dense form of ``laplace.invert``: one complex exponential per
(time, node) pair, Filon-weighted, with the exact node step
``(omega[-1] - omega[0]) / (n - 1)``.  ``laplace.invert`` must agree
with it to rounding on uniform grids.
"""

import numpy as np

from nmkraus.laplace import _filon_weights


def invert_trapezoid(fv, omega, eps, t):
    """Filon-weighted ``(i/2pi) int e^{-i(omega+ieps)t} F domega`` on uniform nodes."""
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(tarr.shape, dtype=complex)
    h = (omega[-1] - omega[0]) / (omega.size - 1)
    dfv = np.diff(fv)
    for i0 in range(0, tarr.size, 256):
        blk = tarr[i0 : i0 + 256]
        w0, w1 = _filon_weights(blk * h)
        phase = np.exp(-1j * np.outer(blk, omega[:-1]))
        acc = phase @ fv[:-1] * w0 + phase @ dfv * w1
        out[i0 : i0 + 256] = h * acc
    out *= (1j / (2 * np.pi)) * np.exp(eps * tarr)
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out
