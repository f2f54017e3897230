"""Mode-fold two-level refill, kept as the reference for the convolution one.

This is the original refill of ``dynamics.two_level_trajectory``: the
reservoir is folded into modes no wider apart than 1/4096 of its
support (uniform midpoint nodes on a flat window, the modes of
``reservoir.discrete_modes`` with panels of 1/128 of the support
otherwise), and the refill is the
mode-weighted sum of squared trapezoid prefix integrals.  It differs
from the convolution refill by the fold's own discretisation error.
"""

import numpy as np

from nmkraus import reservoir as rv


def fold_modes(sd, span, beta_inv):
    """Midpoint modes on a flat window, ``discrete_modes`` on the rest.

    Panels are at most ``span`` wide; the midpoints are ``span / 32`` apart.
    """
    if sd.family != "FlatWindow":
        return rv.discrete_modes(sd, span, beta_inv=beta_inv)
    h, lo, hi = sd.params
    n_modes = int(np.ceil(32 * (hi - lo) / span))
    d = (hi - lo) / n_modes
    omega = lo + (np.arange(n_modes) + 0.5) * d
    wq = np.full(n_modes, h * d)
    if beta_inv == 0:
        return omega, wq
    nb = rv.thermal_occupation(omega, 1.0 / beta_inv)
    return (
        np.concatenate([omega, -omega]),
        np.concatenate([(nb + 1.0) * wq, nb * wq]),
    )


def refill(sys, W, panels=128):
    """``sum_q w_q |dt sum_r c_r W22(t_r) e^{i t_r (nu_q - w21)}|^2`` per prefix."""
    kern = sys.kernel
    lo, hi = kern.sd.support()
    nu, mw = fold_modes(kern.sd, (hi - lo) / panels, kern.beta_inv)
    tg = W.grid
    dt = tg[1] - tg[0]
    w22 = W.values[:, 1, 1]
    w21 = sys.energies[1] - sys.energies[0]
    out = np.zeros(tg.shape[0])
    for lo in range(0, nu.shape[0], 256):
        f = np.exp(1j * np.outer(tg, nu[lo : lo + 256] - w21)) * w22[:, None]
        pre = dt * (np.cumsum(f, axis=0) - 0.5 * (f + f[0][None, :]))
        out += (pre.real**2 + pre.imag**2) @ mw[lo : lo + 256]
    return out
