"""Thermal flat-window kernels by adaptive quadrature on the support alone.

The reference for the mode sums of ``reservoir``: at temperature
``beta_inv`` a flat window of height ``h`` on ``[lo, hi]`` has

    Re kappa(tau) = h int_lo^hi coth(omega / (2 beta_inv)) cos(omega tau) domega,
    Im kappa(tau) = -h int_lo^hi sin(omega tau) domega,

and the Laplace image ``h int_lo^hi [(nbar+1)/(y-omega) + nbar/(y+omega)]``.
Restricting ``quad`` to ``[lo, hi]`` keeps it from stepping over a narrow
window, and ``weight='cos'``/``'sin'`` handles the oscillation.
"""

import numpy as np
from scipy import integrate

# Both parts can cancel to near zero, so the tolerance is absolute too:
# 1e-13 of the integral of |integrand|, on the scale h.
_TOL = dict(epsrel=1e-12, limit=400)


def kappa(h, lo, hi, beta_inv, tau):
    """Thermal kernel kappa(tau) of a flat window."""
    coth = lambda w: h / np.tanh(w / (2.0 * beta_inv))
    tol = dict(_TOL, epsabs=1e-13 * h * (hi - lo))
    if tau == 0:
        return integrate.quad(coth, lo, hi, **tol)[0] + 0j
    re = integrate.quad(coth, lo, hi, weight="cos", wvar=tau, **tol)[0]
    im = integrate.quad(lambda w: -h, lo, hi, weight="sin", wvar=tau, **tol)[0]
    return re + 1j * im


def image(h, lo, hi, beta_inv, y):
    """Thermal Laplace image of a flat window at one point ``y``."""
    def f(w):
        nb = 1.0 / np.expm1(w / beta_inv)
        return h * ((nb + 1.0) / (y - w) + nb / (y + w))

    tol = dict(_TOL, epsabs=1e-12 * h, points=[y.real] if lo < y.real < hi else None)
    re = integrate.quad(lambda w: f(w).real, lo, hi, **tol)[0]
    im = integrate.quad(lambda w: f(w).imag, lo, hi, **tol)[0]
    return re + 1j * im
