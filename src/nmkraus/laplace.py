"""One-sided shifted Laplace transforms and numerical contour inversion.

The forward map used throughout the package is

    F(z) = -i int_0^T dt exp(i z t - i shift t) f(t),     Im z > 0,

where ``shift`` removes a known row phase so that F has its poles at
physical frequencies.  :func:`forward_transform` applies it to samples
on a uniform time grid by Simpson's rule.  The inverse runs along a
horizontal contour just above the real axis,

    f(t) = (i / 2 pi) int domega exp(-i (omega + i eps) t) F(omega + i eps),

and :func:`invert` takes F sampled on the uniform nodes of a
:class:`ContourGrid`.  Piecewise-linear Filon weights make the window
quadrature exact for linear interpolants of F at every t, which keeps
large t from aliasing on coarse grids.  Known poles are split off before
inversion and added back in time by :func:`pole_series`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reservoir import LaplaceDomainError

__all__ = [
    "ContourGrid",
    "TailTruncationError",
    "WindowTooNarrowError",
    "forward_transform",
    "invert",
    "pole_series",
]


class TailTruncationError(ArithmeticError):
    """Raised when the neglected integration tail exceeds tolerance."""


class WindowTooNarrowError(ArithmeticError):
    """Raised when the inversion window cuts off significant integrand."""


@dataclass(frozen=True)
class ContourGrid:
    """Uniform discretization of the inversion contour.

    Parameters
    ----------
    omega_min, omega_max : float
        Real window of the contour.
    n_points : int
        Number of nodes, at least 16.
    im_offset : float
        Contour height above the real axis; callers should scale it
        with the spectral linewidths involved.
    """

    omega_min: float
    omega_max: float
    n_points: int = 20000
    im_offset: float = 1e-4

    def __post_init__(self):
        if not self.omega_min < self.omega_max:
            raise ValueError("need omega_min < omega_max")
        if self.n_points < 16:
            raise ValueError("need n_points >= 16")
        if self.im_offset <= 0:
            raise LaplaceDomainError("im_offset must be > 0")

    def nodes(self):
        """Contour abscissas (real parts)."""
        return np.linspace(self.omega_min, self.omega_max, self.n_points)


def _tail_estimate(fvals, t, im_z):
    # bound |int_T^inf| by the last sample magnitude over the combined
    # decay rate, fitting the sample decay from the trailing block
    aT = abs(fvals[-1])
    if aT == 0.0:
        return 0.0
    k = min(max(len(fvals) // 10, 2), 200)
    a0 = abs(fvals[-k])
    dt_blk = t[-1] - t[-k]
    rate = 0.0
    if a0 > aT > 0 and dt_blk > 0:
        rate = np.log(a0 / aT) / dt_blk
    return aT * np.exp(-im_z * t[-1]) / (rate + im_z)


def forward_transform(f, shift, z, *, t, tail_tol=1e-6):
    """One-sided transform ``-i int_0^T exp(izt - i*shift*t) f(t) dt``.

    Parameters
    ----------
    f : ndarray
        Samples on the uniform grid ``t``.
    shift : float
        Row phase removed under the integral.
    z : complex
        Transform variable, ``Im z > 0``.
    t : ndarray
        Uniform grid of at least three points from 0; ``T = t[-1]``.
    tail_tol : float, optional
        Bound on the neglected ``[T, inf)`` tail.

    Raises
    ------
    ValueError
        If ``f`` and ``t`` differ in length, or ``t`` is not uniform with
        at least three points.
    LaplaceDomainError
        If ``Im z <= 0``.
    TailTruncationError
        If the estimated tail exceeds ``tail_tol``.
    """
    z = complex(z)
    if z.imag <= 0:
        raise LaplaceDomainError("forward_transform requires Im z > 0")
    fvals = np.asarray(f, dtype=complex)
    if len(t) != len(fvals):
        raise ValueError("samples of f must match the time grid")
    t = np.asarray(t, dtype=float)
    n = t.size - 1
    dx = (t[-1] - t[0]) / n if n >= 2 else 0.0
    if not (dx > 0 and
            np.max(np.abs(t - t[0] - dx * np.arange(n + 1))) <= 1e-9 * n * dx):
        raise ValueError("Simpson's rule needs t uniform, increasing, of at least three points")
    est = _tail_estimate(fvals, t, z.imag)
    if est > tail_tol:
        raise TailTruncationError(
            f"tail estimate {est:.3e} exceeds {tail_tol:.1e}; "
            f"extend T (T*Im z = {t[-1] * z.imag:.2f}, want >= 30 for plain tails)"
        )
    y = np.exp((1j * z - 1j * shift) * t) * fvals
    # composite Simpson; an odd step count adds Cartwright's parabolic last step
    m = n - n % 2
    total = np.sum(y[0 : m - 1 : 2] + 4.0 * y[1:m:2] + y[2 : m + 1 : 2]) * (dx / 3.0)
    if m < n:
        total += (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) * (dx / 12.0)
    return -1j * total


def _filon_weights(theta):
    # exact integrals of 1 and of the linear ramp against e^{-i theta u}
    # on u in [0, 1]; series branch guards the small-angle cancellation
    th = np.asarray(theta, dtype=float)
    i0 = np.empty(th.shape, dtype=complex)
    i1 = np.empty(th.shape, dtype=complex)
    small = np.abs(th) < 1e-3
    ts = th[small]
    i0[small] = 1.0 - 0.5j * ts - ts**2 / 6.0 + 1j * ts**3 / 24.0
    i1[small] = 0.5 - 1j * ts / 3.0 - ts**2 / 8.0 + 1j * ts**3 / 30.0
    tb = th[~small]
    e = np.exp(-1j * tb)
    i0[~small] = (1.0 - e) / (1j * tb)
    i1[~small] = (e * (-1j * tb - 1.0) + 1.0) / (-(tb**2))
    return i0, i1


def invert(F, grid: ContourGrid, t, *, boundary_tol=1e-3):
    """Contour inversion ``(i/2pi) int e^{-i(omega+ieps)t} F domega``.

    ``F`` holds samples at ``grid.nodes() + i*grid.im_offset``.  ``t``
    may be a scalar or an array.

    Raises
    ------
    WindowTooNarrowError
        If a boundary sample of ``|F|`` exceeds ``boundary_tol`` times
        the peak magnitude on the window.
    """
    fv = np.asarray(F, dtype=complex)
    if fv.shape != (grid.n_points,):
        raise ValueError("sampled F must match the grid nodes")
    peak = np.max(np.abs(fv))
    if peak > 0 and max(abs(fv[0]), abs(fv[-1])) > boundary_tol * peak:
        raise WindowTooNarrowError(
            f"boundary magnitude {max(abs(fv[0]), abs(fv[-1])):.3e} exceeds "
            f"{boundary_tol:.1e} x peak {peak:.3e}; widen the window"
        )
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(tarr.shape, dtype=complex)
    # node k = J*nb + b sits at omega_min + (J*nb + b)*step, so its
    # phase is a coarse factor per J times a fine factor per b: a time
    # block needs nj + nb exponentials instead of m, and the node sum is
    # one product over b, then one over J
    m = grid.n_points - 1
    step = (grid.omega_max - grid.omega_min) / m
    nb = math.isqrt(m - 1) + 1
    nj = -(-m // nb)
    coef = np.zeros((2, nj * nb), dtype=complex)
    coef[0, :m] = fv[:-1]
    coef[1, :m] = np.diff(fv)
    coef = coef.reshape(2 * nj, nb).T
    coarse = grid.omega_min + (nb * step) * np.arange(nj)
    fine = step * np.arange(nb)
    for i0 in range(0, tarr.size, 256):
        blk = tarr[i0 : i0 + 256]
        w0, w1 = _filon_weights(blk * step)
        part = (np.exp(-1j * np.outer(blk, fine)) @ coef).reshape(-1, 2, nj)
        acc = np.einsum("tsj,tj->ts", part, np.exp(-1j * np.outer(blk, coarse)))
        out[i0 : i0 + 256] = step * (acc[:, 0] * w0 + acc[:, 1] * w1)
    out *= (1j / (2 * np.pi)) * np.exp(grid.im_offset * tarr)
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def pole_series(poles, residues, t):
    """Closed-form time series ``sum_k r_k exp(-i p_k t)``."""
    poles = np.asarray(poles, dtype=complex)
    residues = np.asarray(residues, dtype=complex)
    tarr = np.asarray(t, dtype=float)
    val = np.exp(-1j * np.multiply.outer(tarr, poles)) @ residues
    return val
