"""One-sided shifted Laplace transforms and numerical contour inversion.

The forward map used throughout the package is

    F(z) = -i int_0^T dt exp(i z t - i shift t) f(t),     Im z > 0,

where ``shift`` removes a known row phase so that F has its poles at
physical frequencies.  The inverse runs along a horizontal contour just
above the real axis,

    f(t) = (i / 2 pi) int domega exp(-i (omega + i eps) t) F(omega + i eps),

discretized on a finite window.  Piecewise-linear Filon weights make the
window quadrature exact for linear interpolants of F at every t, which
keeps large t from aliasing on coarse grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reservoir import LaplaceDomainError

__all__ = [
    "ShiftedTransformSpec",
    "ContourGrid",
    "TailTruncationError",
    "WindowTooNarrowError",
    "forward_transform",
    "invert",
    "subtract_poles",
    "pole_series",
]


class TailTruncationError(ArithmeticError):
    """Raised when the neglected integration tail exceeds tolerance."""


class WindowTooNarrowError(ArithmeticError):
    """Raised when the inversion window cuts off significant integrand."""


@dataclass(frozen=True)
class ShiftedTransformSpec:
    """Row phase shift and contour height for a shifted transform."""

    shift: float
    im_offset: float

    def __post_init__(self):
        if self.im_offset <= 0:
            raise ValueError("im_offset must be > 0")


@dataclass(frozen=True)
class ContourGrid:
    """Uniform or Clenshaw-Curtis discretization of the inversion contour.

    Parameters
    ----------
    omega_min, omega_max : float
        Real window of the contour.
    n_points : int
        Number of nodes, at least 16.
    rule : str
        ``"Trapezoid"`` (with Filon weighting in time) or
        ``"ClenshawCurtis"``.
    im_offset : float
        Contour height above the real axis; callers should scale it
        with the spectral linewidths involved.
    """

    omega_min: float
    omega_max: float
    n_points: int = 20000
    rule: str = "Trapezoid"
    im_offset: float = 1e-4

    def __post_init__(self):
        if not self.omega_min < self.omega_max:
            raise ValueError("need omega_min < omega_max")
        if self.n_points < 16:
            raise ValueError("need n_points >= 16")
        if self.rule not in ("Trapezoid", "ClenshawCurtis"):
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.im_offset <= 0:
            raise ValueError("im_offset must be > 0")

    def nodes(self):
        """Contour abscissas (real parts) and, for Clenshaw-Curtis, weights."""
        if self.rule == "Trapezoid":
            return np.linspace(self.omega_min, self.omega_max, self.n_points), None
        x, w = _clenshaw_curtis(self.n_points)
        half = 0.5 * (self.omega_max - self.omega_min)
        return self.omega_min + (x[::-1] + 1.0) * half, w[::-1] * half


def _clenshaw_curtis(n):
    # Waldvogel's FFT construction of Clenshaw-Curtis weights on [-1, 1];
    # interior weights 2*ifft, endpoints single share
    N = n - 1
    c = np.zeros(N + 1)
    k = np.arange(0, N + 1, 2)
    c[k] = 2.0 / (1.0 - k.astype(float) ** 2)
    f = np.real(np.fft.ifft(np.concatenate([c, c[-2:0:-1]])))
    w = np.empty(n)
    w[0] = f[0]
    w[1:N] = 2.0 * f[1:N]
    w[N] = f[N]
    return np.cos(np.pi * np.arange(n) / N), w


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


def forward_transform(f, shift, z, *, t=None, T=None, n=None, tail_tol=1e-6):
    """One-sided transform ``-i int_0^T exp(izt - i*shift*t) f(t) dt``.

    Parameters
    ----------
    f : callable or ndarray
        Time function, or samples on the uniform grid ``t``.
    shift : float
        Row phase removed under the integral.
    z : complex
        Transform variable, ``Im z > 0``.
    t : ndarray, optional
        Uniform sample grid starting at 0 (required for sampled ``f``).
    T : float, optional
        Upper limit when ``f`` is callable.
    n : int, optional
        Sample count for callable ``f``; defaults to resolving the
        fastest phase with ~20 points per period.
    tail_tol : float, optional
        Bound on the neglected ``[T, inf)`` tail.

    Raises
    ------
    LaplaceDomainError
        If ``Im z <= 0``.
    TailTruncationError
        If the estimated tail exceeds ``tail_tol``.
    """
    z = complex(z)
    if z.imag <= 0:
        raise LaplaceDomainError("forward_transform requires Im z > 0")
    if callable(f):
        if T is None:
            raise ValueError("callable f requires T")
        if n is None:
            rate = abs(z.real - shift) + z.imag
            n = int(max(2000, 20 * T * rate / (2 * np.pi)))
        t = np.linspace(0.0, T, n + 1)
        fvals = np.asarray([f(x) for x in t], dtype=complex)
    else:
        fvals = np.asarray(f, dtype=complex)
        if t is None or len(t) != len(fvals):
            raise ValueError("sampled f requires a matching time grid")
        t = np.asarray(t, dtype=float)
    est = _tail_estimate(fvals, t, z.imag)
    if est > tail_tol:
        raise TailTruncationError(
            f"tail estimate {est:.3e} exceeds {tail_tol:.1e}; "
            f"extend T (T*Im z = {t[-1] * z.imag:.2f}, want >= 30 for plain tails)"
        )
    # imported here: scipy.integrate loads scipy.optimize and scipy.sparse
    from scipy import integrate

    integrand = np.exp((1j * z - 1j * shift) * t) * fvals
    return -1j * integrate.simpson(integrand, x=t)


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

    ``F`` may be a callable evaluated at ``omega + i*im_offset`` or an
    array of samples on the grid nodes.  ``t`` may be a scalar or an
    array; sampling of ``F`` happens once either way.

    Raises
    ------
    WindowTooNarrowError
        If a boundary sample of ``|F|`` exceeds ``boundary_tol`` times
        the peak magnitude on the window.
    """
    omega, ccw = grid.nodes()
    eps = grid.im_offset
    if callable(F):
        fv = np.asarray(F(omega + 1j * eps), dtype=complex)
        if fv.shape != omega.shape:
            fv = np.asarray([F(w + 1j * eps) for w in omega], dtype=complex)
    else:
        fv = np.asarray(F, dtype=complex)
        if fv.shape != omega.shape:
            raise ValueError("sampled F must match the grid nodes")
    peak = np.max(np.abs(fv))
    if peak > 0 and max(abs(fv[0]), abs(fv[-1])) > boundary_tol * peak:
        raise WindowTooNarrowError(
            f"boundary magnitude {max(abs(fv[0]), abs(fv[-1])):.3e} exceeds "
            f"{boundary_tol:.1e} x peak {peak:.3e}; widen the window"
        )
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(tarr.shape, dtype=complex)
    if grid.rule == "ClenshawCurtis":
        for i0 in range(0, tarr.size, 256):
            blk = tarr[i0 : i0 + 256]
            phase = np.exp(-1j * np.outer(blk, omega))
            out[i0 : i0 + 256] = phase @ (ccw * fv)
    else:
        # node k = J*nb + b sits at omega_min + (J*nb + b)*step, so its
        # phase is a coarse factor per J times a fine factor per b: a
        # time block needs nj + nb exponentials instead of m, and the
        # node sum is one product over b, then one over J
        m = omega.size - 1
        step = (grid.omega_max - grid.omega_min) / m
        h = omega[1] - omega[0]  # Filon spacing, read off the nodes
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
            w0, w1 = _filon_weights(blk * h)
            part = (np.exp(-1j * np.outer(blk, fine)) @ coef).reshape(-1, 2, nj)
            acc = np.einsum("tsj,tj->ts", part, np.exp(-1j * np.outer(blk, coarse)))
            out[i0 : i0 + 256] = h * (acc[:, 0] * w0 + acc[:, 1] * w1)
    out *= (1j / (2 * np.pi)) * np.exp(eps * tarr)
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def subtract_poles(F, poles, residues):
    """Evaluator for ``F(z) - sum_k r_k / (z - p_k)``.

    Splitting off known poles leaves a smoother remainder that inverts
    accurately on modest windows; add the poles back in time with
    :func:`pole_series`.
    """
    poles = np.asarray(poles, dtype=complex)
    residues = np.asarray(residues, dtype=complex)
    if poles.shape != residues.shape:
        raise ValueError("poles and residues must align")

    def rest(z):
        zarr = np.asarray(z, dtype=complex)
        tail = (residues / (zarr[..., None] - poles)).sum(axis=-1)
        return np.asarray(F(z), dtype=complex) - tail

    return rest


def pole_series(poles, residues, t):
    """Closed-form time series ``sum_k r_k exp(-i p_k t)``."""
    poles = np.asarray(poles, dtype=complex)
    residues = np.asarray(residues, dtype=complex)
    tarr = np.asarray(t, dtype=float)
    val = np.exp(-1j * np.multiply.outer(tarr, poles)) @ residues
    return val
