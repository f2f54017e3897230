"""Reservoir spectral densities and pair correlation functions.

A reservoir of harmonic modes with coupling weight ``|g(omega)|**2``
supported on the positive half-line enters the dynamics only through
the scalar pair correlation kernel

    kappa(tau) = int_0^inf domega |g(omega)|^2 exp(-i omega tau)

and its one-sided Laplace image

    chat(y) = int_0^inf domega |g(omega)|^2 / (y - omega),   Im y > 0,

which is analytic in the upper half-plane and decays like
``total_strength / y``.  At inverse temperature ``beta`` the kernel
acquires the standard bosonic occupation factors,

    kappa_th(tau) = int_0^inf domega |g|^2 [ (nbar+1) e^{-i omega tau}
                                             + nbar e^{+i omega tau} ],

with ``nbar(omega) = 1/(exp(beta*omega)-1)``, which converges exactly
when ``|g(0)|^2 = 0``.  This thermal form is
standard open-system physics; it is documented here because the
zero-temperature kernel alone does not determine it.

Supported families: a Lorentzian line restricted to the half-line, a
flat window, and tabulated samples.  Closed forms give the
zero-temperature kernel and image of the first two.  Every other case
(a table, or any positive temperature) is a sum over the modes of
:func:`discrete_modes`, with a node count worked out from the request.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "SpectralDensity",
    "CorrelationKernel",
    "DivergentIntegralError",
    "LaplaceDomainError",
    "IndexCollisionError",
    "correlation_time",
    "correlation_laplace",
    "correlation_boundary",
    "kernel_table",
    "kernel_samples",
    "discrete_modes",
    "trapezoid_weights",
    "gauss_legendre",
    "next_fast_len",
    "thermal_occupation",
]


class DivergentIntegralError(ArithmeticError):
    """Raised when a correlation integral fails to converge."""


class LaplaceDomainError(ValueError):
    """Raised when a Laplace-domain evaluator is called off its domain."""


class IndexCollisionError(ValueError):
    """Raised when an index rule defines the same kernel slot twice."""


def thermal_occupation(omega, beta):
    """Bose occupation 1/(exp(beta*omega) - 1) for omega > 0."""
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(np.asarray(beta * omega, dtype=float))


@dataclass(frozen=True)
class SpectralDensity:
    """Coupling weight ``|g(omega)|**2`` on the positive frequency axis.

    Instances are built through the family constructors
    :meth:`lorentzian`, :meth:`flat_window` and :meth:`tabulated`; the
    raw constructor is not meant for direct use.

    Parameters
    ----------
    family : str
        One of ``"Lorentzian"``, ``"FlatWindow"``, ``"Tabulated"``.
    params : tuple of float
        Family parameters, see the constructors.
    table : tuple of ndarray, optional
        ``(omega, g2)`` samples for the tabulated family.
    """

    family: str
    params: tuple = ()
    table: tuple = field(default=None, repr=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def lorentzian(cls, strength, center, width):
        """Half-line Lorentzian ``(strength*width/pi) / ((w-center)^2 + width^2)``.

        Parameters
        ----------
        strength : float
            Overall weight gamma >= 0; for center >> width the total
            integral approaches gamma.
        center : float
            Line position omega_c.
        width : float
            Half width Lambda > 0.
        """
        if not all(map(math.isfinite, (strength, center, width))):
            raise ValueError("Lorentzian parameters must be finite")
        if strength < 0:
            raise ValueError("strength must be >= 0")
        if width <= 0:
            raise ValueError("width must be > 0")
        return cls("Lorentzian", (float(strength), float(center), float(width)))

    @classmethod
    def flat_window(cls, height, omega_lo, omega_hi):
        """Constant weight ``height`` on ``[omega_lo, omega_hi]``, zero outside."""
        if not all(map(math.isfinite, (height, omega_lo, omega_hi))):
            raise ValueError("flat window parameters must be finite")
        if height < 0:
            raise ValueError("height must be >= 0")
        if not 0 <= omega_lo < omega_hi:
            raise ValueError("need 0 <= omega_lo < omega_hi")
        return cls("FlatWindow", (float(height), float(omega_lo), float(omega_hi)))

    @classmethod
    def tabulated(cls, omega, g2):
        """Sampled weight on an increasing grid, linearly interpolated."""
        omega = np.asarray(omega, dtype=float)
        g2 = np.asarray(g2, dtype=float)
        if omega.ndim != 1 or omega.shape != g2.shape or omega.size < 2:
            raise ValueError("omega and g2 must be matching 1-d arrays, length >= 2")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(g2))):
            raise ValueError("omega and g2 must be finite")
        if np.any(np.diff(omega) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        if omega[0] < 0:
            raise ValueError("support must lie in [0, inf)")
        if np.any(g2 < 0):
            raise ValueError("|g|^2 must be >= 0")
        return cls("Tabulated", (), (omega, g2))

    # -- pointwise weight and summary scales --------------------------

    def weight(self, omega):
        """``|g(omega)|**2`` at ``omega``; zero for omega < 0."""
        w = np.asarray(omega, dtype=float)
        if self.family == "Lorentzian":
            g0, wc, lam = self.params
            val = (g0 * lam / np.pi) / ((w - wc) ** 2 + lam**2)
        elif self.family == "FlatWindow":
            h, lo, hi = self.params
            val = np.where((w >= lo) & (w <= hi), h, 0.0)
        else:
            grid, g2 = self.table
            val = np.interp(w, grid, g2, left=0.0, right=0.0)
        return np.where(w >= 0, val, 0.0)

    def total_strength(self):
        """``int_0^inf |g|^2 domega``."""
        if self.family == "Lorentzian":
            g0, wc, lam = self.params
            return g0 * (0.5 + np.arctan(wc / lam) / np.pi)
        if self.family == "FlatWindow":
            h, lo, hi = self.params
            return h * (hi - lo)
        grid, g2 = self.table
        return float(np.trapezoid(g2, grid))

    def support(self):
        """Frequency interval ``(lo, hi)`` that the combs integrate over.

        A flat window and a table have no weight outside it.  A
        Lorentzian's is its center +- 10 widths, cut at 0, and leaves out
        a few percent of ``total_strength``: 4.8% for ``lorentzian(0.5,
        20, 1)``, 3.4% for ``(1, 5, 1)`` and 6.2% for ``(0.5, 200, 1)``.
        The combs over this interval drop that weight:
        ``jaynescummings.kraus_recursion`` and both combs of
        ``atomic_population_series``.  The time kernel, the Laplace image
        and the mode rule (:func:`discrete_modes`) cover the whole
        half-line.
        """
        if self.family == "Lorentzian":
            g0, wc, lam = self.params
            return max(0.0, wc - 10.0 * lam), wc + 10.0 * lam
        if self.family == "FlatWindow":
            return self.params[1], self.params[2]
        grid = self.table[0]
        return float(grid[0]), float(grid[-1])

    def frequency_scale(self):
        """Characteristic frequency used for default tolerances."""
        if self.family == "Lorentzian":
            return max(abs(self.params[1]), self.params[2])
        if self.family == "FlatWindow":
            return max(self.params[2], self.params[2] - self.params[1])
        return self.support()[1]


# ---------------------------------------------------------------------------
# kernel evaluators


def _exp_e1(z):
    """``e^z E1(z)`` for complex ``z``, E1 on its principal branch.

    Neither factor is formed alone, so nothing overflows where ``e^z``
    does.  For ``|z| < 1``, for ``Re z < 0`` with ``|z| < 2``, and near
    the negative real axis (``(Im z)^2 < -2 Re z``) within ``|z| < 40``,
    the power series of E1 is summed; elsewhere the continued fraction
    ``1/(z+1 - 1/(z+3 - 4/(z+5 - ...)))`` is taken backward from depth
    ``4 + 400/max(|z| + Re z, 1.6)``, at most 254, since it converges
    fast away from the negative real axis.  Against mpmath this keeps
    within 1e-14 relative on the kernel arguments ``+-lam tau - i w_c tau``
    and near the negative real axis.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    a = np.abs(z)
    near = (a < 1) | ((z.real < 0) & ((a < 2) | ((a < 40) & (z.imag**2 < -2 * z.real))))
    zs = z[near]
    if zs.size:
        # E1(z) = -gamma - log z - sum_k (-z)^k / (k k!)
        term = np.ones_like(zs)
        acc = np.zeros_like(zs)
        for k in range(1, min(160, 30 + int(3 * a[near].max())) + 1):
            term *= -zs / k
            acc += term / k
        out[near] = np.exp(zs) * (-np.euler_gamma - np.log(zs) - acc)
    zc = z[~near]
    if zc.size:
        # each point starts at its own depth: sorted deepest first, the
        # points still open at level k are a prefix of length ends[k]
        depth = 4 + np.ceil(400.0 / np.maximum(np.abs(zc) + zc.real, 1.6)).astype(int)
        order = np.argsort(-depth, kind="stable")
        zc, depth = zc[order], depth[order]
        ends = np.searchsorted(-depth, -np.arange(depth[0] + 1), side="right")
        f = zc + (2 * depth + 1)
        for k in range(depth[0], 0, -1):
            fk = f[: ends[k]]
            np.divide(k * k, fk, out=fk)
            np.subtract(zc[: ends[k]], fk, out=fk)
            fk += 2 * k - 1
        out[np.flatnonzero(~near)[order]] = 1.0 / f
    return out


def _exp1_halfline(z, tau):
    # int_0^inf e^{-i w tau} / (w - z) dw for tau > 0, z off the positive axis.
    # The contour closes through the lower half-plane; a pole with Im z < 0
    # is encircled clockwise, hence the -2*pi*i residue term.
    arg = -1j * z * tau
    val = _exp_e1(arg)
    if z.imag < 0:
        val = val - 2j * np.pi * np.exp(arg)
    return val


def _kappa_zero_temp(sd: SpectralDensity, at):
    """Closed zero-temperature kernel of a Lorentzian or flat window on ``at = |tau|``."""
    out = np.full(at.shape, sd.total_strength(), dtype=complex)
    pos = at > 0
    tp = at[pos]
    if sd.family == "Lorentzian":
        g0, wc, lam = sd.params
        ip = _exp1_halfline(wc + 1j * lam, tp)
        im = _exp1_halfline(wc - 1j * lam, tp)
        out[pos] = (g0 / (2j * np.pi)) * (ip - im)
    else:
        h, lo, hi = sd.params
        out[pos] = h * (np.exp(-1j * lo * tp) - np.exp(-1j * hi * tp)) / (1j * tp)
    return out


def _thermal_gate(sd: SpectralDensity, beta_inv):
    """Refuse a temperature outside [0, inf), or a thermal sum that diverges.

    ``nbar ~ 1/(beta omega)`` near zero, so the thermal integral diverges
    exactly when the weight does not vanish at omega = 0.
    """
    if not 0 <= beta_inv < math.inf:
        raise ValueError("beta_inv must be finite and >= 0")
    if beta_inv > 0 and sd.weight(0.0) > 0:
        raise DivergentIntegralError(
            "thermal kernel diverges: |g(0)|^2 > 0 gives a non-integrable "
            "1/omega occupation tail"
        )


# Every mode sum runs over discrete_modes(sd, span), whose panels are
# at most span wide: _TIME_SPAN / max|tau| for the time kernel, or
# _IMAGE_SPAN times the least distance from +-y to the support for the
# Laplace image.  Away from a table the modes come from whole Gauss
# panels of _PANEL nodes.  Toward omega = 0 the panels shrink
# geometrically, adjacent edges at most a factor exp(_GRADE) apart, so
# the occupation pole there costs log(hi/lo)/_GRADE more panels.  A
# table splits each interval into equal parts at most span/_PANEL wide.
# Against quadrature on the support this keeps a thermal flat window
# within 3e-13 of its peak, and each constant has a 2-3x margin before
# the error grows.  A rule of more than _MAX_MODES nodes raises
# DivergentIntegralError.
_PANEL = 32
_GRADE = 1.0
_TIME_SPAN = 40.0
_IMAGE_SPAN = 2.0
_MAX_MODES = 1 << 16
_BLOCK = 1 << 20


def _mode_sum(f, x, omega, wq):
    """``sum_q wq f(x, omega_q)`` at each ``x``, in row blocks of bounded size."""
    out = np.empty(x.size, dtype=complex)
    rows = max(1, _BLOCK // max(omega.size, 1))
    for i0 in range(0, x.size, rows):
        out[i0 : i0 + rows] = f(x[i0 : i0 + rows, None], omega) @ wq
    return out


def kernel_samples(sd: SpectralDensity, tau, beta_inv=0.0):
    """Kernel ``kappa`` on an array of time differences.

    The kernel is evaluated on ``|tau|`` and conjugated back for
    ``tau < 0``, since ``kappa(-tau) = conj(kappa(tau))``; the result has
    the shape of ``tau``, a numpy complex scalar for a scalar ``tau``.
    A zero-temperature Lorentzian or flat window uses its closed form.
    Otherwise the kernel is the sum over the modes of
    :func:`discrete_modes` with panels at most ``40 / max|tau|`` wide:
    a table splits its intervals to that resolution, a thermal flat
    window gets whole 32-node Gauss panels graded toward omega = 0.

    Raises
    ------
    DivergentIntegralError
        If the weight is nonzero at omega = 0 at positive temperature,
        where the thermal integral diverges, or the mode rule would need
        more than 65536 nodes.
    """
    _thermal_gate(sd, beta_inv)
    tau = np.asarray(tau, dtype=float)
    at = np.abs(tau).ravel()
    if beta_inv == 0 and sd.family != "Tabulated":
        out = _kappa_zero_temp(sd, at)
    else:
        reach = float(at.max(initial=0.0))
        omega, wq = discrete_modes(sd, _TIME_SPAN / reach if reach else math.inf, beta_inv)
        out = _mode_sum(lambda x, w: np.exp(-1j * x * w), at, omega, wq)
    out = np.where(tau.ravel() < 0, out.conj(), out).reshape(tau.shape)
    return out if out.ndim else out[()]


def correlation_time(sd: SpectralDensity, t, s, beta_inv=0.0):
    """Pair correlation ``c(t, s)`` of the reservoir coupling.

    The kernel is stationary, ``c(t, s) = kappa(t - s)``; this is the
    scalar form of :func:`kernel_samples`.  At ``beta_inv == 0`` it is
    ``int_0^inf |g|^2 exp(-i omega (t-s)) domega``; for positive
    temperature the bosonic occupation factors are included.

    Parameters
    ----------
    sd : SpectralDensity
    t, s : float
        The two time arguments.
    beta_inv : float, optional
        Temperature in energy units; 0 means zero temperature.

    Returns
    -------
    complex

    Raises
    ------
    DivergentIntegralError
        If the thermal weight is nonzero at omega = 0, or the mode rule
        exceeds its cap.
    """
    return complex(kernel_samples(sd, float(t) - float(s), beta_inv))


def correlation_laplace(sd: SpectralDensity, y, beta_inv=0.0):
    """One-sided Laplace image ``int_0^inf |g|^2/(y - omega) domega``.

    Analytic for ``Im y > 0``.  The thermal variant adds the mirrored
    branch ``int_0^inf |g|^2 nbar(omega) [1/(y-omega) + 1/(y+omega)]``.
    A zero-temperature Lorentzian or flat window uses its closed form.
    Otherwise the image is the sum over the modes of
    :func:`discrete_modes` with panels at most twice the least distance
    from ``+-y`` to the support wide: a table splits its intervals to
    that resolution, a thermal flat window gets whole 32-node Gauss
    panels graded toward omega = 0.

    Parameters
    ----------
    sd : SpectralDensity
    y : complex or array of complex
        Evaluation points, ``Im y > 0`` required.
    beta_inv : float, optional

    Returns
    -------
    complex, or an array shaped like ``y``

    Raises
    ------
    LaplaceDomainError
        If any ``Im y <= 0``.
    DivergentIntegralError
        If the thermal weight is nonzero at omega = 0, or the mode rule
        would need more than 65536 nodes.
    """
    _thermal_gate(sd, beta_inv)
    scalar = np.ndim(y) == 0
    y = complex(y) if scalar else np.asarray(y, dtype=complex)
    if np.any(np.imag(y) <= 0):
        raise LaplaceDomainError("correlation_laplace requires Im y > 0")
    if beta_inv == 0 and sd.family != "Tabulated":
        out = _laplace_zero_temp(sd, y)
        return complex(out) if scalar else out
    yv = np.ravel(y)
    lo, hi = sd.support()
    gap = min(np.abs(v - np.clip(v.real, lo, hi)).min() for v in (yv, -yv))
    omega, wq = discrete_modes(sd, _IMAGE_SPAN * gap, beta_inv)
    out = _mode_sum(lambda x, w: 1.0 / (x - w), yv, omega, wq)
    return complex(out[0]) if scalar else out.reshape(y.shape)


def _laplace_zero_temp(sd: SpectralDensity, y):
    if sd.family == "Lorentzian":
        g0, wc, lam = sd.params
        zp, zm = wc + 1j * lam, wc - 1j * lam
        # partial fractions of (gamma lam/pi) / ((w-zp)(w-zm)(w-y)) integrated
        # over [0, inf): each simple pole contributes -residue * log(-pole),
        # principal branch; the residues sum to zero so the logs pair up.
        # The y = zp collision is removable; switch to a Taylor form there.
        y = np.asarray(y, dtype=complex)
        d = y - zp
        near = np.abs(d) < 1e-4 * lam
        ds = np.where(near, 1.0, d)
        rp = -1.0 / ((zp - zm) * ds)
        rm = 1.0 / ((zm - zp) * (zm - y))
        ry = 1.0 / (ds * (y - zm))
        acc = rp * np.log(-zp) + rm * np.log(-zm) + ry * np.log(-y)
        if np.any(near):
            a = zp - zm
            n1 = (1.0 / zp) / a - np.log(-zp) / a**2
            n2 = (-1.0 / zp**2) / a - 2.0 * (1.0 / zp) / a**2 + 2.0 * np.log(-zp) / a**3
            taylor = rm * np.log(-zm) + n1 + 0.5 * d * n2
            acc = np.where(near, taylor, acc)
        return (g0 * lam / np.pi) * acc
    h, lo, hi = sd.params
    return h * np.log((y - lo) / (y - hi))


def correlation_boundary(sd: SpectralDensity, omega):
    """Boundary value of the zero-temperature Laplace image just above the real axis.

    Realizes the ``omega + i0`` prescription at the height
    ``1e-6 * frequency_scale`` above the real frequency ``omega``.  A
    table resolves that height only with more modes than the cap
    allows, so near its support it raises DivergentIntegralError.
    """
    return correlation_laplace(sd, omega + 1j * (1e-6 * sd.frequency_scale()))


# ---------------------------------------------------------------------------
# discrete mode expansions


@functools.lru_cache(maxsize=8)
def gauss_legendre(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    Cached: every flat-window mode expansion asks for the panel rule.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=128)
def next_fast_len(n):
    """Smallest 11-smooth integer ``>= n``: a fast complex FFT length.

    Every length ``2^a 3^b 5^c 7^d 11^e`` below the next power of two
    is tried, each odd part raised to the least power-of-two multiple
    that reaches ``n`` (the lengths ``scipy.fft.next_fast_len`` returns
    for complex input).
    """
    n = int(n)
    if n < 1:
        raise ValueError("FFT length must be >= 1")
    top = 1 << (n - 1).bit_length()
    odds = [1]
    for p in (3, 5, 7, 11):
        for o in odds[:]:
            while (o := o * p) < top:
                odds.append(o)
    return min(o << (-(-n // o) - 1).bit_length() for o in odds)


def _wright_omega(y):
    """Root ``x > 0`` of ``x + log x = y`` for real ``y``, elementwise.

    Six Newton steps in the form ``x <- x (1 + y - log x) / (1 + x)``
    from ``exp(y)`` (``y <= 1``) or ``y - log y`` (``y > 1``), both below
    ``exp(1 + y)``, where a step would turn negative.  ``x + log x`` is
    concave, so after the first step the iterates lie below the root and
    rise monotonically to it; six steps settle to rounding.
    """
    y = np.asarray(y, dtype=float)
    x = np.where(y > 1.0, y - np.log(np.maximum(y, 1.0)), np.exp(np.minimum(y, 1.0)))
    for _ in range(6):
        x = x * (1.0 + y - np.log(x)) / (1.0 + x)
    return x


def _panel_edges(lo, hi, n_panels):
    """Edges of ``n_panels`` quadrature panels on ``[lo, hi]``.

    The edges sit at equal steps of ``phi(w) = (w - lo) + b log(w/lo)``
    with ``b`` set so that adjacent edges are at most a factor
    ``exp(_GRADE)`` apart near omega = 0 and the panels are uniform
    above ``w ~ b``.
    """
    if lo == 0 or n_panels == 1:
        return np.linspace(lo, hi, n_panels + 1)
    lam = math.log(hi / lo)
    b = (hi - lo) / max(_GRADE * n_panels - lam, _GRADE)
    phi = np.linspace(0.0, hi - lo + b * lam, n_panels + 1)
    # x + log x = (phi + lo)/b + log(lo/b) at x = w/b: Wright's omega
    edges = b * _wright_omega((phi + lo) / b + math.log(lo / b))
    edges[0], edges[-1] = lo, hi
    return edges


def trapezoid_weights(gaps):
    """Trapezoid weights of the nodes that bound the intervals ``gaps``.

    Node ``k`` gets half of each interval it closes: ``gaps[0] / 2`` and
    ``gaps[-1] / 2`` at the ends, ``(gaps[k - 1] + gaps[k]) / 2`` inside.
    """
    half = 0.5 * np.asarray(gaps, dtype=float)
    return np.append(half, 0.0) + np.append(0.0, half)


def discrete_modes(sd: SpectralDensity, span, beta_inv=0.0):
    """Discretize the reservoir into weighted oscillator modes.

    Returns frequencies ``omega_q`` and positive weights ``w_q`` such
    that ``kappa(tau) ~= sum_q w_q exp(-i omega_q tau)``.  At positive
    temperature each positive-frequency node splits into an emission
    branch with weight ``(nbar+1) w_q`` and a mirrored absorption
    branch at ``-omega_q`` with weight ``nbar w_q``.  A table that
    starts at omega = 0 (where the thermal gate requires ``g2 = 0``)
    keeps its omega = 0 node at positive temperature, with the limit
    weight ``w_0 * 2 (g2[1] / omega[1]) / beta`` of ``|g|^2 (2 nbar + 1)``.

    Parameters
    ----------
    sd : SpectralDensity
    span : float
        Widest panel the request allows (``inf`` for any).  A flat
        window gets ``32 (log(hi/lo) + (hi - lo)/span + 1)`` nodes,
        rounded up to whole 32-node Gauss panels graded toward omega = 0
        (see ``_panel_edges``); a Lorentzian as many nodes of a tangent
        map, with ``(lo, hi)`` its support.  A table gets the trapezoid
        rule on its nodes, each interval split into equal parts at most
        ``span / 32`` wide, with ``g2`` interpolated linearly as the
        table itself is.
    beta_inv : float, optional

    Returns
    -------
    (ndarray, ndarray)
        Frequencies and weights; all weights are positive.

    Raises
    ------
    DivergentIntegralError
        If the weight is nonzero at omega = 0 at positive temperature,
        or the rule would need more than 65536 nodes.
    """
    _thermal_gate(sd, beta_inv)
    if not span > 0:
        raise ValueError("span must be > 0")
    if sd.family == "Tabulated":
        grid, g2 = sd.table
        parts = np.maximum(np.ceil(np.diff(grid) * _PANEL / span), 1.0)
        n_modes = parts.sum() + 1
    else:
        lo, hi = sd.support()
        grading = math.log(hi / lo) / _GRADE if lo > 0 else 0.0
        n_modes = _PANEL * (grading + (hi - lo) / span + 1)
    if n_modes > _MAX_MODES:
        raise DivergentIntegralError(
            f"mode rule needs {n_modes:.0f} modes, above the cap of {_MAX_MODES}"
        )
    n_modes = math.ceil(n_modes)
    zero_node = 0.0
    if sd.family == "Lorentzian":
        g0, wc, lam = sd.params
        # tangent map concentrates nodes around the line center and
        # covers the half-line exactly
        u0 = math.atan(-wc / lam)
        du = (math.pi / 2 - u0) / n_modes
        u = u0 + (np.arange(n_modes) + 0.5) * du
        omega = wc + lam * np.tan(u)
        wq = np.full(n_modes, g0 / math.pi * du)
    elif sd.family == "FlatWindow":
        h, lo, hi = sd.params
        x, gw = gauss_legendre(_PANEL)
        edges = _panel_edges(lo, hi, -(-n_modes // _PANEL))
        half = 0.5 * np.diff(edges)[:, None]
        omega = (edges[:-1, None] + half * (1.0 + x)).ravel()
        wq = h * (half * gw).ravel()
    else:
        # node k of interval i sits at the fraction k / parts[i] of it
        i = np.repeat(np.arange(parts.size), parts.astype(int))
        frac = (np.arange(i.size) - (np.cumsum(parts) - parts)[i]) / parts[i]
        omega, g2 = (np.append(v[i] + frac * np.diff(v)[i], v[-1]) for v in (grid, g2))
        trap = trapezoid_weights(np.diff(omega))
        wq = trap * g2
        if beta_inv > 0 and omega[0] == 0:
            zero_node = trap[0] * 2 * g2[1] / omega[1] * beta_inv
        keep = wq > 0
        omega, wq = omega[keep], wq[keep]
    if beta_inv == 0:
        return omega, wq
    nb = thermal_occupation(omega, 1.0 / beta_inv)
    omega = np.concatenate([omega, -omega])
    wq = np.concatenate([(nb + 1.0) * wq, nb * wq])
    if zero_node > 0:
        return np.append(omega, 0.0), np.append(wq, zero_node)
    return omega, wq


# ---------------------------------------------------------------------------
# indexed kernel tables


@dataclass(frozen=True, eq=False)
class CorrelationKernel:
    """Indexed table of pair correlation functions.

    For linear coupling to one bath every nonzero slot is a fixed weight
    times the one scalar kernel of ``sd`` at ``beta_inv``.  Row ``s`` of
    ``slots`` holds the 0-based indices ``(k, m, n, l)`` of a slot (row
    k, inner pair (m, n), column l), ``weights[s]`` its finite weight;
    both are read-only, in rule order.  A zero kernel has no slots.
    """

    sd: SpectralDensity
    beta_inv: float
    slots: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        slots = np.array(self.slots, dtype=int).reshape(-1, 4)
        weights = np.array(self.weights, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(weights)):
            raise ValueError("slot weights must be finite")
        slots.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "weights", weights)

    def on_grid(self, t):
        """Scalar kernel ``kappa`` at the times ``t``, by :func:`kernel_samples`.

        A mode sum has panels at most ``40 / max|t|`` wide, and raises
        DivergentIntegralError above 65536 nodes.
        """
        return kernel_samples(self.sd, t, self.beta_inv)


def kernel_table(sd: SpectralDensity, index_rule, beta_inv=0.0) -> CorrelationKernel:
    """Package the scalar kernel under a multi-index slot scheme.

    Parameters
    ----------
    sd : SpectralDensity
    index_rule : mapping or iterable
        Either ``{(k,m,n,l): weight}`` or an iterable of
        ``((k,m,n,l), weight)`` pairs naming the nonzero slots (row k,
        inner pair (m, n), column l); state labels count from 1.
    beta_inv : float, optional

    Returns
    -------
    CorrelationKernel
        Slots with a nonzero weight, in rule order.

    Raises
    ------
    IndexCollisionError
        If the same slot appears twice in the rule.
    ValueError
        If a slot index does not have four entries.
    """
    if isinstance(index_rule, Mapping):
        pairs = index_rule.items()
    else:
        pairs = list(index_rule)
    seen, slots, weights = set(), [], []
    for idx, weight in pairs:
        key = tuple(int(i) for i in idx)
        if len(key) != 4:
            raise ValueError("slot index must have four entries")
        if key in seen:
            raise IndexCollisionError(f"slot {key} defined twice")
        seen.add(key)
        if weight != 0:
            slots.append([i - 1 for i in key])
            weights.append(complex(weight))
    return CorrelationKernel(sd, beta_inv, slots, weights)
