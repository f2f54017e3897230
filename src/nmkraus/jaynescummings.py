"""Resonant atom-cavity ladder with radiative damping.

Dressed two-level-plus-mode eigenbasis, the photon-block continued
fraction for the damping amplitude, the excited-population series, and
closed-form long-time references (plateau shape, maximum-entropy
scaling scan).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy.special import gammaln

from . import dynamics as dy
from . import kraus as kr
from . import reservoir as rv

__all__ = [
    "DressedBasis",
    "DressedSystem",
    "EntropyScalingError",
    "JCInitialState",
    "PhotonCutoffError",
    "SeriesResult",
    "SingularBlockError",
    "adjoint_recursion",
    "atomic_population_series",
    "build_dressed_system",
    "dressed_initial_state",
    "entropy_limit_scan",
    "kraus_recursion",
    "plateau_oracle",
    "reduce_atomic",
]

_INV_RT2 = 1.0 / math.sqrt(2.0)
_SIGN = np.array([-1.0, 1.0])
_ONES = np.array([1.0, 1.0])


class PhotonCutoffError(ValueError):
    """Initial photon number too close to the basis cutoff."""


class SingularBlockError(ArithmeticError):
    """A photon-level block of the continued fraction failed to invert."""

    def __init__(self, level, z):
        self.level = level
        self.z = z
        super().__init__(f"singular block at photon level {level}, z = {z}")


class EntropyScalingError(ValueError):
    """Scaling exponents outside the admissible wedge."""


def _labels(dim):
    # branch eps, photon label n and doublet normalization nu of each
    # state index, in the order (1, -1), (-1, 0), (1, 0), (-1, 1), ...
    s = np.arange(dim)
    n = (s - 1) // 2
    return 1 - 2 * (s % 2), n, np.where(n < 0, 1.0, _INV_RT2)


@dataclass(frozen=True)
class DressedBasis:
    """Energy eigenbasis of the atom-mode ladder.

    Parameters
    ----------
    omega_a1, omega_a2 : float
        Atomic level energies; the mode is resonant, so its quantum is
        ``omega_a2 - omega_a1``.
    coupling : float
        Atom-mode exchange strength, positive and below the mode
        quantum so the joint ground state stays lowest.
    n_max : int
        Photon cutoff, at least 1.  States carry labels ``(eps, n)``
        with ``eps = +-1`` and ``n = -1..n_max``; ``(-1, -1)`` does not
        exist.
    """

    omega_a1: float
    omega_a2: float
    coupling: float
    n_max: int
    states: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not self.omega_f > self.coupling > 0:
            raise ValueError("need omega_a2 - omega_a1 > coupling > 0")
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError("n_max must be an integer >= 1")
        object.__setattr__(self, "n_max", int(self.n_max))
        eps, n, _ = _labels(self.dim)
        if np.any(np.diff(self.energy(eps, n)) <= 0):
            raise ValueError(
                "ladder rungs overlap at this cutoff; lower n_max or coupling"
            )
        object.__setattr__(self, "states", tuple(zip(eps.tolist(), n.tolist())))

    @property
    def omega_f(self):
        return self.omega_a2 - self.omega_a1

    @property
    def dim(self):
        return 2 * self.n_max + 3

    @staticmethod
    def nu(n):
        """Doublet normalization; 1 on the ground rung, 0 below it."""
        if n == -1:
            return 1.0
        return _INV_RT2 if n >= 0 else 0.0

    def energy(self, eps, n):
        """Rung energy for branch ``eps`` at photon label ``n``; broadcasts."""
        return (
            self.omega_a2 * (n + 1)
            - self.omega_a1 * n
            + eps * self.coupling * np.sqrt(n + 1.0)
        )

    def index(self, eps, n):
        """Position of ``(eps, n)`` in the state ordering."""
        return self.states.index((eps, n))


@dataclass(frozen=True)
class DressedSystem(kr.SystemSpec):
    """System table for the dressed ladder, with its construction data."""

    basis: DressedBasis = None


def _amplitudes(basis):
    """Amplitude table ``U[s, a, m] = <s | a, m>``, shape ``(dim, 2, n_max + 2)``.

    Atom ``a`` is 0 ground, 1 excited, and ``m`` the photon number:
    ``(eps, n) = nu(n) (|g, n+1> + eps |e, n>)``, ``(1, -1) = |g, 0>``.
    """
    eps, n, nu = _labels(basis.dim)
    s = np.arange(basis.dim)
    U = np.zeros((basis.dim, 2, basis.n_max + 2))
    U[s, 0, n + 1] = nu
    U[s[1:], 1, n[1:]] = eps[1:] * nu[1:]
    return U


def build_dressed_system(basis: DressedBasis, sd: rv.SpectralDensity):
    """Assemble the ladder's state table and decay-pair kernel.

    Nonzero slots connect neighbouring rungs only: the inner pair sits
    one photon label below the outer pair on each side, with weight
    ``eps_outer_left * eps_outer_right * nu * nu / 2``.  Every other
    index combination vanishes identically.  Slots run over (inner left,
    inner right, outer branch left, outer branch right) in state order.
    """
    eps, n, nu = _labels(basis.dim)
    low = np.arange(basis.dim - 2)
    up = 2 * n[low] + 3  # index of (-1, n + 1); (1, n + 1) follows it
    l2, l3, b1, b4 = np.meshgrid(low, low, [0, 1], [0, 1], indexing="ij")
    slots = np.stack([up[l2] + b1, l2, l3, up[l3] + b4], axis=-1)
    weights = _SIGN[b1] * _SIGN[b4] * (0.5 * nu[l2] * nu[l3])
    kernel = rv.CorrelationKernel(sd, 0.0, slots, weights)
    return DressedSystem(basis.energy(eps, n), kernel, basis)


@dataclass(frozen=True)
class JCInitialState:
    """Atomic 2x2 state (ground, excited order) with a p-photon mode."""

    rho_a: np.ndarray
    p: int

    def __post_init__(self):
        ra = np.asarray(self.rho_a, dtype=complex)
        dy.validate_density(ra, 2)
        object.__setattr__(self, "rho_a", ra)
        if int(self.p) != self.p or self.p < 0:
            raise ValueError("photon number must be an integer >= 0")
        object.__setattr__(self, "p", int(self.p))


def dressed_initial_state(basis: DressedBasis, init: JCInitialState):
    """Factorized atom (x) p-photon state written in the dressed basis.

    ``rho[i, j] = sum_ab U[i, a, p] U[j, b, p] rho_a[a, b]`` with the
    amplitude table ``U[s, a, m] = <s | a, m>``, atom ground 0, excited 1.
    """
    if init.p > basis.n_max:
        raise PhotonCutoffError(
            f"photon number {init.p} exceeds the basis cutoff {basis.n_max}"
        )
    C = _amplitudes(basis)[:, :, init.p]
    return (C[:, None, :, None] * C[None, :, None, :] * init.rho_a).sum(axis=(2, 3))


def reduce_atomic(basis: DressedBasis, rho):
    """Trace out the privileged mode: (..., dim, dim) -> (..., 2, 2).

    ``out[..., a, b] = sum_{s, t, m} U[s, a, m] rho[..., s, t] U[t, b, m]``
    with the amplitude table ``U[s, a, m] = <s | a, m>``; rows are
    ordered (ground, excited), matching JCInitialState.
    """
    U = _amplitudes(basis)
    return np.einsum("sam,...st,tbm->...ab", U, rho, U, optimize=True)


# ---------------------------------------------------------------------------
# photon-block continued fraction on uniform frequency combs


def _comb(sd, h):
    # integer-aligned uniform quadrature of int dw |g|^2 f(z - w);
    # alignment keeps every shifted argument on one master line
    lo, hi = sd.support()
    q0 = max(0, math.ceil(lo / h - 1e-9))
    q1 = math.floor(hi / h + 1e-9)
    wq = sd.weight(np.arange(q0, q1 + 1) * h) * h
    wq[0] *= 0.5
    wq[-1] *= 0.5
    return q0, q1, wq.astype(complex)


def _overlap_save(s, wf, nw):
    """Valid part of the linear convolution of ``s`` with an ``nw``-tap filter.

    ``wf`` is the filter's FFT at the block length ``L = wf.size``.
    Blocks of ``L`` samples overlapping by ``nw - 1`` are transformed in
    one batched FFT; each keeps its ``L - nw + 1`` alias-free outputs
    (Stockham's overlap-save), so the cost grows as ``s.size * log L``.
    """
    L = wf.size
    step = L - nw + 1
    n_out = s.size - nw + 1
    nb = -(-n_out // step)
    buf = np.zeros((nb - 1) * step + L, dtype=complex)
    buf[: s.size] = s
    blocks = sliding_window_view(buf, L)[::step]
    res = sfft.ifft(sfft.fft(blocks, axis=-1) * wf, axis=-1)[:, nw - 1 :]
    return res.reshape(-1)[:n_out]


def _line_blocks(basis, sd, x0, h, n_vis, eta, top_level):
    """Damping-amplitude image blocks on the line ``x0 + j*h + i*eta``.

    Returns ``{level: array}``, each covering exactly the visible range
    ``j = 0..n_vis-1``; level -1 entries are scalars, higher levels 2x2
    blocks.  The recursion extends the line to the left internally so
    every visible value is fully converged: level ``l`` is carried on
    the points from ``(l + 2) * q1`` on, which is all the levels above
    it read, and only its level sum ``(dp + dm - 2 a conv) / det``
    passes upward, so 2x2 blocks are built on the visible range alone.
    """
    q0, q1, wq = _comb(sd, h)
    nw = wq.size
    wf = sfft.fft(wq, sfft.next_fast_len(max(16384, 4 * nw)))
    ext = (top_level + 2) * q1
    n_int = n_vis + ext
    x = x0 - ext * h + h * np.arange(n_int) + 1j * eta
    gnd = basis.energy(1, -1)
    ssum = 1.0 / (x[q1:] - gnd)
    out = {-1: ssum[-n_vis:]}
    for lev in range(top_level + 1):
        # comb sum at x_i over ssum(x_i - q h), q0 <= q <= q1
        conv = _overlap_save(ssum[: ssum.size - q0], wf, nw)
        seg = x[n_int - conv.size :]
        a = 0.5 * basis.nu(lev - 1) ** 2
        ac = a * conv
        dm = seg - basis.energy(-1, lev) - ac
        dp = seg - basis.energy(1, lev) - ac
        det = dm * dp - ac**2
        if np.any(det == 0) or not np.all(np.isfinite(det)):
            bad = seg[(det == 0) | ~np.isfinite(det)][0]
            raise SingularBlockError(lev, bad)
        vis = slice(conv.size - n_vis, None)
        blk = np.empty((n_vis, 2, 2), dtype=complex)
        blk[:, 0, 0] = dp[vis] / det[vis]
        blk[:, 1, 1] = dm[vis] / det[vis]
        blk[:, 0, 1] = blk[:, 1, 0] = -ac[vis] / det[vis]
        out[lev] = blk
        ssum = (dp + dm - 2.0 * ac) / det
    return out


# comb steps across the spectral support of a point evaluation
_RECURSION_MODES = 1500


def kraus_recursion(sys: DressedSystem, z):
    """Blockwise damping-amplitude image at one point, ``Im z > 0``.

    Evaluates the finite photon-level recursion down to the ground rung
    and returns the full matrix over the basis, block diagonal with
    exact zeros elsewhere.  The coupling integral runs on a uniform
    comb of at least 1,500 steps over the spectral support, so families
    with slow tails are truncated at their support radius.
    """
    z = complex(z)
    if z.imag <= 0:
        raise rv.LaplaceDomainError("kraus_recursion requires Im z > 0")
    basis, sd = sys.basis, sys.kernel.sd
    lo, hi = sd.support()
    h = min((hi - lo) / _RECURSION_MODES, z.imag / 4.0)
    blocks = _line_blocks(basis, sd, z.real, h, 1, z.imag, basis.n_max)
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    out[0, 0] = blocks[-1][0]
    for lev in range(basis.n_max + 1):
        i = basis.index(-1, lev)
        out[i : i + 2, i : i + 2] = blocks[lev][0]
    return out


def adjoint_recursion(sys: DressedSystem, z):
    """Image of the conjugate-branch amplitude, ``Im z < 0``."""
    return np.conj(kraus_recursion(sys, np.conj(complex(z))))


# ---------------------------------------------------------------------------
# excited-population series


@dataclass(frozen=True)
class SeriesResult:
    """Excited-state population from the order-by-order expansion."""

    times: np.ndarray
    excited: np.ndarray
    term_peaks: tuple
    truncation_estimate: float

    @property
    def ground(self):
        """Ground population by probability balance."""
        return 1.0 - self.excited


# contour margin beyond the outermost pole locations, warning level of
# the last retained order, and memory budget of one block of phases
_WINDOW_PAD = 4.0
_TRUNCATION_TOL = 2e-2
_PHASE_BYTES = 4 << 20


def atomic_population_series(
    basis: DressedBasis, sd: rv.SpectralDensity, init: JCInitialState, times, r_max
):
    """Excited-state population by iterating the two-time solution.

    Each order ``r`` pairs one image chain with its conjugate over
    identical photon labels, so every term is a nonnegative frequency
    average of a squared amplitude; orders beyond the initial photon
    number vanish identically.  Order ``r`` costs one nested comb sum
    per extra exchanged quantum.

    Every line is inverted at the requested times themselves: on the
    line nodes ``x_j = wlo + j h`` the amplitude at ``t_k`` is a product
    with the phase matrix ``P[j, k] = (h / 2pi) w_j e^{eta t_k}
    e^{-i x_j t_k}``, with trapezoid weights ``w_j``.  The cost grows
    linearly with the number of times, which are taken in blocks whose
    phases hold at most 4 MiB.  The contour height ``eta = 2 / T``, the
    line step ``h = min(eta / 4, width / 400)`` and the comb step
    ``max(2 h, pi / (2 T))`` of the order >= 1 sums follow the final
    time ``T`` alone, so the value at a time does not depend on which
    other times are requested.

    Parameters
    ----------
    basis, sd : ladder basis and reservoir weight
    init : JCInitialState
    times : ndarray
        Ascending, nonnegative; the final entry sets the contour height
        and the line resolution.
    r_max : int
        Highest retained order.

    Returns
    -------
    SeriesResult
        ``term_peaks`` holds each order's peak over the requested
        times.  ``truncation_estimate`` is the last retained order's
        peak while further orders remain, else 0; above 2e-2 it also
        raises a warning.
    """
    times = np.asarray(times, dtype=float)
    if (
        times.ndim != 1
        or times.size < 2
        or times[0] < 0
        or np.any(np.diff(times) <= 0)
    ):
        raise ValueError("times must be ascending and nonnegative")
    if int(r_max) != r_max or r_max < 0:
        raise ValueError("r_max must be an integer >= 0")
    p = init.p
    if p > basis.n_max:
        raise PhotonCutoffError(
            f"photon number {p} exceeds the basis cutoff {basis.n_max}"
        )
    T = float(times[-1])
    if T <= 0:
        raise ValueError("the final time must be positive")
    eta = 2.0 / T
    lo, hi = sd.support()
    h = min(eta / 4.0, (hi - lo) / 400.0)
    q0, q1, _ = _comb(sd, h)

    r_cap = int(min(r_max, p))
    ra = init.rho_a
    terms = []
    for r in range(r_cap + 1):
        if ra[1, 1].real > 0 and p - r - 1 >= -1:
            terms.append((r, p - r - 1, ra[1, 1].real, _SIGN))
        if ra[0, 0].real > 0 and p - r - 2 >= -1:
            terms.append((r, p - r - 2, ra[0, 0].real, _ONES))
    if not terms:
        zero = np.zeros_like(times)
        return SeriesResult(times, zero, (), 0.0)

    top = -1
    wlo, whi = np.inf, -np.inf
    for r, n1, _, _ in terms:
        for s in range(r + 1):
            lev = n1 + 1 + s
            top = max(top, lev)
            wlo = min(wlo, basis.energy(-1, lev) - s * q1 * h)
            whi = max(whi, basis.energy(1, lev) - s * q0 * h)
    wlo -= _WINDOW_PAD
    whi += _WINDOW_PAD
    n_line = int(math.ceil((whi - wlo) / h)) + 1
    n_vis = n_line + r_cap * q1
    blocks = _line_blocks(basis, sd, wlo, h, n_vis, eta, top)

    # outer comb for the order >= 1 sums; multiples of h keep every
    # shifted factor argument on the master line
    step = max(2.0 * h, np.pi / (2.0 * T))
    stride = max(1, min(int(round(step / h)), (q1 - q0) // 8))
    oidx = np.arange(q0, q1 + 1, stride)
    if oidx[-1] != q1:
        oidx = np.append(oidx, q1)
    gaps = np.diff(oidx) * h
    trap = np.empty(oidx.size)
    trap[0] = 0.5 * gaps[0]
    trap[-1] = 0.5 * gaps[-1]
    trap[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    ow = sd.weight(oidx * h) * trap

    # per term: the line factor of its first level (for r = 0 with the
    # two poles taken out, their part inverts in closed form), the
    # factors of the levels above it, and the two pole frequencies
    xline = wlo + h * np.arange(n_line)
    parts = []
    for r, n1, diag_weight, last_vec in terms:
        lev0 = n1 + 1
        u0 = last_vec if r == 0 else _ONES
        rows = (blocks[lev0][:n_line] * u0).sum(axis=-1)
        omegas = np.array([basis.energy(-1, lev0), basis.energy(1, lev0)])
        if r == 0:
            rows = rows - u0 / (xline[:, None] + 1j * eta - omegas)
        inner = [
            (
                (blocks[lev0 + s] * (_ONES if s < r else last_vec)).sum(axis=-1)
                * _SIGN
            ).sum(axis=-1)
            for s in range(1, r + 1)
        ]
        parts.append((r, diag_weight / 4.0 ** (r + 1), rows, inner, u0, omegas))

    wts = np.full(n_line, h / (2.0 * np.pi))
    wts[[0, -1]] *= 0.5
    nb = max(1, _PHASE_BYTES // (16 * n_line))
    total = np.zeros(times.size)
    peak = np.zeros(len(parts))
    for b in range(0, times.size, nb):
        tb = times[b : b + nb]
        P = wts[:, None] * np.exp(np.outer(eta - 1j * xline, tb))
        for i, (r, coeff, rows, inner, u0, omegas) in enumerate(parts):
            phase = _SIGN[:, None] * np.exp(1j * np.outer(omegas, tb))
            if r == 0:
                amp = (phase * (rows.T @ P)).sum(axis=0) - 1j * (_SIGN * u0).sum()
                term = np.abs(amp) ** 2
            else:
                term = _sum_orders(P * (rows @ phase), inner, ow, oidx)
            total[b : b + nb] += coeff * term
            peak[i] = max(peak[i], float(np.max(term)))

    peaks = {}
    for (r, coeff, *_), pk in zip(parts, peak):
        peaks[r] = peaks.get(r, 0.0) + coeff * pk
    last_peak = peaks.get(r_cap, 0.0) if r_cap < p else 0.0
    if last_peak > _TRUNCATION_TOL:
        warnings.warn(
            f"series truncation estimate {last_peak:.2e} exceeds "
            f"{_TRUNCATION_TOL:.1e}; consider r_max = {r_max + 1}",
            stacklevel=2,
        )
    return SeriesResult(
        times, total, tuple(peaks[r] for r in sorted(peaks)), last_peak
    )


def _sum_orders(Q, inner, ow, oidx, base=0, gpart=1.0):
    # nested comb sums over the order-r frequency weights at the times
    # of one block; Q carries the first level's factor, both poles'
    # phases and the inversion weights, so the batched last level is one
    # product per 64 comb nodes; outer levels recurse (cost grows as
    # comb**r)
    n_line, n_t = Q.shape
    out = np.zeros(n_t)
    if len(inner) == 1:
        win = sliding_window_view(inner[0], n_line)[base + oidx]
        for i0 in range(0, oidx.size, 64):
            amp = (win[i0 : i0 + 64] * gpart) @ Q
            out += ow[i0 : i0 + 64] @ (np.abs(amp) ** 2)
        return out
    for j, o in enumerate(oidx):
        gnext = gpart * inner[0][base + o : base + o + n_line]
        out += ow[j] * _sum_orders(Q, inner[1:], ow, oidx, base + o, gnext)
    return out


# ---------------------------------------------------------------------------
# long-time references


def plateau_oracle(tau, p, rho_a11, rho_a22):
    """Closed-form excited population at large photon number.

    Evaluates ``rho22 e^-tau + (e^-tau / 2) * sum_{r=1..p}
    (1 - rho11 delta_{r p}) tau^r / r!`` with log-stable terms at the
    scaled time(s) ``tau >= 0``, for ``p >= 1`` photons and atomic
    populations ``rho_a11``, ``rho_a22``; the sum holds near 1/2 from
    tau of a few until tau approaches p.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be >= 0")
    if int(p) != p or p < 1:
        raise ValueError("p must be an integer >= 1")
    if rho_a11 < -1e-12 or rho_a22 < -1e-12:
        raise ValueError("atomic populations must be nonnegative")
    out = rho_a22 * np.exp(-tau)
    rr = np.arange(1, p + 1)
    with np.errstate(divide="ignore"):
        logt = np.where(tau > 0, np.log(np.maximum(tau, 1e-300)), -np.inf)
    logterm = -tau[..., None] + rr * logt[..., None] - gammaln(rr + 1)
    fac = np.ones(p)
    fac[-1] = 1.0 - rho_a11
    out = out + 0.5 * (np.exp(logterm) * fac).sum(axis=-1)
    return out


def entropy_limit_scan(
    basis: DressedBasis,
    sd: rv.SpectralDensity,
    alpha,
    beta,
    lams,
    *,
    p_tilde,
    t_tilde=1.0,
    rho_a=None,
):
    """Joint small-coupling scan towards the balanced atomic state.

    Couplings scale down by ``lam``, photon number up as
    ``p_tilde / lam**beta`` and time as ``t_tilde / lam**alpha``.  The
    admissible wedge ``2 < alpha < beta + 2``, ``0 < beta < 4/3`` is
    enforced by named rejections, and scaled photon numbers must come
    out integer.  Returns ``{column: array}`` with one entry per
    coupling: ``lam``, the ``photon_number``, the scaled time ``tau``,
    the plateau value ``excited``, its ``distance`` from the balanced
    point, and the ``coherence_bound``, the decay envelope of the
    initial atomic coherence.
    """
    if alpha <= 2:
        raise EntropyScalingError("alpha must exceed 2")
    if beta <= 0:
        raise EntropyScalingError("beta must be positive")
    if beta >= 4.0 / 3.0:
        raise EntropyScalingError("beta must stay below 4/3")
    if alpha >= beta + 2:
        raise EntropyScalingError("alpha must stay below beta + 2")
    lams = [float(x) for x in lams]
    if not lams or any(x <= 0 for x in lams):
        raise ValueError("lams must be positive")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lams must be strictly decreasing")
    if rho_a is None:
        rho_a = np.array([[0.0, 0.0], [0.0, 1.0]])
    ra = np.asarray(rho_a, dtype=complex)
    dy.validate_density(ra, 2)
    r11, r22 = float(ra[0, 0].real), float(ra[1, 1].real)
    gf2 = float(sd.weight(basis.omega_f))
    rows = []
    for lam in lams:
        praw = p_tilde / lam**beta
        pint = round(praw)
        if abs(praw - pint) > 1e-8 * max(1.0, praw):
            raise ValueError(
                f"p_tilde / lam**beta = {praw} is not an integer at lam = {lam}"
            )
        tau = float(lam ** (2.0 - alpha) * 0.5 * np.pi * gf2 * t_tilde)
        exc = float(plateau_oracle(tau, pint, r11, r22))
        rows.append(
            (lam, int(pint), tau, exc, abs(exc - 0.5),
             float(abs(ra[1, 0]) * math.exp(-0.5 * tau)))
        )
    cols = ("lam", "photon_number", "tau", "excited", "distance", "coherence_bound")
    return {c: np.array(v) for c, v in zip(cols, zip(*rows))}
