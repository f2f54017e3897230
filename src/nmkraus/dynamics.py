"""Two-time density-matrix evolution and closed-form reference channels.

The propagator amplitudes from :mod:`nmkraus.kraus` seed a two-time
matrix whose equal-time diagonal is the reduced density matrix.  This
module integrates that two-time equation, extracts and audits the
resulting trajectory, and supplies the textbook decay laws the solver
must reproduce in its limiting regimes.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import laplace as lp
from . import reservoir as rv
from .kraus import KrausZero, SingularOperatorError, SystemSpec

__all__ = [
    "BitemporalState",
    "ConservationReport",
    "DensityTrajectory",
    "FieldSizeError",
    "StateValidationError",
    "audit_conservation",
    "channel_pair",
    "check_field_size",
    "extract_density",
    "markovian_channel",
    "solve_bitemporal",
    "two_level_trajectory",
    "validate_density",
    "wigner_weisskopf",
]


class StateValidationError(ValueError):
    """Initial state fails the Hermiticity, trace or positivity checks."""


class FieldSizeError(MemoryError):
    """The two-time field would not fit in memory; carries its byte size."""

    def __init__(self, message, nbytes):
        super().__init__(message)
        self.nbytes = nbytes


def validate_density(rho0, dim):
    """Return ``rho0`` as a complex ``dim x dim`` density matrix.

    Raises StateValidationError unless it is finite, Hermitian, of unit
    trace and positive semidefinite.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise StateValidationError(f"initial state must be {dim}x{dim}")
    if not np.all(np.isfinite(rho0)):
        raise StateValidationError("initial state has a non-finite entry")
    scale = max(1.0, float(np.max(np.abs(rho0))))
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-12 * scale:
        raise StateValidationError("initial state is not Hermitian")
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise StateValidationError("initial state must have unit trace")
    if np.min(np.linalg.eigvalsh(rho0)) < -1e-10:
        raise StateValidationError("initial state is not positive semidefinite")
    return rho0


@dataclass(frozen=True)
class BitemporalState:
    """Two-time matrix field on a square grid, with solver diagnostics.

    ``values[i, j]`` holds the matrix at ``(t_i, t_j)``; the field is
    Hermitian under exchange of its two times and ``values[0, 0]`` is the
    initial state.  ``max_residual`` is the worst residual of the
    triangular block solves that settle each column's same-column
    couplings, ``max |A x - b| / max(1, max |b|)`` over all blocks; it
    sits at rounding level unless a block is close to singular.
    """

    grid: np.ndarray
    values: np.ndarray
    max_residual: float


@dataclass(frozen=True)
class DensityTrajectory:
    """Hermitian density matrices on a time grid.

    ``herm_residual`` records the largest anti-Hermitian part removed
    during extraction; it doubles as an accuracy diagnostic.
    """

    times: np.ndarray
    matrices: np.ndarray
    herm_residual: float

    def trace_errors(self):
        return np.abs(np.einsum("tkk->t", self.matrices) - 1.0)

    def min_eigenvalues(self):
        return np.linalg.eigvalsh(self.matrices)[:, 0]


def check_field_size(sys: SystemSpec, T, dt):
    """Refuse a two-time solve whose arrays exceed physical memory.

    :func:`solve_bitemporal` on ``n = T/dt`` steps stores the field,
    ``(n+1)^2 dim^2`` complex numbers, and the kernel-weighted read
    entries of its written rows, another ``(n+1)^2 G`` (``G`` as in
    :func:`solve_bitemporal`).  Call it before the propagator solve to
    fail early; the two-time solve calls it too.

    Raises
    ------
    FieldSizeError
        If those arrays exceed physical memory; carries their byte size.
    """
    n = int(round(T / dt))
    n_stored = sum(qs.size for _, qs in _feeds(_slot_pairs(sys)[2]))
    nbytes = (n + 1) ** 2 * (sys.dim ** 2 + n_stored) * np.dtype(complex).itemsize
    try:
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if phys > 0 and nbytes > phys:
        raise FieldSizeError(
            f"two-time solve on {n + 1} x {n + 1} nodes of {sys.dim}x{sys.dim} "
            f"matrices needs {nbytes / 2**30:.1f} GiB, more than the "
            f"{phys / 2**30:.1f} GiB of physical memory",
            nbytes,
        )


def _slot_pairs(sys: SystemSpec):
    """Entries the slots read, and the weights they write with.

    Returns ``(pd, pa, Wsl)``: the distinct read entries ``(pd[q],
    pa[q])`` in sorted order, and ``Wsl[q, c, b]``, the summed weight of
    the slots that read entry ``q`` and write entry ``(c, b)``.
    """
    ia, ib, ic, id_ = sys.kernel.slots.T
    pairs, q = np.unique(np.stack([id_, ia], axis=1), axis=0, return_inverse=True)
    Wsl = np.zeros((len(pairs), sys.dim, sys.dim), dtype=complex)
    np.add.at(Wsl, (q.reshape(-1), ic, ib), sys.kernel.weights)
    return pairs[:, 0], pairs[:, 1], Wsl


def _feeds(Wsl):
    """Written rows ``e`` with the read entries ``qs`` that feed them."""
    feeds = [(e, np.flatnonzero(np.any(Wsl[:, e] != 0, axis=1))) for e in range(Wsl.shape[1])]
    return [(e, qs) for e, qs in feeds if qs.size]


class _CausalSolver:
    """Exact blocked solve of the same-column couplings of a column.

    Solves ``(I - h_e K[0]/2) p_e - sum_{r<e} K[e-r] h_r p_r = g_e`` for
    the read entries ``p_e`` of a column's unknown rows ``e = 0..m-1``
    (counted from the diagonal node).  The weights ``h`` depend only on
    ``e``, so every column shares one matrix, truncated to its ``m``
    rows.  In the basis of the complex Schur form of ``K[0]``, with its
    entries in reverse order, the self-couplings are lower triangular,
    and so is the matrix of a leaf of ``leaf`` rows: it is inverted once,
    and a leaf solve is one product with that inverse.  When a leaf ends
    the left half of a node in the implicit binary split of the rows,
    that half is pushed into the right half at once by one FFT
    convolution (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6
    (1985) 532), so every pair of rows is coupled exactly once.

    Raises
    ------
    SingularOperatorError
        If a self-coupling block ``I - h_e K[0]/2`` is singular.
    """

    def __init__(self, K, h, leaf=None):
        # imported here: only the two-time solve needs scipy.linalg
        from scipy import linalg as sla

        T, U = sla.schur(K[0], output="complex")
        self.U = U[:, ::-1]
        self.K = self.U.conj().T @ K @ self.U
        self.K[0] = T[::-1, ::-1]
        P = K.shape[1]
        self.leaf = L = leaf or max(4, 128 // P)
        hu = np.repeat(h, P)
        diag = 1.0 - 0.5 * hu * np.tile(np.diagonal(self.K[0]), h.size)
        bad = np.flatnonzero(np.abs(diag) <= 1e-12)
        if bad.size:
            e = bad[0] // P
            raise SingularOperatorError(
                f"same-column self-coupling is singular at rows j+{e}, "
                f"j = 1..{K.shape[0] - 1 - e}"
            )
        # C[(l, q'), (l', q)] = K[l - l'] below the diagonal blocks and
        # K[0]/2 on them; a leaf's matrix is I - C scaled by h per column
        lag = np.subtract.outer(np.arange(L), np.arange(L))
        C = np.where((lag >= 0)[:, :, None, None],
                     self.K[np.clip(lag, 0, K.shape[0] - 1)], 0.0)
        C[np.arange(L), np.arange(L)] *= 0.5
        C = C.transpose(0, 2, 1, 3).reshape(L * P, L * P)
        self.hu = [hu[e0 * P : (e0 + L) * P] for e0 in range(0, h.size, L)]
        self.blocks = [np.eye(w.size) - C[: w.size, : w.size] * w for w in self.hu]
        # the inverse of a lower triangular matrix is lower triangular, so
        # its leading block inverts the leading block of a ragged leaf
        self.inverses = [
            sla.solve_triangular(A, np.eye(A.shape[0]), lower=True, check_finite=False)
            for A in self.blocks
        ]
        self._spectra = {}

    def _push(self, src):
        """Couplings of the rows ``src`` into the same number of next rows."""
        span = src.shape[0]
        if span not in self._spectra:
            self._spectra[span] = np.fft.fft(self.K[: 2 * span], 2 * span, axis=0)
        fu = np.fft.fft(src, 2 * span, axis=0)
        return np.fft.ifft(np.einsum("kpq,kq->kp", self._spectra[span], fu), axis=0)[span:]

    def solve(self, g):
        """Return ``u_e = h_e p_e`` and the worst scaled leaf residual."""
        m, P = g.shape
        L = self.leaf
        acc = g @ self.U.conj()
        u = np.empty_like(acc)
        worst = 0.0
        for b, e0 in enumerate(range(0, m, L)):
            e1 = min(e0 + L, m)
            k = (e1 - e0) * P
            A = self.blocks[b][:k, :k]
            rhs = acc[e0:e1].reshape(-1)
            x = self.inverses[b][:k, :k] @ rhs
            resid = np.max(np.abs(A @ x - rhs)) / max(1.0, np.max(np.abs(rhs)))
            worst = max(worst, float(resid))
            u[e0:e1] = (self.hu[b][:k] * x).reshape(-1, P)
            if e1 < m:
                span = ((b + 1) & -(b + 1)) * L
                t1 = min(e1 + span, m)
                acc[e1:t1] += self._push(u[e1 - span : e1])[: t1 - e1]
        return u @ self.U.T, worst


def solve_bitemporal(sys: SystemSpec, W: KrausZero, rho0) -> BitemporalState:
    """Integrate the two-time equation column by column on ``W.grid``.

    The explicit free phases are absorbed into the propagator columns
    ``B(t) = e^{-iHt} W(t)``, which turns the memory term into causal
    convolutions.  The slots act only through the P distinct entries
    they read and their summed weights, so each grid column ``j`` costs
    a fixed number of vectorized calls instead of a walk over slots and
    nodes:

    - the cross-time part (inner times ``t_r``, ``r < j``) is one
      ``(n+1) x (j P_e)`` by ``(j P_e) x dim`` product for each written
      row ``e``, fed by ``P_e`` of the read entries, and one batched FFT
      convolution with ``B``;
    - the same-column part is linear in the read entries of the column's
      unknown rows ``i >= j``; the known rows ``r < j`` ride along in the
      same FFT, :class:`_CausalSolver` solves the unknown ones exactly,
      including each node's coupling to itself, and their contribution
      joins the spectrum before one inverse FFT fills the column and its
      conjugate row.

    With ``G = sum_e P_e`` the work is O(n^3 G dim) for the products
    plus O(n^2 log^2 n P^2) for the column solves.  Besides the field,
    ``(n+1)^2 dim^2`` complex numbers, the solve stores the kernel-weighted
    read entries, ``(n+1)^2 G`` more.  The ``n`` steps and their size
    are those of ``W.grid``, and ``W.values[0]`` must be the identity,
    as :func:`kraus.solve_time_domain` returns it.

    Raises
    ------
    StateValidationError
        If ``rho0`` is not a density matrix.
    FieldSizeError
        If those arrays would exceed physical memory.
    SingularOperatorError
        If a block of a column's same-column system is singular; the
        message names its rows.
    """
    dim = sys.dim
    rho0 = validate_density(rho0, dim)
    tg = W.grid
    n = tg.shape[0] - 1
    dt = tg[1] - tg[0]
    check_field_size(sys, tg[-1], dt)
    pd, pa, Wsl = _slot_pairs(sys)
    P = pd.size
    feeds = _feeds(Wsl)

    en = np.asarray(sys.energies, dtype=float)
    B = np.exp(-1j * np.outer(tg, en))[:, :, None] * W.values
    line = sys.kernel.on_grid(np.arange(-n, n + 1) * dt)
    # KD[s, sp] = kernel((sp - s) dt); a reversed sliding view, no copy
    KD = np.lib.stride_tricks.sliding_window_view(line, n + 1)[::-1]
    Wflat = Wsl.reshape(P, dim * dim)

    xi = np.zeros((n + 1, n + 1, dim, dim), dtype=complex)
    base0 = B @ rho0
    xi[:, 0] = base0
    xi[0, :] = np.conj(np.swapaxes(base0, 1, 2))
    # the cross-time sum by written row e: Y[i, r, k] = KD[i, r] tw_r
    # xi[i, r, read entry qs[k]] is stored as each column r is finished
    # (tw: trapezoid weight, halved at r = 0), and Zrev[n - m, k, c] =
    # sum_b Wsl[qs[k], e, b] conj(B[m, c, b]), so that a column's lags
    # m = j..1 are the contiguous block Zrev[n - j : n]
    cross = [
        (e, pd[qs], pa[qs], np.empty((n + 1, n + 1, qs.size), dtype=complex),
         np.einsum("kb,mcb->mkc", Wsl[qs, e], np.conj(B[::-1])))
        for e, qs in feeds
    ]

    def store(r, weight):
        for _, d, a, Y, _ in cross:
            Y[:, r] = weight[:, None] * xi[:, r, d, a]

    store(0, 0.5 * dt * KD[:, 0])
    # K[m, q', q]: weight of read entry q at lag m in read entry q';
    # h[e]: trapezoid weight of same-column row j + e, for every column j
    Bp = B[:, pd, :]
    K = np.einsum("mpc,qcp->mpq", Bp, Wsl[:, :, pa])
    column = _CausalSolver(K, 0.5 * dt * dt * line[n:0:-1]) if P else None

    nfft = rv.next_fast_len(2 * n + 1)
    fB = np.fft.fft(B, nfft, axis=0)
    fBp = fB[:, pd, :]
    max_resid = 0.0
    for j in range(1, n + 1):
        M0 = rho0 @ B[j].conj().T
        if not P:
            xj = B[j:] @ M0
        else:
            # trapezoid weights of the known rows r < j of this column
            hk = 0.5 * dt * dt * KD[:j, j]
            hk[0] *= 0.5
            R = np.zeros((n + 1, dim, dim), dtype=complex)
            for e, _, _, Y, Zrev in cross:
                R[:, e] = Y[:, :j].reshape(n + 1, -1) @ Zrev[n - j : n].reshape(-1, dim)
            M0 -= 0.5 * dt * R[0]
            # Q: the cross-time rows plus the known rows r < j of the
            # same-column sum; the solve needs only read entries of B * Q
            Q = dt * R
            Q[:j] += ((hk[:, None] * xi[:j, j, pd, pa]) @ Wflat).reshape(j, dim, dim)
            fQ = np.fft.fft(Q, nfft, axis=0)
            BQ = np.fft.ifft(np.einsum("kpc,kcp->kp", fBp, fQ[:, :, pa]), axis=0)
            g = BQ[j : n + 1] + np.einsum("ipc,cp->ip", Bp[j:], M0[:, pa])
            g -= 0.5 * dt * R[j:, pd, pa]
            u = np.zeros((n + 1, P), dtype=complex)
            u[j:], resid = column.solve(g)
            max_resid = max(max_resid, resid)
            # the unknown rows' V[r] = sum_q Wsl[q] h_r p_r[q] join the
            # spectrum; B[0] = I, so the convolution counts V[i] once in
            # full where the trapezoid wants it halved
            fQ += (np.fft.fft(u, nfft, axis=0) @ Wflat).reshape(nfft, dim, dim)
            xj = np.fft.ifft(fB @ fQ, axis=0)[j : n + 1]
            xj += B[j:] @ M0 - 0.5 * dt * R[j:]
            xj -= 0.5 * (u[j:] @ Wflat).reshape(-1, dim, dim)
        xi[j:, j] = xj
        xi[j, j + 1 :] = np.conj(np.swapaxes(xj[1:], 1, 2))
        store(j, dt * KD[:, j])

    ph = np.exp(1j * np.outer(tg, en))
    xi *= ph[:, None, :, None]
    xi *= np.conj(ph)[None, :, None, :]
    return BitemporalState(grid=tg, values=xi, max_residual=max_resid)


def extract_density(xi: BitemporalState) -> DensityTrajectory:
    """Equal-time slice of the two-time field, Hermitized.

    The anti-Hermitian residue is averaged away and its maximum norm
    kept as ``herm_residual``.
    """
    npts = xi.grid.shape[0]
    idx = np.arange(npts)
    diag = xi.values[idx, idx]
    adj = np.conj(np.swapaxes(diag, 1, 2))
    herm = 0.5 * float(np.max(np.abs(diag - adj)))
    return DensityTrajectory(times=xi.grid, matrices=0.5 * (diag + adj),
                             herm_residual=herm)


def two_level_trajectory(sys: SystemSpec, W: KrausZero, rho0) -> DensityTrajectory:
    """Closed refill form for the single raising-lowering slot.

    For a two-level system whose only slot feeds the ground state, the
    ground population gains the trapezoid double integral

        refill_i = sum_{r,s<=i} c_r c_s a_r conj(a_s) kappa(t_s - t_r),

    with ``a_r = dt W22(t_r) e^{-i w21 t_r}``, ``c`` the trapezoid
    weights of ``[0, t_i]`` and ``kappa`` the kernel samples ``W.kappa``
    that the Volterra solve of ``sys`` integrated on the grid.  The
    sums ``C_i = sum_{r<i} at_r kappa(t_i - t_r)``, where ``at`` is ``a``
    with its first entry halved, are one causal FFT convolution, and
    every prefix then follows from one cumulative sum: O(n log n) work,
    where the full two-time sweep costs O(n^3).  The refill is a
    quadratic form in a positive definite kernel (Bochner's theorem),
    so every matrix stays positive semidefinite.
    """
    if sys.dim != 2:
        raise ValueError("refill form needs a two-level system")
    kern = sys.kernel
    if kern.slots.tolist() != [[1, 0, 0, 1]]:
        raise ValueError("refill form needs exactly the raising-lowering slot")
    wgt = kern.weights[0]
    if abs(wgt.imag) > 1e-12 * abs(wgt) or wgt.real < 0:
        raise ValueError("slot weight must be real and nonnegative")
    rho0 = validate_density(rho0, 2)

    tg = W.grid
    n = tg.shape[0] - 1
    dt = tg[1] - tg[0]
    w22 = W.values[:, 1, 1]
    w21 = sys.energies[1] - sys.energies[0]
    kappa = W.kappa.copy()
    k0 = kappa[0].real
    kappa[0] = 0.0  # C_i sums the nodes r < i only
    a = dt * w22 * np.exp(-1j * w21 * tg)
    at = a.copy()
    at[0] *= 0.5
    nfft = rv.next_fast_len(2 * n)
    C = np.fft.ifft(np.fft.fft(at[:n], nfft) * np.fft.fft(kappa, nfft))[: n + 1]
    # Q_i: the form over the nodes r < i at full weight (at_0 halved)
    inc = np.abs(at) ** 2 * k0 + 2.0 * (np.conj(at) * C).real
    refill = np.concatenate([[0.0], np.cumsum(inc[:-1])])
    refill += (np.conj(a) * C).real + 0.25 * np.abs(a) ** 2 * k0
    refill[0] = 0.0

    mats = np.empty((tg.shape[0], 2, 2), dtype=complex)
    p2 = rho0[1, 1].real
    mats[:, 1, 1] = np.abs(w22) ** 2 * p2
    mats[:, 1, 0] = w22 * rho0[1, 0]
    mats[:, 0, 1] = np.conj(mats[:, 1, 0])
    mats[:, 0, 0] = rho0[0, 0].real + wgt.real * p2 * refill
    return DensityTrajectory(times=tg, matrices=mats, herm_residual=0.0)


@dataclass(frozen=True)
class ConservationReport:
    """Worst trace and positivity violations over a trajectory."""

    max_trace_error: float
    trace_time: float
    min_eigenvalue: float
    eigen_time: float


def audit_conservation(traj: DensityTrajectory) -> ConservationReport:
    """Worst trace error and lowest eigenvalue, with the times they occur.

    Every step gets its full spectrum, in one batched call.  Callers
    judge the two values against their own tolerances.
    """
    terr = traj.trace_errors()
    it = int(np.argmax(terr))
    mins = traj.min_eigenvalues()
    ie = int(np.argmin(mins))
    return ConservationReport(
        max_trace_error=float(terr[it]),
        trace_time=float(traj.times[it]),
        min_eigenvalue=float(mins[ie]),
        eigen_time=float(traj.times[ie]),
    )


# contour nodes at least, and their height above the axis, of the
# numeric two-level inversion
_WW_POINTS = 30001
_WW_IM_OFFSET = 1e-6


def wigner_weisskopf(sd: rv.SpectralDensity, omega1, omega2, t):
    """Excited-state population of the zero-temperature two-level atom.

    For a Lorentzian profile the Laplace image closes into a rational
    function with two poles from a quadratic, and the inversion is the
    corresponding pair of exponentials; the profile is treated on the
    whole frequency axis there, accurate when the line center dwarfs
    its width.  Other profiles go through numeric contour inversion of
    the closed two-level image.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("times must be >= 0")
    if sd.total_strength() == 0:
        return np.ones(t.shape)
    w21 = omega2 - omega1
    if sd.family == "Lorentzian":
        strength, center, width = sd.params
        delta = center - w21
        disc = np.sqrt((delta - 1j * width) ** 2 + 4.0 * strength + 0j)
        xp = 0.5 * ((delta - 1j * width) + disc)
        xm = 0.5 * ((delta - 1j * width) - disc)
        res_p = (xp - delta + 1j * width) / (xp - xm)
        res_m = (xm - delta + 1j * width) / (xm - xp)
        amp = res_p * np.exp(-1j * xp * t) + res_m * np.exp(-1j * xm * t)
        return np.abs(amp) ** 2

    gamma_est = max(-rv.correlation_boundary(sd, w21).imag, 1e-6 * sd.frequency_scale())
    span = 1500.0 * gamma_est + 20.0 * sd.frequency_scale()
    npts = max(_WW_POINTS, int(16.0 * span / gamma_est) | 1)
    # the weight jumps at its support edges, which puts log branch
    # points of the image just below the contour; a node near one
    # spoils the trapezoid sum, so the step is shortened until it
    # divides the support and the grid is shifted to put both edges
    # midway between nodes
    lo, hi = (omega1 + x for x in sd.support())
    step = (hi - lo) / math.ceil((hi - lo) * (npts - 1) / (2.0 * span))
    start = lo - step * (round((lo - omega2 + span) / step - 0.5) + 0.5)
    grid = lp.ContourGrid(start, start + (npts - 1) * step, npts, _WW_IM_OFFSET)
    omega = grid.nodes()
    zline = omega + 1j * _WW_IM_OFFSET
    image = 1.0 / (zline - omega2 - rv.correlation_laplace(sd, zline - omega1))
    # the 1/z asymptote carries the t=0 jump; peel off a reference pole
    # with the same asymptote, pushed below the axis so the contour
    # resolves it, and invert that part exactly
    ref_pole = omega2 - 1j * gamma_est
    rest = image - 1.0 / (zline - ref_pole)
    amp = lp.invert(rest, grid, t) + lp.pole_series([ref_pole], [1.0], t)
    return np.abs(amp) ** 2


def channel_pair(gamma, omega_bar, t):
    """Kraus pair of the amplitude-damping channel at time(s) t."""
    if gamma < 0:
        raise ValueError("decay rate must be >= 0")
    t = np.asarray(t, dtype=float)
    M = np.zeros(t.shape + (2, 2), dtype=complex)
    N = np.zeros(t.shape + (2, 2), dtype=complex)
    M[..., 0, 0] = 1.0
    M[..., 1, 1] = np.exp((-gamma + 1j * omega_bar) * t)
    N[..., 0, 1] = np.sqrt(1.0 - np.exp(-2.0 * gamma * t))
    return M, N


def markovian_channel(gamma, omega_bar, rho0, t):
    """Amplitude-damping evolution of ``rho0``; exactly trace preserving."""
    rho0 = np.asarray(rho0, dtype=complex)
    M, N = channel_pair(gamma, omega_bar, t)
    Mh = np.conj(np.swapaxes(M, -1, -2))
    Nh = np.conj(np.swapaxes(N, -1, -2))
    return M @ rho0 @ Mh + N @ rho0 @ Nh
