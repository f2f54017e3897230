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
    initial state.  ``max_residual`` is the worst residual of the leaf
    solves that settle the coupled core of each column's same-column
    couplings, ``max |A x - b| / max(1, max |b|)`` over all leaves; it
    sits at rounding level unless a leaf is close to singular, and it is
    exactly 0.0 when the core is empty, since substitution leaves no
    residual.
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


def _column_groups(K):
    """Order the read entries of a column by the zero pattern of ``K``.

    Entry ``q'`` depends on ``q`` where ``K[m, q', q]`` is nonzero at
    some lag ``m``.  Level 0 holds the entries that depend on none, and
    each later level the entries whose dependencies all lie in earlier
    levels.  Returns ``(levels, core)``: the levels as index arrays, and
    the entries left over, the cycles plus every entry they feed.  Only
    exact zeros count, so an entry is ordered only where its remaining
    coupling is exactly zero.
    """
    dep = np.any(K != 0, axis=0)
    core = np.arange(dep.shape[0])
    levels = []
    while core.size:
        free = ~np.any(dep[np.ix_(core, core)], axis=1)
        if not free.any():
            break
        levels.append(core[free])
        core = core[~free]
    return levels, core


class _CausalSolver:
    """Exact blocked solve of the same-column couplings of a column.

    :func:`solve_bitemporal` builds one only for the coupled core of
    :func:`_column_groups` and substitutes the ordered entries.  Solves
    ``(I - h_e K[0]/2) p_e - sum_{r<e} K[e-r] h_r p_r = g_e`` for
    the read entries ``p_e`` of a column's unknown rows ``e = 0..m-1``
    (counted from the diagonal node).  The weights ``h`` depend only on
    ``e``, so every column shares one matrix, truncated to its ``m``
    rows.  The matrix of a leaf of ``leaf`` rows is block lower
    triangular in its ``P x P`` row blocks.  Each leaf is inverted once
    by one LAPACK call, with the entries above its diagonal blocks then
    set to exactly zero, so the inverse is exactly block lower
    triangular; a ragged leaf is cut on a block boundary, so the leading
    block of the full leaf's inverse inverts it too.  A leaf solve is
    one product with that inverse.  When a leaf ends the left half of a
    node in the implicit binary split of the rows, that half is pushed
    into the right half at once by one FFT convolution of its ``P`` read
    entries (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6
    (1985) 532), so every pair of rows is coupled exactly once.

    Raises
    ------
    SingularOperatorError
        If a self-coupling block ``I - h_e K[0]/2`` is singular.
    """

    def __init__(self, K, h, leaf=None):
        self.K = K
        P = K.shape[1]
        self.leaf = L = leaf or max(4, 128 // P)
        diag = 1.0 - 0.5 * np.outer(h, np.linalg.eigvals(K[0]))
        bad = np.flatnonzero(np.any(np.abs(diag) <= 1e-12, axis=1))
        if bad.size:
            raise SingularOperatorError(
                f"same-column self-coupling is singular at rows j+{bad[0]}, "
                f"j = 1..{K.shape[0] - 1 - bad[0]}"
            )
        # C[(l, q'), (l', q)] = K[l - l'] below the diagonal blocks and
        # K[0]/2 on them; a leaf's matrix is I - C scaled by h per column
        lag = np.subtract.outer(np.arange(L), np.arange(L))
        C = np.where((lag >= 0)[:, :, None, None],
                     K[np.clip(lag, 0, K.shape[0] - 1)], 0.0)
        C[np.arange(L), np.arange(L)] *= 0.5
        C = C.transpose(0, 2, 1, 3).reshape(L * P, L * P)
        self.hu = [np.repeat(h[e0 : e0 + L], P) for e0 in range(0, h.size, L)]
        self.blocks = [np.eye(w.size) - C[: w.size, : w.size] * w for w in self.hu]
        upper = np.repeat(np.repeat(lag < 0, P, axis=0), P, axis=1)
        self.inverses = [np.where(upper[: A.shape[0], : A.shape[0]], 0.0, np.linalg.inv(A))
                         for A in self.blocks]
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
        acc = g.copy()
        u = np.empty_like(acc)
        worst = 0.0
        for b, e0 in enumerate(range(0, m, L)):
            e1 = min(e0 + L, m)
            k = (e1 - e0) * P
            rhs = acc[e0:e1].reshape(-1)
            x = self.inverses[b][:k, :k] @ rhs
            resid = np.abs(self.blocks[b][:k, :k] @ x - rhs).max() / max(1.0, np.abs(rhs).max())
            worst = max(worst, float(resid))
            u[e0:e1] = (self.hu[b][:k] * x).reshape(-1, P)
            if e1 < m:
                span = ((b + 1) & -(b + 1)) * L
                t1 = min(e1 + span, m)
                acc[e1:t1] += self._push(u[e1 - span : e1])[: t1 - e1]
        return u, worst


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
      same FFT.  Once per solve, :func:`_column_groups` orders the read
      entries by the exact zeros of their couplings ``K``.  Each column
      substitutes the ordered entries level by level: a level reads the
      read entries of ``B * Q`` (none where its propagator rows miss the
      written rows) and is then explicit, and its contribution joins the
      spectrum, so the next level's pass reads it too.  Only the coupled
      core, if any, goes through :class:`_CausalSolver`, which solves it
      exactly, including each node's coupling to itself.  The column is
      then its free part ``B[i] rho0 B[j]^dagger`` plus one inverse FFT
      of the full spectrum, which also fills its conjugate row.  The
      outer trapezoid's end weights are the halved source row ``r = 0``
      and the propagator's halved lag 0.

    Only the ``nr`` written rows of the memory term are nonzero, so a
    column's forward FFT carries ``nr dim`` channels, its frequency
    product is ``(dim x nr)`` by ``(nr x dim)``, and only the inverse
    FFT that fills the column carries all ``dim^2``; the read-entry
    passes carry one channel per entry whose propagator row meets a
    written row, one pass per group.  With ``G = sum_e P_e`` and
    ``P_core`` core entries the work is O(n^3 G dim) for the products,
    O(n^2 log n (nr dim + dim^2 + P)) for the column FFTs and
    O(n^2 log^2 n P_core^2) for the column solves.  Besides the field,
    ``(n+1)^2 dim^2`` complex numbers, the solve stores the kernel-weighted
    read entries, ``(n+1)^2 G`` more.  The ``n`` steps and their size
    are those of ``W.grid``.  ``W`` must be the propagator of ``sys``,
    as :func:`kraus.solve_time_domain` returns it: ``W.values[0]`` is
    the identity, and the lag line ``kappa(m dt)``, ``|m| <= n``, is
    read from its kernel samples ``W.kappa`` (``kappa(-tau)`` is
    ``conj kappa(tau)``), not sampled again.

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
    rows = [e for e, _ in feeds]
    nr = len(rows)

    en = np.asarray(sys.energies, dtype=float)
    B = np.exp(-1j * np.outer(tg, en))[:, :, None] * W.values
    line = np.concatenate([np.conj(W.kappa[:0:-1]), W.kappa])
    # KD[s, sp] = kernel((sp - s) dt); a reversed sliding view, no copy
    KD = np.lib.stride_tricks.sliding_window_view(line, n + 1)[::-1]
    # the slot weights into the written rows only: every other row of
    # the memory term is zero
    Wr = Wsl[:, rows, :].reshape(P, nr * dim)

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
        (pd[qs], pa[qs], np.empty((n + 1, n + 1, qs.size), dtype=complex),
         np.einsum("kb,mcb->mkc", Wsl[qs, e], np.conj(B[::-1])))
        for e, qs in feeds
    ]

    def store(r, weight):
        for d, a, Y, _ in cross:
            Y[:, r] = weight[:, None] * xi[:, r, d, a]

    store(0, 0.5 * dt * KD[:, 0])
    # K[m, q', q]: weight of read entry q at lag m in read entry q';
    # h[e]: trapezoid weight of same-column row j + e, for every column j
    K = np.einsum("mpc,qcp->mpq", B[:, pd, :], Wsl[:, :, pa])
    h = 0.5 * dt * dt * line[n:0:-1]
    levels, core = _column_groups(K)
    column = _CausalSolver(K[:, core][:, :, core], h) if core.size else None

    nfft = rv.next_fast_len(2 * n + 1)
    # lag 0 halved: the trapezoid's end node r = i of every source row
    Bh = B[:, :, rows]
    Bh[0] *= 0.5
    fB = np.fft.fft(Bh, nfft, axis=0)
    # per group: its entries, and those whose propagator row meets a
    # written row with their spectra (B * Q is exactly zero elsewhere)
    live = np.any(B[:, pd][:, :, rows] != 0, axis=(0, 2))
    groups = [(q, live[q], fB[:, pd[q[live[q]]], :], pa[q[live[q]]])
              for q in levels + [core] if q.size]
    max_resid = 0.0
    for j in range(1, n + 1):
        # trapezoid weights of the known rows r < j of this column
        hk = 0.5 * dt * dt * KD[:j, j]
        # R, Q and fQ hold the written rows only
        R = np.empty((n + 1, nr, dim), dtype=complex)
        for k, (_, _, Y, Zrev) in enumerate(cross):
            R[:, k] = Y[:, :j].reshape(n + 1, -1) @ Zrev[n - j : n].reshape(-1, dim)
        # Q: the cross-time rows plus the known rows r < j of the
        # same-column sum, with the trapezoid's start node r = 0 halved;
        # the solve needs only read entries of B * Q
        Q = dt * R
        Q[:j] += ((hk[:, None] * xi[:j, j, pd, pa]) @ Wr).reshape(j, nr, dim)
        Q[0] *= 0.5
        fQ = np.fft.fft(Q, nfft, axis=0)
        F = (B[j:].reshape(-1, dim) @ (rho0 @ B[j].conj().T)).reshape(-1, dim, dim)
        u = np.zeros((n + 1, P), dtype=complex)
        for q, sel, fBq, aq in groups:
            g = F[:, pd[q], pa[q]]
            if aq.size:
                g[:, sel] += np.fft.ifft(np.einsum("kpc,kcp->kp", fBq, fQ[:, :, aq]),
                                         axis=0)[j : n + 1]
            if q is core:
                u[j:, q], resid = column.solve(g)
                max_resid = max(max_resid, resid)
            else:
                u[j:, q] = h[: n + 1 - j, None] * g
            # the group's V[r] = sum_q Wsl[q] h_r p_r[q] joins the spectrum
            fQ += (np.fft.fft(u[:, q], nfft, axis=0) @ Wr[q]).reshape(nfft, nr, dim)
        xj = np.fft.ifft(fB @ fQ, axis=0)[j : n + 1]
        xj += F
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
