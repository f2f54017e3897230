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
from .kraus import KrausZero, SingularOperatorError, SystemSpec, propagator_support, step_count

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
    """The equal-time slice of a two-time solve, with its diagnostics.

    The two-time field holds a matrix at every node ``(t_i, t_j)`` of the
    square grid and is Hermitian under exchange of its two times.  Kept
    of it is ``values[i]``, the matrix at ``(t_i, t_i)``, which
    :func:`extract_density` reads (``values[0]`` is the initial state).
    ``max_residual`` is the worst residual ``max |A x - b| / max(1, max
    |b|)`` of the column loop's leaf solves; it sits at rounding level
    unless a leaf is close to singular, and is 0.0 on the other routes.
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
        m = self.matrices
        if m.shape[1] == 2:
            # the closed form; eigvalsh calls LAPACK once per 2 x 2 matrix
            a, d = m[:, 0, 0].real, m[:, 1, 1].real
            return 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(m[:, 1, 0]))
        return np.linalg.eigvalsh(m)[:, 0]


def check_field_size(sys: SystemSpec, rho0, T, dt):
    """Refuse a two-time solve of ``rho0`` whose arrays exceed physical memory.

    Counts what :func:`solve_bitemporal` stores on ``n = T/dt`` steps
    (:func:`_check_plan`).  Call it before the propagator solve to fail
    early.

    Raises
    ------
    ValueError
        If :func:`kraus.step_count` refuses ``T`` and ``dt``.
    StateValidationError
        If ``rho0`` is not a density matrix.
    FieldSizeError
        If those arrays exceed physical memory; carries their byte size.
    """
    n = step_count(T, dt)
    _check_plan(_plan(sys, validate_density(rho0, sys.dim)), sys.dim, n)


def _plan(sys: SystemSpec, rho0, W=None):
    """One two-time solve's analysis of the slot table, and its route.

    ``nz`` marks the entries of ``B`` that can be nonzero: those of
    :func:`kraus.propagator_support`, or all for a ``W`` off its table.
    ``R[d, a, q]`` marks where read entry ``q`` can carry memory: where
    a term ``B[d, e] Wsl[q, e, c] conj B[a, c]`` can be nonzero.  It
    drops the read entries outside the closure of ``rho0``
    (:func:`_reachable`) and orders the kept ones (:func:`_column_groups`):
    ``q'`` depends on ``q`` if ``q`` reaches ``(pd[q'], pa[q'])`` or its
    transpose.  Then come the written rows, the channels and the route
    (see :func:`solve_bitemporal`).  Returns ``(route, nz, pd, pa, Wsl,
    R, levels, feeds, channels)``, with ``R`` over the kept entries.
    """
    slots = sys.kernel.slots
    nz = propagator_support(slots, sys.dim)
    if W is not None and np.any(W.values[:, ~nz]):
        nz = np.ones_like(nz)
    pd, pa, Wsl = _slot_pairs(sys)
    # one product per read entry, O(E dim^3), in floats for BLAS
    b = nz.astype(float)
    R = (b @ (Wsl != 0) @ b.T > 0).transpose(1, 2, 0)
    keep = _reachable(nz, rho0, R, pd, pa)[pd, pa]
    pd, pa, Wsl, R = pd[keep], pa[keep], Wsl[keep], R[:, :, keep]
    levels, core = _column_groups((R[pd, pa] | R[pa, pd])[None])
    feeds = _feeds(Wsl)
    rows = [e for e, _ in feeds]
    channels = _channels(Wsl, rows, nz)
    # rows of W that no live slot writes: rows of the identity
    steady = np.ones(sys.dim, dtype=bool)
    steady[slots[nz[slots[:, 1], slots[:, 2]], 0]] = False
    decay = (len(levels) <= 1 and steady[rows].all() and steady[channels[1]].all()
             and (np.count_nonzero(nz[:, rows], axis=0) == 1).all())
    route = "column" if core.size else "decay" if decay else "level"
    return route, nz, pd, pa, Wsl, R, levels, feeds, channels


def _check_plan(plan, dim, n):
    """Raise FieldSizeError if what ``plan`` stores on ``n`` steps exceeds memory.

    The decay route stores ``3 (n+1) dim^2 + 4 N P dim`` complex
    numbers: the slice, two more arrays of its size for the free part,
    and four lines of FFT length ``N`` per (read entry, channel) pair.
    The others store ``(n+1)^2 (E + extra) + (n+1) dim^2``: the ``E``
    kept read entries and ``extra`` more arrays on the square, and the
    slice.  ``extra`` is the ``X`` source channels of the level route,
    or the ``G`` kernel-weighted read entries of the column loop, one
    per (written row, read entry) pair.
    """
    route, _, pd, _, Wsl, _, _, feeds, (ech, _) = plan
    if route == "decay":
        count = 3 * (n + 1) * dim ** 2 + 4 * rv.next_fast_len(2 * n) * np.count_nonzero(Wsl) * dim
    else:
        extra = ech.size if route == "level" else sum(qs.size for _, qs in feeds)
        count = (n + 1) ** 2 * (pd.size + extra) + (n + 1) * dim ** 2
    nbytes = count * np.dtype(complex).itemsize
    try:
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if phys > 0 and nbytes > phys:
        raise FieldSizeError(
            f"two-time solve on {n + 1} x {n + 1} nodes of {dim}x{dim} "
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
    pairs, q = np.unique(id_ * sys.dim + ia, return_inverse=True)
    Wsl = np.zeros((len(pairs), sys.dim, sys.dim), dtype=complex)
    np.add.at(Wsl, (q, ic, ib), sys.kernel.weights)
    return pairs // sys.dim, pairs % sys.dim, Wsl


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

    :func:`_column_loop` builds one over every kept read entry.  Solves
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
    """Integrate the two-time equation on ``W.grid``; return its equal-time slice.

    The free phases are absorbed into the propagator columns ``B(t) =
    e^{-iHt} W(t)``, which turns the memory term into causal
    convolutions; the slots act only through the entries they read and
    their summed weights.  Node ``(i, j)``, ``i >= j``, is its free part
    ``B[i] rho0 B[j]^dagger`` plus the trapezoid double sum over the
    inner times ``t_r'``, ``r' <= j``, and the outer times ``t_i'``,
    ``i' <= i``, of the read entries at ``(i', r')``; the outer sum's
    end weights are the halved source row ``i' = 0`` and the
    propagator's halved lag 0.  The other triangle is the adjoint.

    Only the ``E`` read entries that ``rho0`` can make nonzero are kept
    (:func:`_plan`).  The *decay route* (:func:`_decay_route`) runs when
    they form at most one level and every written row and channel
    column is a row of ``W`` that no live slot writes, reached by no
    other row: slots that feed only states that never decay, as in the
    radiative two-level atom and every generic decay system.  It forms
    the slice alone in O(n log n) work per read entry.  The other
    two start from the free parts of the read entries on the whole
    square and of the slice (:func:`_free_part`), add the memory in the
    frame of ``B``, share one spectrum of the written rows of ``B``, and
    apply the phases ``e^{iHt}`` once.  The *level route*
    (:func:`_level_solve`), for read entries without a cycle (the dressed
    Jaynes-Cummings ladder), is explicit level by level, O(n^2 log n (E
    + X)) work.  The *column loop* (:func:`_column_loop`), for a thermal
    absorption-emission pair or a slot that reads the entry it writes,
    is one blocked solve per column, O(n^3 G dim + n^2 log^2 n E^2) work.

    ``W`` must be the propagator of ``sys`` as
    :func:`kraus.solve_time_domain` returns it: its grid gives the
    steps, ``W.values[0]`` is the identity, and its kernel samples
    ``W.kappa`` give the lag line (``kappa(-tau) = conj kappa(tau)``).
    A ``W`` with a nonzero entry that the slot table says is zero at
    every step keeps every read entry, and any slot then takes the
    column loop.

    Raises
    ------
    StateValidationError
        If ``rho0`` is not a density matrix.
    FieldSizeError
        If the stored arrays would exceed physical memory.
    SingularOperatorError
        If a block of a column's same-column system is singular; the
        message names its rows.
    """
    rho, _, max_resid = _solve(sys, W, rho0)
    return BitemporalState(grid=W.grid, values=rho, max_residual=max_resid)


def _solve(sys: SystemSpec, W: KrausZero, rho0):
    """:func:`solve_bitemporal` as ``(rho, (pd, pa, S), max_residual)``, with
    ``S[i, j, k]`` read entry ``(pd[k], pa[k])`` at ``(t_i, t_j)``, or
    ``None`` on the decay route."""
    dim = sys.dim
    rho0 = validate_density(rho0, dim)
    tg = W.grid
    n = tg.shape[0] - 1
    dt = tg[1] - tg[0]
    plan = _plan(sys, rho0, W)
    _check_plan(plan, dim, n)
    route, _, pd, pa, _, _, _, feeds, _ = plan
    en = np.asarray(sys.energies, dtype=float)
    if route == "decay":
        return _decay_route(W, en, rho0, plan), (pd, pa, None), 0.0

    B = np.exp(-1j * np.outer(tg, en))[:, :, None] * W.values
    line = np.concatenate([np.conj(W.kappa[:0:-1]), W.kappa])
    # KD[s, sp] = kernel((sp - s) dt); a reversed sliding view, no copy
    KD = np.lib.stride_tricks.sliding_window_view(line, n + 1)[::-1]
    rho, S = _free_part(B, rho0, pd, pa)
    # the written rows of B with lag 0 halved, the outer trapezoid's end
    # node i' = i; index 2n of a convolution with their spectrum wraps
    # onto index 0, which no column j >= 1 reads
    Bh = B[:, :, [e for e, _ in feeds]]
    Bh[0] *= 0.5
    fB = np.fft.fft(Bh, rv.next_fast_len(2 * n), axis=0)
    if route == "column":
        max_resid = _column_loop(rho, S, B, fB, KD, dt, plan)
    else:
        _level_solve(rho, S, B, Bh, fB, KD, dt, plan)
        max_resid = 0.0
    # from the B frame to the final one, ph[i] (B frame) conj ph[j]
    ph = np.exp(1j * np.outer(tg, en))
    rho *= ph[:, :, None]
    rho *= np.conj(ph)[:, None, :]
    S *= ph[:, None, pd]
    S *= np.conj(ph[:, pa])
    return rho, (pd, pa, S), max_resid


def _decay_route(W, en, rho0, plan):
    """Equal-time slice of a decay system, with no square stored.

    Every kept read entry ``(d, a)`` is its free part, and ``B`` is the
    phase ``e^{-iE_e t}`` in the column of each written row ``e`` and
    the row of each channel column ``c``.  So the memory at ``(t_j,
    t_j)`` in entry ``(e, c)`` is ``sum_q Wsl[q, e, c] T_q(j)``, with
    ``T_q(j) = sum_{i', r' <= j} w_i' w_r' kappa((r' - i') dt) f(i')
    rho0 g(r')^dagger``, ``f(i') = dt e^{-i(E_d - E_e) t_i'} W[i', d]``,
    ``g`` the same of ``(a, c)`` and ``w`` the trapezoid weights of
    ``[0, t_j]``: per pair a cumulative sum of increments from two causal
    FFT convolutions, ``sum_{i' < j} f(i') kappa((j - i') dt)`` and that
    of ``g``.  For ``g = f`` the form is real, from one convolution: the
    refill of a radiative two-level atom, nonnegative for a real
    nonnegative weight (Bochner's theorem).
    """
    _, nz, pd, pa, Wsl, _, _, _, _ = plan
    Wv, tg = W.values, W.grid
    n = tg.shape[0] - 1
    dt = tg[1] - tg[0]
    rho = _free_part(Wv, rho0, pd[:0], pa[:0])[0]
    q, e, c = np.nonzero(Wsl)
    if not q.size:
        return rho
    nfft = rv.next_fast_len(2 * n)
    kline = W.kappa.copy()
    k0 = kline[0].real
    kline[0] = 0.0  # C_f(j) sums the nodes before j only
    fk = np.fft.fft(kline, nfft)

    def factor(row, col):
        # x[p, k, j] = f(t_j)_k, halved at j = 0, on the columns k that can be nonzero
        cols = np.flatnonzero(nz[row].any(axis=0))
        x = dt * Wv[:, row][:, :, cols].transpose(1, 2, 0)
        x *= np.exp(-1j * np.outer(en[row] - en[col], tg))[:, None, :]
        x[:, :, 0] *= 0.5
        return x, cols

    def conv(x):
        spec = np.fft.fft(x[:, :, :n], nfft)
        spec *= fk
        return np.fft.ifft(spec)[:, :, : n + 1]

    def form(x, r, y):  # x(t_j) r y(t_j)^dagger per pair
        return (np.matmul(r.T, x) * np.conj(y)).sum(axis=1)

    d, a = pd[q], pa[q]
    herm = (d == a) & (e == c)
    f, fc = factor(d, e)
    g, gc = (f, fc) if herm.all() else factor(a, c)
    r = rho0[np.ix_(fc, gc)]
    p0 = form(f, r, g)
    p1 = form(conv(f), r, g)
    # for g = f the form is real and its two cross terms are conjugates
    p0[herm] = p0[herm].real
    p1[herm] = 2.0 * p1[herm].real
    if not herm.all():
        p1[~herm] += form(f[~herm], r, conv(g[~herm]))
    T = np.zeros_like(p0)
    np.cumsum(k0 * p0[:, :-1] + p1[:, :-1], axis=1, out=T[:, 1:])
    T += 0.5 * p1 + 0.25 * k0 * p0
    T[:, 0] = 0.0
    np.add.at(rho, (slice(None), e, c), (Wsl[q, e, c][:, None] * T).T)
    return rho


def _free_part(V, rho0, pd, pa):
    """Free part ``V[i] rho0 V[j]^dagger`` of the slice and the read entries.

    Returns ``(rho, S)``: ``rho[j]`` at ``(t_j, t_j)``, and ``S[i, j,
    k]`` read entry ``(pd[k], pa[k])`` at ``(t_i, t_j)`` on the whole
    square, whose upper triangle is the adjoint of the transposed
    entry's lower one.
    """
    n1 = V.shape[0]
    # the slice time last, rho[d, a, j], summed over k by broadcasting;
    # a stacked @ would call BLAS once per time
    Vt = V.transpose(1, 2, 0)
    X = np.matmul(rho0.T, Vt)
    rho = np.zeros(X.shape, dtype=complex)
    for k in range(X.shape[1]):
        rho += X[:, None, k] * np.conj(Vt[None, :, k])
    rho = rho.transpose(2, 0, 1)
    S = np.empty((n1, n1, pd.size), dtype=complex)
    if pd.size:
        RW = rho0 @ np.conj(np.swapaxes(V, 1, 2))
        low = np.tri(n1, dtype=bool)
        for k, (d, a) in enumerate(zip(pd, pa)):
            # F[i, j] = V[i, d] rho0 V[j, a]^dagger
            F = V[:, d] @ RW[:, :, a].T
            Ft = F if d == a else V[:, a] @ RW[:, :, d].T
            S[:, :, k] = np.where(low, F, np.conj(Ft.T))
        # the slice takes the squares' diagonal, so the two agree exactly
        idx = np.arange(n1)
        rho[:, pd, pa] = S[idx, idx]
    return rho, S


def _reachable(nz, rho0, R, pd, pa):
    """Field entries that ``rho0`` can make nonzero at some node.

    The free part ``B[i] rho0 B[j]^dagger`` is exactly zero off the
    pattern ``nz supp(rho0) nz^T``, and its adjoint off the transposed
    pattern.  The read entries in the pattern carry memory into the
    entries ``R`` marks (:func:`_plan`), and the adjoint adds the
    transposed ones; grown so to its fixed point, the pattern holds
    every entry that can be nonzero on the whole square.
    """
    supp = (rho0 != 0) | (rho0.T != 0)
    grown = nz @ supp @ nz.T
    pattern = None
    while not np.array_equal(pattern, grown):
        pattern = grown
        reach = R[:, :, pattern[pd, pa]].any(2)
        grown = pattern | reach | reach.T
    return pattern


# complex numbers in one transient block of the level route
_BLOCK = 1 << 14


def _level_solve(rho, S, B, Bh, fB, KD, dt, plan):
    """Add the memory to ``rho`` and ``S``, level by level of read entries.

    ``Bh`` are the written rows of ``B`` with lag 0 halved, and ``fB``
    their spectrum.  For each level after the first, the memory of the
    entries ``(pd, pa)`` and ``(pa, pd)`` of its read entries in the
    rows ``i >= j`` of all columns at once is added straight into the
    lower triangle of the squares of those that are read, the upper
    triangle of the squares of their transposes, and the slice.  Each
    level's squares, a block of rows at a time, then join the source
    rows ``Q[j, i'] = sum_q sum_{r' <= j} (weights) kernel((r' - i') dt)
    xi[i', r']_q Wsl[q] conj B[j - r']^T``, kept in the ``X`` channels
    (written row, column) that can be nonzero (:func:`_channels`), with
    the node ``r' = j`` at half weight.  Last, every other entry that
    the memory reaches gets its memory on the slice only, as the direct
    lag sum ``sum_{i' <= j} B[j - i'] Q[j, i']``.  An entry that no read
    entry feeds keeps its free part exactly, and the levels fill an
    entry only once every read entry that feeds it is in ``Q``.
    """
    _, _, pd, pa, Wsl, R, levels, feeds, (ech, cch) = plan
    X = ech.size
    n1, dim = B.shape[:2]
    nfft = fB.shape[0]
    rows = [e for e, _ in feeds]
    # at[d, a]: index of read entry (d, a) in S, -1 if it is not read
    at = np.full((dim, dim), -1)
    at[pd, pa] = np.arange(pd.size)
    # Q[j, i', x]: source row i' of column j in channel x
    Q = np.zeros((n1, n1, X), dtype=complex)

    def fill(d, a):
        # add the memory of entries (d, a) in the rows i >= j of columns j >= 1
        M = (fB[:, d][:, :, ech] * (cch == a[:, None])).swapaxes(1, 2)
        own, adj = at[d, a], at[a, d]
        to, ta = own >= 0, adj >= 0
        width = max(1, _BLOCK // (nfft * max(X, d.size)))
        for j0 in range(1, n1, width):
            j1 = min(j0 + width, n1)
            fQ = np.fft.fft(Q[j0:j1], nfft, axis=1).swapaxes(0, 1)
            # mem[i - j0, j - j0], the memory at (i, j) where i >= j
            mem = np.fft.ifft(fQ @ M, axis=0)[j0:n1]
            diag = np.arange(j1 - j0)
            mem[np.triu_indices(j1 - j0, 1)] = 0.0
            rho[j0:j1, d, a] += mem[diag, diag]
            S[j0:, j0:j1, own[to]] += mem[:, :, to]
            mem[diag, diag] = 0.0
            S[j0:j1, j0:, adj[ta]] += np.conj(mem[:, :, ta]).swapaxes(0, 1)

    def source(q):
        # Q += what the read entries q put into the channels
        Wq = Wsl[q][:, rows][:, ech]
        fG = np.fft.fft(np.einsum("qxb,mxb->mqx", Wq, np.conj(B[:, cch])), nfft, axis=0)
        Wq = Wq[:, np.arange(X), cch]
        rb = max(1, _BLOCK // (nfft * max(q.size, X)))
        for i0 in range(0, n1, rb):
            i1 = min(i0 + rb, n1)
            # read entries, kernel-weighted, with the inner trapezoid's
            # start node r' = 0 halved
            f = S[i0:i1, :, q] * KD[i0:i1, :, None]
            f[:, 0] *= 0.5
            ff = np.fft.fft(f, nfft, axis=1).swapaxes(0, 1)
            part = np.fft.ifft(ff @ fG, axis=0)[1:n1]
            # the end node r' = j at half weight; conj B[0] is the identity
            part -= 0.5 * (f[:, 1:] @ Wq).swapaxes(0, 1)
            part *= dt * dt
            if i0 == 0:
                part[:, 0] *= 0.5  # the outer trapezoid's start node i' = 0
            Q[1:, i0:i1] += part

    # done: entries that hold their final value; those the memory never
    # reaches, and level 0 entries, keep their free part
    done = ~R.any(2)
    for lv, q in enumerate(levels):
        todo = np.zeros((dim, dim), dtype=bool)
        todo[pd[q], pa[q]] = todo[pa[q], pd[q]] = True
        todo &= ~done
        if lv and todo.any():
            fill(*np.nonzero(todo))
        done |= todo
        for qc in np.array_split(q, -(-q.size * nfft * X // _BLOCK)):
            source(qc)

    # every other entry the memory reaches, at i = j only
    d, a = np.nonzero(~done)
    if d.size:
        Bx = Bh[:, d][:, :, ech]
        pick = cch[:, None] == a
        width = max(1, _BLOCK // (n1 * X))
        for j0 in range(1, n1, width):
            j = np.arange(j0, min(j0 + width, n1))
            # Qr[j, m] = Q[j, j - m], the source row at lag m
            lag = j[:, None] - np.arange(n1)
            Qr = np.where((lag >= 0)[:, :, None], Q[j[:, None], np.maximum(lag, 0)], 0.0)
            mem = np.einsum("jmx,mtx->jtx", Qr, Bx)
            rho[j[:, None], d, a] += np.einsum("jtx,xt->jt", mem, pick)


def _channels(Wsl, rows, nz):
    """Channels of the memory term that can be nonzero.

    Channel ``x`` is the pair (written row ``rows[ech[x]]``, column
    ``cch[x]``) for which some read entry ``q`` has ``Wsl[q, e, b] !=
    0`` with ``B[c, b]`` not zero at every step (``nz``); every other
    channel of the source rows is exactly zero.
    """
    live = ((Wsl[:, rows] != 0).any(axis=0).astype(int) @ nz.T.astype(int)) > 0
    return np.nonzero(live)


def _column_loop(rho, S, B, fB, KD, dt, plan):
    """Add the memory to ``rho`` and ``S``, column by column.

    Per column ``j``: the cross-time rows ``Y[:, :j] @ Zrev``, the known
    rows ``r < j`` of the same-column sum, one forward FFT of the
    written rows ``Q``, one blocked solve of every kept read entry
    (:class:`_CausalSolver`), and one inverse FFT whose memory joins the
    slice at ``t_j``, the read entries of column ``j`` and their
    adjoints in row ``j``.  Returns the worst leaf residual.
    """
    _, _, pd, pa, Wsl, _, _, feeds, _ = plan
    n = B.shape[0] - 1
    dim = B.shape[1]
    P = pd.size
    nr = len(feeds)
    # the slot weights into the written rows only: every other row of
    # the memory term is zero
    Wr = Wsl[:, [e for e, _ in feeds], :].reshape(P, nr * dim)
    # the cross-time sum by written row e: Y[i, r, k] = KD[i, r] tw_r
    # S[i, r, qs[k]] is stored as each column r is finished (tw:
    # trapezoid weight, halved at r = 0), and Zrev[n - m, k, c] =
    # sum_b Wsl[qs[k], e, b] conj(B[m, c, b]), so that a column's lags
    # m = j..1 are the contiguous block Zrev[n - j : n]
    cross = [
        (qs, np.empty((n + 1, n + 1, qs.size), dtype=complex),
         np.einsum("kb,mcb->mkc", Wsl[qs, e], np.conj(B[::-1])))
        for e, qs in feeds
    ]

    def store(r, weight):
        for qs, Y, _ in cross:
            Y[:, r] = weight[:, None] * S[:, r, qs]

    store(0, 0.5 * dt * KD[:, 0])
    # K[m, q', q]: weight of read entry q at lag m in read entry q';
    # h[e]: trapezoid weight of same-column row j + e, for every column j
    K = np.einsum("mpc,qcp->mpq", B[:, pd, :], Wsl[:, :, pa])
    column = _CausalSolver(K, 0.5 * dt * dt * KD[:n, 0])

    nfft = fB.shape[0]
    fBp = fB[:, pd]
    max_resid = 0.0
    for j in range(1, n + 1):
        # trapezoid weights of the known rows r < j of this column
        hk = 0.5 * dt * dt * KD[:j, j]
        # R, Q and fQ hold the written rows only
        R = np.empty((n + 1, nr, dim), dtype=complex)
        for k, (_, Y, Zrev) in enumerate(cross):
            R[:, k] = Y[:, :j].reshape(n + 1, -1) @ Zrev[n - j : n].reshape(-1, dim)
        # Q: the cross-time rows plus the known rows r < j of the
        # same-column sum, with the trapezoid's start node r = 0 halved;
        # the solve needs only read entries of B * Q
        Q = dt * R
        Q[:j] += ((hk[:, None] * S[:j, j]) @ Wr).reshape(j, nr, dim)
        Q[0] *= 0.5
        fQ = np.fft.fft(Q, nfft, axis=0)
        g = S[j:, j] + np.fft.ifft(np.einsum("kpc,kcp->kp", fBp, fQ[:, :, pa]),
                                   axis=0)[j : n + 1]
        u = np.zeros((n + 1, P), dtype=complex)
        u[j:], resid = column.solve(g)
        max_resid = max(max_resid, resid)
        # V[r] = sum_q Wsl[q] h_r p_r[q] joins the spectrum
        fQ += (np.fft.fft(u, nfft, axis=0) @ Wr).reshape(nfft, nr, dim)
        # mem[m]: the memory at (t_{j+m}, t_j)
        mem = np.fft.ifft(fB @ fQ, axis=0)[j : n + 1]
        rho[j] += mem[0]
        S[j:, j] += mem[:, pd, pa]
        S[j, j + 1 :] += np.conj(mem[1:, pa, pd])
        store(j, dt * KD[:, j])

    return max_resid


def extract_density(xi: BitemporalState) -> DensityTrajectory:
    """Equal-time slice of the two-time field, Hermitized.

    The anti-Hermitian residue is averaged away and its maximum norm
    kept as ``herm_residual``.
    """
    diag = xi.values
    adj = np.conj(np.swapaxes(diag, 1, 2))
    herm = 0.5 * float(np.max(np.abs(diag - adj)))
    return DensityTrajectory(times=xi.grid, matrices=0.5 * (diag + adj),
                             herm_residual=herm)


def two_level_trajectory(sys: SystemSpec, W: KrausZero, rho0) -> DensityTrajectory:
    """Density trajectory of ``rho0``: the slice of :func:`solve_bitemporal`.

    A radiative two-level atom takes the decay route, whose memory is the
    ground state's refill (:func:`_decay_route`).
    """
    return extract_density(solve_bitemporal(sys, W, rho0))


@dataclass(frozen=True)
class ConservationReport:
    """Worst trace and positivity violations over a trajectory."""

    max_trace_error: float
    trace_time: float
    min_eigenvalue: float
    eigen_time: float


def audit_conservation(traj: DensityTrajectory) -> ConservationReport:
    """Worst trace error and lowest eigenvalue, with the times they occur.

    Every step gets its lowest eigenvalue, in closed form on two levels
    and from one batched call otherwise.  Callers judge the two values
    against their own tolerances.
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
    """Amplitude-damping evolution of ``rho0``; exactly trace preserving.

    ``M rho0 M^dagger + N rho0 N^dagger`` from the nonzero entries of
    :func:`channel_pair`: ``M[0, 0] = 1``, ``m = M[1, 1]``, ``s = N[0, 1]``.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    M, N = channel_pair(gamma, omega_bar, t)
    m, s = M[..., 1, 1], N[..., 0, 1]
    rho = np.empty(np.broadcast_shapes(M.shape, rho0.shape), complex)
    rho[..., 0, 0] = rho0[..., 0, 0] + s * rho0[..., 1, 1] * s
    rho[..., 0, 1] = rho0[..., 0, 1] * np.conj(m)
    rho[..., 1, 0] = m * rho0[..., 1, 0]
    rho[..., 1, 1] = m * rho0[..., 1, 1] * np.conj(m)
    return rho
