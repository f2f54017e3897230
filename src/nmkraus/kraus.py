"""Lowest-order effective propagator of a reservoir-coupled system.

The system part of the reduced dynamics is carried by a single matrix
amplitude W(t) with W(0) = I.  In the interaction picture it solves a
nonlinear Volterra equation

    d/dt W(t)_kl = - sum_(k,m,n,j) w_slot int_0^t dtau
        e^{i(w_k - w_j) t} e^{i(w_j - w_m) tau} kappa(tau)
        W(tau)_mn W(t - tau)_jl,

where the slot sum runs over the nonzero entries of the correlation
table and kappa is the scalar reservoir kernel.  Equivalently, the
row-shifted Laplace image solves

    delta_kl = sum_j [ (z - w_k) delta_kj + S(z)_kj ] What(z)_jl,
    S(z)_kj  = - sum_(k,m,n,j) w_slot int_0^inf domega |g(omega)|^2
               What(z - omega)_mn               (zero temperature),

which is closed under downward shifts of z and is solved by functional
iteration starting from the free resolvent.  Both solvers are exposed
and cross-checked against each other.

The time-domain solver integrates with the product trapezoid rule.
When the reads of written rows form no cycle, the written rows fall
into levels that read only unwritten rows and rows of earlier levels,
as the rungs of the Jaynes-Cummings ladder do.  Once the earlier levels
are known, a level's discretisation is one lower-triangular
block-Toeplitz system, solved for all steps at once by a division of
matrix power series (Newton iteration on FFT products):
O(n log n nr^3) for nr rows in a level.  Only a read cycle (a thermal
absorption-emission pair, a slot that reads its own row) takes a step
loop: because W(0) = I, the implicit update of each step is linear in
the new sample, so a step is one exact dim^2 x dim^2 linear solve
(operators inverted in batches ahead of the steps) after one
contraction for the memory sum over earlier samples: O(n^2 S dim)
with S slots, plus O(n dim^6) for the step operators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import reservoir as rv

__all__ = [
    "SystemSpec",
    "KrausZero",
    "LaplaceKraus",
    "SingularOperatorError",
    "LineResolutionError",
    "solve_time_domain",
    "step_count",
    "propagator_support",
    "laplace_inverse_identity",
    "solve_continued_fraction",
    "weak_coupling_limit",
]


class SingularOperatorError(ArithmeticError):
    """Raised when a linear solve is ill-conditioned (cond > 1e12)."""


class LineResolutionError(ValueError):
    """A contour line would need more points than the solver allows.

    Carries the requested point count as ``npts``.
    """

    def __init__(self, message, npts):
        super().__init__(message)
        self.npts = npts


@dataclass(frozen=True)
class SystemSpec:
    """Retained system eigenstates and their reservoir coupling table.

    Parameters
    ----------
    energies : sequence of float
        Eigenfrequencies w_k, ascending.  State labels in the index rule
        of ``reservoir.kernel_table`` count from 1 in this order; the
        kernel stores them from 0.
    kernel : reservoir.CorrelationKernel
        Indexed pair correlation table; slot (k, m, n, l) couples row k
        to column l through the intermediate pair (m, n).

    Raises
    ------
    ValueError
        If the energies are not finite and ascending, or a slot names a
        state outside ``1..dim``.
    """

    energies: tuple
    kernel: rv.CorrelationKernel

    def __post_init__(self):
        en = np.asarray(self.energies, dtype=float)
        if en.ndim != 1 or en.size < 1:
            raise ValueError("energies must be a nonempty vector")
        if not np.all(np.isfinite(en)):
            raise ValueError("energies must be finite")
        if np.any(np.diff(en) < 0):
            raise ValueError("energies must be sorted ascending")
        object.__setattr__(self, "energies", tuple(float(x) for x in en))
        slots = self.kernel.slots
        bad = np.flatnonzero(np.any((slots < 0) | (slots >= en.size), axis=1))
        if bad.size:
            idx = tuple(int(i) + 1 for i in slots[bad[0]])
            raise ValueError(f"slot {idx} outside state labels 1..{en.size}")

    @property
    def dim(self):
        return len(self.energies)


@dataclass(frozen=True)
class KrausZero:
    """Time-sampled propagator amplitude with solver diagnostics.

    ``grid`` is uniform, starts at 0 and has at least one step, to
    1e-9 of its final time; the solvers that read the amplitude take
    their step from it.  ``max_residual`` is the scaled residual
    ``max |A x - b| / max(1, max |b|)`` of :func:`solve_time_domain`:
    on the series route the worst over its levels' power-series systems
    ``D V = N``, on the step loop the worst over the step solves.
    ``picard_iters`` is always 0, since no step iterates; the field
    stays because benchmark tracing reads it.  ``kappa`` holds the
    scalar kernel samples ``kernel.on_grid(grid)`` that the solve
    integrated, so that the two-time solve, on any route, does not
    sample the same kernel again.

    Raises
    ------
    ValueError
        If the grid is not uniform from 0 with at least one step, or
        ``kappa`` does not hold one sample per grid point.
    """

    grid: np.ndarray
    values: np.ndarray
    max_residual: float
    picard_iters: int
    kappa: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.grid, dtype=float)
        n = t.size - 1
        if t.ndim != 1 or n < 1 or not t[-1] > 0:
            raise ValueError("propagator grid needs at least one positive step")
        dev = np.max(np.abs(t - np.arange(n + 1) * (t[-1] / n)))
        if not dev <= 1e-9 * t[-1]:
            raise ValueError("propagator grid must be uniform and start at 0")
        if np.shape(self.kappa) != t.shape:
            raise ValueError("kappa must hold one kernel sample per grid point")


def _step_inverses(A, first, t, note=""):
    """Inverses of the step operators ``A[b]`` of steps ``first + b``.

    Raises
    ------
    SingularOperatorError
        If an operator is singular or its condition estimate exceeds
        1e12; the message names the first such step, followed by ``note``.
    """
    try:
        inv = np.linalg.inv(A)
        est = np.linalg.norm(A, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2))
    except np.linalg.LinAlgError:
        est = np.linalg.cond(A)
    bad = np.flatnonzero(~(est <= 1e12))
    if bad.size:
        i = first + int(bad[0])
        raise SingularOperatorError(
            f"step operator is singular at step {i} (t = {t[i]:.6g}, "
            f"cond estimate {est[bad[0]]:.3e}){note}"
        )
    return inv


_MAX_STEPS = 2_000_000


def step_count(T, dt):
    """Steps ``n = T/dt`` over ``[0, T]``: the one step rule of the solvers.

    Raises
    ------
    ValueError
        If ``dt <= 0``, ``T/dt`` is not a finite count ``>= 0``, ``T``
        covers no step, ``n`` exceeds 2,000,000, or ``T`` is not a whole
        number of steps to 1e-9 of ``max(T, 1)``.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    steps = float(T) / float(dt)
    if not 0 <= steps < np.inf:
        raise ValueError(f"T/dt = {steps:g} is not a finite count of steps >= 0")
    n = int(round(steps))
    if n < 1:
        raise ValueError("T must cover at least one step")
    if n > _MAX_STEPS:
        raise ValueError(f"T/dt = {n} exceeds the cap of {_MAX_STEPS} steps")
    if abs(n * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"T = {T:g} is not a whole number of steps dt = {dt:g}")
    return n


def solve_time_domain(sys: SystemSpec, T, dt) -> KrausZero:
    """Product-trapezoid Volterra integration of the amplitude equation.

    The slot table selects one of two routes, which solve the same
    discrete equations.  A slot is live unless the entry ``W_mn`` it
    reads is zero at every step, as the table shows
    (:func:`propagator_support`).

    *Series route*, when the reads of written rows by live slots form no
    cycle: the written rows are solved level by level, each level as one
    division of matrix power series over its rows (``_series_solve``):
    O(n log n nr^3) for nr rows in a level, with no per-step Python
    work.  A slot set that reads no written row is one level; the
    dressed Jaynes-Cummings ladder has one level per photon rung.

    *Step loop* when such a read cycle exists (``_step_loop``), as for a
    thermal absorption-emission pair or a slot that reads its own row:
    O(n^2 S dim) for the history sums with S slots, plus O(n dim^6) for
    the step operators.

    Parameters
    ----------
    sys : SystemSpec
    T, dt : float
        Final time and uniform step, as :func:`step_count` accepts them.

    Returns
    -------
    KrausZero
        ``max_residual`` is the worst ``max |A x - b| / max(1, max |b|)``
        over the route's linear systems: the levels' series systems, or
        the step solves; ``picard_iters`` is 0, since nothing iterates to
        a fixed point; ``kappa`` is the kernel on the grid.

    Raises
    ------
    ValueError
        If :func:`step_count` refuses ``T`` and ``dt``.
    SingularOperatorError
        If a step operator is singular; the message names the step
        (always step 1 on the series route, whose step operator does not
        depend on the step) and, when the series route has several
        levels, the written rows (1-based) of the singular level.
    """
    n = step_count(T, dt)
    t = np.arange(n + 1) * dt
    kappa = sys.kernel.on_grid(t)
    live, levels = _levels(sys.kernel.slots, sys.dim)
    if levels is None:
        W, worst = _step_loop(sys, t, kappa)
    else:
        W, worst = _series_solve(sys, t, kappa, live, levels)
    return KrausZero(t, W, worst, 0, kappa)


def _series_product(a, b, size, nfft=None):
    """First ``size`` coefficients of the product of matrix power series.

    ``a`` is ``(la, p, q)`` and ``b`` is ``(lb, q, r)``, coefficients
    along axis 0; the product is one batched matmul of their FFTs.  The
    default FFT length wraps nothing around.  A series whose
    coefficients are all exactly zero has an exactly zero FFT, so an
    entry that only such series reach stays exactly zero.
    """
    if nfft is None:
        nfft = rv.next_fast_len(len(a) + len(b) - 1)
    fa = np.fft.fft(a, nfft, axis=0)
    fb = np.fft.fft(b, nfft, axis=0)
    return np.fft.ifft(fa @ fb, axis=0)[:size]


def _series_inverse(D, t, note=""):
    """Inverse of the matrix power series ``D`` to ``len(D)`` coefficients.

    Newton iteration ``g <- g - g (D g - I)`` doubles the number of
    correct coefficients each pass, about log2 n passes of two FFT
    products; the known coefficients of ``g`` are never rewritten.
    ``D[0]`` is inverted by :func:`_step_inverses` as step 1, whose
    error message ends with ``note``.
    """
    g = _step_inverses(D[:1], 1, t, note)
    size = 1
    while size < len(D):
        new = min(2 * size, len(D))
        # D g - I vanishes below z^size: only coefficients size..new-1 of
        # D[:new] g are read, and a length-new FFT wraps the product's
        # tail onto the unread ones
        e = _series_product(D[:new], g, new, rv.next_fast_len(new))[size:]
        g = np.concatenate([g, -_series_product(g[: new - size], e, new - size)])
        size = new
    return g


def propagator_support(slots, dim):
    """Entries of the propagator ``W`` that the slot table lets be nonzero.

    Entry ``(m, l)`` of ``W`` is zero at every step unless ``l = m`` or a
    chain of live slots ``(m, ., ., j1)``, ``(j1, ., ., j2)``, ... leads
    from row m to row l; a slot ``(k, m, n, j)`` is live when the entry
    ``(m, n)`` it reads is not zero by this rule.  The smallest such set,
    grown from the slots with ``m = n``, is the live set: zeroing every
    other entry solves the discrete equations of
    :func:`solve_time_domain`, which leaves those entries exactly zero.
    Returns the ``dim x dim`` boolean mask of the entries that can be
    nonzero; ``mask[m, n]`` over the slots is the live set.
    """
    k, m, n_, j = slots.T
    live, grown = None, m == n_
    while not np.array_equal(live, grown):
        live = grown
        reach = np.eye(dim, dtype=bool)
        reach[k[live], j[live]] = True
        for _ in range(dim.bit_length()):
            reach = reach @ reach
        grown = reach[m, n_]
    return reach


def _levels(slots, dim):
    """Live slots, and the rows they write in the order they can be solved.

    The live slots are those of :func:`propagator_support`.  A written
    row is ready once every live slot writing it reads only rows that
    are unwritten or solved, and every written row such a slot names as
    ``j`` is solved or ready with it.  Each pass takes the ready rows as
    the next level.

    Returns the live mask over the slots and the list of levels (sorted
    0-based rows), or ``None`` for the levels when no row is ready while
    some are not solved: a read cycle.
    """
    k, m, n_, j = slots.T
    live = propagator_support(slots, dim)[m, n_]
    k, m, j = k[live], m[live], j[live]
    todo = np.isin(np.arange(dim), k)
    levels = []
    while todo.any():
        ready = todo.copy()
        ready[k[todo[m]]] = False
        for _ in range(dim):  # a row whose j waits, waits too
            ready[k[todo[j] & ~ready[j]]] = False
        if not ready.any():
            return live, None
        levels.append(np.flatnonzero(ready))
        todo &= ~ready
    return live, levels


def _series_solve(sys, t, kappa, live, levels):
    """All steps of the written rows, one power-series division per level.

    Write ``B = e^{-iHt} W``, and ``W = I + e^{iHt} V`` with ``V[0] = 0``
    on the written rows.  Once the earlier levels are solved, every
    entry that a live slot ``(k, m, n, j)`` of this level reads is known,
    and the product trapezoid is linear in the level's rows: their
    generating function ``V(z)`` solves ``D(z) V(z) = N(z)`` with, for
    ``q_k = e^{-i w_k dt}`` and ``a_s[r] = kappa[r] B[r]_mn``:

    - ``D[k, k] += 2 (1 - q_k z)``;
    - each slot adds ``f_s(z) = dt^2 w_s (1 + q_k z) (a_s(z) - a_s[0] / 2)``
      to ``D[k, j]`` when row ``j`` is in the level,
    - and ``dt^2 w_s (1 + q_k z) a_s(z) e_j / 2 - f_s(z) e_j / (1 - q_j z)``
      to ``N[k]``, less ``f_s(z) V_j(z)`` when row ``j`` is of an earlier
      level.

    ``V = D^{-1} N`` is one Newton series inverse and one product.
    Returns ``W`` and the worst level residual
    ``max |D V - N| / max(1, max |N|)`` over the first n + 1
    coefficients.  ``W[0]`` and the unwritten rows are exact, and so is
    every entry that no slot's ``j`` reaches: its column of ``N`` is
    exactly zero, and so is its product.
    """
    n = t.size - 1
    dim = sys.dim
    k, m, n_, j = sys.kernel.slots[live].T
    c = t[1] * t[1] * sys.kernel.weights[live]
    W = np.empty((n + 1, dim, dim), dtype=complex)
    W[:] = np.eye(dim)
    E = np.exp(-1j * np.outer(t, sys.energies))  # E[r, k] = q_k^r

    def plus(x, qk):
        # (1 + q_k z) x, coefficients along axis 0
        return np.concatenate([x[:1], x[1:] + qk * x[:-1]])

    worst = 0.0
    for lv, rows in enumerate(levels):
        s = np.isin(k, rows)
        ks, js, cs = k[s], j[s], c[s]
        rk = np.searchsorted(rows, ks)
        a = E[:, m[s]] * W[:, m[s], n_[s]] * kappa[:, None]
        f = cs * plus(np.concatenate([0.5 * a[:1], a[1:]]), E[1, ks])
        D = np.zeros((n + 1, rows.size, rows.size), dtype=complex)
        diag = np.arange(rows.size)
        D[0, diag, diag] = 2.0
        D[1, diag, diag] = -2.0 * E[1, rows]
        inner = np.isin(js, rows)
        np.add.at(D, (slice(None), rk[inner], np.searchsorted(rows, js[inner])), f[:, inner])
        # f / (1 - q_j z) as e^{-i w_j t_r} sum_{p <= r} e^{i w_j t_p} f[p]
        N = np.zeros((n + 1, rows.size, dim), dtype=complex)
        np.add.at(N, (slice(None), rk, js), 0.5 * cs * plus(a, E[1, ks])
                  - E[:, js] * np.cumsum(E[:, js].conj() * f, axis=0))
        if lv:
            # V_j = e^{-i w_j t} (W_j - e_j), exactly zero on the rows not yet solved
            G = np.zeros((n + 1, rows.size, dim), dtype=complex)
            np.add.at(G, (slice(None), rk[~inner], js[~inner]), f[:, ~inner])
            N -= _series_product(G, E[:, :, None] * (W - np.eye(dim)), n + 1)
        note = f" in the level of written rows {', '.join(map(str, rows + 1))}"
        V = _series_product(_series_inverse(D, t, note if levels[1:] else ""), N, n + 1)
        resid = np.max(np.abs(_series_product(D, V, n + 1) - N))
        W[1:, rows] += E[1:, rows, None].conj() * V[1:]
        worst = max(worst, float(resid / max(1.0, np.max(np.abs(N)))))
    return W, worst


def _step_loop(sys, t, kappa):
    """Step-by-step solve of a slot set whose reads of written rows form a cycle.

    Since ``W[0] = I``, the implicit trapezoid update of step ``i`` is
    linear in its unknown ``X = W[i]``: the inner node ``r = i`` puts
    ``a[i] X[m, n]`` into entry ``(k, j)`` of a slot ``(k, m, n, j)``,
    and the node ``r = 0`` puts ``delta_mn a[0] X[j, :]`` into row
    ``k``.  So every step solves ``(I + L_i) vec X = vec F_i`` exactly,
    with a ``dim^2 x dim^2`` operator that depends on ``i`` but not on
    the solution; the operators of a batch of steps are built and
    inverted at once.  ``F_i`` is the identity less, in each slot's row
    ``k``, its outer-trapezoid sum over the earlier steps and its share
    of step ``i``'s history ``sum_{r=1}^{i-1} a[r] W[r]_mn W[i-r]_j,:``,
    one contraction over the stored ``a[r] W[r]_mn``.

    The work is O(n^2 S dim) for the history sums, with S the slot
    count, plus O(n dim^6) for the batched inverses.  Returns ``W`` and
    the worst scaled step residual, checked for a whole batch after its
    steps.
    """
    n = t.size - 1
    dim = sys.dim
    en = np.asarray(sys.energies)
    k, m, n_, j = sys.kernel.slots.T
    # a[r] = e^{i(w_j - w_m) t_r} kappa[r] pairs with W[r]_mn W[i-r]_j,: in
    # the inner trapezoid at t_i, which g[i] = dt^2 w e^{i(w_k - w_j) t_i} / 2
    # weighs in the outer one; c0 = g a[0] delta_mn weighs the node r = 0
    a = np.exp(1j * np.outer(t, en[j] - en[m])) * kappa[:, None]
    g = 0.5 * t[1] * t[1] * sys.kernel.weights * np.exp(1j * np.outer(t, en[k] - en[j]))
    c0 = g * a[0] * (m == n_)
    lane = np.arange(dim)
    into = (k == lane[:, None]).astype(complex)  # adds a slot's row into row k
    eye = np.eye(dim)
    ej = eye[j]
    W = np.tile(eye, (n + 1, 1, 1)).astype(complex)
    # the history's factors, time-reversed: U[s, n - r] = a[r] W[r]_mn and
    # Wj[s, :, r] = W[r]_j,:, so that step i reads contiguous slices
    U = np.zeros((k.size, n + 1, 1), dtype=complex)
    Wj = np.zeros((k.size, dim, n + 1), dtype=complex)
    acc = np.zeros((k.size, dim), dtype=complex)  # outer sums to step i - 1
    block = max(1, (16 << 20) // (dim**4 * 16))  # steps per 16 MiB of operators
    worst = 0.0
    for i0 in range(1, n + 1, block):
        steps = range(i0, min(i0 + block, n + 1))
        A = np.zeros((len(steps), dim, dim, dim, dim), dtype=complex)
        np.add.at(A, (slice(None), k, j, m, n_), 0.5 * g[steps] * a[steps])
        np.add.at(A, (slice(None), k[:, None], lane, j[:, None], lane), 0.5 * c0[steps, :, None])
        A = A.reshape(len(steps), dim * dim, dim * dim) + np.eye(dim * dim)
        inv = _step_inverses(A, i0, t)
        F = np.empty((len(steps), dim * dim), dtype=complex)
        for b, i in enumerate(steps):
            hist = g[i, :, None] * (Wj[:, :, 1:i] @ U[:, n - i + 1 : n])[:, :, 0]
            F[b] = (eye - into @ (acc + hist)).ravel()
            X = W[i] = (inv[b] @ F[b]).reshape(dim, dim)
            Wj[:, :, i] = X[j]
            U[:, n - i, 0] = a[i] * X[m, n_]
            acc += 2 * hist + c0[i, :, None] * X[j] + (g[i] * U[:, n - i, 0])[:, None] * ej
        resid = np.abs(np.einsum("bpq,bq->bp", A, W[steps].reshape(len(steps), -1)) - F)
        scale = np.maximum(1.0, np.abs(F).max(axis=1))
        worst = max(worst, float(np.max(resid.max(axis=1) / scale)))
    return W, worst


# ---------------------------------------------------------------------------
# Laplace-domain solver


def _cubic_interp(xg, yg, x):
    # uniform-grid 4-point Lagrange interpolation along the first axis of
    # yg, vectorized over x; the weights broadcast over yg's other axes
    h = xg[1] - xg[0]
    u = (np.asarray(x) - xg[0]) / h
    i = np.clip(np.floor(u).astype(int), 1, len(xg) - 3)
    s = (u - i).reshape(u.shape + (1,) * (yg.ndim - 1))
    ym1, y0, y1, y2 = yg[i - 1], yg[i], yg[i + 1], yg[i + 2]
    return (
        ym1 * (-s * (s - 1) * (s - 2) / 6)
        + y0 * ((s + 1) * (s - 1) * (s - 2) / 2)
        + y1 * (-(s + 1) * s * (s - 2) / 2)
        + y2 * ((s + 1) * s * (s - 1) / 6)
    )


_MAX_LINE_POINTS = 400_000
# widest mode panel folded onto a line, in line steps: about one mode a step
_FOLD_STEPS = 32


def _inverse_blocks(blk):
    """Inverses of a stack of square blocks ``(..., s, s)``.

    1x1 and 2x2 blocks are inverted in closed form (reciprocal, and
    adjugate over determinant): a batched ``np.linalg.inv`` calls LAPACK
    once per matrix, which dominates a line of tiny blocks.  Raises
    ``np.linalg.LinAlgError`` on an exactly zero determinant, as
    ``np.linalg.inv`` does on an exactly zero pivot.
    """
    s = blk.shape[-1]
    if s > 2:
        return np.linalg.inv(blk)
    a = blk[..., 0, 0]
    if s == 2:
        b, c, d = blk[..., 0, 1], blk[..., 1, 0], blk[..., 1, 1]
        det = a * d - b * c
    else:
        det = a
    if not np.all(det):
        raise np.linalg.LinAlgError("Singular matrix")
    if s == 1:
        return 1.0 / blk
    return np.stack([d, -b, -c, a], axis=-1).reshape(blk.shape) / det[..., None, None]


def _upper(z):
    """``complex(z)``; raises reservoir.LaplaceDomainError if ``Im z <= 0``."""
    z = complex(z)
    if z.imag <= 0:
        raise rv.LaplaceDomainError("Laplace-domain evaluators require Im z > 0")
    return z


class LaplaceKraus:
    """Laplace-domain propagator with cached contour-line solves.

    One functional-iteration solve is performed per distinct Im z and
    cached; point evaluations interpolate along the line.  The iterate
    is stored through its deviation from the free resolvent, so the
    free part of the collapsed integral uses the reservoir image
    ``correlation_laplace`` and rows without feedback are exact at any
    depth; the deviation is folded over the modes of
    ``reservoir.discrete_modes`` with panels at most 32 line steps wide.
    A line that would need more than 400,000 points raises
    LineResolutionError, and a fold of more than 65,536 modes
    reservoir.DivergentIntegralError.

    A line is solved on the diagonal blocks of the connected components
    of :func:`propagator_support`, with its live slots only: the others
    read an entry that the propagator holds at zero.  One iteration
    folds the read entries by an FFT convolution just long enough not to
    wrap around (the line plus the span of the binned mode offsets),
    taken in batches of columns of at most 4 MiB; builds the block
    entries of the inverse by one product with the summed slot weights;
    and inverts each group of equal-size blocks at once
    (``_inverse_blocks``).
    """

    def __init__(self, sys: SystemSpec, depth):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.system = sys
        self.depth = depth
        self._lines = {}
        self.cauchy = {}
        dim = sys.dim
        k, m, n, j = sys.kernel.slots.T
        nz = propagator_support(sys.kernel.slots, dim)
        # row i of the symmetric closure of the support is the block of i
        link = nz | nz.T
        for _ in range(dim.bit_length()):
            link = link @ link
        blocks = sorted(map(np.flatnonzero, np.unique(link, axis=0)),
                        key=lambda st: (st.size, st[0]))
        self._blocks = tuple(tuple(st.tolist()) for st in blocks)
        # block entries: each block row-major, blocks of one size adjacent;
        # a group is (first entry, block count, block size)
        self._entries = np.concatenate([(st[:, None] * dim + st).ravel() for st in blocks])
        size, count = np.unique([st.size for st in blocks], return_counts=True)
        first = np.cumsum(count * size * size) - count * size * size
        self._groups = list(zip(first.tolist(), count.tolist(), size.tolist()))
        where = np.full(dim * dim, -1)
        where[self._entries] = np.arange(self._entries.size)
        live = nz[m, n]
        pairs, q = np.unique(np.stack([m[live], n[live]], axis=1), axis=0, return_inverse=True)
        self._pairs = pairs
        self._read = where[pairs[:, 0] * dim + pairs[:, 1]]
        # G[q, e]: summed weight of the slots that read pair q into entry e
        self._G = np.zeros((len(pairs), self._entries.size), dtype=complex)
        np.add.at(self._G, (q.reshape(-1), where[k[live] * dim + j[live]]),
                  sys.kernel.weights[live])

    # -- internal line solve ------------------------------------------

    def _line_points(self, imz):
        en = np.asarray(self.system.energies)
        sd = self.system.kernel.sd
        scale = sd.frequency_scale()
        radius = sd.support()[1]
        lo = en.min() - radius - 30.0 * scale
        hi = en.max() + 10.0 * scale
        dx = min(scale, max(imz, 0.05)) / 40.0
        npts = int(np.ceil((hi - lo) / dx)) + 1
        if npts > _MAX_LINE_POINTS:
            raise LineResolutionError(
                f"line Im z = {imz:g} needs {npts} points to cover [{lo:g}, {hi:g}] "
                f"at spacing {dx:.3g} (limit {_MAX_LINE_POINTS})",
                npts,
            )
        return np.linspace(lo, hi, max(npts, 16))

    def _fold_weights(self, h, npts):
        """Spectrum of the mode weights split onto integer grid offsets.

        Shifts beyond the window are dropped; their window lookups land
        on the zero padding anyway.  The FFT length covers the line plus
        the range of the offsets and of 0, so the circular convolution
        does not wrap around onto the line.  The weights are real: one
        half-length ``rfft`` and its conjugate mirror give the spectrum.
        """
        kern = self.system.kernel
        om, wq = rv.discrete_modes(kern.sd, _FOLD_STEPS * h, kern.beta_inv)
        pos = om / h
        keep = np.abs(pos) < npts - 1
        pos, ww = pos[keep], wq[keep]
        i0 = np.floor(pos).astype(int)
        frac = pos - i0
        span = max(i0.max(initial=-1) + 1, 0) - min(i0.min(initial=0), 0)
        nfft = rv.next_fast_len(npts + span + 1)
        A = np.zeros(nfft)
        np.add.at(A, i0 % nfft, (1.0 - frac) * ww)
        np.add.at(A, (i0 + 1) % nfft, frac * ww)
        half = np.fft.rfft(A)
        return np.concatenate([half, np.conj(half[nfft % 2 - 2 : 0 : -1])])

    def _solve_line(self, imz):
        xg = self._line_points(imz)
        zline = xg + 1j * imz
        dim = self.system.dim
        en = np.asarray(self.system.energies)
        kern = self.system.kernel
        npts = len(xg)
        ent = self._entries
        state = np.flatnonzero(ent // dim == ent % dim)
        base = np.zeros((npts, ent.size), dtype=complex)
        base[:, state] = zline[:, None] - en[ent[state] % dim]
        free = np.zeros_like(base)
        free[:, state] = 1.0 / base[:, state]
        A = self._fold_weights((xg[-1] - xg[0]) / (npts - 1), npts)
        nfft = A.size
        pm, pn = self._pairs.T
        diag = np.flatnonzero(pm == pn)
        chat = np.zeros((npts, pm.size), dtype=complex)
        for q in diag:
            chat[:, q] = rv.correlation_laplace(kern.sd, zline - en[pm[q]], kern.beta_inv)
        cols = max(1, (4 << 20) // (16 * nfft))
        W, last_cauchy = free, 0.0
        # with no slot reading the iterate, the free resolvent is exact
        for it in range(self.depth if len(self._pairs) else 0):
            M = chat
            if it:
                # the first iterate is the free resolvent: zero deviation
                corr = (W - free)[:, self._read]
                M = np.empty_like(corr)
                for c in range(0, pm.size, cols):
                    # M[i, q] = sum_r A_r corr[i - r, q]; the zero padding
                    # stands in for the negligible deviation outside the window
                    cf = np.fft.fft(corr[:, c : c + cols], nfft, axis=0)
                    cf *= A[:, None]
                    M[:, c : c + cols] = np.fft.ifft(cf, axis=0)[:npts]
                M += chat
            B = base - M @ self._G
            Wnew = np.empty_like(B)
            try:
                for e0, cnt, s in self._groups:
                    e1 = e0 + cnt * s * s
                    blk = B[:, e0:e1].reshape(npts, cnt, s, s)
                    Wnew[:, e0:e1] = _inverse_blocks(blk).reshape(npts, -1)
            except np.linalg.LinAlgError as exc:
                raise SingularOperatorError(
                    f"singular inversion on line Im z = {imz:g}"
                ) from exc
            # Frobenius norms: both matrices vanish outside the blocks
            est = np.linalg.norm(B, axis=1) * np.linalg.norm(Wnew, axis=1)
            bad = int(np.argmax(est))
            if not np.isfinite(est[bad]) or est[bad] > 1e12:
                raise SingularOperatorError(
                    f"ill-conditioned inversion at z = {zline[bad]:.6g} "
                    f"(cond estimate {est[bad]:.3e})"
                )
            last_cauchy = float(np.max(np.abs(Wnew - W)))
            W = Wnew
            if last_cauchy <= 1e-10:
                break
        out = np.zeros((npts, dim * dim), dtype=complex)
        out[:, ent] = W
        self._lines[imz] = (xg, out.reshape(npts, dim, dim), last_cauchy)
        return self._lines[imz]

    # -- public evaluation --------------------------------------------

    def evaluate(self, z):
        """Dim x dim matrix value at a single z with Im z > 0."""
        z = _upper(z)
        if self.system.kernel.weights.size:
            xg, W, _ = self._line(z.imag)
            if xg[0] <= z.real <= xg[-1]:
                return _cubic_interp(xg, W, np.array([z.real]))[0]
        # no kernel, or outside the stored window, where the deviation
        # from the free resolvent is negligible by its 1/z^2 decay
        return np.diag(1.0 / (z - np.asarray(self.system.energies)))

    def cauchy_at(self, z):
        """Final iteration update size on the line through z."""
        return self._line(_upper(z).imag)[2]

    def _line(self, imz):
        if imz not in self._lines:
            self._solve_line(imz)
        return self._lines[imz]


def laplace_inverse_identity(sys: SystemSpec, W: LaplaceKraus, z):
    """Matrix I(z) with I(z) W(z) = identity for the converged image.

    Entry (k, l) is ``(z - w_k) delta_kl`` minus the slot-weighted
    collapsed integral of W over the reservoir spectrum; the free part
    of W collapses through the reservoir image ``correlation_laplace``,
    the deviation through the modes of ``reservoir.discrete_modes``,
    with panels at most 32 steps of W's line at ``Im z`` wide, as W's
    own fold.  Every shifted point ``z - omega_a`` lies on that line,
    so the deviation at all modes is one interpolation along it, read
    as zero outside its window as :meth:`LaplaceKraus.evaluate` does.

    Parameters
    ----------
    sys : SystemSpec
    W : LaplaceKraus
        Laplace-domain propagator whose values enter the integral.
    z : complex
        Must satisfy ``Im z > 0``.

    Raises
    ------
    reservoir.LaplaceDomainError
        If ``Im z <= 0``.
    """
    z = _upper(z)
    dim = sys.dim
    en = np.asarray(sys.energies)
    out = np.diag(z - en).astype(complex)
    kern = sys.kernel
    wq, dev = np.zeros(0), np.zeros((0, dim, dim))
    if W.system.kernel.weights.size:
        xg, line, _ = W._line(z.imag)
        h = (xg[-1] - xg[0]) / (xg.size - 1)
        om, wq = rv.discrete_modes(kern.sd, _FOLD_STEPS * h, kern.beta_inv)
        dev = np.zeros((om.size, dim, dim), dtype=complex)
        x = z.real - om
        a = np.flatnonzero((xg[0] <= x) & (x <= xg[-1]))
        dev[a] = _cubic_interp(xg, line, x[a])
        diag = np.arange(dim)
        dev[a[:, None], diag, diag] -= 1.0 / ((z - om[a])[:, None] - en)
    for (k, m, n_, j), w in zip(kern.slots, kern.weights):
        acc = wq @ dev[:, m, n_]
        if m == n_:
            acc = acc + rv.correlation_laplace(kern.sd, z - en[m], kern.beta_inv)
        out[k, j] -= w * acc
    return out


def solve_continued_fraction(sys: SystemSpec, depth, z_set) -> LaplaceKraus:
    """Iterate the Laplace-domain fixed point from the free resolvent.

    Builds one contour-line solve per distinct Im z in ``z_set`` and
    records the final update size (Cauchy difference) for each point.

    Parameters
    ----------
    sys : SystemSpec
    depth : int
        Maximum iteration count; iteration stops early once the update
        falls below 1e-10.
    z_set : iterable of complex
        Evaluation points, all with Im z > 0.

    Returns
    -------
    LaplaceKraus
        With ``cauchy`` mapping each requested z to its update size.
    """
    lk = LaplaceKraus(sys, depth)
    for z in z_set:
        z = complex(z)
        lk.evaluate(z)
        lk.cauchy[z] = lk.cauchy_at(z)
    return lk


def weak_coupling_limit(sys: SystemSpec, lam, omega_tilde, *, anchor=None, eps_tilde=1e-3, depth=24):
    """Rescaled propagator near one level at coupling ``lam``.

    Scales every slot weight by ``lam**2``, evaluates the propagator at
    ``z = lam**2 (omega_tilde + i eps_tilde) + w_anchor`` and returns
    ``lam**2 W(z)``.  As lam -> 0 the anchored diagonal entry tends to
    ``1/(omega_tilde - shift + i width)`` where shift and width come
    from the boundary reservoir image at the transition frequency.

    Parameters
    ----------
    sys : SystemSpec
    lam : float
        Coupling scale in (0, 1].
    omega_tilde : float or array
        Rescaled detuning(s) from the anchor level.
    anchor : int, optional
        1-based level whose energy anchors the window (default: top).
    eps_tilde : float, optional
        Rescaled imaginary offset; ``Im z > 0`` needs it positive, else
        reservoir.LaplaceDomainError.

    Returns
    -------
    ndarray
        ``lam**2 W`` matrices, shape (len(omega_tilde), dim, dim), or a
        single matrix for scalar input.
    """
    if not 0 < lam <= 1:
        raise ValueError("lam must be in (0, 1]")
    dim = sys.dim
    if anchor is None:
        anchor = dim
    w_anchor = sys.energies[anchor - 1]
    scaled = SystemSpec(
        sys.energies,
        replace(sys.kernel, weights=lam**2 * sys.kernel.weights),
    )
    wt = np.atleast_1d(np.asarray(omega_tilde, dtype=float))
    lk = LaplaceKraus(scaled, depth)
    out = np.empty((wt.size, dim, dim), dtype=complex)
    for i, w in enumerate(wt):
        z = lam**2 * (w + 1j * eps_tilde) + w_anchor
        out[i] = lam**2 * lk.evaluate(z)
    return out if np.ndim(omega_tilde) else out[0]
