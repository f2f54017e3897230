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
Because W(0) = I, the implicit update of each step is linear in the new
sample, so a step is one exact dim^2 x dim^2 linear solve (operators
inverted in batches ahead of the steps) instead of a fixed-point loop,
and the memory sum over earlier samples is formed once per step as one
batched product over stored slot arrays: O(n^2 S dim) for the memory
sums with S slots, plus O(n dim^6) for the step operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reservoir as rv

__all__ = [
    "SystemSpec",
    "KrausZero",
    "LaplaceKraus",
    "SingularOperatorError",
    "ContourOrderingError",
    "solve_time_domain",
    "laplace_inverse_identity",
    "solve_continued_fraction",
    "weak_coupling_limit",
]


class SingularOperatorError(ArithmeticError):
    """Raised when a linear solve is ill-conditioned (cond > 1e12)."""


class ContourOrderingError(ValueError):
    """Raised when Im z does not clear the internal contour height."""


@dataclass(frozen=True)
class SystemSpec:
    """Retained system eigenstates and their reservoir coupling table.

    Parameters
    ----------
    energies : sequence of float
        Eigenfrequencies w_k, ascending.  State labels in kernel slots
        count from 1 in this order.
    kernel : reservoir.CorrelationKernel
        Indexed pair correlation table; slot (k, m, n, l) couples row k
        to column l through the intermediate pair (m, n).
    """

    energies: tuple
    kernel: rv.CorrelationKernel

    def __post_init__(self):
        en = np.asarray(self.energies, dtype=float)
        if en.ndim != 1 or en.size < 1:
            raise ValueError("energies must be a nonempty vector")
        if np.any(np.diff(en) < 0):
            raise ValueError("energies must be sorted ascending")
        object.__setattr__(self, "energies", tuple(float(x) for x in en))
        for idx in self.kernel.slots:
            if any(not 1 <= i <= en.size for i in idx):
                raise ValueError(f"slot {idx} outside state labels 1..{en.size}")

    @property
    def dim(self):
        return len(self.energies)

    def slot_items(self):
        """Slots as 0-based ((k, m, n, j), weight) pairs."""
        return [
            ((k - 1, m - 1, n - 1, j - 1), h.weight)
            for (k, m, n, j), h in self.kernel.slots.items()
        ]

    def base_density(self):
        """Underlying (sd, beta_inv), or None for a zero kernel."""
        for h in self.kernel.slots.values():
            return h.sd, h.beta_inv
        return None


@dataclass(frozen=True)
class KrausZero:
    """Time-sampled propagator amplitude with solver diagnostics.

    ``max_residual`` is the worst scaled residual of the exact step
    solves of :func:`solve_time_domain`.  ``picard_iters`` is always 0,
    since no step iterates; the field stays because benchmark tracing
    reads it.
    """

    grid: np.ndarray
    values: np.ndarray
    max_residual: float
    lipschitz: float
    picard_iters: int

    def entry(self, k, l):
        """Time series of entry (k, l), 1-based labels."""
        return self.values[:, k - 1, l - 1]


def _kernel_on_grid(sys: SystemSpec, t):
    base = sys.base_density()
    if base is None:
        return np.zeros(len(t), dtype=complex)
    sd, binv = base
    if binv == 0:
        return rv.kernel_samples(sd, t)
    # thermal kernel through its mode expansion keeps dense grids cheap
    om, wq = rv.discrete_modes(sd, 4000, beta_inv=binv)
    out = np.empty(len(t), dtype=complex)
    for i0 in range(0, len(t), 2048):
        out[i0 : i0 + 2048] = np.exp(-1j * np.outer(t[i0 : i0 + 2048], om)) @ wq
    return out


def _step_inverses(A, first, t):
    """Inverses of the step operators ``A[b]`` of steps ``first + b``.

    Raises
    ------
    SingularOperatorError
        If an operator is singular or its condition estimate exceeds
        1e12; the message names the first such step.
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
            f"cond estimate {est[bad[0]]:.3e})"
        )
    return inv


def solve_time_domain(sys: SystemSpec, T, dt, *, max_steps=2_000_000) -> KrausZero:
    """Product-trapezoid Volterra integration of the amplitude equation.

    Since ``W[0] = I``, the implicit trapezoid update of step ``i`` is
    linear in its unknown ``X = W[i]``: the inner node ``r = i`` puts
    ``a[i] X[m, n]`` into entry ``(k, j)`` of a slot ``(k, m, n, j)``,
    and the node ``r = 0`` puts ``delta_mn a[0] X[j, :]`` into row
    ``k``.  So every step solves ``(I + L_i) vec X = vec F_i`` exactly,
    with a ``dim^2 x dim^2`` operator that depends on ``i`` but not on
    the solution.  The operators of a block of steps are built and
    inverted in one batched call, so a step costs one product with its
    inverse.  The right side ``F_i`` holds the outer accumulator and the
    history ``sum_{r=1}^{i-1} a[i-r] W[i-r]_mn W[r]_j,:`` of every slot,
    one batched product over stored slot arrays per step.

    The work is O(n^2 S dim) for the history sums, with S the slot
    count, plus O(n dim^4) for the step products and O(n dim^6) for the
    batched inverses.

    Parameters
    ----------
    sys : SystemSpec
    T : float
        Final time.
    dt : float
        Uniform step; T/dt must not exceed ``max_steps``.

    Returns
    -------
    KrausZero
        ``max_residual`` is the worst ``max |A x - b| / max(1, max |b|)``
        over the step solves; ``picard_iters`` is 0, since no step
        iterates.

    Raises
    ------
    SingularOperatorError
        If a step operator is singular; the message names the step.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    n = int(round(T / dt))
    if n < 1:
        raise ValueError("T must cover at least one step")
    if n > max_steps:
        raise ValueError(f"T/dt = {n} exceeds max_steps = {max_steps}")
    dim = sys.dim
    d2 = dim * dim
    en = np.asarray(sys.energies)
    t = np.arange(n + 1) * dt
    kappa = _kernel_on_grid(sys, t)
    items = sys.slot_items()
    S = len(items)
    k, m, n_, j = np.array([key for key, _ in items], dtype=int).reshape(S, 4).T
    w = np.array([wgt for _, wgt in items], dtype=complex)

    # a[r] = e^{i(w_j - w_m) tau_r} kappa[r] pairs in the inner trapezoid
    # with W_mn[r] W_jl[i - r]; g[i] = dt^2 w e^{i(w_k - w_j) t_i} / 2
    # weighs the inner integral at t_i in the outer trapezoid
    aph = np.exp(1j * np.outer(t, en[j] - en[m])) * kappa[:, None]
    g = 0.5 * dt * dt * w * np.exp(1j * np.outer(t, en[k] - en[j]))
    c1 = g * aph
    c0 = g * aph[0] * (m == n_)
    # entries of L_i: c1/2 at ((k, j), (m, n)), c0/2 at ((k, l), (j, l))
    lane = np.arange(dim)
    ent = np.concatenate([
        (k * dim + j) * d2 + m * dim + n_,
        (((k * dim)[:, None] + lane) * d2 + (j * dim)[:, None] + lane).ravel(),
    ])
    pos, col = np.unique(ent, return_inverse=True)
    place = np.zeros((2 * S, pos.size), dtype=complex)
    place[np.concatenate([np.arange(S), np.repeat(np.arange(S, 2 * S), dim)]), col] = 1.0
    coef = 0.5 * np.concatenate([c1, c0], axis=1)
    rows = np.zeros((dim, S), dtype=complex)
    rows[k, np.arange(S)] = 1.0

    W = np.empty((n + 1, dim, dim), dtype=complex)
    W[0] = np.eye(dim)
    eye = W[0].ravel()
    mn = m * dim + n_
    jl = (j * dim)[:, None] + lane
    sj = (np.arange(S), j)
    # U[s, 0, n - r] = a[r] W[r]_mn and V[s, r] = W[r]_j,: for slot s,
    # so that step i's history is one batched product of the contiguous
    # slices U[:, :, n-i+1:n] and V[:, 1:i]; E is the outer accumulator,
    # times w, carried from step to step
    U = np.zeros((S, 1, n + 1), dtype=complex)
    V = np.zeros((S, n + 1, dim), dtype=complex)
    E = np.zeros((S, dim), dtype=complex)
    g, c0 = g[:, :, None], c0[:, :, None]
    # steps per batch of operators: at most 16 MiB of them
    block = max(1, (16 << 20) // (d2 * d2 * 16))
    worst = 0.0
    for i0 in range(1, n + 1, block):
        i1 = min(i0 + block, n + 1)
        A = np.zeros((i1 - i0, d2 * d2), dtype=complex)
        A[:, pos] = coef[i0:i1] @ place
        A[:, :: d2 + 1] += 1.0
        A = A.reshape(-1, d2, d2)
        inv = _step_inverses(A, i0, t)
        F = np.empty((i1 - i0, d2), dtype=complex)
        for i in range(i0, i1):
            hist = g[i] * (U[:, :, n - i + 1 : n] @ V[:, 1:i])[:, 0]
            R = E + hist
            F[i - i0] = f = eye - (rows @ R).ravel()
            x = inv[i - i0] @ f
            W[i] = x.reshape(dim, dim)
            u = x[mn]
            V[:, i] = v = x[jl]
            U[:, 0, n - i] = aph[i] * u
            E = R + hist + c0[i] * v
            E[sj] += c1[i] * u
        x = W[i0:i1].reshape(-1, d2)
        resid = np.abs(np.einsum("bpq,bq->bp", A, x) - F).max(axis=1)
        worst = max(worst, float(np.max(resid / np.maximum(1.0, np.abs(F).max(axis=1)))))

    slot_weight = sum(abs(wgt) for _, wgt in items) if items else 0.0
    lips = float(slot_weight * np.trapezoid(np.abs(kappa), t))
    return KrausZero(t, W, worst, lips, 0)


# ---------------------------------------------------------------------------
# Laplace-domain solver


def _fold_modes(sd, n_modes, beta_inv):
    """Mode expansion used to fold line deviations.

    Flat windows use uniform midpoint nodes; Gauss nodes of this count
    cost more to generate than they help, since binning onto the line
    grid limits the resolution anyway.
    """
    if sd.family != "FlatWindow":
        return rv.discrete_modes(sd, n_modes, beta_inv=beta_inv)
    h, lo, hi = sd.params
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


def _cubic_interp(xg, yg, x):
    # uniform-grid 4-point Lagrange interpolation, vectorized over x
    h = xg[1] - xg[0]
    u = (np.asarray(x) - xg[0]) / h
    i = np.clip(np.floor(u).astype(int), 1, len(xg) - 3)
    s = u - i
    ym1, y0, y1, y2 = yg[i - 1], yg[i], yg[i + 1], yg[i + 2]
    return (
        ym1 * (-s * (s - 1) * (s - 2) / 6)
        + y0 * ((s + 1) * (s - 1) * (s - 2) / 2)
        + y1 * (-(s + 1) * s * (s - 2) / 2)
        + y2 * ((s + 1) * s * (s - 1) / 6)
    )


def _chat_line(sd, beta_inv, y):
    """Vectorized closed Laplace image of the kernel along a line."""
    y = np.asarray(y, dtype=complex)
    if beta_inv == 0 and sd.family in ("Lorentzian", "FlatWindow"):
        return rv._laplace_zero_temp(sd, y)
    if beta_inv == 0:
        grid, g2 = sd.table
        out = np.empty(y.shape, dtype=complex)
        flat_in, flat_out = y.reshape(-1), out.reshape(-1)
        for i0 in range(0, flat_in.size, 512):
            blk = flat_in[i0 : i0 + 512]
            flat_out[i0 : i0 + 512] = np.trapezoid(
                g2 / (blk[:, None] - grid), grid, axis=1
            )
        return out
    # thermal kernels have compact support bounded away from zero (the
    # divergence guard enforces it), so one Gauss-Legendre rule over
    # the support evaluates the image for the whole line at once
    if sd.family == "FlatWindow":
        _, lo, hi = sd.params
    else:
        grid = sd.table[0]
        lo, hi = grid[0], grid[-1]
    xq, vq = np.polynomial.legendre.leggauss(600)
    om = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xq
    wq = 0.5 * (hi - lo) * vq * sd.weight(om)
    nb = rv.thermal_occupation(om, 1.0 / beta_inv)
    out = np.empty(y.shape, dtype=complex)
    flat_in, flat_out = y.reshape(-1), out.reshape(-1)
    for i0 in range(0, flat_in.size, 512):
        blk = flat_in[i0 : i0 + 512, None]
        flat_out[i0 : i0 + 512] = np.sum(
            wq * ((nb + 1.0) / (blk - om) + nb / (blk + om)), axis=1
        )
    return out


class LaplaceKraus:
    """Laplace-domain propagator with cached contour-line solves.

    One functional-iteration solve is performed per distinct Im z and
    cached; point evaluations interpolate along the line.  The iterate
    is stored through its deviation from the free resolvent, so the
    free part of the collapsed integral uses the closed reservoir image
    and rows without feedback are exact at any depth.
    """

    def __init__(self, sys: SystemSpec, depth, *, n_modes=4096, window=None, spacing=None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.system = sys
        self.depth = depth
        self.n_modes = n_modes
        self._window = window
        self._spacing = spacing
        self._lines = {}
        self.cauchy = {}
        self._base = sys.base_density()
        if self._base is not None:
            self._modes = _fold_modes(self._base[0], n_modes, self._base[1])
        else:
            self._modes = (np.zeros(0), np.zeros(0))

    # -- internal line solve ------------------------------------------

    def _line_points(self, imz):
        en = np.asarray(self.system.energies)
        if self._base is not None:
            scale = self._base[0].frequency_scale()
            radius = self._base[0].support_radius()
        else:
            scale, radius = 1.0, 1.0
        if self._window is None:
            lo = en.min() - radius - 30.0 * scale
            hi = en.max() + 10.0 * scale
        else:
            lo, hi = self._window
        if self._spacing is None:
            dx = min(scale, max(imz, 0.05)) / 40.0
        else:
            dx = self._spacing
        npts = int(np.ceil((hi - lo) / dx)) + 1
        npts = min(max(npts, 16), 400_000)
        return np.linspace(lo, hi, npts)

    def _binned_weights(self, h, npts, nfft):
        """Mode weights split linearly onto integer grid offsets.

        Shifts beyond the window are dropped; their window lookups land
        on the zero padding anyway.
        """
        om, wq = self._modes
        pos = om / h
        keep = np.abs(pos) < npts - 1
        pos, ww = pos[keep], wq[keep]
        i0 = np.floor(pos).astype(int)
        frac = pos - i0
        A = np.zeros(nfft)
        np.add.at(A, i0 % nfft, (1.0 - frac) * ww)
        np.add.at(A, (i0 + 1) % nfft, frac * ww)
        return A

    def _solve_line(self, imz):
        xg = self._line_points(imz)
        zline = xg + 1j * imz
        dim = self.system.dim
        en = np.asarray(self.system.energies)
        npts = len(xg)
        free = np.zeros((npts, dim, dim), dtype=complex)
        for k in range(dim):
            free[:, k, k] = 1.0 / (zline - en[k])
        if self._base is None or not self.system.kernel.slots:
            self._lines[imz] = (xg, free, 0.0)
            return self._lines[imz]
        sd, binv = self._base
        h = (xg[-1] - xg[0]) / (npts - 1)
        nfft = 1
        while nfft < 2 * npts + 2:
            nfft *= 2
        A = np.fft.fft(self._binned_weights(h, npts, nfft), nfft)
        chat_m = np.empty((npts, dim), dtype=complex)
        for mm in range(dim):
            chat_m[:, mm] = _chat_line(sd, binv, zline - en[mm])

        slot_list = self.system.slot_items()
        W = free.copy()
        last_cauchy = np.inf
        for _ in range(self.depth):
            corr = W - free
            # M[i]_mn = sum_r A_r corr[i - r]_mn; the zero padding
            # stands in for the negligible deviation outside the window
            M = np.empty((npts, dim, dim), dtype=complex)
            for mm in range(dim):
                for nn in range(dim):
                    cf = np.fft.fft(corr[:, mm, nn], nfft)
                    M[:, mm, nn] = np.fft.ifft(cf * A)[:npts]
            B = np.zeros((npts, dim, dim), dtype=complex)
            for k in range(dim):
                B[:, k, k] = zline - en[k]
            for (k, m, n_, j), w in slot_list:
                B[:, k, j] -= w * (
                    M[:, m, n_] + (chat_m[:, m] if m == n_ else 0.0)
                )
            try:
                Wnew = np.linalg.inv(B)
            except np.linalg.LinAlgError as exc:
                raise SingularOperatorError(
                    f"singular inversion on line Im z = {imz:g}"
                ) from exc
            est = np.linalg.norm(B, axis=(1, 2)) * np.linalg.norm(Wnew, axis=(1, 2))
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
        self._lines[imz] = (xg, W, last_cauchy)
        return self._lines[imz]

    # -- public evaluation --------------------------------------------

    def evaluate(self, z):
        """Dim x dim matrix value at a single z with Im z > 0."""
        z = complex(z)
        if z.imag <= 0:
            raise ContourOrderingError("evaluator requires Im z > 0")
        dim = self.system.dim
        if self._base is None or not self.system.kernel.slots:
            out = np.zeros((dim, dim), dtype=complex)
            for k in range(dim):
                out[k, k] = 1.0 / (z - self.system.energies[k])
            return out
        key = z.imag
        if key not in self._lines:
            self._solve_line(key)
        xg, W, _ = self._lines[key]
        if not xg[0] <= z.real <= xg[-1]:
            # outside the stored window the deviation from the free
            # resolvent is negligible by its 1/z^2 decay
            out = np.zeros((dim, dim), dtype=complex)
            for k in range(dim):
                out[k, k] = 1.0 / (z - self.system.energies[k])
            return out
        out = np.empty((dim, dim), dtype=complex)
        xq = np.array([z.real])
        for a in range(dim):
            for b in range(dim):
                out[a, b] = _cubic_interp(xg, W[:, a, b], xq)[0]
        return out

    def cauchy_at(self, z):
        """Final iteration update size on the line through z."""
        key = complex(z).imag
        if key not in self._lines:
            self._solve_line(key)
        return self._lines[key][2]


def laplace_inverse_identity(sys: SystemSpec, W, z, *, y_height=0.0):
    """Matrix I(z) with I(z) W(z) = identity for the converged image.

    Entry (k, l) is ``(z - w_k) delta_kl`` minus the slot-weighted
    collapsed integral of W over the reservoir spectrum; the free part
    of W collapses through the closed reservoir image, the deviation
    through the discrete mode expansion.

    Parameters
    ----------
    sys : SystemSpec
    W : LaplaceKraus or callable
        Laplace-domain propagator evaluator.
    z : complex
        Must satisfy ``Im z > y_height``.
    y_height : float, optional
        Height of the internal contour the integral was collapsed over.

    Raises
    ------
    ContourOrderingError
        If ``Im z <= y_height``.
    """
    z = complex(z)
    if z.imag <= y_height:
        raise ContourOrderingError(
            f"need Im z > internal contour height {y_height:g}, got {z.imag:g}"
        )
    dim = sys.dim
    en = np.asarray(sys.energies)
    out = np.diag(z - en).astype(complex)
    base = sys.base_density()
    if base is None or not sys.kernel.slots:
        return out
    sd, binv = base
    evaluate = W.evaluate if isinstance(W, LaplaceKraus) else W
    om, wq = _fold_modes(sd, 4096, binv)
    cache = {}

    def deviation(zz):
        if zz not in cache:
            M = np.array(evaluate(zz), dtype=complex)
            for k in range(dim):
                M[k, k] -= 1.0 / (zz - en[k])
            cache[zz] = M
        return cache[zz]

    for (k, m, n_, j), w in sys.slot_items():
        acc = sum(a * deviation(z - nu)[m, n_] for nu, a in zip(om, wq))
        if m == n_:
            acc = acc + rv.correlation_laplace(sd, z - en[m], binv)
        out[k, j] -= w * acc
    return out


def solve_continued_fraction(sys: SystemSpec, depth, z_set, **kwargs) -> LaplaceKraus:
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
    lk = LaplaceKraus(sys, depth, **kwargs)
    for z in z_set:
        z = complex(z)
        if z.imag <= 0:
            raise ContourOrderingError("z_set entries need Im z > 0")
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
        Rescaled positive imaginary offset.

    Returns
    -------
    ndarray
        ``lam**2 W`` matrices, shape (len(omega_tilde), dim, dim), or a
        single matrix for scalar input.
    """
    if not 0 < lam <= 1:
        raise ValueError("lam must be in (0, 1]")
    if eps_tilde <= 0:
        raise ValueError("eps_tilde must be > 0")
    dim = sys.dim
    if anchor is None:
        anchor = dim
    w_anchor = sys.energies[anchor - 1]
    scaled = SystemSpec(
        sys.energies,
        rv.CorrelationKernel(
            {
                idx: rv.KernelHandle(h.sd, lam**2 * h.weight, h.beta_inv)
                for idx, h in sys.kernel.slots.items()
            },
            sys.kernel.beta_inv,
        ),
    )
    wt = np.atleast_1d(np.asarray(omega_tilde, dtype=float))
    lk = LaplaceKraus(scaled, depth)
    out = np.empty((wt.size, dim, dim), dtype=complex)
    for i, w in enumerate(wt):
        z = lam**2 * (w + 1j * eps_tilde) + w_anchor
        out[i] = lam**2 * lk.evaluate(z)
    return out if np.ndim(omega_tilde) else out[0]
