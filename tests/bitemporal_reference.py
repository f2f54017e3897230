"""Node-by-node two-time solver, kept as the reference for the column solver.

This is the original ``dynamics.solve_bitemporal``: every column's
cross-time part runs one product and one FFT set per slot, and the
same-column couplings walk node by node with a fixed-point iteration
for each node's self-coupling.  ``dynamics.solve_bitemporal`` must agree
with it to rounding.
"""

import numpy as np

from nmkraus.dynamics import validate_density
from nmkraus.kraus import SystemSpec, KrausZero


class GridMismatchError(ValueError):
    """Propagator samples do not line up with the requested time grid."""


class ConvergenceError(ArithmeticError):
    """Raised when an iterative solve stalls; carries the step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def solve_bitemporal(sys: SystemSpec, W: KrausZero, rho0, T, dt, *,
                     node_tol=1e-12, max_iters=8):
    """Integrate the two-time equation by causal forward substitution.

    The explicit free phases are absorbed into the propagator columns,
    which turns the memory term into causal convolutions: per grid
    column the cross-time part collapses to one matrix product plus an
    FFT, and only the same-column couplings walk node by node.  Each
    node's weak self-coupling (it enters its own trapezoid cell) is
    resolved by fixed-point iteration.  Returns the whole field,
    ``xi[i, j]`` the matrix at ``(t_i, t_j)``.

    Raises
    ------
    GridMismatchError
        If ``W`` is not sampled with step ``dt`` on at least ``[0, T]``.
    StateValidationError
        If ``rho0`` is not a density matrix.
    ConvergenceError
        If a node's fixed point stalls, with ``step`` set to its row.
    """
    dim = sys.dim
    rho0 = validate_density(rho0, dim)
    if dt <= 0 or T <= 0:
        raise ValueError("need T > 0 and dt > 0")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(T, 1.0):
        raise GridMismatchError("T must be an integer multiple of dt")
    if W.grid.shape[0] < n + 1:
        raise GridMismatchError("propagator grid does not reach T")
    tg = W.grid[: n + 1]
    if np.max(np.abs(tg - np.arange(n + 1) * dt)) > 1e-9 * (T + dt):
        raise GridMismatchError("propagator grid step differs from dt")

    en = np.asarray(sys.energies, dtype=float)
    B = np.exp(-1j * np.outer(tg, en))[:, :, None] * W.values[: n + 1]
    line = sys.kernel.on_grid(np.arange(-n, n + 1) * dt)
    # KD[s, sp] = kernel((sp - s) dt); a reversed sliding view, no copy
    KD = np.lib.stride_tricks.sliding_window_view(line, n + 1)[::-1]
    slots = list(zip(map(tuple, sys.kernel.slots.tolist()), sys.kernel.weights.tolist()))
    eye = np.eye(dim)

    xi = np.zeros((n + 1, n + 1, dim, dim), dtype=complex)
    base0 = B @ rho0
    xi[:, 0] = base0
    xi[0, :] = np.conj(np.swapaxes(base0, 1, 2))

    nfft = 1
    while nfft < 2 * (n + 1):
        nfft *= 2
    fb_cols = np.fft.fft(B, nfft, axis=0)
    scale = max(1.0, float(np.max(np.abs(rho0))))

    for j in range(1, n + 1):
        tw_in = np.full(j, dt)
        tw_in[0] = 0.5 * dt
        Gj = np.conj(B[j:0:-1])
        kap_j = KD[:, j]
        c1 = []
        for (ia, ib, ic, id_), _ in slots:
            M = KD[:, :j] * xi[:, :j, id_, ia] * tw_in
            Rm = M @ Gj[:, :, ib]
            fr = np.fft.fft(Rm, nfft, axis=0)
            conv = np.fft.ifft(fb_cols[:, :, ic, None] * fr[:, None, :], axis=0)[: n + 1]
            part = dt * conv
            part -= 0.5 * dt * B[:, :, ic][:, :, None] * Rm[0][None, None, :]
            part -= 0.5 * dt * eye[:, ic][None, :, None] * Rm[:, None, :]
            c1.append(part)
        RB = rho0 @ B[j].conj().T
        for i in range(j, n + 1):
            fixed = B[i] @ RB
            for s_idx, ((ia, ib, ic, id_), wgt) in enumerate(slots):
                fixed = fixed + wgt * c1[s_idx][i]
                vec = 0.5 * dt * kap_j[:i] * xi[:i, j, id_, ia]
                vec[0] *= 0.5
                vec *= dt
                fixed[:, ib] += wgt * (B[i:0:-1, :, ic].T @ vec)
            x = fixed
            resid = np.inf
            for _ in range(max_iters):
                xn = fixed.copy()
                for (ia, ib, ic, id_), wgt in slots:
                    xn[ic, ib] += wgt * 0.25 * dt * dt * kap_j[i] * x[id_, ia]
                resid = float(np.max(np.abs(xn - x)))
                x = xn
                if resid <= node_tol * scale:
                    break
            else:
                raise ConvergenceError(
                    f"node ({i},{j}) fixed point stalled at {resid:.3e}", step=i
                )
            xi[i, j] = x
            if i > j:
                xi[j, i] = x.conj().T

    ph = np.exp(1j * np.outer(tg, en))
    xi *= ph[:, None, :, None]
    xi *= np.conj(ph)[None, :, None, :]
    return xi
