"""Fixed-point Volterra solver, kept as the reference for the exact step solve.

This is the original ``kraus.solve_time_domain``: every step iterates
the implicit trapezoid update to a fixed point, and every iteration
walks the slots in Python and recomputes each slot's history sum.
``kraus.solve_time_domain`` must agree with it to rounding.
"""

import numpy as np

from bitemporal_reference import ConvergenceError
from nmkraus.kraus import KrausZero, SystemSpec


def solve_time_domain(
    sys: SystemSpec,
    T,
    dt,
    *,
    picard_tol=1e-12,
    max_iters=60,
    max_steps=2_000_000,
) -> KrausZero:
    """Product-trapezoid Volterra integration of the amplitude equation.

    Every step solves the implicit trapezoid update by fixed-point
    iteration until successive iterates agree to ``picard_tol``.

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

    Raises
    ------
    ConvergenceError
        If a step's fixed point fails to settle; the exception carries
        the step index.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    n = int(round(T / dt))
    if n < 1:
        raise ValueError("T must cover at least one step")
    if n > max_steps:
        raise ValueError(f"T/dt = {n} exceeds max_steps = {max_steps}")
    dim = sys.dim
    en = np.asarray(sys.energies)
    t = np.arange(n + 1) * dt
    kappa = sys.kernel.on_grid(t)
    slots = list(zip(map(tuple, sys.kernel.slots.tolist()), sys.kernel.weights.tolist()))

    W = np.empty((n + 1, dim, dim), dtype=complex)
    W[0] = np.eye(dim)
    # per slot: a[r] = e^{i(w_j - w_m) tau_r} kappa[r], paired in the
    # inner trapezoid with W_mn[r] W_jl[i - r]; G[i] holds the inner
    # integral at u = t_i as a row over l, D the outer accumulator of
    # phase(u) G(u)
    aph = [np.exp(1j * (en[j] - en[m]) * t) * kappa for (k, m, n_, j), w in slots]
    phase = [np.exp(1j * (en[k] - en[j]) * t) for (k, m, n_, j), w in slots]
    G = [np.zeros((n + 1, dim), dtype=complex) for _ in slots]
    D = [np.zeros(dim, dtype=complex) for _ in slots]
    eye = np.eye(dim, dtype=complex)

    def slot_core(s, i):
        (k, m, n_, j), _ = slots[s]
        a = aph[s]
        hist = a[1:i] * W[1:i, m, n_]
        core = dt * (
            0.5 * a[i] * W[i, m, n_] * W[0, j, :]
            + hist[::-1] @ W[1:i, j, :]
        )
        if m == n_:
            core = core + dt * 0.5 * a[0] * W[i, j, :]
        return core

    worst_resid = 0.0
    worst_iters = 0
    delta = 0.0
    for i in range(1, n + 1):
        Wi = W[i - 1].copy()
        for it in range(max_iters):
            W[i] = Wi
            new = eye.copy()
            for s, ((k, m, n_, j), w) in enumerate(slots):
                G[s][i] = slot_core(s, i)
                contrib = D[s] + 0.5 * dt * (
                    phase[s][i - 1] * G[s][i - 1] + phase[s][i] * G[s][i]
                )
                new[k, :] -= w * contrib
            delta = np.max(np.abs(new - Wi))
            Wi = new
            if delta <= picard_tol:
                break
        else:
            raise ConvergenceError(
                f"fixed point stalled at step {i} (t = {t[i]:.6g}), "
                f"last update {delta:.3e}",
                step=i,
            )
        W[i] = Wi
        worst_resid = max(worst_resid, delta)
        worst_iters = max(worst_iters, it + 1)
        for s in range(len(slots)):
            G[s][i] = slot_core(s, i)
            D[s] = D[s] + 0.5 * dt * (
                phase[s][i - 1] * G[s][i - 1] + phase[s][i] * G[s][i]
            )

    slot_weight = np.abs(sys.kernel.weights).sum()
    lips = float(slot_weight * np.trapezoid(np.abs(kappa), t))
    return KrausZero(t, W, worst_resid, lips, worst_iters)
