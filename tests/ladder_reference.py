"""Per-state dressed-ladder loops, kept as the reference for the amplitude table.

These are the original ``jaynescummings.build_dressed_system``,
``dressed_initial_state`` and ``reduce_atomic``: the slot table is a
four-deep loop over rung pairs and outer branches collected in a dict,
the initial state a double loop over state labels, and the reduction a
hand-written partial trace.  The array versions built on the amplitude
table ``U[s, a, m] = <s | a, m>`` must give the same slots and weights
and the same initial states bit for bit, and the same reductions to
rounding.
"""

import math

import numpy as np

from nmkraus import reservoir as rv
from nmkraus.jaynescummings import DressedSystem, PhotonCutoffError

_INV_RT2 = 1.0 / math.sqrt(2.0)


def build_dressed_system(basis, sd):
    """Assemble the ladder's state table and decay-pair kernel."""
    lows = [
        (e, n)
        for n in range(-1, basis.n_max)
        for e in ((1,) if n < 0 else (-1, 1))
    ]
    slots = {}
    for e2, n2 in lows:
        for e3, n3 in lows:
            w = 0.5 * basis.nu(n2) * basis.nu(n3)
            for e1 in (-1, 1):
                for e4 in (-1, 1):
                    key = (
                        basis.index(e1, n2 + 1) + 1,
                        basis.index(e2, n2) + 1,
                        basis.index(e3, n3) + 1,
                        basis.index(e4, n3 + 1) + 1,
                    )
                    slots[key] = e1 * e4 * w
    energies = tuple(basis.energy(e, n) for e, n in basis.states)
    return DressedSystem(energies, rv.kernel_table(sd, slots), basis)


def dressed_initial_state(basis, init):
    """Factorized atom (x) p-photon state written in the dressed basis."""
    if init.p > basis.n_max:
        raise PhotonCutoffError(
            f"photon number {init.p} exceeds the basis cutoff {basis.n_max}"
        )
    p = init.p
    ra = init.rho_a
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    for e1, n1 in basis.states:
        for e2, n2 in basis.states:
            val = 0.0 + 0.0j
            if n1 == n2 and n1 + 1 == p:
                val += ra[0, 0]
            if n1 == n2 + 1 and n1 == p:
                val += e1 * ra[1, 0]
            if n1 + 1 == n2 and n2 == p:
                val += e2 * ra[0, 1]
            if n1 == n2 and n1 == p:
                val += e1 * e2 * ra[1, 1]
            if val != 0:
                i, j = basis.index(e1, n1), basis.index(e2, n2)
                rho[i, j] = basis.nu(n1) * basis.nu(n2) * val
    return rho


def reduce_atomic(basis, rho):
    """Trace out the privileged mode: (..., dim, dim) -> (..., 2, 2).

    Output rows are ordered (ground, excited), matching JCInitialState.
    """
    rho = np.asarray(rho)
    im = np.array([basis.index(-1, n) for n in range(basis.n_max + 1)])
    ip = np.array([basis.index(1, n) for n in range(basis.n_max + 1)])
    g = basis.index(1, -1)
    mm = rho[..., im, im]
    pp = rho[..., ip, ip]
    mp = rho[..., im, ip]
    pm = rho[..., ip, im]
    out = np.zeros(rho.shape[:-2] + (2, 2), dtype=complex)
    out[..., 1, 1] = 0.5 * (pp + mm - mp - pm).sum(axis=-1)
    out[..., 0, 0] = rho[..., g, g] + 0.5 * (pp + mm + mp + pm).sum(axis=-1)
    coh = _INV_RT2 * (rho[..., ip[0], g] - rho[..., im[0], g])
    if basis.n_max >= 1:
        coh = coh + 0.5 * (
            rho[..., ip[1:], ip[:-1]]
            + rho[..., ip[1:], im[:-1]]
            - rho[..., im[1:], ip[:-1]]
            - rho[..., im[1:], im[:-1]]
        ).sum(axis=-1)
    out[..., 1, 0] = coh
    out[..., 0, 1] = np.conj(coh)
    return out
