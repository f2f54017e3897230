"""Entry-by-entry contour-line solve, kept as the reference for the batched one.

This is the fixed-point loop of the original
``kraus.LaplaceKraus._solve_line``: every iteration runs one FFT pair
per matrix entry, of a power-of-two length at least twice the line,
walks the slots in Python to build B and inverts the dense
``dim x dim`` matrices.  The block solve rounds differently, so the
two agree to rounding, not bit for bit.
"""

import numpy as np

from nmkraus import reservoir as rv


def binned_weights(lk, h, npts, nfft):
    """Mode weights split linearly onto integer grid offsets mod ``nfft``.

    The modes are those of ``reservoir.discrete_modes`` with panels at
    most 32 line steps ``h`` wide.
    """
    kern = lk.system.kernel
    om, wq = rv.discrete_modes(kern.sd, 32 * h, kern.beta_inv)
    pos = om / h
    keep = np.abs(pos) < npts - 1
    pos, ww = pos[keep], wq[keep]
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    A = np.zeros(nfft)
    np.add.at(A, i0 % nfft, (1.0 - frac) * ww)
    np.add.at(A, (i0 + 1) % nfft, frac * ww)
    return A


def solve_line(lk, imz):
    """``(xg, W, last_cauchy)`` of the line ``Im z = imz`` of ``lk``."""
    xg = lk._line_points(imz)
    zline = xg + 1j * imz
    dim = lk.system.dim
    en = np.asarray(lk.system.energies)
    kern = lk.system.kernel
    npts = len(xg)
    free = np.zeros((npts, dim, dim), dtype=complex)
    for k in range(dim):
        free[:, k, k] = 1.0 / (zline - en[k])
    h = (xg[-1] - xg[0]) / (npts - 1)
    nfft = 1
    while nfft < 2 * npts + 2:
        nfft *= 2
    A = np.fft.fft(binned_weights(lk, h, npts, nfft), nfft)
    chat_m = np.empty((npts, dim), dtype=complex)
    for mm in range(dim):
        chat_m[:, mm] = rv.correlation_laplace(kern.sd, zline - en[mm], kern.beta_inv)

    W = free.copy()
    last_cauchy = np.inf
    for _ in range(lk.depth):
        corr = W - free
        M = np.empty((npts, dim, dim), dtype=complex)
        for mm in range(dim):
            for nn in range(dim):
                cf = np.fft.fft(corr[:, mm, nn], nfft)
                M[:, mm, nn] = np.fft.ifft(cf * A)[:npts]
        B = np.zeros((npts, dim, dim), dtype=complex)
        for k in range(dim):
            B[:, k, k] = zline - en[k]
        for (k, m, n_, j), w in zip(kern.slots, kern.weights):
            B[:, k, j] -= w * (M[:, m, n_] + (chat_m[:, m] if m == n_ else 0.0))
        Wnew = np.linalg.inv(B)
        last_cauchy = float(np.max(np.abs(Wnew - W)))
        W = Wnew
        if last_cauchy <= 1e-10:
            break
    return xg, W, last_cauchy
