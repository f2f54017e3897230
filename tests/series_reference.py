"""Dense-grid population series, kept as the reference for the phase-matrix one.

This is the original ``jaynescummings.atomic_population_series`` route:
every line is inverted by one zero-padded FFT onto a uniform time grid
``t_k = k * 2pi / (nfft * h)`` that is sized in a loop to cover the final
time.  It returns that dense grid and the totals on it, before the cubic
interpolation the original applied to reach the requested times, so
``jaynescummings.atomic_population_series`` evaluated at grid times must
agree with it to rounding.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from nmkraus.jaynescummings import _ONES, _SIGN, _comb, _line_blocks, _outer_comb


def _line_invert(gline, x0, h, eta, nfft, n_t):
    # (1/2pi) int dx e^{-i(x + i eta) t} G along the uniform line, as an
    # FFT with trapezoid end weights; output on t_k = k * 2pi/(nfft*h)
    gw = np.array(gline, dtype=complex)
    gw[..., 0] *= 0.5
    gw[..., -1] *= 0.5
    spec = np.fft.fft(gw, n=nfft, axis=-1)[..., :n_t]
    tk = (2.0 * np.pi / (nfft * h)) * np.arange(n_t)
    return (h / (2.0 * np.pi)) * np.exp((eta - 1j * x0) * tk) * spec


def dense_series(basis, sd, init, times, r_max):
    """Totals and per-order peaks on the dense FFT grid.

    Returns ``(tk, total, peaks)``: the grid, the excited population on
    it, and ``{r: peak}`` with each order's peak over the grid.  The
    contour height, line step and comb step follow the final entry of
    ``times`` exactly as in the original; the outer comb's nodes and
    weights are the package's own (``_outer_comb``).
    """
    times = np.asarray(times, dtype=float)
    p = init.p
    T = float(times[-1])
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

    top = -1
    wlo, whi = np.inf, -np.inf
    for r, n1, _, _ in terms:
        for s in range(r + 1):
            lev = n1 + 1 + s
            top = max(top, lev)
            wlo = min(wlo, basis.energy(-1, lev) - s * q1 * h)
            whi = max(whi, basis.energy(1, lev) - s * q0 * h)
    wlo -= 4.0
    whi += 4.0
    n_line = int(math.ceil((whi - wlo) / h)) + 1
    n_vis = n_line + r_cap * q1
    blocks = _line_blocks(basis, sd, wlo, h, n_vis, eta, top)

    span = (n_vis - 1) * h
    dt_target = min(T / max(256.0, 2.0 * times.size), 1.5 / span)
    nfft = 1 << max(
        int(math.ceil(math.log2(max(n_line, 2.0 * np.pi / (h * dt_target))))), 8
    )
    dt_out = 2.0 * np.pi / (nfft * h)
    n_t = int(T / dt_out) + 2
    while n_t > 0.45 * nfft:
        nfft *= 2
        dt_out = 2.0 * np.pi / (nfft * h)
        n_t = int(T / dt_out) + 2
    tk = dt_out * np.arange(n_t)

    oidx, ow = _outer_comb(sd, h, q0, q1, T)

    total = np.zeros(n_t)
    peaks = {}
    for r, n1, diag_weight, last_vec in terms:
        lev0 = n1 + 1
        coeff = diag_weight / 4.0 ** (r + 1)
        u0 = last_vec if r == 0 else _ONES
        rows = (blocks[lev0] * u0[None, None, :]).sum(axis=-1)
        omegas = np.array([basis.energy(-1, lev0), basis.energy(1, lev0)])
        if r == 0:
            xline = wlo + h * np.arange(n_line) + 1j * eta
            amp = np.zeros(n_t, dtype=complex)
            for ie in (0, 1):
                rest = rows[:n_line, ie] - u0[ie] / (xline - omegas[ie])
                a_rest = _line_invert(rest, wlo, h, eta, nfft, n_t)
                a_full = a_rest - 1j * u0[ie] * np.exp(-1j * omegas[ie] * tk)
                amp += _SIGN[ie] * np.exp(1j * omegas[ie] * tk) * a_full
            term = np.abs(amp) ** 2
        else:
            inner = [
                (
                    (blocks[lev0 + s] * (_ONES if s < r else last_vec)).sum(axis=-1)
                    * _SIGN
                ).sum(axis=-1)
                for s in range(1, r + 1)
            ]
            term = _sum_orders(
                rows, inner, ow, oidx, n_line, wlo, h, eta, nfft, n_t, omegas, tk
            )
        total += coeff * term
        peaks[r] = peaks.get(r, 0.0) + coeff * float(np.max(term))
    return tk, total, peaks


def _sum_orders(rows, inner, ow, oidx, n_line, wlo, h, eta, nfft, n_t, omegas, tk):
    r = len(inner)
    phase = np.exp(1j * np.outer(omegas, tk))

    def accumulate(depth, base, gpart):
        if depth == r - 1:
            win = sliding_window_view(inner[depth], n_line)[base + oidx]
            out = np.zeros(n_t)
            for i0 in range(0, oidx.size, 64):
                seg = win[i0 : i0 + 64] * gpart[None, :]
                amp = np.zeros((seg.shape[0], n_t), dtype=complex)
                for ie in (0, 1):
                    a = _line_invert(
                        seg * rows[:n_line, ie][None, :], wlo, h, eta, nfft, n_t
                    )
                    amp += _SIGN[ie] * phase[ie][None, :] * a
                out += ow[i0 : i0 + 64] @ (np.abs(amp) ** 2)
            return out
        out = np.zeros(n_t)
        for j, o in enumerate(oidx):
            gnext = gpart * inner[depth][base + o : base + o + n_line]
            out += ow[j] * accumulate(depth + 1, base + o, gnext)
        return out

    return accumulate(0, 0, np.ones(n_line))
