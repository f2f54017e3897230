"""Full-line photon-block recursion, kept as the reference for the overlap-save one.

This is the original ``jaynescummings._line_blocks``: every photon level
builds the 2x2 blocks on the whole extended line, reduces them to the
level sum, and forms the next comb sum with one fresh full-length FFT
convolution.  ``jaynescummings._line_blocks`` must agree with it to
rounding.
"""

import numpy as np
from scipy import fft as sfft

from nmkraus.jaynescummings import SingularBlockError, _comb


def _convolve(a, b):
    """Full linear convolution of two complex sequences by FFT."""
    size = a.size + b.size - 1
    nfft = sfft.next_fast_len(size)
    return sfft.ifft(sfft.fft(a, nfft) * sfft.fft(b, nfft))[:size]


def _line_blocks(basis, sd, x0, h, n_vis, eta, top_level):
    """Damping-amplitude image blocks on the line ``x0 + j*h + i*eta``.

    Returns ``{level: array}``, each covering exactly the visible range
    ``j = 0..n_vis-1``; level -1 entries are scalars, higher levels 2x2
    blocks.  The recursion extends the line to the left internally so
    every visible value is fully converged, and trims the right edge so
    no level reads past its own coverage.
    """
    q0, q1, wq = _comb(sd, h)
    ext = (top_level + 2) * q1
    n_int = n_vis + ext
    x = x0 - ext * h + h * np.arange(n_int) + 1j * eta
    gnd = basis.energy(1, -1)
    cur = 1.0 / (x - gnd)
    out = {-1: cur[ext:]}
    ssum = cur
    start = 0
    for lev in range(top_level + 1):
        conv = _convolve(ssum, wq)[q1 - q0 : ssum.size - q0]
        start += q1
        seg = x[start : start + conv.size]
        a = 0.5 * basis.nu(lev - 1) ** 2
        dm = seg - basis.energy(-1, lev) - a * conv
        dp = seg - basis.energy(1, lev) - a * conv
        det = dm * dp - (a * conv) ** 2
        if np.any(det == 0) or not np.all(np.isfinite(det)):
            bad = seg[(det == 0) | ~np.isfinite(det)][0]
            raise SingularBlockError(lev, bad)
        blk = np.empty(seg.shape + (2, 2), dtype=complex)
        blk[..., 0, 0] = dp / det
        blk[..., 1, 1] = dm / det
        blk[..., 0, 1] = -a * conv / det
        blk[..., 1, 0] = -a * conv / det
        out[lev] = blk[ext - start :]
        ssum = blk.sum(axis=(-2, -1))
    return out
