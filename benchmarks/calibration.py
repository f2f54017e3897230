"""Fixed reference kernel that tracks the speed of a shared machine.

On a shared host the same solve runs about 1.5 times slower for tens of
seconds at a time, while the process keeps its CPU (its CPU time grows
with its wall time): other tenants of the host, most likely through the
shared caches and memory, change the machine's speed under the
benchmark.  ``worker.py`` runs this kernel after each operation for a
fifth of the operation's time, and ``scale`` turns each round's time
into seconds at the reference speed.  One kernel run is noisy: its
times spread by about 15% within a second, more than the solves'
times do.  So a round's scale is the mean over every kernel run in it
and in the rounds next to it, a window of a few seconds, well short of
the tens of seconds a slow stretch lasts.

The kernel does the kind of work the solvers do: one column of a causal
convolution (a matrix product, a zero-padded FFT and its inverse) and a
Python walk over small matrices, on arrays of the size of the
``jc_bitemporal`` field.  It does not touch nmkraus, so a change to the
program cannot move it.
"""

import time

import numpy as np

# Median time of ``run_kernel()`` on the reference machine (2-vCPU
# Intel Xeon VM at 2.1 GHz, numpy 2.4.6, one OpenBLAS thread).
REFERENCE_S = 0.14

# kernel time run after each operation, as a share of the operation's time
SHARE = 0.2

_N, _DIM, _NFFT, _REPS = 64, 5, 256, 512

_g = np.random.default_rng(12345)
_B = _g.normal(size=(_N + 1, _DIM, _DIM)) + 1j * _g.normal(size=(_N + 1, _DIM, _DIM))
_FB = np.fft.fft(_B, _NFFT, axis=0)
_XI = _g.normal(size=(_N + 1, _N + 1, _DIM, _DIM)) + 0j


def run_kernel():
    """Run the reference kernel once; returns its seconds."""
    t0 = time.perf_counter()
    sink = 0.0
    for r in range(_REPS):
        j = 1 + r % _N
        rm = (0.5 * _XI[:, :j, 1, 0]) @ np.conj(_B[j:0:-1, :, 2])
        fr = np.fft.fft(rm, _NFFT, axis=0)
        conv = np.fft.ifft(_FB[:, :, 3, None] * fr[:, None, :], axis=0)[: _N + 1]
        for i in range(j, _N + 1, 4):
            x = _B[i] @ _B[j].conj().T + conv[i]
            x[:, 1] += _B[i:0:-1, :, 2].T @ _XI[:i, j, 0, 1]
            sink += float(np.max(np.abs(x)))
    if not np.isfinite(sink):
        raise FloatingPointError("calibration kernel overflowed")
    return time.perf_counter() - t0


def sample(seconds):
    """Run the kernel for ``SHARE * seconds``, at least once; its times."""
    times = [run_kernel()]
    while sum(times) < SHARE * seconds:
        times.append(run_kernel())
    return times


def scale(rounds, kernels):
    """Each round's seconds at the reference speed.

    ``kernels[i]`` holds the times of the kernel runs made in round
    ``i``.  Round ``i`` is multiplied by ``REFERENCE_S`` over the mean
    of the kernel times of rounds ``i - 1`` to ``i + 1``.
    """
    out = []
    for i, seconds in enumerate(rounds):
        near = [k for ks in kernels[max(0, i - 1) : i + 2] for k in ks]
        out.append(seconds * REFERENCE_S * len(near) / sum(near))
    return out
