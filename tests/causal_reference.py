"""Schur-basis same-column solver, kept as the reference for the blocked one.

This is the original ``dynamics._CausalSolver``: it rotates the kernel
into the complex Schur basis of ``K[0]`` (entries in reverse order), in
which every leaf matrix is lower triangular, inverts each leaf by
triangular substitution and rotates the solution back.
``dynamics._CausalSolver`` must agree with it to rounding.
"""

import numpy as np
from scipy import linalg as sla

from nmkraus.kraus import SingularOperatorError


class CausalSolver:
    """Exact blocked solve of the same-column couplings, in the Schur basis.

    Solves ``(I - h_e K[0]/2) p_e - sum_{r<e} K[e-r] h_r p_r = g_e`` for
    ``e = 0..m-1``; :meth:`solve` returns ``u_e = h_e p_e`` and the worst
    scaled leaf residual.
    """

    def __init__(self, K, h, leaf=None):
        T, U = sla.schur(K[0], output="complex")
        self.U = U[:, ::-1]
        self.K = self.U.conj().T @ K @ self.U
        self.K[0] = T[::-1, ::-1]
        P = K.shape[1]
        self.leaf = L = leaf or max(4, 128 // P)
        hu = np.repeat(h, P)
        diag = 1.0 - 0.5 * hu * np.tile(np.diagonal(self.K[0]), h.size)
        bad = np.flatnonzero(np.abs(diag) <= 1e-12)
        if bad.size:
            e = bad[0] // P
            raise SingularOperatorError(
                f"same-column self-coupling is singular at rows j+{e}, "
                f"j = 1..{K.shape[0] - 1 - e}"
            )
        lag = np.subtract.outer(np.arange(L), np.arange(L))
        C = np.where((lag >= 0)[:, :, None, None],
                     self.K[np.clip(lag, 0, K.shape[0] - 1)], 0.0)
        C[np.arange(L), np.arange(L)] *= 0.5
        C = C.transpose(0, 2, 1, 3).reshape(L * P, L * P)
        self.hu = [hu[e0 * P : (e0 + L) * P] for e0 in range(0, h.size, L)]
        self.blocks = [np.eye(w.size) - C[: w.size, : w.size] * w for w in self.hu]
        self.inverses = [
            sla.solve_triangular(A, np.eye(A.shape[0]), lower=True, check_finite=False)
            for A in self.blocks
        ]
        self._spectra = {}

    def _push(self, src):
        span = src.shape[0]
        if span not in self._spectra:
            self._spectra[span] = np.fft.fft(self.K[: 2 * span], 2 * span, axis=0)
        fu = np.fft.fft(src, 2 * span, axis=0)
        return np.fft.ifft(np.einsum("kpq,kq->kp", self._spectra[span], fu), axis=0)[span:]

    def solve(self, g):
        m, P = g.shape
        L = self.leaf
        acc = g @ self.U.conj()
        u = np.empty_like(acc)
        worst = 0.0
        for b, e0 in enumerate(range(0, m, L)):
            e1 = min(e0 + L, m)
            k = (e1 - e0) * P
            A = self.blocks[b][:k, :k]
            rhs = acc[e0:e1].reshape(-1)
            x = self.inverses[b][:k, :k] @ rhs
            resid = np.max(np.abs(A @ x - rhs)) / max(1.0, np.max(np.abs(rhs)))
            worst = max(worst, float(resid))
            u[e0:e1] = (self.hu[b][:k] * x).reshape(-1, P)
            if e1 < m:
                span = ((b + 1) & -(b + 1)) * L
                t1 = min(e1 + span, m)
                acc[e1:t1] += self._push(u[e1 - span : e1])[: t1 - e1]
        return u @ self.U.T, worst
