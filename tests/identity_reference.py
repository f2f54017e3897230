"""Per-mode Laplace identity, kept as the reference for the vectorised one.

This is the original ``kraus.laplace_inverse_identity``: the deviation of
W from the free resolvent is read one mode at a time through
``LaplaceKraus.evaluate`` and summed mode by mode for every slot.
``kraus.laplace_inverse_identity`` must agree with it to rounding.
"""

import numpy as np

from nmkraus import reservoir as rv


def laplace_inverse_identity(sys, W, z):
    z = complex(z)
    en = np.asarray(sys.energies)
    out = np.diag(z - en).astype(complex)
    kern = sys.kernel
    # the modes of W's own fold: panels at most 32 steps of its line
    xg = W._line(z.imag)[0]
    om, wq = rv.discrete_modes(kern.sd, 32 * (xg[-1] - xg[0]) / (xg.size - 1), kern.beta_inv)
    cache = {}

    def deviation(zz):
        if zz not in cache:
            M = np.array(W.evaluate(zz), dtype=complex)
            for k in range(sys.dim):
                M[k, k] -= 1.0 / (zz - en[k])
            cache[zz] = M
        return cache[zz]

    for (k, m, n_, j), w in zip(kern.slots, kern.weights):
        acc = sum(a * deviation(z - nu)[m, n_] for nu, a in zip(om, wq))
        if m == n_:
            acc = acc + rv.correlation_laplace(kern.sd, z - en[m], kern.beta_inv)
        out[k, j] -= w * acc
    return out
