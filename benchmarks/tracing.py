"""Per-layer spans recorded from outside the program.

:func:`install` replaces public functions on the nmkraus module objects
with timing wrappers.  Solver modules call each other through module
attributes (``rv.kernel_samples``, ``kr.solve_time_domain``, ...), so a
call made inside a wrapped function opens a child span of it.  Spans are
kept in memory as ``[layer, start, end, parent]`` and reduced to self
times at the end; sizes and counts are read from the arguments and
results of the wrapped calls.
"""

import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Layers whose self time per round is reported as ``<layer>_s``.
LAYERS = (
    "reservoir.kernel",
    "kraus.volterra",
    "kraus.cf",
    "dynamics.bitemporal",
    "dynamics.refill",
    "dynamics.audit",
    "dynamics.ww",
    "laplace.invert",
    "laplace.forward",
    "jaynescummings.series",
    "jaynescummings.recursion",
    "jaynescummings.ladder",
    "cli.self",
)

# Sizes report their largest value in a run, counts their mean per
# round; both map metric name to unit.
SIZES = {
    "dynamics.bitemporal_steps": "count",
    "dynamics.bitemporal_slots": "count",
    "dynamics.bitemporal_dim": "count",
    "dynamics.field_mb": "MiB",
    "dynamics.bitemporal_resid_max": "1",
    "kraus.volterra_steps": "count",
    "kraus.picard_iters_max": "count",
    "kraus.volterra_resid_max": "1",
    "kraus.cf_cauchy_max": "1",
    "dynamics.refill_points": "count",
    "jaynescummings.series_r_max": "count",
    "jaynescummings.series_times": "count",
    "laplace.invert_points": "count",
}
COUNTS = {
    "kraus.cf_lines": "count",
    "jaynescummings.recursion_calls": "count",
    "reservoir.kernel_points": "count",
    "cli.runs": "count",
    "cli.bytes_written": "B",
}


class Tracer:
    """Span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.spans = []
        self._stack = []
        self.sizes = defaultdict(float)
        self.counts = defaultdict(float)
        self._lines = set()

    def peak(self, name, value):
        self.sizes[name] = max(self.sizes[name], float(value))

    def count(self, name, value=1):
        self.counts[name] += float(value)

    def wrap(self, owner, attr, layer, measure=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [layer, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if measure is not None:
                measure(self, args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)

    def self_times(self):
        """Seconds per layer with the time of child spans taken out."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = defaultdict(float)
        for (layer, *_), t in zip(self.spans, own):
            out[layer] += t
        return out

    def root_time(self):
        """Seconds covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _volterra(tr, args, kwargs, W):
    tr.peak("kraus.volterra_steps", W.grid.shape[0] - 1)
    tr.peak("kraus.picard_iters_max", W.picard_iters)
    tr.peak("kraus.volterra_resid_max", W.max_residual)


def _bitemporal(tr, args, kwargs, xi):
    sys_ = args[0]
    n, dim = xi.grid.shape[0] - 1, sys_.dim
    tr.peak("dynamics.bitemporal_steps", n)
    tr.peak("dynamics.bitemporal_slots", len(sys_.kernel.slots))
    tr.peak("dynamics.bitemporal_dim", dim)
    tr.peak("dynamics.field_mb", (n + 1) ** 2 * dim**2 * 16 / 2**20)
    tr.peak("dynamics.bitemporal_resid_max", xi.max_residual)


def _refill(tr, args, kwargs, traj):
    tr.peak("dynamics.refill_points", traj.times.shape[0] * kwargs.get("n_modes", 4096))


def _series(tr, args, kwargs, res):
    tr.peak("jaynescummings.series_r_max", args[4])
    tr.peak("jaynescummings.series_times", len(res.times))


def _cf_solve(tr, args, kwargs, lk):
    if lk.cauchy:
        tr.peak("kraus.cf_cauchy_max", max(lk.cauchy.values()))


def _cf_eval(tr, args, kwargs, out):
    # one line solve per distinct Im z on each evaluator
    key = (id(args[0]), complex(args[1]).imag)
    if key not in tr._lines:
        tr._lines.add(key)
        tr.count("kraus.cf_lines")


def _invert(tr, args, kwargs, out):
    tr.peak("laplace.invert_points", args[1].n_points * np.size(out))


def _kernel(tr, args, kwargs, out):
    tr.count("reservoir.kernel_points", np.size(out[0] if isinstance(out, tuple) else out))


def _recursion(tr, args, kwargs, out):
    tr.count("jaynescummings.recursion_calls")


def _cli(tr, args, kwargs, rc):
    argv = args[0] if args else kwargs.get("argv")
    tr.count("cli.runs")
    if argv and argv[0] == "run" and "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        tr.count("cli.bytes_written", sum(p.stat().st_size for p in out.iterdir()))


def install(tracer):
    """Wrap the public functions of every layer; returns ``tracer``."""
    import nmkraus.cli as cli
    import nmkraus.dynamics as dy
    import nmkraus.jaynescummings as jc
    import nmkraus.kraus as kr
    import nmkraus.laplace as lp
    import nmkraus.reservoir as rv

    w = tracer.wrap
    w(rv, "kernel_samples", "reservoir.kernel", _kernel)
    w(rv, "discrete_modes", "reservoir.kernel", _kernel)
    w(rv, "correlation_time", "reservoir.kernel")
    w(rv, "correlation_laplace", "reservoir.kernel")
    w(rv, "correlation_boundary", "reservoir.kernel")
    w(kr, "solve_time_domain", "kraus.volterra", _volterra)
    w(kr, "solve_continued_fraction", "kraus.cf", _cf_solve)
    w(kr.LaplaceKraus, "evaluate", "kraus.cf", _cf_eval)
    w(kr, "laplace_inverse_identity", "kraus.cf")
    w(kr, "weak_coupling_limit", "kraus.cf")
    w(dy, "solve_bitemporal", "dynamics.bitemporal", _bitemporal)
    w(dy, "two_level_trajectory", "dynamics.refill", _refill)
    w(dy, "extract_density", "dynamics.audit")
    w(dy, "audit_conservation", "dynamics.audit")
    w(dy, "markovian_channel", "dynamics.audit")
    w(dy, "channel_pair", "dynamics.audit")
    w(dy, "wigner_weisskopf", "dynamics.ww")
    w(lp, "invert", "laplace.invert", _invert)
    w(lp, "pole_series", "laplace.invert")
    w(lp, "forward_transform", "laplace.forward")
    w(jc, "atomic_population_series", "jaynescummings.series", _series)
    w(jc, "kraus_recursion", "jaynescummings.recursion", _recursion)
    w(jc, "adjoint_recursion", "jaynescummings.recursion")
    w(jc, "build_dressed_system", "jaynescummings.ladder")
    w(jc, "dressed_initial_state", "jaynescummings.ladder")
    w(jc, "reduce_atomic", "jaynescummings.ladder")
    w(cli, "main", "cli.self", _cli)
    return tracer
