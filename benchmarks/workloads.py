"""Seeded workloads of the benchmark and their reference checks.

``ROUNDS`` maps each workload to the function that builds its next
round from the seeded generator.  A round is a fixed mix of operations
(the same shapes on every seed, so the time of a round does not depend
on the seed); the seed only moves the physical parameters inside the
regime of the shipped configs.  Each operation has a timed ``call``
that drives the program through ``nmkraus.cli.main`` or the public API,
and an untimed ``check`` that compares the output with an independent
reference at the tolerance the test suite or the shipped config uses.

A check returns ``(label, deviation, tolerance)`` triples; a deviation
above its tolerance is a missed reference.
"""

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import nmkraus.cli as cli
import nmkraus.dynamics as dy
import nmkraus.jaynescummings as jc
import nmkraus.kraus as kr
import nmkraus.reservoir as rv


@dataclass
class Op:
    """One timed solve and the untimed check of its output."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]


def _u(rng, centre, rel):
    """Uniform draw within ``centre * (1 +- rel)``."""
    return float(centre * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _atom_state(rng, p_lo):
    """Atomic 2x2 state: excited population in [p_lo, 1], random coherence."""
    pe = float(rng.uniform(p_lo, 1.0))
    c = float(rng.uniform(0.0, 0.5)) * math.sqrt(pe * (1.0 - pe))
    ph = float(rng.uniform(0.0, 2.0 * math.pi))
    return {
        "rho11": 1.0 - pe,
        "rho22": pe,
        "rho21_re": c * math.cos(ph),
        "rho21_im": c * math.sin(ph),
    }


def _atom_matrix(st):
    coh = st["rho21_re"] + 1j * st["rho21_im"]
    return np.array([[st["rho11"], np.conj(coh)], [coh, st["rho22"]]])


def _density(rng, base):
    """``base`` plus a seeded traceless Hermitian perturbation, entries ~5e-3."""
    dim = base.shape[0]
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    pert = 0.5 * (g + g.conj().T)
    pert -= np.trace(pert).real / dim * np.eye(dim)
    return base + 5e-3 * pert


# initial state of configs/generic_three_level.yaml, and a four-level
# state in the same spirit (smallest eigenvalue 0.1 for both)
RHO3 = np.array([[0.1, 0.0, 0.0], [0.0, 0.4, 0.1], [0.0, 0.1, 0.5]])
RHO4 = np.array(
    [[0.1, 0.0, 0.0, 0.0], [0.0, 0.3, 0.1, 0.0], [0.0, 0.1, 0.3, 0.05], [0.0, 0.0, 0.05, 0.3]]
)


# ---------------------------------------------------------------------------
# operations run through the command line


def _audit_checks(summary):
    """Every CLI audit as (name, deviation, tolerance)."""
    out = []
    for name, a in sorted(summary["audits"].items()):
        if a["sense"] == "<=":
            out.append((f"audit.{name}", a["value"], a["limit"]))
        else:
            # the '>=' audits are floors -tol on a smallest eigenvalue
            out.append((f"audit.{name}", max(0.0, -a["value"]), -a["limit"]))
    return out


def _read_csv(path):
    table = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(table[name]) for name in table.dtype.names}


def _cli_op(name, workdir, cfg, extra_check=None):
    """Write ``cfg`` as YAML and run it through ``nmkraus run``.

    The CLI's own audits are checked on every run; ``extra_check`` maps
    the trajectory table to further reference triples.
    """
    opdir = Path(workdir) / name
    opdir.mkdir(parents=True, exist_ok=True)
    cfg_path = opdir / "config.yaml"
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    outdir = opdir / "out"

    def call():
        return cli.main(["run", str(cfg_path), "--out", str(outdir)])

    def check(rc):
        # exit 1 is a failed audit; the audit triples below carry it
        if rc not in (0, 1):
            raise RuntimeError(f"nmkraus run exited {rc}")
        with open(outdir / "summary.json") as fh:
            summary = json.load(fh)
        out = _audit_checks(summary)
        if extra_check is not None:
            out += extra_check(_read_csv(outdir / "trajectory.csv"))
        return out

    return Op(name, call, check)


def _jc_round(rng, workdir):
    # configs/jc_bitemporal.yaml: photon cutoff 1 (dim 5, 36 slots),
    # p = 1, T = 12 on 64 steps
    g = _u(rng, 0.3, 0.03)
    h = _u(rng, 0.0318, 0.03)
    st = _atom_state(rng, 0.9)
    cfg = {
        "kind": "JaynesCummings",
        "spectral": {
            "family": "flat_window",
            "height_per_time": h,
            "omega_lo_per_time": 18.0,
            "omega_hi_per_time": 22.0,
        },
        "system": {
            "atom_omega_2_per_time": 20.0,
            "coupling_per_time": g,
            "photon_cutoff": 1,
        },
        "initial": dict(st, photon_number=1),
        "numerics": {"solver": "bitemporal", "t_final_time": 12.0, "n_times": 65},
        "audit": {"trace_tol": 5.0e-3},
    }

    def series_gap(tab):
        # criterion 07: population series at r_max = 2 within 1e-2
        basis = jc.DressedBasis(0.0, 20.0, g, 1)
        sd = rv.SpectralDensity.flat_window(h, 18.0, 22.0)
        init = jc.JCInitialState(_atom_matrix(st), 1)
        res = jc.atomic_population_series(basis, sd, init, tab["t_time"], 2)
        gap = float(np.max(np.abs(res.excited - tab["excited"])))
        return [("series_gap", gap, 1e-2)]

    return [_cli_op("jc", workdir, cfg, series_gap)]


def _generic_cfg(rng, energies, weights, base):
    rho = _density(rng, base)
    return {
        "kind": "GenericSystem",
        "spectral": {
            "family": "flat_window",
            "height_per_time": _u(rng, 0.05, 0.03),
            "omega_lo_per_time": _u(rng, 2.0, 0.05),
            "omega_hi_per_time": _u(rng, 4.0, 0.025),
        },
        "system": {
            "energies_per_time": energies,
            "slots": [
                {"row": k, "mid_out": 1, "mid_in": 1, "col": k, "weight_re": w}
                for k, w in weights
            ],
        },
        "initial": {"rho_re": rho.real.tolist(), "rho_im": rho.imag.tolist()},
        "numerics": {"dt_time": 0.02, "t_final_time": GENERIC_T},
        "audit": {"trace_tol": 1.0e-4},
    }


# configs/generic_three_level.yaml steps at dt = 0.02 to T = 8; the
# benchmark stops at T = 4 (n = 200) so a run holds several rounds
GENERIC_T = 4.0


def _generic_round(rng, workdir):
    three = _generic_cfg(
        rng,
        [0.0, _u(rng, 3.0, 0.03), _u(rng, 7.5, 0.03)],
        [(2, _u(rng, 1.0, 0.03)), (3, _u(rng, 0.5, 0.03))],
        RHO3,
    )
    four = _generic_cfg(
        rng,
        [0.0, _u(rng, 3.0, 0.03), _u(rng, 5.5, 0.03), _u(rng, 7.5, 0.03)],
        [(2, _u(rng, 1.0, 0.03)), (3, _u(rng, 0.5, 0.03)), (4, _u(rng, 0.5, 0.03))],
        RHO4,
    )
    return [
        _cli_op("generic3", workdir, three),
        _cli_op("generic4", workdir, four),
    ]


def _two_level_cfg(spectral, w2, st, dt, T):
    return {
        "kind": "TwoLevelWW",
        "spectral": spectral,
        "system": {"omega_2_per_time": w2},
        "initial": st,
        "numerics": {"dt_time": dt, "t_final_time": T},
    }


def _two_level_round(rng, workdir):
    # configs/two_level_ww.yaml at half its step, stopped at T = 15
    # (3000 steps); the three runs of a round stay short enough for a
    # 20-second run to hold two or three rounds on a slow host
    flat = _two_level_cfg(
        {
            "family": "flat_window",
            "height_per_time": _u(rng, 0.0318, 0.03),
            "omega_lo_per_time": _u(rng, 4.5, 0.01),
            "omega_hi_per_time": _u(rng, 5.5, 0.01),
        },
        _u(rng, 5.0, 0.01),
        _atom_state(rng, 0.8),
        0.005,
        15.0,
    )

    # criterion 01 line: Lorentzian(0.5, 200, 1) at the transition, at
    # the criterion's step 2e-3, stopped at T = 7 (3500 steps); its trace
    # audit (1e-6) fails on some states at step 2.5e-3
    strength = _u(rng, 0.5, 0.03)
    width = _u(rng, 1.0, 0.03)
    center = _u(rng, 200.0, 0.002)
    st = _atom_state(rng, 0.8)
    lor = _two_level_cfg(
        {
            "family": "lorentzian",
            "strength_per_time2": strength,
            "center_per_time": center,
            "width_per_time": width,
        },
        200.0,
        st,
        0.002,
        7.0,
    )

    def closed_form(tab):
        # criterion 01: the closed two-pole form within 1e-3
        sd = rv.SpectralDensity.lorentzian(strength, center, width)
        ref = st["rho22"] * dy.wigner_weisskopf(sd, 0.0, 200.0, tab["t_time"])
        return [("two_pole_dev", float(np.max(np.abs(tab["rho22"] - ref))), 1e-3)]

    # configs/markov_limit.yaml, stopped at T = 35 (3500 steps)
    markov = {
        "kind": "MarkovLimit",
        "spectral": {
            "family": "flat_window",
            "height_per_time": 2.0 / math.pi,
            "omega_lo_per_time": _u(rng, 4.2, 0.01),
            "omega_hi_per_time": _u(rng, 5.8, 0.01),
        },
        "system": {"omega_2_per_time": _u(rng, 5.0, 0.005)},
        "coupling": {"scale": _u(rng, 0.1, 0.03)},
        "numerics": {"dt_time": 0.01, "t_final_time": 35.0},
    }
    return [
        _cli_op("flat", workdir, flat),
        _cli_op("lorentzian", workdir, lor, closed_form),
        _cli_op("markov", workdir, markov),
    ]


def _series_op(rng):
    # population series at p = 2, r_max = 2, 41 times up to T = 0.25 / Gamma
    g = _u(rng, 0.3, 0.03)
    h = _u(rng, 0.0318, 0.03)
    st = _atom_state(rng, 0.9)
    basis = jc.DressedBasis(0.0, 20.0, g, 2)
    sd = rv.SpectralDensity.flat_window(h, 18.0, 22.0)
    init = jc.JCInitialState(_atom_matrix(st), 2)
    times = np.linspace(0.0, 0.25 / (0.5 * math.pi * h), 41)

    def call():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return jc.atomic_population_series(basis, sd, init, times, 2)

    def check(res):
        # the order-2 cap at p = 2 leaves nothing truncated (CLI audit
        # tolerance 2e-2); the series starts at the initial excited
        # population (test_initial_value, 5e-3) and never overshoots 1
        # (CLI population bound 1e-9)
        return [
            ("truncation_estimate", res.truncation_estimate, 2e-2),
            ("initial_value", abs(float(res.excited[0]) - st["rho22"]), 5e-3),
            ("population_bound", max(0.0, float(np.max(res.excited)) - 1.0), 1e-9),
        ]

    return Op("series", call, check)


def _contour_op(rng):
    # test_flat_profile_contour_inversion at 501 times; the deviation
    # from the Volterra reference jumps from 0.28e-3 to 0.85e-3 near
    # h = 0.0485, so h stays within 1% of the tested 0.05.  Inside that
    # range the inversion still misses at isolated points (1.65e-3 at
    # h = 0.0504227, w21 = 5.01837, with the reference converged to
    # 2.4e-6); such a miss counts as a failed op
    h = _u(rng, 0.05, 0.01)
    w21 = _u(rng, 5.0, 0.005)
    sd = rv.SpectralDensity.flat_window(h, w21 - 2.0, w21 + 2.0)
    T = 3.0 / (math.pi * h)
    dt = T / 3000
    times = np.arange(0, 3001, 6) * dt

    def call():
        return dy.wigner_weisskopf(sd, 0.0, w21, times)

    def check(pop):
        sys_ = kr.SystemSpec((0.0, w21), rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}))
        W = kr.solve_time_domain(sys_, T, dt)
        ref = np.abs(W.values[::6, 1, 1]) ** 2
        return [("volterra_dev", float(np.max(np.abs(pop - ref))), 1e-3)]

    return Op("contour", call, check)


def _cf_op(rng):
    # test_matches_generic_continued_fraction: depth 8 at four points,
    # here on two contour heights (one line solve each) instead of three
    g = _u(rng, 0.3, 0.03)
    h = _u(rng, 0.0318, 0.03)
    sys_ = jc.build_dressed_system(
        jc.DressedBasis(0.0, 20.0, g, 1), rv.SpectralDensity.flat_window(h, 18.0, 22.0)
    )
    zs = [
        complex(x + rng.uniform(-0.5, 0.5), y)
        for x, y in ((21.0, 1.5), (19.5, 1.5), (40.0, 2.0), (5.0, 2.0))
    ]

    def call():
        lk = kr.solve_continued_fraction(sys_, 8, zs)
        return [lk.evaluate(z) for z in zs]

    def check(vals):
        worst = 0.0
        for z, ref in zip(zs, vals):
            got = jc.kraus_recursion(sys_, z)
            worst = max(worst, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
        return [("recursion_rel_dev", worst, 1e-5)]

    return Op("continued_fraction", call, check)


def _sweep_op(rng):
    # criterion 09: rescaled recursion blocks approach the one-pole limit
    g = _u(rng, 0.3, 0.03)
    h = _u(rng, 0.0318, 0.03)
    basis = jc.DressedBasis(0.0, 20.0, g, 20)
    omega_t = complex(_u(rng, 2.0, 0.03), _u(rng, 1.0, 0.03))
    target = 1.0 / (omega_t + 1j * math.pi * h / 4.0)

    def call():
        dists, offs = [], []
        for lam, p in ((0.4, 5), (0.2, 10), (0.1, 20)):
            sys_ = jc.build_dressed_system(
                basis, rv.SpectralDensity.flat_window(lam * lam * h, 18.0, 22.0)
            )
            dist = off = 0.0
            for eps in (-1, 1):
                z = basis.energy(eps, p) + lam * lam * omega_t
                W = jc.kraus_recursion(sys_, z)
                i, j = basis.index(eps, p), basis.index(-eps, p)
                dist = max(dist, abs(lam * lam * W[i, i] - target))
                off = max(off, abs(lam * lam * W[i, j]))
            dists.append(dist)
            offs.append(off)
        return dists, offs

    def check(out):
        dists, offs = out
        checks = [
            ("limit_distance", dists[-1], 1e-2),
            ("distance_drop", dists[-1], dists[0]),
        ]
        checks += [
            (f"offdiag_ratio_{k}", b / a, 0.5**0.5)
            for k, (a, b) in enumerate(zip(offs, offs[1:]))
        ]
        return checks

    return Op("recursion_sweep", call, check)


def _frequency_round(rng, workdir):
    return [_series_op(rng), _contour_op(rng), _cf_op(rng), _sweep_op(rng)]


ROUNDS = {
    "jc_bitemporal": _jc_round,
    "generic_bitemporal": _generic_round,
    "two_level_long": _two_level_round,
    "frequency_domain": _frequency_round,
}
