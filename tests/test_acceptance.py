"""End-to-end acceptance checks for the shipped solvers.

One numbered test per acceptance item.  Each test prints a single
summary line with the measured figure, its tolerance, and PASS or
FAIL before any assertion runs, so a red test still reports its
numbers.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines.

The heavy reference runs (Volterra solves, the dressed bitemporal
pair) are built once in cached helpers and shared across tests.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import nmkraus.cli as cli
import nmkraus.dynamics as dy
import nmkraus.jaynescummings as jc
import nmkraus.kraus as kr
import nmkraus.laplace as lp
import nmkraus.reservoir as rv

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _report(num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:02d} {label}: {detail} -> {verdict}")


@functools.cache
def ww_lorentzian():
    # resonant narrow line, decay rate gamma = pi g2(omega21) = 0.5,
    # horizon 5/gamma, step 1e-3/gamma
    sd = rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0)
    sys = kr.SystemSpec((0.0, 200.0), rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}))
    start = time.perf_counter()
    W = kr.solve_time_domain(sys, 10.0, 2e-3)
    traj = dy.two_level_trajectory(sys, W, np.diag([0.0, 1.0]))
    ref = dy.wigner_weisskopf(sd, 0.0, 200.0, traj.times)
    elapsed = time.perf_counter() - start
    dev = float(np.max(np.abs(traj.matrices[:, 1, 1].real - ref)))
    return {"traj": traj, "dev": dev, "elapsed": elapsed}


@functools.cache
def flat_companion():
    # flat window around the gap, gamma = pi * height; run the stated
    # step and its half to expose the O(dt^2) trace drift
    sd = rv.SpectralDensity.flat_window(0.0318, 4.5, 5.5)
    sys = kr.SystemSpec((0.0, 5.0), rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}))
    gamma = math.pi * 0.0318
    trajs = []
    for dt in (1e-3 / gamma, 5e-4 / gamma):
        # the whole step nearest t = 20: the solver refuses a fraction
        W = kr.solve_time_domain(sys, round(20.0 / dt) * dt, dt)
        trajs.append(dy.two_level_trajectory(sys, W, np.diag([0.0, 1.0])))
    drifts = [float(np.max(t.trace_errors())) for t in trajs]
    return {"trajs": trajs, "drifts": drifts, "ratio": drifts[0] / drifts[1]}


@functools.cache
def markov_run():
    # lambda = 0.1 scaling of a unit-rate window; the emergent decay
    # rate is 2 gamma with gamma = pi g2(omega21) = 0.02
    lam = 0.1
    sd = rv.SpectralDensity.flat_window(lam * lam * 2.0 / math.pi, 4.2, 5.8)
    gamma = math.pi * float(sd.weight(5.0))
    sys = kr.SystemSpec((0.0, 5.0), rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}))
    W = kr.solve_time_domain(sys, 75.0, 0.01)
    traj = dy.two_level_trajectory(sys, W, np.diag([0.0, 1.0]))
    channel = dy.markovian_channel(gamma, 0.0, np.diag([0.0, 1.0]), traj.times)
    mask = (traj.times >= 0.25 * 75.0) & (traj.times <= 0.75 * 75.0)
    slope = np.polyfit(
        traj.times[mask], np.log(traj.matrices[:, 1, 1].real[mask]), 1
    )[0]
    M, N = dy.channel_pair(gamma, 0.0, traj.times)
    Mh = np.conj(np.swapaxes(M, -1, -2))
    Nh = np.conj(np.swapaxes(N, -1, -2))
    identity = float(np.max(np.abs(Mh @ M + Nh @ N - np.eye(2))))
    return {
        "traj": traj,
        "gamma": gamma,
        "rate_err": abs(-slope - 2.0 * gamma) / (2.0 * gamma),
        "channel_dev": float(np.max(np.abs(traj.matrices - channel))),
        "identity": identity,
    }


@functools.cache
def jc_reference():
    # single-photon weak coupling: dressed bitemporal ground truth on a
    # 320-step grid against the second-order population series
    basis = jc.DressedBasis(0.0, 20.0, 0.3, 1)
    sd = rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0)
    init = jc.JCInitialState(np.diag([0.0, 1.0]), 1)
    T, n = 60.0, 320
    start = time.perf_counter()
    sys = jc.build_dressed_system(basis, sd)
    W = kr.solve_time_domain(sys, T, T / n)
    xi = dy.solve_bitemporal(sys, W, jc.dressed_initial_state(basis, init))
    traj = dy.extract_density(xi)
    reduced = jc.reduce_atomic(basis, traj.matrices)
    series = jc.atomic_population_series(basis, sd, init, traj.times, 2)
    elapsed = time.perf_counter() - start
    dev = float(np.max(np.abs(series.excited - reduced[:, 1, 1].real)))
    return {
        "basis": basis,
        "sd": sd,
        "traj": traj,
        "reduced": reduced,
        "dev": dev,
        "elapsed": elapsed,
    }


def test_criterion_01_lorentzian_reference():
    run = ww_lorentzian()
    ok = run["dev"] <= 1e-3 and run["elapsed"] <= 10.0
    _report(
        1,
        "two-level decay vs closed two-pole form",
        ok,
        f"max deviation {run['dev']:.3e} (tol 1e-03), "
        f"runtime {run['elapsed']:.1f}s (limit 10s)",
    )
    assert run["dev"] <= 1e-3
    assert run["elapsed"] <= 10.0


def test_criterion_02_cross_solver_agreement():
    sd = rv.SpectralDensity.lorentzian(1.0, 5.0, 1.0)
    sys = kr.SystemSpec((0.0, 5.0), rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}))
    start = time.perf_counter()
    W = kr.solve_time_domain(sys, 40.0, 5e-3)
    rng = np.random.default_rng(20240817)
    zs = rng.uniform(0.0, 10.0, 10) + 1j * rng.uniform(1.0, 4.0, 10)
    cf = kr.solve_continued_fraction(sys, 2, tuple(zs))
    worst = 0.0
    for z in zs:
        direct = cf.evaluate(z)
        for k in range(2):
            via_time = lp.forward_transform(
                W.values[:, k, k], sys.energies[k], z, t=W.grid
            )
            worst = max(worst, abs(via_time - direct[k, k]) / abs(direct[k, k]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed <= 30.0
    _report(
        2,
        "time-domain transform vs continued fraction",
        ok,
        f"worst relative gap {worst:.3e} over 10 points (tol 1e-03), "
        f"runtime {elapsed:.1f}s (limit 30s)",
    )
    assert worst <= 1e-3
    assert elapsed <= 30.0


def test_criterion_03_trace_conservation():
    drift_a = float(np.max(ww_lorentzian()["traj"].trace_errors()))
    pair = flat_companion()
    drift_m = float(np.max(markov_run()["traj"].trace_errors()))
    worst = max(drift_a, pair["drifts"][0], drift_m)
    ok = worst <= 1e-6 and 3.0 <= pair["ratio"] <= 5.0
    _report(
        3,
        "trace drift at the stated step",
        ok,
        f"worst max|tr rho - 1| {worst:.3e} (tol 1e-06), "
        f"halving ratio {pair['ratio']:.2f} (expect about 4)",
    )
    assert drift_a <= 1e-6
    assert pair["drifts"][0] <= 1e-6
    assert drift_m <= 1e-6
    assert 3.0 <= pair["ratio"] <= 5.0


def test_criterion_04_positivity():
    eigs = []
    for traj in (
        ww_lorentzian()["traj"],
        *flat_companion()["trajs"],
        markov_run()["traj"],
        jc_reference()["traj"],
    ):
        eigs.append(float(np.min(np.linalg.eigvalsh(traj.matrices))))
    eigs.append(float(np.min(np.linalg.eigvalsh(jc_reference()["reduced"]))))
    worst = min(eigs)
    ok = worst >= -1e-10
    _report(
        4,
        "spectra stay nonnegative",
        ok,
        f"min eigenvalue {worst:.3e} over {len(eigs)} trajectories (floor -1e-10)",
    )
    assert worst >= -1e-10


def test_criterion_05_markov_limit():
    run = markov_run()
    ok = (
        run["rate_err"] <= 0.05
        and run["channel_dev"] <= 0.05
        and run["identity"] <= 1e-12
    )
    _report(
        5,
        "weak flat window vs amplitude damping",
        ok,
        f"fitted rate off by {100 * run['rate_err']:.2f}% (tol 5%), "
        f"channel deviation {run['channel_dev']:.3f} (tol 0.05), "
        f"completeness defect {run['identity']:.2e} (tol 1e-12)",
    )
    assert run["rate_err"] <= 0.05
    assert run["channel_dev"] <= 0.05
    assert run["identity"] <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="the settled stretch opens near tau = 5.5, not tau = 3: the "
    "deviation at tau just past 3 is 2.5e-2 for every photon number "
    "tried, independent of p; see the onset analysis in the review notes",
)
def test_criterion_06_plateau_literal_window():
    taus = np.arange(0.0, 160.0 + 0.05, 0.1)
    worst = 0.0
    for p in (20, 50, 100):
        F = jc.plateau_oracle(taus, p, 0.0, 1.0)
        window = (taus >= 3.0) & (taus <= p - 3.0 * math.sqrt(p))
        worst = max(worst, float(np.max(np.abs(F[window] - 0.5))))
    print(
        f"\ncriterion 06 (literal onset tau = 3): max deviation {worst:.3e} "
        "(tol 1e-02) -> FAIL (expected)"
    )
    assert worst <= 1e-2


def test_criterion_06_plateau_figure(tmp_path):
    taus = np.arange(0.0, 160.0 + 0.05, 0.1)
    start = time.perf_counter()
    plateau_dev, tail_max = 0.0, 0.0
    for p in (20, 50, 100):
        F = jc.plateau_oracle(taus, p, 0.0, 1.0)
        window = (taus >= 5.5) & (taus <= p - 3.0 * math.sqrt(p))
        plateau_dev = max(plateau_dev, float(np.max(np.abs(F[window] - 0.5))))
        tail_max = max(tail_max, float(np.max(F[taus >= p + 5.0 * math.sqrt(p)])))
    elapsed = time.perf_counter() - start
    rc = cli.main(
        ["run", str(CONFIG_DIR / "plateau_figure.yaml"), "--out", str(tmp_path)]
    )
    figure = tmp_path / "figure.csv"
    header = figure.read_text().splitlines()[0] if figure.exists() else ""
    ok = (
        plateau_dev <= 1e-2
        and tail_max <= 1e-2
        and elapsed <= 1.0
        and rc == 0
        and header == "tau,F_p20,F_p50,F_p100"
    )
    _report(
        6,
        "plateau at one half and decayed tail",
        ok,
        f"plateau deviation {plateau_dev:.3e}, tail {tail_max:.3e} "
        f"(tol 1e-02 each), oracle runtime {elapsed:.2f}s (limit 1s), "
        f"figure CSV exit {rc}",
    )
    assert plateau_dev <= 1e-2
    assert tail_max <= 1e-2
    assert elapsed <= 1.0
    assert rc == 0
    assert header == "tau,F_p20,F_p50,F_p100"


def test_criterion_07_series_vs_bitemporal():
    run = jc_reference()
    ok = run["dev"] <= 1e-2 and run["elapsed"] <= 300.0
    _report(
        7,
        "population series vs dressed bitemporal",
        ok,
        f"max gap {run['dev']:.3e} over the full horizon (tol 1e-02), "
        f"runtime {run['elapsed']:.0f}s (limit 300s)",
    )
    assert run["dev"] <= 1e-2
    assert run["elapsed"] <= 300.0


def test_criterion_08_vacuum_ground_attractor():
    run = jc_reference()
    gamma = math.pi * 0.0318 / 2.0
    times = np.linspace(0.0, 4.0 / gamma, 161)
    init = jc.JCInitialState(np.diag([0.0, 1.0]), 0)
    res = jc.atomic_population_series(run["basis"], run["sd"], init, times, 0)
    final = float(res.ground[-1])
    ok = final >= 0.95
    _report(
        8,
        "vacuum start relaxes to the ground state",
        ok,
        f"final ground population {final:.5f} (floor 0.95)",
    )
    assert final >= 0.95


def test_criterion_09_weak_coupling_sweep():
    basis = jc.DressedBasis(0.0, 20.0, 0.3, 20)
    Gamma = math.pi * 0.0318 / 4.0
    omega_t = 2.0 + 1.0j
    target = 1.0 / (omega_t + 1j * Gamma)
    dists, offs = [], []
    for lam, p in ((0.4, 5), (0.2, 10), (0.1, 20)):
        sd = rv.SpectralDensity.flat_window(lam * lam * 0.0318, 18.0, 22.0)
        sys = jc.build_dressed_system(basis, sd)
        dist = off = 0.0
        for eps in (-1, 1):
            z = basis.energy(eps, p) + lam * lam * omega_t
            W = jc.kraus_recursion(sys, z)
            i, j = basis.index(eps, p), basis.index(-eps, p)
            dist = max(dist, abs(lam * lam * W[i, i] - target))
            off = max(off, abs(lam * lam * W[i, j]))
        dists.append(dist)
        offs.append(off)
    ratios = [b / a for a, b in zip(offs, offs[1:])]
    ok = (
        dists[-1] <= 1e-2
        and dists[-1] < dists[0]
        and all(r <= 0.5**0.5 for r in ratios)
    )
    _report(
        9,
        "rescaled kernel approaches the diagonal limit",
        ok,
        f"diagonal distances {[f'{d:.4f}' for d in dists]} "
        f"(endpoint tol 1e-02), off-diagonal decay ratios "
        f"{[f'{r:.2f}' for r in ratios]} (each <= {0.5**0.5:.3f})",
    )
    assert dists[-1] <= 1e-2
    assert dists[-1] < dists[0]
    for r in ratios:
        assert r <= 0.5**0.5


def test_criterion_10_entropy_scaling():
    basis = jc.DressedBasis(0.0, 20.0, 0.3, 1)
    sd = rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0)
    rows = jc.entropy_limit_scan(
        basis, sd, 2.5, 1.0, [0.4, 0.2, 0.1], p_tilde=2.0, t_tilde=40.0
    )
    dists = list(rows["distance"])
    ok = dists[0] > dists[1] > dists[2]
    _report(
        10,
        "entropy-window scaling",
        ok,
        f"half-distance {[f'{d:.5f}' for d in dists]} strictly decreasing; "
        "out-of-window exponents raise named errors",
    )
    assert dists[0] > dists[1] > dists[2]
    with pytest.raises(jc.EntropyScalingError, match="alpha must exceed 2"):
        jc.entropy_limit_scan(basis, sd, 2.0, 1.0, [0.4, 0.2], p_tilde=2.0)
    with pytest.raises(jc.EntropyScalingError, match="below 4/3"):
        jc.entropy_limit_scan(basis, sd, 2.5, 4.0 / 3.0, [0.4, 0.2], p_tilde=2.0)
