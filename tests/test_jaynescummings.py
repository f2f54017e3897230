"""Dressed atom-cavity ladder: basis, recursion, series, references."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ladder_reference
import recursion_reference
import series_reference
import nmkraus.dynamics as dy
import nmkraus.jaynescummings as jc
import nmkraus.kraus as kr
import nmkraus.reservoir as rv

W_F = 20.0
COUPLING = 0.3
HEIGHT = 0.0318
GAMMA = math.pi * HEIGHT / 2.0
RHO_A = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
EXCITED_A = np.array([[0.0, 0.0], [0.0, 1.0]])


@functools.cache
def small_basis():
    return jc.DressedBasis(0.0, W_F, COUPLING, 1)


@functools.cache
def window_sd():
    return rv.SpectralDensity.flat_window(HEIGHT, 18.0, 22.0)


@functools.cache
def silent_sd():
    return rv.SpectralDensity.flat_window(0.0, 18.0, 22.0)


@functools.cache
def small_system():
    return jc.build_dressed_system(small_basis(), window_sd())


@functools.cache
def bitemporal_reference():
    # short plateau-window run shared by the series comparisons
    basis = small_basis()
    T, n = 24.0, 128
    dt = T / n
    sys = small_system()
    W = kr.solve_time_domain(sys, T, dt)
    rho0 = jc.dressed_initial_state(basis, jc.JCInitialState(EXCITED_A, 1))
    xi = dy.solve_bitemporal(sys, W, rho0)
    return dy.extract_density(xi)


class TestDressedBasis:
    def test_state_ordering(self):
        b = small_basis()
        assert b.dim == 5
        assert b.states[0] == (1, -1)
        assert (-1, -1) not in b.states
        en = [b.energy(e, n) for e, n in b.states]
        assert np.all(np.diff(en) > 0)

    def test_state_count_scales_with_cutoff(self):
        b = jc.DressedBasis(0.0, W_F, COUPLING, 6)
        assert b.dim == 15 == len(b.states)

    def test_energy_values(self):
        b = small_basis()
        assert b.energy(1, -1) == 0.0
        assert b.energy(-1, 0) == pytest.approx(W_F - COUPLING)
        assert b.energy(1, 1) == pytest.approx(2 * W_F + COUPLING * math.sqrt(2))
        assert b.omega_f == W_F

    def test_index_roundtrip(self):
        b = jc.DressedBasis(1.0, 7.0, 0.5, 3)
        for i, s in enumerate(b.states):
            assert b.index(*s) == i

    def test_step_and_normalization_helpers(self):
        assert jc.DressedBasis.nu(-1) == 1.0
        assert jc.DressedBasis.nu(4) == pytest.approx(1 / math.sqrt(2))

    def test_coupling_window_guard(self):
        with pytest.raises(ValueError):
            jc.DressedBasis(0.0, 20.0, 20.5, 1)
        with pytest.raises(ValueError):
            jc.DressedBasis(0.0, 20.0, -0.1, 1)

    def test_rung_overlap_guard(self):
        with pytest.raises(ValueError, match="overlap"):
            jc.DressedBasis(0.0, 10.0, 9.0, 2)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            jc.DressedBasis(0.0, W_F, COUPLING, 0)


class TestDressedSystem:
    def test_is_a_system_table(self):
        sys = small_system()
        assert isinstance(sys, kr.SystemSpec)
        assert sys.dim == 5
        assert sys.basis is small_basis()
        assert sys.kernel.sd is window_sd()
        assert sys.energies == tuple(
            small_basis().energy(e, n) for e, n in small_basis().states
        )

    def test_slot_count_and_weights(self):
        sys = small_system()
        b = small_basis()
        slots = {
            tuple(i + 1 for i in s): w
            for s, w in zip(sys.kernel.slots.tolist(), sys.kernel.weights.tolist())
        }
        assert len(slots) == 36
        g = b.index(1, -1) + 1
        up = b.index(1, 0) + 1
        assert slots[(up, g, g, up)] == pytest.approx(0.5)
        lo = b.index(-1, 0) + 1
        top = b.index(-1, 1) + 1
        topp = b.index(1, 1) + 1
        assert slots[(top, lo, lo, topp)] == pytest.approx(-0.25)

    def test_kernel_hermiticity(self):
        # c_(kl)(mn)(t,s) against conj c_(nm)(lk)(s,t), an absent slot
        # reading zero
        k = small_system().kernel
        table = {tuple(s): w for s, w in zip(k.slots.tolist(), k.weights.tolist())}
        t, s = 0.7, 0.2
        c_ts = rv.correlation_time(k.sd, t, s, k.beta_inv)
        c_st = rv.correlation_time(k.sd, s, t, k.beta_inv)
        worst = max(
            abs(w * c_ts - np.conj(table.get((n, m, l, q), 0.0) * c_st))
            for (q, l, m, n), w in table.items()
        )
        assert worst < 1e-12

    def test_accepted_by_volterra_solver(self):
        sol = kr.solve_time_domain(small_system(), 0.5, 0.01)
        assert np.max(np.abs(sol.values[0] - np.eye(5))) == 0.0
        assert np.all(np.isfinite(sol.values))


def _fresh_stdout(code):
    """Stripped stdout of ``code`` in a fresh interpreter on this package."""
    env = dict(os.environ)
    src = str(Path(jc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


class TestRecursion:
    def test_import_leaves_scipy_signal_out(self):
        code = "import sys, nmkraus; print('scipy.signal' in sys.modules)"
        assert _fresh_stdout(code) == "False"

    def test_cli_import_leaves_scipy_integrate_out(self):
        code = "import sys, nmkraus.cli; print('scipy.integrate' in sys.modules)"
        assert _fresh_stdout(code) == "False"

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, nmkraus.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        assert _fresh_stdout(code) == "[]"

    def test_flat_window_laplace_side_loads_no_scipy(self):
        # the Laplace-side path on a flat window with lo > 0: the ladder,
        # the recursion's comb FFTs, and a continued-fraction line whose
        # 4,096 modes sit on graded panels
        code = (
            "import sys\n"
            "import nmkraus.jaynescummings as jc, nmkraus.kraus as kr, nmkraus.reservoir as rv\n"
            "sd = rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0)\n"
            "ds = jc.build_dressed_system(jc.DressedBasis(0.0, 20.0, 0.3, 1), sd)\n"
            "jc.kraus_recursion(ds, 19.5 + 1.5j)\n"
            "kr.solve_continued_fraction(ds, 8, [19.5 + 1.5j])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        assert _fresh_stdout(code) == "[]"

    @pytest.mark.parametrize("sizes", [(16501, 1501), (193601, 1501), (7, 3)])
    def test_overlap_save_matches_fftconvolve(self, sizes):
        from scipy import fft as sfft
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(sizes[0])
        a = rng.normal(size=sizes[0]) + 1j * rng.normal(size=sizes[0])
        b = rng.uniform(size=sizes[1]).astype(complex)
        ref = fftconvolve(a, b, mode="full")
        # the full convolution is the valid part of the zero-padded input
        wf = sfft.fft(b, sfft.next_fast_len(max(16384, 4 * b.size)))
        got = jc._overlap_save(np.pad(a, b.size - 1), wf, b.size)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_free_limit_is_diagonal_exact(self):
        sys = jc.build_dressed_system(small_basis(), silent_sd())
        z = 1.5 + 2.0j
        W = jc.kraus_recursion(sys, z)
        free = np.array([1.0 / (z - e) for e in sys.energies])
        assert np.max(np.abs(np.diag(W) - free)) < 1e-14
        assert np.max(np.abs(W - np.diag(np.diag(W)))) == 0.0

    def test_ground_entry_closed_form(self):
        sys = small_system()
        z = 21.0 + 1.0j
        W = jc.kraus_recursion(sys, z)
        assert abs(W[0, 0] - 1.0 / z) < 1e-13

    def test_block_structure_exact_zeros(self):
        sys = small_system()
        W = jc.kraus_recursion(sys, 20.0 + 1.5j)
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = True
        mask[1:3, 1:3] = True
        mask[3:5, 3:5] = True
        assert np.all(W[~mask] == 0.0)
        assert np.all(W[np.eye(5, dtype=bool)] != 0.0)

    @pytest.mark.parametrize("sd", [
        window_sd(),
        pytest.param(rv.SpectralDensity.lorentzian(0.5, 20.0, 1.0), marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 6: on a Lorentzian the recursion and the "
            "continued fraction differ by 2.5e-5 to 1.2e-4 relative, because the "
            "recursion's comb stops at the support cut (center +- 10 widths) while "
            "the continued fraction's modes cover the whole half-line")),
    ], ids=["flat_window", "lorentzian"])
    def test_matches_generic_continued_fraction(self, sd):
        sys = jc.build_dressed_system(small_basis(), sd)
        zs = [21.0 + 1.0j, 19.5 + 1.5j, 40.0 + 1.0j, 5.0 + 2.0j]
        lk = kr.solve_continued_fraction(sys, 8, zs)
        for z in zs:
            got = jc.kraus_recursion(sys, z)
            ref = lk.evaluate(z)
            assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-5

    def test_adjoint_mirror(self):
        sys = small_system()
        z = 20.5 - 1.2j
        left = jc.adjoint_recursion(sys, z)
        right = np.conj(jc.kraus_recursion(sys, np.conj(z)))
        assert np.max(np.abs(left - right)) == 0.0

    def test_upper_half_plane_required(self):
        with pytest.raises(rv.LaplaceDomainError):
            jc.kraus_recursion(small_system(), 20.0 - 0.5j)
        with pytest.raises(rv.LaplaceDomainError):
            jc.kraus_recursion(small_system(), 20.0)

    def test_thermal_kernel_refused(self):
        # the comb has no occupation factors, so a thermal ladder would
        # get the zero-temperature matrix back
        sys = small_system()
        hot = replace(sys, kernel=replace(sys.kernel, beta_inv=5.0))
        with pytest.raises(ValueError, match="beta_inv = 5.0"):
            jc.kraus_recursion(hot, 19.5 + 1.5j)
        with pytest.raises(ValueError, match="beta_inv"):
            jc.adjoint_recursion(hot, 19.5 - 1.5j)

    def test_oversized_ladder_line_raises_before_building_it(self):
        # Im z = 1e-5 sets the comb step to 2.5e-6, so the n_max = 1
        # ladder would need 26,400,001 line points, 403 MiB per complex
        # array; the refusal comes first, so the peak stays below one
        # complex array at the cap
        tracemalloc.start()
        try:
            with pytest.raises(kr.LineResolutionError, match="26400001 points") as info:
                jc.kraus_recursion(small_system(), 21.0 + 1e-5j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.npts == 26_400_001 > jc._MAX_LADDER_POINTS
        assert peak < 16 * jc._MAX_LADDER_POINTS

    @pytest.mark.parametrize("call, npts", [
        (lambda: jc.kraus_recursion(small_system(), 21.0 + 1e-4j), 2_640_001),
        (lambda: jc.atomic_population_series(
            small_basis(), window_sd(), jc.JCInitialState(EXCITED_A, 1),
            np.linspace(0.0, 1e4, 5), 2), 2_376_972),
    ], ids=["recursion", "series"])
    def test_oversized_ladder_line_raises_before_building_its_comb(self, monkeypatch,
                                                                  call, npts):
        # with the cap at 65,536 points the combs over [18, 22] (160,001
        # and 80,001 nodes) outgrow the cap themselves; the line size
        # follows from the comb's node range alone, so the refusal comes
        # before the comb is built, which used to peak at 6.3 and 3.1 MiB
        monkeypatch.setattr(jc, "_MAX_LADDER_POINTS", 1 << 16)
        tracemalloc.start()
        try:
            with pytest.raises(kr.LineResolutionError) as info:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.npts == npts
        assert peak < 1 << 20

    def test_singular_block_error_payload(self):
        err = jc.SingularBlockError(3, 20.0 + 0.1j)
        assert err.level == 3
        assert err.z == 20.0 + 0.1j
        assert isinstance(err, ArithmeticError)


def _sweep_points():
    # the six criterion-09 evaluation points
    basis = jc.DressedBasis(0.0, W_F, COUPLING, 20)
    for lam, p in ((0.4, 5), (0.2, 10), (0.1, 20)):
        sys = jc.build_dressed_system(
            basis, rv.SpectralDensity.flat_window(lam**2 * HEIGHT, 18.0, 22.0)
        )
        for eps in (-1, 1):
            yield sys, basis.energy(eps, p) + lam**2 * (2.0 + 1.0j)


def _small_points():
    zs = [21.0 + 1.0j, 19.5 + 1.5j, 40.0 + 1.0j, 5.0 + 2.0j, 20.0 + 1.5j, 20.5 + 0.3j]
    for z in zs:
        yield small_system(), z


def _rel_dev(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestOverlapSaveAgreement:
    """The overlap-save recursion against the full-line reference."""

    def test_kraus_recursion(self, monkeypatch):
        points = list(_small_points()) + list(_sweep_points())
        got = [jc.kraus_recursion(sys, z) for sys, z in points]
        monkeypatch.setattr(jc, "_line_blocks", recursion_reference._line_blocks)
        for (sys, z), g in zip(points, got):
            ref = jc.kraus_recursion(sys, z)
            assert np.array_equal(g == 0.0, ref == 0.0)
            assert _rel_dev(g, ref) <= 1e-12

    @pytest.mark.parametrize("n_vis", [2, 777, 40001])
    def test_visible_blocks(self, n_vis):
        args = (small_basis(), window_sd(), 15.0, 0.01, n_vis, 0.4, 3)
        got = jc._line_blocks(*args)
        ref = recursion_reference._line_blocks(*args)
        assert sorted(got) == sorted(ref)
        for lev in ref:
            assert got[lev].shape == ref[lev].shape
            assert _rel_dev(got[lev], ref[lev]) <= 1e-12

    def test_population_series(self, monkeypatch):
        basis = jc.DressedBasis(0.0, W_F, COUPLING, 2)
        init = jc.JCInitialState(RHO_A, 2)
        t = np.linspace(0.0, 0.25 / GAMMA, 41)
        got = jc.atomic_population_series(basis, window_sd(), init, t, 2)
        monkeypatch.setattr(jc, "_line_blocks", recursion_reference._line_blocks)
        ref = jc.atomic_population_series(basis, window_sd(), init, t, 2)
        assert _rel_dev(got.excited, ref.excited) <= 1e-12
        assert np.allclose(got.term_peaks, ref.term_peaks, rtol=1e-12, atol=0.0)


def _misaligned_points():
    # small_system's points on windows whose ends fall between comb nodes
    for lo, hi in ((18.3, 21.7), (17.9, 22.05)):
        sys = jc.build_dressed_system(
            small_basis(), rv.SpectralDensity.flat_window(HEIGHT, lo, hi)
        )
        for _, z in _small_points():
            yield sys, z
        yield sys, 19.0 + 0.5j


def _blocks_up_to(sys, z, h, top):
    # the kraus_recursion matrix at comb step h, through photon level top
    basis = sys.basis
    blocks = jc._line_blocks(basis, sys.kernel.sd, z.real, h, 1, z.imag, top)
    out = np.zeros((2 * top + 3, 2 * top + 3), dtype=complex)
    out[0, 0] = blocks[-1][0]
    for lev in range(top + 1):
        i = basis.index(-1, lev)
        out[i : i + 2, i : i + 2] = blocks[lev][0]
    return out


class TestEndCorrectedComb:
    """Euler-Maclaurin end corrections on every comb: recursion, table, series."""

    @pytest.mark.parametrize("theta_hi", [0.0, 0.3, 0.99])
    @pytest.mark.parametrize("theta_lo", [0.0, 0.3, 0.99])
    def test_cubics_are_exact_wherever_the_ends_fall(self, theta_lo, theta_hi):
        h = 0.01
        lo, hi = (1800 - theta_lo) * h, (2200 + theta_hi) * h
        q0, q1, wq = jc._comb(rv.SpectralDensity.flat_window(1.0, lo, hi), h)
        assert (q0, q1) == (1800, 2200)
        w = np.arange(q0, q1 + 1) * h
        for k in range(4):
            exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            assert abs(np.sum(wq * w**k) - exact) <= 1e-13 * exact

    def test_end_weights_on_aligned_ends(self):
        # the trapezoid's half weight plus the correction, node by node
        got = 0.5 * (np.arange(4) == 0) + jc._end_weights(0.0)
        assert np.allclose(got, [0.3486, 1.2458 - 1, 0.8792 - 1, 1.0264 - 1], atol=1e-4)

    def test_fourth_order_on_a_misaligned_window(self):
        # the plain comb drops the partial end panels there: first order
        lo, hi, c = 18.3, 21.7, 20.5 + 0.3j
        sd = rv.SpectralDensity.flat_window(1.0, lo, hi)
        exact = np.log(c - lo) - np.log(c - hi)
        errs = []
        for h in ((hi - lo) / 750, (hi - lo) / 1500):
            q0, q1, wq = jc._comb(sd, h)
            errs.append(abs(np.sum(wq / (c - np.arange(q0, q1 + 1) * h)) - exact))
        assert errs[0] >= 12.0 * errs[1]

    @pytest.mark.parametrize(
        "k", range(6), ids=[f"lam{lam}_eps{e}" for lam in (0.4, 0.2, 0.1) for e in (-1, 1)]
    )
    def test_criterion_09_points_against_a_finer_step(self, k):
        sys, z = list(_sweep_points())[k]
        p = (5, 10, 20)[k // 2]
        h = min(4.0 / 750, z.imag / 4.0)
        got = jc.kraus_recursion(sys, z)[: 2 * p + 3, : 2 * p + 3]
        assert _rel_dev(got, _blocks_up_to(sys, z, h / 12, p)) <= 1e-7

    def test_misaligned_windows_against_a_finer_step(self):
        for sys, z in _misaligned_points():
            lo, hi = sys.kernel.sd.support()
            h = min((hi - lo) / 750, z.imag / 4.0)
            got = jc.kraus_recursion(sys, z)
            assert _rel_dev(got, _blocks_up_to(sys, z, h / 12, 1)) <= 1e-11

    def test_recursion_step_follows_the_weight(self, monkeypatch):
        # a table's interpolation kinks keep its comb at second order,
        # so it takes twice the steps
        steps = []
        line_blocks = jc._line_blocks

        def spy(basis, sd, x0, h, *rest):
            steps.append(h)
            return line_blocks(basis, sd, x0, h, *rest)

        monkeypatch.setattr(jc, "_line_blocks", spy)
        omega = np.linspace(18.0, 22.0, 41)
        table = rv.SpectralDensity.tabulated(omega, np.full(41, HEIGHT))
        for sd in (window_sd(), table):
            jc.kraus_recursion(jc.build_dressed_system(small_basis(), sd), 20.5 + 1.0j)
        assert steps == [4.0 / 750, 4.0 / 1500]

    @pytest.mark.parametrize("h", [4.0 / 1500, 0.0123, 1.0 / 105])
    def test_linear_table_is_integrated_exactly(self, h):
        # a table gets the end corrections too: a linear table times a
        # quadratic is a cubic, exact wherever the ends fall (h = 1/105
        # puts q1 h just past the upper end)
        omega = np.linspace(18.0, 22.0, 41)
        sd = rv.SpectralDensity.tabulated(omega, HEIGHT * (1.0 + 0.05 * (omega - 20.0)))
        q0, q1, wq = jc._comb(sd, h)
        w = np.arange(q0, q1 + 1) * h
        for k in range(3):
            m = [(22.0 ** (k + j) - 18.0 ** (k + j)) / (k + j) for j in (1, 2)]
            exact = HEIGHT * ((1.0 - 0.05 * 20.0) * m[0] + 0.05 * m[1])
            assert abs(np.sum(wq * w**k) - exact) <= 1e-13 * exact

    def test_table_comb_is_second_order_at_misaligned_ends(self):
        # the interior table nodes sit on the comb at both steps, so their
        # kinks add a clean second-order error; the ends fall between
        # nodes, where a plain trapezoid is first order
        omega = np.concatenate([[18.33], np.arange(184, 217) / 10.0, [21.67]])
        sd = rv.SpectralDensity.tabulated(omega, HEIGHT * (1.0 + 0.3 * np.sin(2.0 * omega)))
        c = 20.5 + 0.3j
        x, gw = np.polynomial.legendre.leggauss(20)
        a, b = omega[:-1, None], omega[1:, None]
        nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
        exact = np.sum(0.5 * (b - a) * gw * sd.weight(nodes) / (c - nodes))
        errs = []
        for h in (0.1 / 32, 0.1 / 64):
            q0, q1, wq = jc._comb(sd, h)
            errs.append(abs(np.sum(wq / (c - np.arange(q0, q1 + 1) * h)) - exact))
        assert errs[0] >= 3.5 * errs[1]

    def test_smooth_table_against_a_finer_step(self):
        # at the table's 1,500 steps, against 24 times finer
        omega = np.linspace(18.3, 21.7, 41)
        sd = rv.SpectralDensity.tabulated(omega, HEIGHT * (1.0 + 0.3 * np.sin(2.0 * omega)))
        sys = jc.build_dressed_system(small_basis(), sd)
        for z in (20.5 + 1.0j, 19.7 + 0.3j, 21.2 + 2.0j):
            h = min(3.4 / 1500, z.imag / 4.0)
            got = jc.kraus_recursion(sys, z)
            assert _rel_dev(got, _blocks_up_to(sys, z, h / 24, 1)) <= 1e-7

    def test_linear_end_weights_stay_positive(self):
        theta = np.linspace(0.0, 1.0, 2001)[:-1]
        w = np.array([[0.5, 1.0] + jc._end_weights(t, 2) for t in theta])
        assert np.all(w[:, 0] >= 5.0 / 12.0 - 1e-15) and np.all(w[:, 0] <= 23.0 / 12.0)
        assert np.all(w[:, 1] >= 7.0 / 12.0) and np.all(w[:, 1] <= 13.0 / 12.0 + 1e-15)

    @pytest.mark.parametrize("T", [12.0, 24.0, 48.0])
    def test_series_outer_weights_sum_to_the_window(self, monkeypatch, T):
        # on a window whose ends fall between the outer nodes, no partial
        # end panel is dropped, and every weight stays positive
        combs = []
        sum_orders = jc._sum_orders

        def spy(Q, inner, ow, oidx, *rest):
            combs.append((ow, oidx))
            return sum_orders(Q, inner, ow, oidx, *rest)

        monkeypatch.setattr(jc, "_sum_orders", spy)
        sd = rv.SpectralDensity.flat_window(HEIGHT, 18.3, 21.7)
        init = jc.JCInitialState(EXCITED_A, 1)
        jc.atomic_population_series(small_basis(), sd, init, np.linspace(0.0, T, 5), 1)
        ow, oidx = combs[0]
        assert abs(np.sum(ow) - HEIGHT * 3.4) <= 1e-13 * HEIGHT * 3.4
        assert np.all(ow > 0)
        q0, q1, _ = jc._comb(sd, min(2.0 / T / 4.0, 3.4 / 400))
        assert q0 <= oidx[0] and oidx[-1] <= q1

    def test_too_few_nodes_raise(self):
        with pytest.raises(ValueError, match="leaves 7 nodes .* at least 8"):
            jc._comb(window_sd(), 0.6)

    def test_series_end_nodes_keep_their_weight(self, monkeypatch):
        # at T = 52.5 the step is 1/105, and q1 h = 2310 / 105 rounds past
        # the window's upper end 22
        weights = []
        sum_orders = jc._sum_orders

        def spy(Q, inner, ow, *rest):
            weights.append(ow)
            return sum_orders(Q, inner, ow, *rest)

        monkeypatch.setattr(jc, "_sum_orders", spy)
        init = jc.JCInitialState(EXCITED_A, 1)
        t = np.linspace(0.0, 52.5, 5)
        jc.atomic_population_series(small_basis(), window_sd(), init, t, 1)
        assert weights[0][0] != 0.0 and weights[0][-1] != 0.0
        h = min(2.0 / 52.5 / 4.0, 4.0 / 400)
        table = rv.SpectralDensity.tabulated(np.linspace(18.0, 22.0, 41), np.full(41, HEIGHT))
        for sd in (window_sd(), table):
            q0, q1, wq = jc._comb(sd, h)
            assert q1 * h > 22.0
            assert wq[0] != 0.0 and wq[-1] != 0.0


class TestWeakCoupling:
    # scaled-argument convergence of the image blocks to the one-pole
    # form, coupling scaled down while the photon number scales up
    def test_limit_shape(self):
        basis = jc.DressedBasis(0.0, W_F, COUPLING, 20)
        gamma = math.pi * HEIGHT / 4.0
        omt = 2.0 + 1.0j
        target = 1.0 / (omt + 1j * gamma)
        dists, offs = [], []
        for lam, p in ((0.4, 5), (0.2, 10), (0.1, 20)):
            sd = rv.SpectralDensity.flat_window(lam**2 * HEIGHT, 18.0, 22.0)
            sys = jc.build_dressed_system(basis, sd)
            worst_d, worst_o = 0.0, 0.0
            for eps in (-1, 1):
                z = basis.energy(eps, p) + lam**2 * omt
                W = jc.kraus_recursion(sys, z)
                i = basis.index(eps, p)
                j = basis.index(-eps, p)
                worst_d = max(worst_d, abs(lam**2 * W[i, i] - target))
                worst_o = max(worst_o, abs(lam**2 * W[i, j]))
            dists.append(worst_d)
            offs.append(worst_o)
        assert dists[-1] < 1e-2
        assert dists[-1] < dists[0]
        for a, b in zip(offs, offs[1:]):
            assert b / a < 0.75


class TestInitialState:
    def test_projection_entries(self):
        b = small_basis()
        rho = jc.dressed_initial_state(b, jc.JCInitialState(RHO_A, 1))
        for e1 in (-1, 1):
            for e2 in (-1, 1):
                got = rho[b.index(e1, 1), b.index(e2, 1)]
                assert got == pytest.approx(0.5 * e1 * e2 * RHO_A[1, 1])
                got = rho[b.index(e1, 0), b.index(e2, 0)]
                assert got == pytest.approx(0.5 * RHO_A[0, 0])
                got = rho[b.index(e1, 1), b.index(e2, 0)]
                assert got == pytest.approx(0.5 * e1 * RHO_A[1, 0])
        assert rho[0, 0] == 0.0
        assert np.trace(rho) == pytest.approx(1.0)

    def test_reduction_roundtrip(self):
        b = small_basis()
        for p in (0, 1):
            rho = jc.dressed_initial_state(b, jc.JCInitialState(RHO_A, p))
            back = jc.reduce_atomic(b, rho)
            assert np.max(np.abs(back - RHO_A)) < 1e-14

    def test_cutoff_guard(self):
        with pytest.raises(jc.PhotonCutoffError):
            jc.dressed_initial_state(small_basis(), jc.JCInitialState(RHO_A, 2))

    def test_state_validation(self):
        bad = np.array([[0.5, 0.4], [0.1, 0.5]])
        with pytest.raises(dy.StateValidationError):
            jc.JCInitialState(bad, 1)
        with pytest.raises(ValueError):
            jc.JCInitialState(RHO_A, -1)
        with pytest.raises(ValueError):
            jc.JCInitialState(RHO_A, 1.5)


def _random_density(rng, dim, batch=()):
    g = rng.normal(size=batch + (dim, dim)) + 1j * rng.normal(size=batch + (dim, dim))
    rho = g @ np.conj(np.swapaxes(g, -1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


class TestLadderAgreement:
    """The amplitude-table ladder against the per-state loop reference."""

    @pytest.mark.parametrize("n_max", [1, 2, 7, 20])
    def test_slots_and_weights_byte_identical(self, n_max):
        basis = jc.DressedBasis(0.0, W_F, COUPLING, n_max)
        new = jc.build_dressed_system(basis, window_sd())
        ref = ladder_reference.build_dressed_system(basis, window_sd())
        assert new.energies == ref.energies
        assert new.kernel.beta_inv == ref.kernel.beta_inv
        for a, b in ((new.kernel.slots, ref.kernel.slots),
                     (new.kernel.weights, ref.kernel.weights)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
    def test_initial_state_byte_identical(self, n_max):
        basis = jc.DressedBasis(0.0, W_F, COUPLING, n_max)
        rng = np.random.default_rng(n_max)
        for p in range(n_max + 1):
            init = jc.JCInitialState(_random_density(rng, 2), p)
            new = jc.dressed_initial_state(basis, init)
            ref = ladder_reference.dressed_initial_state(basis, init)
            assert new.dtype == ref.dtype
            assert new.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_max", [1, 3, 20])
    def test_reduction_matches_to_rounding(self, n_max):
        basis = jc.DressedBasis(0.0, W_F, COUPLING, n_max)
        rho = _random_density(np.random.default_rng(n_max), basis.dim, (3, 4))
        new = jc.reduce_atomic(basis, rho)
        ref = ladder_reference.reduce_atomic(basis, rho)
        assert new.shape == ref.shape == (3, 4, 2, 2)
        assert np.max(np.abs(new - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestSeries:
    def test_zero_coupling_holds_population(self):
        t = np.linspace(0.0, 10.0, 41)
        res = jc.atomic_population_series(
            small_basis(), silent_sd(), jc.JCInitialState(RHO_A, 1), t, 2
        )
        assert np.max(np.abs(res.excited - 0.7)) < 1e-12
        assert np.max(np.abs(res.ground - 0.3)) < 1e-12

    def test_initial_value(self):
        t = np.linspace(0.0, 3.0 / GAMMA, 61)
        res = jc.atomic_population_series(
            small_basis(), window_sd(), jc.JCInitialState(EXCITED_A, 1), t, 2
        )
        assert abs(res.excited[0] - 1.0) < 5e-3

    def test_matches_bitemporal_evolution(self):
        traj = bitemporal_reference()
        reduced = jc.reduce_atomic(small_basis(), traj.matrices)
        res = jc.atomic_population_series(
            small_basis(), window_sd(), jc.JCInitialState(EXCITED_A, 1),
            traj.times, 2,
        )
        assert np.max(np.abs(res.excited - reduced[:, 1, 1].real)) < 1e-2

    def test_reduction_preserves_trace(self):
        traj = bitemporal_reference()
        reduced = jc.reduce_atomic(small_basis(), traj.matrices)
        full = np.trace(traj.matrices, axis1=1, axis2=2)
        part = np.trace(reduced, axis1=1, axis2=2)
        assert np.max(np.abs(part - full)) < 1e-12
        # coarse-step drift only; the fine-step budget lives in the audit
        assert np.max(np.abs(full - 1.0)) < 2e-3

    def test_ground_state_attractor(self):
        t = np.linspace(0.0, 4.0 / GAMMA, 161)
        res = jc.atomic_population_series(
            small_basis(), window_sd(), jc.JCInitialState(EXCITED_A, 0), t, 0
        )
        assert res.ground[-1] >= 0.95
        assert np.all(np.diff(res.excited) < 5e-3)

    def test_truncation_warning(self):
        basis = jc.DressedBasis(0.0, W_F, COUPLING, 2)
        t = np.linspace(0.0, 2.0 / GAMMA, 41)
        init = jc.JCInitialState(EXCITED_A, 2)
        with pytest.warns(UserWarning, match="truncation"):
            short = jc.atomic_population_series(basis, window_sd(), init, t, 0)
        assert short.truncation_estimate > 2e-2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = jc.atomic_population_series(basis, window_sd(), init, t, 2)
        assert full.truncation_estimate == 0.0

    def test_ground_state_without_photons_has_no_terms(self):
        # no order contributes: the excited population is exactly zero
        t = np.linspace(0.0, 10.0, 41)
        ground = np.array([[1.0, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = jc.atomic_population_series(
                small_basis(), window_sd(), jc.JCInitialState(ground, 0), t, 2
            )
        assert np.all(res.excited == 0.0)
        assert res.truncation_estimate == 0.0
        assert res.term_peaks == ()

    def test_non_finite_time_refused(self):
        init = jc.JCInitialState(EXCITED_A, 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                jc.atomic_population_series(
                    small_basis(), window_sd(), init, np.array([0.0, 0.5, bad]), 1
                )

    def test_argument_validation(self):
        init = jc.JCInitialState(EXCITED_A, 1)
        with pytest.raises(jc.PhotonCutoffError):
            jc.atomic_population_series(
                small_basis(), window_sd(), jc.JCInitialState(EXCITED_A, 4),
                np.linspace(0, 1, 5), 1,
            )
        with pytest.raises(ValueError):
            jc.atomic_population_series(
                small_basis(), window_sd(), init, np.array([1.0, 0.5]), 1
            )
        with pytest.raises(ValueError):
            jc.atomic_population_series(
                small_basis(), window_sd(), init, np.linspace(0, 1, 5), -1
            )


# criterion 07's ladder and request, and the p = 2, r = 2 case of
# TestOverlapSaveAgreement: (basis, init, times, r_max)
SERIES_CASES = {
    "criterion_07": (
        small_basis, jc.JCInitialState(EXCITED_A, 1), np.linspace(0.0, 60.0, 321), 2
    ),
    "p2_r2": (
        lambda: jc.DressedBasis(0.0, W_F, COUPLING, 2),
        jc.JCInitialState(RHO_A, 2),
        np.linspace(0.0, 0.25 / GAMMA, 41),
        2,
    ),
}


class TestSeriesAtRequestedTimes:
    @pytest.mark.parametrize("case", sorted(SERIES_CASES))
    def test_matches_dense_grid_route(self, case):
        # times on the reference's FFT grid, ending at the same final
        # time so that the contour height and line step agree
        make_basis, init, t, r_max = SERIES_CASES[case]
        basis = make_basis()
        tk, total, _ = series_reference.dense_series(basis, window_sd(), init, t, r_max)
        sel = np.flatnonzero(tk < t[-1])[::5]
        res = jc.atomic_population_series(
            basis, window_sd(), init, np.append(tk[sel], t[-1]), r_max
        )
        assert np.max(np.abs(res.excited[:-1] - total[sel])) <= 1e-12 * np.max(total)

    def test_values_do_not_depend_on_other_times(self):
        # criterion 07's 321 times span several 4 MiB phase blocks
        basis, init, t, r_max = SERIES_CASES["criterion_07"]
        full = jc.atomic_population_series(basis(), window_sd(), init, t, r_max)
        sub = jc.atomic_population_series(basis(), window_sd(), init, t[::5], r_max)
        assert np.max(np.abs(sub.excited - full.excited[::5])) <= 1e-13

    def test_peaks_are_taken_over_the_requested_times(self):
        # an atom in its ground state with one photon peaks between the
        # coarse times; the peak is read at the times, not between them
        t = np.linspace(0.0, 3.0 / GAMMA, 13)
        init = jc.JCInitialState(np.diag([1.0, 0.0]), 1)
        res = jc.atomic_population_series(small_basis(), window_sd(), init, t, 0)
        assert res.truncation_estimate == res.term_peaks[0] == np.max(res.excited)


class TestPlateauOracle:
    def test_starts_at_excited_population(self):
        F = jc.plateau_oracle(0.0, 20, 0.3, 0.7)
        assert float(F) == pytest.approx(0.7)

    def test_brute_force_small_p(self):
        p = 5
        for tau in (0.5, 2.0, 7.0):
            ref = 0.7 * math.exp(-tau)
            for r in range(1, p + 1):
                fac = 1.0 - 0.3 * (r == p)
                ref += 0.5 * fac * math.exp(-tau) * tau**r / math.factorial(r)
            got = float(jc.plateau_oracle(tau, p, 0.3, 0.7))
            assert got == pytest.approx(ref, abs=1e-14)

    def test_plateau_and_decay_windows(self):
        for p in (20, 50, 100):
            tau = np.arange(0.0, p + 5 * math.sqrt(p) + 10.0, 0.1)
            F = jc.plateau_oracle(tau, p, 0.0, 1.0)
            mid = (tau >= 5.5) & (tau <= p - 3.0 * math.sqrt(p))
            late = tau >= p + 5.0 * math.sqrt(p)
            assert np.max(np.abs(F[mid] - 0.5)) < 1e-2
            assert np.max(F[late]) < 1e-2
            assert np.all(np.isfinite(F))

    def test_log_factorial_matches_gammaln(self):
        from scipy.special import gammaln

        ref = gammaln(np.arange(2.0, 202.0))
        # gammaln is itself up to 2 ulp from log r! here (2.3e-13 at
        # r = 182), so the bound allows those 2 ulp beyond 1e-13
        assert np.all(np.abs(jc._log_factorial(200) - ref) <= 1e-13 + 2 * np.spacing(ref))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            jc.plateau_oracle(-0.1, 5, 0.0, 1.0)
        with pytest.raises(ValueError):
            jc.plateau_oracle(1.0, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            jc.plateau_oracle(1.0, 5, -0.2, 1.0)


class TestEntropyScan:
    def test_distance_strictly_decreasing(self):
        table = jc.entropy_limit_scan(
            small_basis(), window_sd(), 2.5, 1.0, [0.4, 0.2, 0.1],
            p_tilde=2.0, t_tilde=40.0, rho_a=RHO_A,
        )
        assert list(table["photon_number"]) == [5, 10, 20]
        dists = table["distance"]
        assert dists[0] > dists[1] > dists[2]
        cohs = table["coherence_bound"]
        assert cohs[0] > cohs[1] > cohs[2] > 0.0
        assert all(table["tau"] > 0)

    def test_named_exponent_rejections(self):
        args = (small_basis(), window_sd())
        with pytest.raises(jc.EntropyScalingError, match="alpha must exceed 2"):
            jc.entropy_limit_scan(*args, 2.0, 1.0, [0.4, 0.2], p_tilde=2.0)
        with pytest.raises(jc.EntropyScalingError, match="below 4/3"):
            jc.entropy_limit_scan(*args, 2.5, 4.0 / 3.0, [0.4, 0.2], p_tilde=2.0)
        with pytest.raises(jc.EntropyScalingError, match="beta must be positive"):
            jc.entropy_limit_scan(*args, 2.5, 0.0, [0.4, 0.2], p_tilde=2.0)
        with pytest.raises(jc.EntropyScalingError, match="below beta"):
            jc.entropy_limit_scan(*args, 3.2, 1.0, [0.4, 0.2], p_tilde=2.0)

    def test_integer_photon_guard(self):
        with pytest.raises(ValueError, match="integer"):
            jc.entropy_limit_scan(
                small_basis(), window_sd(), 2.5, 1.0, [0.3], p_tilde=2.0
            )

    def test_lambda_ordering_guard(self):
        with pytest.raises(ValueError, match="decreasing"):
            jc.entropy_limit_scan(
                small_basis(), window_sd(), 2.5, 1.0, [0.1, 0.2], p_tilde=2.0
            )
