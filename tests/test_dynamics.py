"""Two-time solver, trajectory extraction, audits, reference channels."""

import contextlib
import functools
import math
import os
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

import bitemporal_reference
import causal_reference
import refill_reference
from nmkraus import dynamics as dy
from nmkraus import jaynescummings as jc
from nmkraus import kraus as kr
from nmkraus import reservoir as rv

RHO = np.array([[0.3, 0.35 - 0.1j], [0.35 + 0.1j, 0.7]])
EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]])
RHO3 = np.array([[0.1, 0.0, 0.0], [0.0, 0.4, 0.1], [0.0, 0.1, 0.5]])
RHO4 = np.array([[0.1, 0.0, 0.0, 0.0], [0.0, 0.3, 0.1, 0.0],
                 [0.0, 0.1, 0.3, 0.05], [0.0, 0.0, 0.05, 0.3]])


def radiative(sd, w21, beta_inv=0.0):
    kern = rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}, beta_inv=beta_inv)
    return kr.SystemSpec((0.0, w21), kern)


@functools.cache
def far_system():
    return radiative(rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0), 200.0)


@functools.cache
def far_propagator():
    return kr.solve_time_domain(far_system(), 2.0, 0.01)


def _solve(sys, W, rho0):
    """A two-time solve with its kept read entries and their squares.

    ``read_values[i, j, k]`` is read entry ``read_entries[k]`` at ``(t_i,
    t_j)`` (:func:`dynamics._solve`); it is None on the decay route,
    which stores no square.
    """
    rho, (pd, pa, S), resid = dy._solve(sys, W, rho0)
    return SimpleNamespace(grid=W.grid, values=rho, read_entries=np.stack([pd, pa], axis=1),
                           read_values=S, max_residual=resid)


@functools.cache
def far_bitemporal():
    return _solve(far_system(), far_propagator(), RHO)


@functools.cache
def zero_kernel_state():
    sys = kr.SystemSpec((0.0, 3.0), rv.kernel_table(
        rv.SpectralDensity.flat_window(0.1, 1.0, 2.0), {}))
    W = kr.solve_time_domain(sys, 1.0, 0.05)
    return _solve(sys, W, RHO)


class TestValidation:
    def test_rho0_checks(self):
        sys, W = far_system(), far_propagator()
        bad = np.array([[0.5, 0.2], [0.3, 0.5]])
        with pytest.raises(dy.StateValidationError):
            dy.solve_bitemporal(sys, W, bad)
        with pytest.raises(dy.StateValidationError):
            dy.solve_bitemporal(sys, W, 2.0 * RHO)
        neg = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(dy.StateValidationError):
            dy.solve_bitemporal(sys, W, neg)
        nan = RHO.copy()
        nan[0, 0] = np.nan
        with pytest.raises(dy.StateValidationError, match="non-finite"):
            dy.validate_density(nan, 2)

    def test_field_size_guard(self):
        # a stand-in identity propagator on 10^5 steps asks the thermal
        # pair's column loop for squares far beyond physical memory; the
        # guard fires before any of it is allocated
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        n, dt = max(10**5, math.isqrt(phys)), 0.01
        W = kr.KrausZero(np.arange(n + 1) * dt,
                         np.broadcast_to(np.eye(2, dtype=complex), (n + 1, 2, 2)),
                         0.0, 0, np.zeros(n + 1, dtype=complex))
        with pytest.raises(dy.FieldSizeError) as err:
            dy.solve_bitemporal(_thermal_system(THERMAL_PAIR), W, RHO)
        assert err.value.nbytes > phys
        assert "GiB" in str(err.value)
        # the decay route stores no square, so a decay system passes at 10^5 steps
        four = _decay_system((0.0, 3.0, 5.5, 7.5), [(2, 1.0), (3, 0.5), (4, 0.5)])
        assert dy.check_field_size(four, RHO4, 1000.0, 0.01) is None

    def test_field_size_guard_counts_bytes(self, monkeypatch):
        # what a solve stores: per node the E kept read entries, as many
        # as a real solve keeps, and per step the equal-time slice; per
        # node on the level route also the source rows in X channels,
        # the (written row, column) pairs that can be nonzero (9 of the
        # 3 x 5 channels on the dressed ladder, 5 once the excited atom
        # with one photon keeps 8 of its 16 read entries), and on the
        # column loop G kernel-weighted read entries, one for each
        # (written row, read entry) pair (2 of each for the thermal
        # pair); the decay route stores no square, only the slice, two
        # more arrays of its size for the free part, and four lines of
        # its FFT length per (read entry, channel) pair (3 on the
        # four-level decay, each read entry into the ground state)
        basis = jc.DressedBasis(0.0, 20.0, 0.3, 1)
        excited = jc.dressed_initial_state(basis, jc.JCInitialState(np.diag([0.0, 1.0]), 1))
        four = _decay_system((0.0, 3.0, 5.5, 7.5), [(2, 1.0), (3, 0.5), (4, 0.5)])
        thermal = _thermal_system(THERMAL_PAIR)
        n, T = 64, 12.0
        level = [(_ladder(1), _random_density(5, 4), 16, 9), (_ladder(1), excited, 8, 5)]
        kept = [_solve(sys, kr.solve_time_domain(sys, T, T / n), rho0)
                .read_entries.shape[0] for sys, rho0, _, _ in level + [(four, RHO4, 3, 0)]]
        assert kept == [E for _, _, E, _ in level] + [3]
        monkeypatch.setattr(dy.os, "sysconf", lambda name: 1)

        def counted(sys, rho0):
            with pytest.raises(dy.FieldSizeError) as err:
                dy.check_field_size(sys, rho0, T, T / n)
            return err.value.nbytes

        for (sys, rho0, _, X), E in zip(level, kept):
            assert counted(sys, rho0) == ((n + 1) ** 2 * (E + X) + (n + 1) * sys.dim ** 2) * 16
        assert counted(thermal, EXCITED) == ((n + 1) ** 2 * (2 + 2) + (n + 1) * 2 ** 2) * 16
        nfft = rv.next_fast_len(2 * n)
        assert counted(four, RHO4) == (3 * (n + 1) * 4 ** 2 + 4 * nfft * 3 * 4) * 16

        def unreadable(name):
            raise OSError(name)

        # no memory figure, no refusal
        monkeypatch.setattr(dy.os, "sysconf", unreadable)
        assert dy.check_field_size(_ladder(1), excited, T, T / n) is None

    def test_singular_block_names_its_rows(self):
        # a slot that writes the entry it reads, weighted so that node
        # (1, 1) cancels its own coupling exactly
        sd = rv.SpectralDensity.flat_window(0.05, 1.0, 2.0)
        dt = 0.5
        kappa0 = rv.kernel_samples(sd, np.zeros(1))[0].real
        sys = kr.SystemSpec((0.0, 1.0), rv.kernel_table(
            sd, {(1, 1, 1, 1): 4.0 / (dt * dt * kappa0)}))
        W = kr.KrausZero(np.arange(3) * dt,
                         np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)),
                         0.0, 0, sys.kernel.on_grid(np.arange(3) * dt))
        with pytest.raises(kr.SingularOperatorError, match=r"rows j\+0, j = 1\.\.2"):
            dy.solve_bitemporal(sys, W, RHO)


def _assert_matches_field(xi, field):
    """The equal-time slice and every returned read entry against a whole field.

    ``field[i, j]`` is the matrix at ``(t_i, t_j)``, as
    :func:`bitemporal_reference.solve_bitemporal` returns it.
    """
    idx = np.arange(field.shape[0])
    assert xi.values.shape == field[idx, idx].shape
    assert np.max(np.abs(xi.values - field[idx, idx])) <= 1e-12
    if xi.read_values is None:
        return
    d, a = xi.read_entries.T
    assert xi.read_values.shape == field[:, :, d, a].shape
    assert np.max(np.abs(xi.read_values - field[:, :, d, a]), initial=0.0) <= 1e-12


def _assert_two_time_symmetry(xi, physical=True):
    """Read entry ``(d, a)`` at ``(t_i, t_j)`` against conj ``(a, d)`` at ``(t_j, t_i)``.

    Checked wherever both entries are returned, off the equal-time
    diagonal; on it, and for the whole slice, only for a physical slot
    table, whose equal-time matrices are Hermitian.  The decay route
    returns no square, so only its slice is checked.
    """
    squares = [] if xi.read_values is None else xi.read_entries.tolist()
    at = {(d, a): k for k, (d, a) in enumerate(squares)}
    off = ~np.eye(xi.grid.size, dtype=bool) | physical
    for (d, a), k in at.items():
        if (a, d) in at:
            swapped = np.conj(xi.read_values[:, :, at[a, d]]).T
            assert np.max(np.abs(xi.read_values[:, :, k] - swapped)[off]) <= 1e-12
    if physical:
        adj = np.conj(np.swapaxes(xi.values, 1, 2))
        assert np.max(np.abs(xi.values - adj)) <= 1e-12


class TestBitemporal:
    def test_zero_kernel_constant(self):
        xi = zero_kernel_state()
        _assert_matches_field(xi, np.broadcast_to(RHO, (xi.grid.size,) * 2 + RHO.shape))
        traj = dy.extract_density(xi)
        assert np.max(np.abs(traj.matrices - RHO)) < 1e-12

    def test_initial_node_is_rho0(self):
        xi = far_bitemporal()
        assert np.max(np.abs(xi.values[0] - RHO)) == 0

    def test_two_time_hermitian_symmetry(self):
        xi = far_bitemporal()
        assert xi.read_entries.tolist() == [[1, 1]]
        _assert_two_time_symmetry(xi)

    @pytest.mark.parametrize("route", ["decay route", "level route", "column loop"])
    def test_peak_memory_is_below_the_field(self, route):
        # at n = 200 the whole field is (n+1)^2 dim^2 complex numbers,
        # 10.3 MB on four levels; the decay route keeps no square of the
        # four-level decay, the level route 8 read entries and 5
        # channels of the dressed ladder's 25 entries, and the column
        # loop the thermal pair's 2 read entries on levels 1-2 and 2
        # kernel-weighted ones, and each the slice
        energies = (0.0, 3.0, 5.5, 7.5)
        rho0 = RHO4
        if route == "decay route":
            sys = _decay_system(energies, [(2, 1.0), (3, 0.5), (4, 0.5)])
        elif route == "level route":
            sys = _ladder(1)
            rho0 = jc.dressed_initial_state(jc.DressedBasis(0.0, 20.0, 0.3, 1),
                                            jc.JCInitialState(np.diag([0.0, 1.0]), 1))
        else:
            sd = rv.SpectralDensity.flat_window(0.04, 4.0, 8.0)
            sys = kr.SystemSpec(energies, rv.kernel_table(sd, THERMAL_PAIR, beta_inv=2.0))
        W = kr.solve_time_domain(sys, 4.0, 0.02)
        routes = [mock.patch.object(dy, name, wraps=getattr(dy, name))
                  for name in ("_decay_route", "_level_solve", "_column_loop")]
        with routes[0] as decay, routes[1] as level, routes[2] as loop:
            tracemalloc.start()
            try:
                xi = dy.solve_bitemporal(sys, W, rho0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert [decay.called, level.called, loop.called] == [
            route == name for name in ("decay route", "level route", "column loop")]
        assert xi.values.shape == (201, sys.dim, sys.dim)
        assert peak < 201 ** 2 * sys.dim ** 2 * 16
        if route == "decay route":
            # below one square
            assert peak < 201 ** 2 * 16

    def test_population_follows_propagator(self):
        # the single decay slot feeds only the ground state, so the
        # excited entries reduce to dressed products of the amplitude
        xi = far_bitemporal()
        traj = dy.extract_density(xi)
        w22 = far_propagator().values[:, 1, 1]
        assert np.max(np.abs(traj.matrices[:, 1, 1] - np.abs(w22) ** 2 * 0.7)) < 1e-12
        assert np.max(np.abs(traj.matrices[:, 1, 0] - w22 * RHO[1, 0])) < 1e-12

    def test_ground_state_refill_conserves_trace(self):
        traj = dy.extract_density(far_bitemporal())
        assert np.max(traj.trace_errors()) < 1e-4
        assert np.min(traj.min_eigenvalues()) > -1e-10

    def test_trace_drift_is_second_order(self):
        sys = far_system()
        drifts = []
        for dt in (0.02, 0.01):
            W = kr.solve_time_domain(sys, 2.0, dt)
            traj = dy.extract_density(dy.solve_bitemporal(sys, W, RHO))
            drifts.append(np.max(traj.trace_errors()))
        assert 2.5 < drifts[0] / drifts[1] < 6.0

    def test_solver_diagnostics(self):
        xi = far_bitemporal()
        assert xi.max_residual < 1e-10
        traj = dy.extract_density(xi)
        assert traj.herm_residual < 1e-9

    def test_thermal_run_conserves(self):
        sd = rv.SpectralDensity.flat_window(0.04, 4.0, 8.0)
        sys = radiative(sd, 6.0, beta_inv=2.0)
        W = kr.solve_time_domain(sys, 2.0, 0.01)
        traj = dy.extract_density(dy.solve_bitemporal(sys, W, EXCITED))
        assert np.max(traj.trace_errors()) < 1e-4
        assert np.min(traj.min_eigenvalues()) > -1e-10

    @pytest.mark.parametrize("case", ["three_level_decay", "ladder", "thermal_pair"])
    def test_global_energy_shift_changes_nothing(self, case):
        # the memory is added in the frame of B = e^{-iHt} W and the
        # phases e^{iHt} applied once, on either route (the thermal
        # pair takes the column loop); a shift c of every energy moves
        # B by e^{-ict}, so a missing or misplaced phase leaves a factor
        # e^{-ic(t_i - t_j)} on the read entries off the diagonal
        sys, rho0, T, n = {
            "three_level_decay": (_decay_system((0.0, 3.0, 7.5), [(2, 1.0), (3, 0.5)]),
                                  RHO3, 4.0, 200),
            "ladder": (_ladder(1), _random_density(5, 4), 12.0, 64),
            "thermal_pair": (_thermal_system(THERMAL_PAIR), RHO, 3.0, 300),
        }[case]
        shifted = kr.SystemSpec(tuple(e + 7.3 for e in sys.energies), sys.kernel)
        a, b = (_solve(s, kr.solve_time_domain(s, T, T / n), rho0) for s in (sys, shifted))
        assert np.array_equal(a.read_entries, b.read_entries)
        for x, y in ((a.values, b.values), (a.read_values, b.read_values)):
            if x is not None:
                assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x))


def _assert_matches_reference(sys, rho0, T, n, *, physical=True):
    """Solver vs reference, and the two-time symmetry; returns the solve.

    Every read entry of the slot table that the solve does not return
    is zero in the reference on the whole square.  The equal-time
    diagonal is Hermitian only for a physical slot table, so
    ``physical=False`` leaves it out of the symmetry check.
    """
    dt = T / n
    W = kr.solve_time_domain(sys, T, dt)
    new = _solve(sys, W, rho0)
    field = bitemporal_reference.solve_bitemporal(sys, W, rho0, T, dt)
    _assert_matches_field(new, field)
    kept = set(map(tuple, new.read_entries.tolist()))
    for d, a in zip(*dy._slot_pairs(sys)[:2]):
        assert (d, a) in kept or not field[:, :, d, a].any()
    _assert_two_time_symmetry(new, physical)
    assert new.max_residual <= 1e-12
    return new


def _decay_system(energies, weights):
    sd = rv.SpectralDensity.flat_window(0.05, 2.0, 4.0)
    rule = {(k, 1, 1, k): w for k, w in weights}
    return kr.SystemSpec(tuple(energies), rv.kernel_table(sd, rule))


def _written_rows(sys):
    return [e for e, _ in dy._feeds(dy._slot_pairs(sys)[2])]


def _ladder(n_max):
    return jc.build_dressed_system(jc.DressedBasis(0.0, 20.0, 0.3, n_max),
                                   rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0))


def _every_row_written():
    sd = rv.SpectralDensity.flat_window(0.05, 2.0, 4.0)
    phases = np.random.default_rng(5).uniform(-math.pi, math.pi, size=16)
    rule = {(k, 1 + k % 4, c, 1 + (k + c) % 4): 0.3 * np.exp(1j * phases[4 * c + k - 5])
            for c in range(1, 5) for k in range(1, 5)}
    return kr.SystemSpec((0.0, 3.0, 5.5, 7.5), rv.kernel_table(sd, rule))


def _random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = g @ g.conj().T
    return 0.5 * (rho0 + rho0.conj().T) / np.trace(rho0).real


class TestColumnSolverAgreement:
    """The column solver against the node-by-node reference solver."""

    def test_dressed_jaynes_cummings(self):
        basis = jc.DressedBasis(0.0, 20.0, 0.3, 1)
        sys = jc.build_dressed_system(
            basis, rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0))
        assert len(sys.kernel.slots) == 36
        rho0 = jc.dressed_initial_state(
            basis, jc.JCInitialState(np.diag([0.0, 1.0]), 1))
        # the excited atom with one photon reaches 8 of the 16 read entries
        assert len(_assert_matches_reference(sys, rho0, 12.0, 64).read_entries) == 8

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_dressed_ladder_higher_rungs(self, n_max):
        basis = jc.DressedBasis(0.0, 20.0, 0.3, n_max)
        rho0 = jc.dressed_initial_state(
            basis, jc.JCInitialState(np.array([[0.3, 0.2j], [-0.2j, 0.7]]), n_max))
        _assert_matches_reference(_ladder(n_max), rho0, 6.0, 32)

    def test_generic_three_level(self):
        sys = _decay_system((0.0, 3.0, 7.5), [(2, 1.0), (3, 0.5)])
        rho0 = np.array([[0.1, 0.0, 0.0], [0.0, 0.4, 0.1], [0.0, 0.1, 0.5]])
        _assert_matches_reference(sys, rho0, 4.0, 200)

    def test_generic_four_level(self):
        sys = _decay_system((0.0, 3.0, 5.5, 7.5), [(2, 1.0), (3, 0.5), (4, 0.5)])
        _assert_matches_reference(sys, RHO4, 4.0, 200)

    def test_thermal_two_level(self):
        sd = rv.SpectralDensity.flat_window(0.04, 4.0, 8.0)
        _assert_matches_reference(radiative(sd, 6.0, beta_inv=2.0), EXCITED, 2.0, 200)

    # the solve keeps only the rows the slots write; these cases place
    # the written rows and the read entries every way that can differ

    def test_written_rows_not_leading(self):
        sd = rv.SpectralDensity.flat_window(0.05, 2.0, 4.0)
        sys = kr.SystemSpec((0.0, 3.0, 4.0, 7.5), rv.kernel_table(
            sd, {(2, 1, 1, 2): 1.0, (4, 3, 3, 4): 0.5}))
        assert _written_rows(sys) == [0, 2]
        rho0 = np.array([[0.1, 0.0, 0.05, 0.0], [0.0, 0.3, 0.1, 0.0],
                         [0.05, 0.1, 0.3, 0.05], [0.0, 0.0, 0.05, 0.3]])
        _assert_matches_reference(sys, rho0, 2.0, 100)

    def test_read_entry_outside_written_rows(self):
        sd = rv.SpectralDensity.flat_window(0.05, 2.0, 4.0)
        sys = kr.SystemSpec((0.0, 3.0, 7.5), rv.kernel_table(
            sd, {(1, 2, 2, 3): 0.8, (3, 1, 2, 2): 0.4j}))
        pd = dy._slot_pairs(sys)[0]
        rows = _written_rows(sys)
        assert rows == [1]
        assert set(pd) - set(rows) and set(pd) & set(rows)
        _assert_matches_reference(sys, _random_density(3, 11), 2.0, 100,
                                  physical=False)

    def test_every_row_written(self):
        sys = _every_row_written()
        assert _written_rows(sys) == [0, 1, 2, 3]
        _assert_matches_reference(sys, _random_density(4, 12), 2.0, 50,
                                  physical=False)

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(2, 4),
        gaps=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3),
        slots=st.lists(
            st.tuples(
                st.tuples(*[st.integers(1, 4)] * 4),
                st.floats(0.05, 1.0),
                st.floats(-math.pi, math.pi),
            ),
            min_size=1, max_size=6,
        ),
        height=st.floats(0.001, 0.05),
        lo=st.floats(0.5, 5.0),
        width=st.floats(0.2, 3.0),
        n=st.integers(2, 16),
        dt=st.floats(0.02, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_systems(self, dim, gaps, slots, height, lo, width, n, dt,
                               seed):
        # arbitrary slot indices, including m != n and writes into
        # columns other than the first, with complex weights |w| <= 1
        energies = np.concatenate([[0.0], np.cumsum(gaps[: dim - 1])])
        rule = {}
        for idx, mag, phase in slots:
            rule[tuple(1 + (i - 1) % dim for i in idx)] = mag * np.exp(1j * phase)
        sd = rv.SpectralDensity.flat_window(height, lo, lo + width)
        sys = kr.SystemSpec(tuple(energies), rv.kernel_table(sd, rule))
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho0 = g @ g.conj().T
        rho0 = 0.5 * (rho0 + rho0.conj().T) / np.trace(rho0).real
        _assert_matches_reference(sys, rho0, n * dt, n, physical=False)


def _column_groups(sys, W):
    """The ordering of a solve's read entries, from its coupling ``K``."""
    pd, pa, Wsl = dy._slot_pairs(sys)
    B = np.exp(-1j * np.outer(W.grid, sys.energies))[:, :, None] * W.values
    K = np.einsum("mpc,qcp->mpq", B[:, pd, :], Wsl[:, :, pa])
    return dy._column_groups(K)


def _thermal_system(rule):
    sd = rv.SpectralDensity.flat_window(0.04, 4.0, 8.0)
    energies = (0.0, 6.0, 9.0)[: max(max(idx) for idx in rule)]
    return kr.SystemSpec(energies, rv.kernel_table(sd, rule, beta_inv=2.0))


THERMAL_PAIR = {(2, 1, 1, 2): 1.0, (1, 2, 2, 1): 1.0}
# the thermal pair plus a decay of level 3 into level 1: its read entry
# (2, 2), counted from 0, feeds the pair's cycle and depends on nothing
THERMAL_PAIR_AND_DECAY = {**THERMAL_PAIR, (3, 1, 1, 3): 0.5}


class TestColumnGroups:
    """The same-column ordering, and the column loop's one blocked solve.

    The ordering, explicit levels then the coupled core, picks the route
    only; the column loop solves every kept read entry at once.
    """

    def test_generic_systems_are_one_level(self):
        for energies, weights in [((0.0, 3.0, 7.5), [(2, 1.0), (3, 0.5)]),
                                  ((0.0, 3.0, 5.5, 7.5), [(2, 1.0), (3, 0.5), (4, 0.5)])]:
            sys = _decay_system(energies, weights)
            levels, core = _column_groups(sys, kr.solve_time_domain(sys, 1.0, 0.02))
            assert [lv.tolist() for lv in levels] == [list(range(len(weights)))]
            assert core.size == 0

    def test_dressed_ladder_is_two_levels(self):
        basis = jc.DressedBasis(0.0, 20.0, 0.3, 1)
        sys = jc.build_dressed_system(
            basis, rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0))
        levels, core = _column_groups(sys, kr.solve_time_domain(sys, 12.0, 12.0 / 64))
        assert [lv.size for lv in levels] == [12, 4]
        assert core.size == 0

    def test_two_slot_thermal_is_a_core(self):
        sys = _thermal_system(THERMAL_PAIR)
        levels, core = _column_groups(sys, kr.solve_time_domain(sys, 1.0, 0.01))
        assert levels == [] and core.tolist() == [0, 1]

    def test_cycle_feeds_a_downstream_entry(self):
        # 0 is free and feeds 1; 1 and 2 form a cycle that feeds 3
        K = np.zeros((5, 4, 4), dtype=complex)
        K[2, 1, 0] = 0.3
        K[1, 1, 2] = K[3, 2, 1] = 1j
        K[4, 3, 2] = -0.2
        levels, core = dy._column_groups(K)
        assert [lv.tolist() for lv in levels] == [[0]]
        assert core.tolist() == [1, 2, 3]

    def test_chain_is_one_level_per_link(self):
        K = np.zeros((3, 3, 3))
        K[1, 0, 1] = K[2, 1, 2] = 1.0
        levels, core = dy._column_groups(K)
        assert [lv.tolist() for lv in levels] == [[2], [1], [0]]
        assert core.size == 0

    def test_two_slot_thermal_matches_reference(self):
        _assert_matches_reference(_thermal_system(THERMAL_PAIR), EXCITED, 2.0, 200)

    def test_level_feeding_a_core_matches_reference(self):
        sys = _thermal_system(THERMAL_PAIR_AND_DECAY)
        levels, core = _column_groups(sys, kr.solve_time_domain(sys, 1.0, 0.01))
        pd, pa, _ = dy._slot_pairs(sys)
        assert [list(zip(pd[lv], pa[lv])) for lv in levels] == [[(2, 2)]]
        assert list(zip(pd[core], pa[core])) == [(0, 0), (1, 1)]
        rho0 = np.diag([0.0, 0.4, 0.6])
        _assert_matches_reference(sys, rho0, 2.0, 200)
        _assert_matches_reference(sys, _random_density(3, 21), 1.0, 100, physical=False)

    def test_no_solver_without_a_core(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve with no core built a causal solver")

        sys = _decay_system((0.0, 3.0, 7.5), [(2, 1.0), (3, 0.5)])
        W = kr.solve_time_domain(sys, 1.0, 0.02)
        ref = _solve(sys, W, RHO3)
        monkeypatch.setattr(dy, "_CausalSolver", refuse)
        xi = _solve(sys, W, RHO3)
        assert np.array_equal(xi.values, ref.values)
        assert np.array_equal(xi.read_entries, ref.read_entries)
        assert np.array_equal(xi.read_values, ref.read_values)
        assert xi.max_residual == 0.0
        _assert_matches_field(xi, bitemporal_reference.solve_bitemporal(sys, W, RHO3, 1.0, 0.02))

    def test_solver_sees_every_kept_entry(self, monkeypatch):
        built = []

        class Spy(dy._CausalSolver):
            def __init__(self, K, h, leaf=None):
                built.append(K.shape[1:])
                super().__init__(K, h, leaf)

        monkeypatch.setattr(dy, "_CausalSolver", Spy)
        sys = _thermal_system(THERMAL_PAIR_AND_DECAY)
        dy.solve_bitemporal(sys, kr.solve_time_domain(sys, 1.0, 0.02),
                            np.diag([0.0, 0.4, 0.6]))
        assert built == [(3, 3)]

    def test_singular_core_beside_a_level_names_its_rows(self):
        # the self-cancelling slot of test_singular_block_names_its_rows
        # plus a decay slot whose read entry (1, 1) depends on nothing
        sd = rv.SpectralDensity.flat_window(0.05, 1.0, 2.0)
        dt = 0.5
        kappa0 = rv.kernel_samples(sd, np.zeros(1))[0].real
        sys = kr.SystemSpec((0.0, 1.0), rv.kernel_table(
            sd, {(1, 1, 1, 1): 4.0 / (dt * dt * kappa0), (2, 1, 1, 2): 1.0}))
        W = kr.KrausZero(np.arange(3) * dt,
                         np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)),
                         0.0, 0, sys.kernel.on_grid(np.arange(3) * dt))
        levels, core = _column_groups(sys, W)
        assert [lv.tolist() for lv in levels] == [[1]] and core.tolist() == [0]
        with pytest.raises(kr.SingularOperatorError, match=r"rows j\+0, j = 1\.\.2"):
            dy.solve_bitemporal(sys, W, RHO)


def _relation(sys):
    """``(nz, pd, pa, R)`` of the plan of a ``rho0`` that keeps every read entry.

    That ``rho0``, an equal superposition, has no zero entry.
    """
    _, nz, pd, pa, _, R, *_ = dy._plan(sys, np.full((sys.dim, sys.dim), 1.0 / sys.dim))
    return nz, pd, pa, R


def _entry_levels(sys, keep=slice(None)):
    """Levels and core of the read entries ``keep``, from the plan's relation."""
    _, pd, pa, R = _relation(sys)
    pd, pa, R = pd[keep], pa[keep], R[:, :, keep]
    return dy._column_groups((R[pd, pa] | R[pa, pd])[None])


def _refuse_loop():
    return mock.patch.object(dy, "_column_loop", side_effect=AssertionError("column loop"))


# a slot table on dim states and a grid of n steps of dt
ACYCLIC_TABLES = dict(
    dim=st.integers(2, 4),
    gaps=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3),
    slots=st.lists(
        st.tuples(
            st.tuples(*[st.integers(1, 4)] * 4),
            st.floats(0.05, 1.0),
            st.floats(-math.pi, math.pi),
        ),
        min_size=1, max_size=8,
    ),
    height=st.floats(0.001, 0.05),
    lo=st.floats(0.5, 5.0),
    width=st.floats(0.2, 3.0),
    n=st.integers(2, 16),
    dt=st.floats(0.02, 0.2),
)


def _acyclic_system(dim, gaps, slots, height, lo, width):
    """The drawn slots, each kept while the read entries stay without a cycle.

    So the levels build up as the slots are drawn.
    """
    energies = tuple(np.concatenate([[0.0], np.cumsum(gaps[: dim - 1])]))
    sd = rv.SpectralDensity.flat_window(height, lo, lo + width)
    rule = {}
    for idx, mag, phase in slots:
        trial = {**rule, tuple(1 + (i - 1) % dim for i in idx): mag * np.exp(1j * phase)}
        if not _entry_levels(kr.SystemSpec(energies, rv.kernel_table(sd, trial)))[1].size:
            rule = trial
    return kr.SystemSpec(energies, rv.kernel_table(sd, rule))


class TestLevelRoute:
    """Kept read entries without a cycle: solved level by level, with no column loop."""

    def test_route_follows_read_cycles(self):
        acyclic = [
            (_decay_system((0.0, 3.0, 7.5), [(2, 1.0), (3, 0.5)]), 1),
            (_decay_system((0.0, 3.0, 5.5, 7.5), [(2, 1.0), (3, 0.5), (4, 0.5)]), 1),
        ] + [(_ladder(n_max), n_max + 1) for n_max in (1, 2, 3)]
        sd = rv.SpectralDensity.flat_window(0.05, 1.0, 2.0)
        cyclic = [_thermal_system(THERMAL_PAIR), _thermal_system(THERMAL_PAIR_AND_DECAY),
                  _every_row_written(),
                  kr.SystemSpec((0.0, 1.0), rv.kernel_table(sd, {(1, 1, 1, 1): 1.0}))]
        with _refuse_loop():
            for sys, n_levels in acyclic:
                levels, core = _entry_levels(sys)
                assert len(levels) == n_levels and core.size == 0
                W = kr.solve_time_domain(sys, 1.0, 0.05)
                assert dy.solve_bitemporal(sys, W, _random_density(sys.dim, 3)).max_residual == 0.0
            for sys in cyclic:
                assert _entry_levels(sys)[1].size
                W = kr.solve_time_domain(sys, 1.0, 0.05)
                with pytest.raises(AssertionError, match="column loop"):
                    dy.solve_bitemporal(sys, W, _random_density(sys.dim, 3))

    def test_ladder_levels(self):
        # one level per rung; the rung-1 entries of n_max 1 come last
        assert [lv.size for lv in _entry_levels(_ladder(1))[0]] == [12, 4]

    def test_propagator_off_its_table_takes_the_loop(self):
        # entries the slot table holds at zero are nonzero in this W, so
        # the level route's exact zeros would not hold
        sys = _decay_system((0.0, 3.0, 7.5), [(2, 1.0), (3, 0.5)])
        T, n = 1.0, 20
        W = kr.solve_time_domain(sys, T, T / n)
        rng = np.random.default_rng(8)
        values = W.values.copy()
        values[1:] += 0.05 * (rng.normal(size=values[1:].shape)
                              + 1j * rng.normal(size=values[1:].shape))
        W = replace(W, values=values)
        with mock.patch.object(dy, "_column_loop", wraps=dy._column_loop) as loop:
            new = _solve(sys, W, RHO3)
        assert loop.called
        _assert_matches_field(new, bitemporal_reference.solve_bitemporal(sys, W, RHO3, T, T / n))

    @settings(max_examples=100, deadline=None)
    @given(**ACYCLIC_TABLES, seed=st.integers(0, 2**32 - 1))
    def test_generated_acyclic_systems(self, dim, gaps, slots, height, lo, width, n, dt,
                                       seed):
        sys = _acyclic_system(dim, gaps, slots, height, lo, width)
        with _refuse_loop():
            _assert_matches_reference(sys, _random_density(dim, seed), n * dt, n,
                                      physical=False)

    @settings(max_examples=100, deadline=None)
    @given(**ACYCLIC_TABLES, blocks=st.lists(st.integers(0, 2), min_size=4, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_reachable_entries_hold_the_nonzero_pattern(self, dim, gaps, slots, height,
                                                        lo, width, n, dt, blocks, seed):
        # rho0 is block diagonal over the states labelled 1 and those
        # labelled 2, and zero on the states labelled 0
        sys = _acyclic_system(dim, gaps, slots, height, lo, width)
        label = np.array(blocks[:dim])
        label[0] = label[0] or 1
        rho0 = np.where((label[:, None] == label) & (label[:, None] > 0),
                        _random_density(dim, seed), 0.0)
        rho0 /= np.trace(rho0).real
        W = kr.solve_time_domain(sys, n * dt, dt)
        field = bitemporal_reference.solve_bitemporal(sys, W, rho0, n * dt, dt)
        nz, pd, pa, R = _relation(sys)
        reach = dy._reachable(nz, rho0, R, pd, pa)
        assert not field[:, :, ~reach].any()
        with _refuse_loop():
            xi = _solve(sys, W, rho0)
        assert not xi.values[:, ~reach].any()
        assert reach[tuple(xi.read_entries.T)].all()
        _assert_matches_field(xi, field)

    @settings(max_examples=100, deadline=None)
    @given(**ACYCLIC_TABLES, blocks=st.lists(st.integers(0, 2), min_size=4, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_prune_then_route_on_any_table(self, dim, gaps, slots, height, lo, width, n,
                                           dt, blocks, seed):
        # every drawn slot is kept, cycles included; the read entries
        # outside the closure of rho0 are dropped before the route is
        # picked, so a cycle among them alone does not pick the loop
        sys = _drawn_system(dim, gaps, slots, height, lo, width)
        rho0 = _block_density(dim, blocks, seed)
        W = kr.solve_time_domain(sys, n * dt, dt)
        field = bitemporal_reference.solve_bitemporal(sys, W, rho0, n * dt, dt)
        nz, pd, pa, R = _relation(sys)
        reach = dy._reachable(nz, rho0, R, pd, pa)
        assert not field[:, :, ~reach].any()
        keep = reach[pd, pa]
        cyclic = _entry_levels(sys, keep)[1].size > 0
        with mock.patch.object(dy, "_column_loop", wraps=dy._column_loop) as loop:
            xi = _solve(sys, W, rho0)
        assert loop.called == cyclic
        assert xi.read_entries.tolist() == np.stack([pd[keep], pa[keep]], axis=1).tolist()
        _assert_matches_field(xi, field)


class TestDecayRoute:
    """Slots that feed only states that never decay: the slice alone, by convolutions."""

    @settings(max_examples=50, deadline=None)
    @given(
        dim=st.integers(2, 4),
        steady=st.integers(1, 3),
        gaps=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3),
        slots=st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 3)] * 4),
                st.floats(0.05, 1.0),
                st.floats(-math.pi, math.pi),
            ),
            min_size=1, max_size=6,
        ),
        height=st.floats(0.001, 0.05),
        lo=st.floats(0.5, 5.0),
        width=st.floats(0.2, 3.0),
        n=st.integers(2, 16),
        dt=st.floats(0.02, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_decay_systems(self, dim, steady, gaps, slots, height, lo, width, n,
                                     dt, seed):
        # slots (k, m, n, j) with k and j among the decaying states and m
        # and n among the steady ones, complex weights and a coherent
        # rho0: off-diagonal read entries and channels included
        s = min(steady, dim - 1)
        energies = tuple(np.concatenate([[0.0], np.cumsum(gaps[: dim - 1])]))
        rule = {}
        for (k, m, n_, j), mag, phase in slots:
            idx = (s + k % (dim - s), m % s, n_ % s, s + j % (dim - s))
            rule[tuple(i + 1 for i in idx)] = mag * np.exp(1j * phase)
        sd = rv.SpectralDensity.flat_window(height, lo, lo + width)
        sys = kr.SystemSpec(energies, rv.kernel_table(sd, rule))
        with mock.patch.object(dy, "_decay_route", wraps=dy._decay_route) as route:
            with _refuse_loop():
                _assert_matches_reference(sys, _random_density(dim, seed), n * dt, n,
                                          physical=False)
        assert route.called


def _drawn_system(dim, gaps, slots, height, lo, width):
    """Every drawn slot, cycles and all, on ``dim`` states."""
    energies = tuple(np.concatenate([[0.0], np.cumsum(gaps[: dim - 1])]))
    sd = rv.SpectralDensity.flat_window(height, lo, lo + width)
    rule = {tuple(1 + (i - 1) % dim for i in idx): mag * np.exp(1j * phase)
            for idx, mag, phase in slots}
    return kr.SystemSpec(energies, rv.kernel_table(sd, rule))


def _block_density(dim, blocks, seed):
    """A density block diagonal over the states labelled 1 and those labelled 2.

    It is zero on the states labelled 0; state 0 is never labelled 0.
    """
    label = np.array(blocks[:dim])
    label[0] = label[0] or 1
    rho0 = np.where((label[:, None] == label) & (label[:, None] > 0),
                    _random_density(dim, seed), 0.0)
    return rho0 / np.trace(rho0).real


@pytest.mark.parametrize("case", ["level route", "column loop"])
def test_one_analysis_per_solve(case):
    # the slot table's structure is worked out once by the solve and
    # once by the guard, each from its own plan
    if case == "level route":
        basis = jc.DressedBasis(0.0, 20.0, 0.3, 1)
        sys = _ladder(1)
        rho0 = jc.dressed_initial_state(basis, jc.JCInitialState(np.diag([0.0, 1.0]), 1))
    else:
        sys, rho0 = _thermal_system(THERMAL_PAIR_AND_DECAY), np.diag([0.0, 0.4, 0.6])
    W = kr.solve_time_domain(sys, 1.0, 0.05)
    names = ["_slot_pairs", "_reachable", "_column_groups"]
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(dy, name, wraps=getattr(dy, name)))
                 for name in names]
        with mock.patch.object(dy, "_column_loop", wraps=dy._column_loop) as loop:
            dy.solve_bitemporal(sys, W, rho0)
        assert loop.called == (case == "column loop")
        assert [spy.call_count for spy in spies] == [1, 1, 1]
        dy.check_field_size(sys, rho0, 1.0, 0.05)
        assert [spy.call_count for spy in spies] == [2, 2, 2]


@settings(max_examples=60, deadline=None)
@given(P=st.integers(1, 4), m=st.integers(1, 60), leaf=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_causal_solver_matches_dense_solve(P, m, leaf, seed):
    # small leaves make every push size and a ragged last leaf appear
    rng = np.random.default_rng(seed)
    K = 0.3 * (rng.normal(size=(m + 1, P, P)) + 1j * rng.normal(size=(m + 1, P, P)))
    h = rng.uniform(0.0, 0.1, size=m)
    g = rng.normal(size=(m, P)) + 1j * rng.normal(size=(m, P))
    u, resid = dy._CausalSolver(K, h, leaf).solve(g)
    A = np.zeros((m, P, m, P), dtype=complex)
    for i in range(m):
        A[i, :, i, :] = np.eye(P) - 0.5 * h[i] * K[0]
        for r in range(i):
            A[i, :, r, :] = -K[i - r] * h[r]
    p = np.linalg.solve(A.reshape(m * P, m * P), g.reshape(-1)).reshape(m, P)
    assert np.max(np.abs(u - h[:, None] * p)) <= 1e-12 * max(1.0, np.max(np.abs(p)))
    assert resid <= 1e-13


def _causal_case(kind, P, m, seed):
    """Kernel, weights and right side for a same-column solve of ``kind``.

    ``random``: O(1) complex lags; ``jordan``: ``K[0]`` a Jordan-like
    block scaled by 1e3 (far from normal), with weights small enough to
    keep the rows nonsingular; ``near``: one row's self-coupling
    ``1 - h_e lambda/2`` set to ``delta`` in [1e-2, 1e-1], returned as
    the condition scale ``1/delta`` (1 for the others).
    """
    rng = np.random.default_rng(seed)
    K = 0.3 * (rng.normal(size=(m + 1, P, P)) + 1j * rng.normal(size=(m + 1, P, P)))
    h = rng.uniform(0.0, 0.1, size=m).astype(complex)
    g = rng.normal(size=(m, P)) + 1j * rng.normal(size=(m, P))
    scale = 1.0
    if kind == "jordan":
        lam = 0.3 * (rng.normal(size=P) + 1j * rng.normal(size=P))
        K[0] = 1e3 * (np.diag(lam) + np.diag(np.ones(P - 1), 1))
        h *= 1e-2
    elif kind == "near":
        delta = 10.0 ** rng.uniform(-2.0, -1.0)
        h[rng.integers(0, m)] = 2.0 * (1.0 - delta) / np.linalg.eigvals(K[0])[0]
        scale = 1.0 / delta
    return K, h, g, scale


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "jordan", "near"]), P=st.integers(1, 4),
       m=st.integers(1, 60), leaf=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_causal_solver_matches_schur_reference(kind, P, m, leaf, seed):
    # the block-triangular inverse against the Schur-basis triangular one
    K, h, g, scale = _causal_case(kind, P, m, seed)
    u, resid = dy._CausalSolver(K, h, leaf).solve(g)
    ref, ref_resid = causal_reference.CausalSolver(K, h, leaf).solve(g)
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert resid <= 1e-13 * scale and ref_resid <= 1e-13 * scale


@pytest.mark.parametrize("delta, singular", [(0.5e-12, True), (2e-12, False)])
def test_causal_solver_singular_threshold_matches_schur_reference(delta, singular):
    # a row whose self-coupling 1 - h_e lambda/2 sits just either side of
    # the 1e-12 threshold: both solvers raise the same error, or neither
    K, h, _, _ = _causal_case("random", 3, 9, 7)
    h[4] = 2.0 * (1.0 - delta) / np.linalg.eigvals(K[0])[1]
    outcomes = []
    for solver in (dy._CausalSolver, causal_reference.CausalSolver):
        try:
            solver(K, h)
            outcomes.append(None)
        except kr.SingularOperatorError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] == "same-column self-coupling is singular at rows j+4, "
            "j = 1..5") == singular


@pytest.mark.parametrize("kind", ["random", "jordan", "near"])
@pytest.mark.parametrize("P, leaf", [(1, 16), (2, 7), (3, 5), (4, 4)])
def test_leaf_inverse_is_block_lower_triangular(kind, P, leaf):
    # m = 2 leaf + 3 rows: two full leaves and a ragged one
    K, h, _, scale = _causal_case(kind, P, 2 * leaf + 3, 3)
    solver = dy._CausalSolver(K, h, leaf)
    for A, X in zip(solver.blocks, solver.inverses):
        L = A.shape[0] // P
        above = np.kron(np.triu(np.ones((L, L)), 1), np.ones((P, P))).astype(bool)
        assert not X[above].any()
        for k in range(P, A.shape[0] + 1, P):
            assert np.max(np.abs(A[:k, :k] @ X[:k, :k] - np.eye(k))) <= 1e-13 * scale
        ref = np.linalg.inv(A)
        assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))


def direct_refill(sys, W, prefixes):
    """Refill at each prefix ``i`` as the trapezoid double sum over ``[0, t_i]``.

    ``sum_{r,s<=i} c_r c_s a_r conj(a_s) kappa(t_s - t_r)`` with
    ``a_r = dt W22(t_r) e^{-i w21 t_r}``, one quadratic form per prefix.
    """
    tg = W.grid
    dt = tg[1] - tg[0]
    a = dt * W.values[:, 1, 1] * np.exp(-1j * (sys.energies[1] - sys.energies[0]) * tg)
    kappa = sys.kernel.on_grid(tg)
    out = []
    for i in prefixes:
        b = a[: i + 1].copy()
        b[0] *= 0.5
        b[i] *= 0.5
        # toeplitz conjugates the first row: K[s, r] = kappa(t_s - t_r)
        out.append((np.conj(b) @ sla.toeplitz(kappa[: i + 1]) @ b).real)
    return np.array(out)


class TestRefill:
    @pytest.mark.parametrize("case", ["complex_weight", "three_level_decay"])
    def test_takes_any_decay_system(self, case):
        # the refill is the decay route's special case, so a complex slot
        # weight on two levels and a three-level decay take it too
        sd = rv.SpectralDensity.flat_window(0.05, 3.0, 7.0)
        if case == "complex_weight":
            sys, rho0 = kr.SystemSpec((0.0, 5.0), rv.kernel_table(sd, {(2, 1, 1, 2): 1j})), RHO
        else:
            sys, rho0 = _decay_system((0.0, 3.0, 7.5), [(2, 1.0), (3, 0.5)]), RHO3
        T, n = 2.0, 100
        W = kr.solve_time_domain(sys, T, T / n)
        traj = dy.two_level_trajectory(sys, W, rho0)
        field = bitemporal_reference.solve_bitemporal(sys, W, rho0, T, T / n)
        ref = field[np.arange(n + 1), np.arange(n + 1)]
        ref = 0.5 * (ref + np.conj(np.swapaxes(ref, 1, 2)))
        assert np.max(np.abs(traj.matrices - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_bitemporal_sweep(self):
        fast = dy.two_level_trajectory(far_system(), far_propagator(), RHO)
        full = dy.extract_density(far_bitemporal())
        assert np.max(np.abs(fast.matrices - full.matrices)) < 1e-5

    @pytest.mark.parametrize("sd, w21, beta_inv", [
        (rv.SpectralDensity.flat_window(0.05, 3.0, 7.0), 5.0, 0.0),
        (rv.SpectralDensity.flat_window(0.04, 4.0, 8.0), 6.0, 2.0),
        (rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0), 200.0, 0.0),
    ], ids=["flat", "thermal_flat", "lorentzian"])
    def test_matches_direct_sum_and_mode_fold(self, sd, w21, beta_inv):
        # criterion 01's step: the reference's 4096-mode fold misses the
        # grid kernel's refill by about 5e-9 on the flat windows and
        # 3.3e-7 on the Lorentzian, a gap that grows as dt^2 (1.6e-6 at
        # dt 5e-3)
        sys = radiative(sd, w21, beta_inv)
        W = kr.solve_time_domain(sys, 4.0, 2e-3)
        refill = dy.two_level_trajectory(sys, W, EXCITED).matrices[:, 0, 0].real
        prefixes = np.unique(np.r_[1:8, np.linspace(1, W.grid.size - 1, 40).astype(int)])
        direct = direct_refill(sys, W, prefixes)
        assert np.max(np.abs(refill[prefixes] - direct)) <= 1e-13 * np.max(refill)
        assert np.max(np.abs(refill - refill_reference.refill(sys, W))) <= 1e-6

    def test_halving_step_quarters_the_trace_drift(self):
        # criterion 01's line: the trapezoid rule's drift is O(dt^2)
        drifts = []
        for dt in (2e-3, 1e-3):
            W = kr.solve_time_domain(far_system(), 7.0, dt)
            traj = dy.two_level_trajectory(far_system(), W, EXCITED)
            drifts.append(np.max(traj.trace_errors()))
        assert 3.5 <= drifts[0] / drifts[1] <= 4.5

    @settings(max_examples=25, deadline=2000)
    @given(
        family=st.sampled_from(["flat", "lorentzian", "thermal"]),
        w21=st.floats(3.0, 8.0),
        strength=st.floats(0.01, 0.3),
        width=st.floats(0.5, 3.0),
        detuning=st.floats(-1.0, 1.0),
        beta_inv=st.floats(0.2, 2.0),
        n=st.integers(20, 300),
    )
    def test_generated_refill_is_nonnegative_and_direct(self, family, w21, strength,
                                                        width, detuning, beta_inv, n):
        center = w21 + detuning
        if family == "lorentzian":
            sd, beta_inv = rv.SpectralDensity.lorentzian(strength, center, width), 0.0
        else:
            sd = rv.SpectralDensity.flat_window(strength / width, center - width / 2,
                                                center + width / 2)
            beta_inv = beta_inv if family == "thermal" else 0.0
        sys = radiative(sd, w21, beta_inv)
        W = kr.solve_time_domain(sys, n * 0.02, 0.02)
        refill = dy.two_level_trajectory(sys, W, EXCITED).matrices[:, 0, 0].real
        prefixes = np.unique(np.linspace(1, n, 25).astype(int))
        assert refill[0] == 0.0 and np.min(refill[1:]) >= 0.0
        direct = direct_refill(sys, W, prefixes)
        assert np.max(np.abs(refill[prefixes] - direct)) <= 1e-13 * np.max(refill)

    @pytest.mark.parametrize("sd, w21, beta_inv", [
        (rv.SpectralDensity.flat_window(0.05, 3.0, 7.0), 5.0, 0.0),
        (rv.SpectralDensity.flat_window(0.04, 4.0, 8.0), 6.0, 2.0),
        (rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0), 200.0, 0.0),
    ], ids=["flat", "thermal_flat", "lorentzian"])
    def test_carried_samples_match_a_fresh_sample(self, sd, w21, beta_inv):
        # the refill reads W.kappa instead of sampling the kernel again
        sys = radiative(sd, w21, beta_inv)
        W = kr.solve_time_domain(sys, 2.0, 4e-3)
        fresh = replace(W, kappa=sys.kernel.on_grid(W.grid))
        assert np.array_equal(W.kappa, fresh.kappa)
        carried = dy.two_level_trajectory(sys, W, RHO).matrices
        assert np.array_equal(carried, dy.two_level_trajectory(sys, fresh, RHO).matrices)
        # and leaves the carried samples as they were
        assert np.array_equal(W.kappa, fresh.kappa)

    def test_exactly_positive(self):
        fast = dy.two_level_trajectory(far_system(), far_propagator(), RHO)
        assert np.min(fast.min_eigenvalues()) > -1e-13
        assert np.max(fast.trace_errors()) < 1e-5


class TestAudit:
    def test_clean_report(self):
        traj = dy.two_level_trajectory(far_system(), far_propagator(), RHO)
        rep = dy.audit_conservation(traj)
        assert rep.max_trace_error <= 1e-4
        assert rep.min_eigenvalue >= -1e-10

    def test_corrupted_trace_is_flagged(self):
        traj = dy.two_level_trajectory(far_system(), far_propagator(), RHO)
        mats = traj.matrices.copy()
        mats[120, 1, 1] += 0.1
        bad = dy.DensityTrajectory(traj.times, mats, traj.herm_residual)
        rep = dy.audit_conservation(bad)
        assert rep.max_trace_error > 1e-6
        assert rep.trace_time == traj.times[120]

    def test_corrupted_spectrum_is_flagged(self):
        traj = dy.two_level_trajectory(far_system(), far_propagator(), RHO)
        mats = traj.matrices.copy()
        mats[80, 0, 1] += 0.5
        mats[80, 1, 0] += 0.5
        bad = dy.DensityTrajectory(traj.times, mats, traj.herm_residual)
        rep = dy.audit_conservation(bad)
        assert rep.min_eigenvalue < -1e-10
        assert rep.eigen_time == traj.times[80]

    def test_two_level_closed_form_matches_eigvalsh(self):
        # 2 x 2 trajectories take the closed form, the rest eigvalsh
        rng = np.random.default_rng(9)
        g = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        g[:250] *= 10.0 ** rng.uniform(-8, 2, size=(250, 1, 1))
        mats = g @ np.conj(np.swapaxes(g, 1, 2)) - np.eye(2) * rng.uniform(0, 5, (500, 1, 1))
        traj = dy.DensityTrajectory(np.arange(500.0), mats, 0.0)
        ref = np.linalg.eigvalsh(mats)[:, 0]
        scale = np.max(np.abs(mats), axis=(1, 2))
        assert np.all(np.abs(traj.min_eigenvalues() - ref) <= 2e-15 * scale)

    def test_large_dimension_probe_path(self):
        d, steps = 70, 25
        mats = np.broadcast_to(np.eye(d) / d, (steps, d, d)).copy().astype(complex)
        mats[13, 0, 0] = -0.01
        mats[13, 1, 1] = 2.0 / d + 0.01
        traj = dy.DensityTrajectory(np.arange(steps, dtype=float), mats, 0.0)
        rep = dy.audit_conservation(traj)
        assert rep.min_eigenvalue < -1e-10
        assert rep.eigen_time == 13.0
        assert rep.min_eigenvalue < -1e-3


class TestGeneratedInvariants:
    """Trace, Hermiticity, positivity and O(dt^2) drift on generated systems."""

    @settings(max_examples=10, deadline=None)
    @given(
        gaps=st.lists(st.floats(2.5, 4.0), min_size=1, max_size=2),
        amps=st.lists(
            st.tuples(st.floats(0.1, 1.0), st.floats(-math.pi, math.pi)),
            min_size=3, max_size=3,
        ),
        lorentzian=st.booleans(),
        strength=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_time_pipeline(self, gaps, amps, lorentzian, strength, seed):
        # physical slots conj(A[m,k]) A[n,j] from a lowering matrix A,
        # strictly upper triangular with sum |A| = 0.7
        energies = np.concatenate([[0.0], np.cumsum(gaps)])
        dim = energies.size
        A = np.zeros((dim, dim), dtype=complex)
        for (m, k), (mag, phase) in zip(zip(*np.triu_indices(dim, 1)), amps):
            A[m, k] = mag * np.exp(1j * phase)
        A *= 0.7 / np.sum(np.abs(A))
        rule = {}
        for k, m, n, j in np.ndindex(dim, dim, dim, dim):
            if A[m, k] != 0 and A[n, j] != 0:
                rule[(k + 1, m + 1, n + 1, j + 1)] = np.conj(A[m, k]) * A[n, j]
        if lorentzian:
            sd = rv.SpectralDensity.lorentzian(0.2 + 0.4 * strength, 3.0, 1.0)
        else:
            sd = rv.SpectralDensity.flat_window(0.02 + 0.06 * strength, 1.5, 4.5)
        sys = kr.SystemSpec(tuple(energies), rv.kernel_table(sd, rule))
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho0 = g @ g.conj().T
        rho0 = 0.5 * (rho0 + rho0.conj().T) / np.trace(rho0).real
        drifts = []
        for dt in (0.04, 0.02):
            W = kr.solve_time_domain(sys, 2.0, dt)
            traj = dy.extract_density(dy.solve_bitemporal(sys, W, rho0))
            drifts.append(np.max(traj.trace_errors()))
            assert traj.herm_residual <= 1e-12
            assert np.min(traj.min_eigenvalues()) >= -1e-10
        assert 3.5 <= drifts[0] / drifts[1] <= 4.5


class TestMarkovianLimit:
    def test_sweep_approaches_channel(self):
        # scaled coupling: deviation from the damping channel shrinks
        # with the coupling, uniformly in time
        h, w21 = 0.05, 5.0
        sd = rv.SpectralDensity.flat_window(h, w21 - 2.0, w21 + 2.0)
        devs = []
        for lam in (0.4, 0.2, 0.1):
            g_eff = np.pi * h * lam**2
            kern = rv.kernel_table(sd, {(2, 1, 1, 2): lam**2})
            sys = kr.SystemSpec((0.0, w21), kern)
            W = kr.solve_time_domain(sys, 1.5 / g_eff, 3e-4 / g_eff)
            traj = dy.two_level_trajectory(sys, W, RHO)
            ref = dy.markovian_channel(g_eff, 0.0, RHO, traj.times)
            devs.append(np.max(np.abs(traj.matrices - ref)))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 5e-3


class TestWignerWeisskopf:
    def test_zero_coupling_is_flat(self):
        sd = rv.SpectralDensity.flat_window(0.0, 1.0, 2.0)
        t = np.linspace(0, 10, 50)
        assert np.all(dy.wigner_weisskopf(sd, 0.0, 5.0, t) == 1.0)

    def test_table_needs_more_modes_than_the_cap(self):
        # the contour runs 1e-6 above the axis, far below a table's node
        # spacing; on the nodes alone the population was off by 0.93
        # against the flat window the table equals
        sd = rv.SpectralDensity.tabulated(np.linspace(3.0, 7.0, 401), np.full(401, 0.05))
        with pytest.raises(rv.DivergentIntegralError, match="above the cap"):
            dy.wigner_weisskopf(sd, 0.0, 5.0, np.array([1.0, 10.0]))

    def test_negative_times_rejected(self):
        sd = rv.SpectralDensity.lorentzian(0.5, 5.0, 1.0)
        with pytest.raises(ValueError):
            dy.wigner_weisskopf(sd, 0.0, 5.0, np.array([-1.0, 0.0]))

    def test_wide_line_decays_exponentially(self):
        sd = rv.SpectralDensity.lorentzian(0.5, 200.0, 20.0)
        g_eff = 0.5 / 20.0
        t = np.linspace(0, 2.0 / g_eff, 400)
        pop = dy.wigner_weisskopf(sd, 0.0, 200.0, t)
        assert np.max(np.abs(pop - np.exp(-2.0 * g_eff * t))) < 0.05

    def test_strong_coupling_oscillates_and_crosschecks(self):
        sd = rv.SpectralDensity.lorentzian(2.0, 200.0, 1.0)
        sys = radiative(sd, 200.0)
        W = kr.solve_time_domain(sys, 6.0, 2e-3)
        pop = dy.wigner_weisskopf(sd, 0.0, 200.0, W.grid)
        ref = np.abs(W.values[:, 1, 1]) ** 2
        assert np.max(np.abs(pop - ref)) < 1e-3
        dip = int(np.argmin(pop))
        assert pop[dip] < 1e-4 and np.max(pop[dip:]) > 5e-3

    def test_flat_profile_contour_inversion(self):
        h, w21 = 0.05, 5.0
        sd = rv.SpectralDensity.flat_window(h, w21 - 2.0, w21 + 2.0)
        sys = radiative(sd, w21)
        T = 3.0 / (np.pi * h)
        W = kr.solve_time_domain(sys, T, T / 3000)
        t = W.grid[::6]
        pop = dy.wigner_weisskopf(sd, 0.0, w21, t)
        ref = np.abs(W.values[::6, 1, 1]) ** 2
        assert np.max(np.abs(pop - ref)) < 1e-3

    def test_flat_profile_edges_between_nodes(self):
        # with the support edges near contour nodes this point missed
        # the converged Volterra reference by 1.6e-3
        h, w21 = 0.0504227, 5.01837
        sd = rv.SpectralDensity.flat_window(h, w21 - 2.0, w21 + 2.0)
        sys = radiative(sd, w21)
        T = 3.0 / (np.pi * h)
        W = kr.solve_time_domain(sys, T, T / 6000)
        pop = dy.wigner_weisskopf(sd, 0.0, w21, W.grid[::12])
        ref = np.abs(W.values[::12, 1, 1]) ** 2
        assert np.max(np.abs(pop - ref)) < 1e-3


class TestChannel:
    def test_initial_time_is_identity_map(self):
        assert np.max(np.abs(dy.markovian_channel(0.3, 0.7, RHO, 0.0) - RHO)) == 0

    def test_half_life_population(self):
        out = dy.markovian_channel(0.3, 0.0, EXCITED, np.log(2.0) / 0.6)
        assert abs(out[1, 1] - 0.5) < 1e-14

    def test_completeness_machine_precision(self):
        t = np.linspace(0, 8, 33)
        M, N = dy.channel_pair(0.3, 0.4, t)
        comp = np.conj(np.swapaxes(M, -1, -2)) @ M + np.conj(np.swapaxes(N, -1, -2)) @ N
        assert np.max(np.abs(comp - np.eye(2))) < 1e-15

    def test_trace_and_positivity_exact(self):
        t = np.linspace(0, 6, 25)
        out = dy.markovian_channel(0.25, 0.1, RHO, t)
        assert np.max(np.abs(np.einsum("tkk->t", out) - 1.0)) < 1e-14
        assert np.min(np.linalg.eigvalsh(out)) > -1e-14

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            dy.channel_pair(-0.1, 0.0, 1.0)
