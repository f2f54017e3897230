"""Two-time solver, trajectory extraction, audits, reference channels."""

import functools
import math
import os
from dataclasses import replace
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


def radiative(sd, w21, beta_inv=0.0):
    kern = rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}, beta_inv=beta_inv)
    return kr.SystemSpec((0.0, w21), kern)


@functools.cache
def far_system():
    return radiative(rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0), 200.0)


@functools.cache
def far_propagator():
    return kr.solve_time_domain(far_system(), 2.0, 0.01)


@functools.cache
def far_bitemporal():
    return dy.solve_bitemporal(far_system(), far_propagator(), RHO)


@functools.cache
def zero_kernel_state():
    sys = kr.SystemSpec((0.0, 3.0), rv.kernel_table(
        rv.SpectralDensity.flat_window(0.1, 1.0, 2.0), {}))
    W = kr.solve_time_domain(sys, 1.0, 0.05)
    return dy.solve_bitemporal(sys, W, RHO)


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
        # a stand-in identity propagator on 10^5 steps asks for a field
        # far beyond physical memory; the guard fires before any of it
        # is allocated
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        n, dt = max(10**5, math.isqrt(phys)), 0.01
        W = kr.KrausZero(np.arange(n + 1) * dt,
                         np.broadcast_to(np.eye(2, dtype=complex), (n + 1, 2, 2)),
                         0.0, 0, np.zeros(n + 1, dtype=complex))
        with pytest.raises(dy.FieldSizeError) as err:
            dy.solve_bitemporal(far_system(), W, RHO)
        assert err.value.nbytes > phys
        assert "GiB" in str(err.value)

    def test_field_size_guard_counts_bytes(self, monkeypatch):
        # the field plus what the route stores per node: on the level
        # route the source rows in X channels, the (written row, column)
        # pairs that can be nonzero (9 of the 3 x 5 on the dressed
        # ladder, 1 of the 1 x 4 on the four-level decay, whose only
        # written row is the ground state's and only the ground state's
        # column reaches it); on the column loop G kernel-weighted read
        # entries, one for each (written row, read entry) pair (2 for
        # the thermal pair)
        ladder = jc.build_dressed_system(jc.DressedBasis(0.0, 20.0, 0.3, 1),
                                         rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0))
        four = _decay_system((0.0, 3.0, 5.5, 7.5), [(2, 1.0), (3, 0.5), (4, 0.5)])
        n = 64
        monkeypatch.setattr(dy.os, "sysconf", lambda name: 1)
        for sys, dim, stored in [(ladder, 5, 9), (four, 4, 1),
                                 (_thermal_system(THERMAL_PAIR), 2, 2)]:
            assert sys.dim == dim
            with pytest.raises(dy.FieldSizeError) as err:
                dy.check_field_size(sys, 12.0, 12.0 / n)
            assert err.value.nbytes == (n + 1) ** 2 * (dim ** 2 + stored) * 16

        def unreadable(name):
            raise OSError(name)

        # no memory figure, no refusal
        monkeypatch.setattr(dy.os, "sysconf", unreadable)
        assert dy.check_field_size(ladder, 12.0, 12.0 / n) is None

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


class TestBitemporal:
    def test_zero_kernel_constant(self):
        xi = zero_kernel_state()
        assert np.max(np.abs(xi.values - RHO)) < 1e-12
        traj = dy.extract_density(xi)
        assert np.max(np.abs(traj.matrices - RHO)) < 1e-12

    def test_initial_node_is_rho0(self):
        xi = far_bitemporal()
        assert np.max(np.abs(xi.values[0, 0] - RHO)) == 0

    def test_two_time_hermitian_symmetry(self):
        xi = far_bitemporal()
        swapped = np.conj(np.swapaxes(np.swapaxes(xi.values, 0, 1), 2, 3))
        assert np.max(np.abs(xi.values - swapped)) < 1e-12

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


def _assert_matches_reference(sys, rho0, T, n, *, physical=True):
    """Column solver vs reference, and the field's two-time symmetry.

    The solver fills ``values[j, i]`` as the adjoint of ``values[i, j]``
    off the equal-time diagonal; the diagonal itself is Hermitian only
    for a physical slot table, so ``physical=False`` leaves it out.
    """
    dt = T / n
    W = kr.solve_time_domain(sys, T, dt)
    new = dy.solve_bitemporal(sys, W, rho0)
    ref = bitemporal_reference.solve_bitemporal(sys, W, rho0, T, dt)
    assert np.max(np.abs(new.values - ref.values)) <= 1e-12
    swapped = np.conj(np.swapaxes(np.swapaxes(new.values, 0, 1), 2, 3))
    defect = np.abs(new.values - swapped)
    if not physical:
        defect[np.arange(n + 1), np.arange(n + 1)] = 0.0
    assert np.max(defect) <= 1e-12
    assert new.max_residual <= 1e-12


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
        _assert_matches_reference(sys, rho0, 12.0, 64)

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
        rho0 = np.array([[0.1, 0.0, 0.0, 0.0], [0.0, 0.3, 0.1, 0.0],
                         [0.0, 0.1, 0.3, 0.05], [0.0, 0.0, 0.05, 0.3]])
        _assert_matches_reference(sys, rho0, 4.0, 200)

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
    """The same-column ordering: explicit levels, then the coupled core."""

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
        ref = dy.solve_bitemporal(sys, W, RHO3)
        monkeypatch.setattr(dy, "_CausalSolver", refuse)
        xi = dy.solve_bitemporal(sys, W, RHO3)
        assert np.array_equal(xi.values, ref.values)
        assert xi.max_residual == 0.0

    def test_solver_sees_only_the_core(self, monkeypatch):
        built = []

        class Spy(dy._CausalSolver):
            def __init__(self, K, h, leaf=None):
                built.append(K.shape[1:])
                super().__init__(K, h, leaf)

        monkeypatch.setattr(dy, "_CausalSolver", Spy)
        sys = _thermal_system(THERMAL_PAIR_AND_DECAY)
        dy.solve_bitemporal(sys, kr.solve_time_domain(sys, 1.0, 0.02),
                            np.diag([0.0, 0.4, 0.6]))
        assert built == [(2, 2)]

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


def _entry_levels(sys):
    return dy._entry_levels(sys, *dy._slot_pairs(sys))[:2]


def _refuse_loop():
    return mock.patch.object(dy, "_column_loop", side_effect=AssertionError("column loop"))


class TestLevelRoute:
    """Read entries without a cycle: solved level by level, with no column loop."""

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
            new = dy.solve_bitemporal(sys, W, RHO3)
        assert loop.called
        ref = bitemporal_reference.solve_bitemporal(sys, W, RHO3, T, T / n)
        assert np.max(np.abs(new.values - ref.values)) <= 1e-12

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
            min_size=1, max_size=8,
        ),
        height=st.floats(0.001, 0.05),
        lo=st.floats(0.5, 5.0),
        width=st.floats(0.2, 3.0),
        n=st.integers(2, 16),
        dt=st.floats(0.02, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_acyclic_systems(self, dim, gaps, slots, height, lo, width, n, dt,
                                       seed):
        # the slots are drawn one by one and kept while the read entries
        # stay without a cycle, so the levels build up as they are drawn
        energies = tuple(np.concatenate([[0.0], np.cumsum(gaps[: dim - 1])]))
        sd = rv.SpectralDensity.flat_window(height, lo, lo + width)
        rule = {}
        for idx, mag, phase in slots:
            trial = {**rule, tuple(1 + (i - 1) % dim for i in idx): mag * np.exp(1j * phase)}
            if not _entry_levels(kr.SystemSpec(energies, rv.kernel_table(sd, trial)))[1].size:
                rule = trial
        sys = kr.SystemSpec(energies, rv.kernel_table(sd, rule))
        with _refuse_loop():
            _assert_matches_reference(sys, _random_density(dim, seed), n * dt, n,
                                      physical=False)


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
    def test_requires_radiative_structure(self):
        sd = rv.SpectralDensity.flat_window(0.05, 3.0, 7.0)
        sys3 = kr.SystemSpec((0.0, 5.0, 5.4), rv.kernel_table(
            sd, {(2, 1, 1, 2): 1.0, (3, 1, 1, 3): 1.0}))
        W3 = kr.solve_time_domain(sys3, 0.2, 0.05)
        rho3 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            dy.two_level_trajectory(sys3, W3, rho3)
        sys_wrong = kr.SystemSpec((0.0, 5.0), rv.kernel_table(
            sd, {(1, 2, 2, 1): 1.0}))
        Ww = kr.solve_time_domain(sys_wrong, 0.2, 0.05)
        with pytest.raises(ValueError):
            dy.two_level_trajectory(sys_wrong, Ww, RHO)

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
