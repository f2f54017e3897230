"""Propagator solvers: Volterra time stepping, contour-line fixed point."""

import functools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import identity_reference
import line_reference
import thermal_reference
import volterra_reference
from nmkraus import jaynescummings as jc
from nmkraus import kraus as kr
from nmkraus import laplace as lp
from nmkraus import reservoir as rv


def two_level(sd, beta_inv=0.0, w21=None):
    if w21 is None:
        w21 = sd.params[1]
    kern = rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}, beta_inv=beta_inv)
    return kr.SystemSpec((0.0, w21), kern)


@functools.lru_cache(maxsize=None)
def far_resonant():
    # line center far from zero: the half-line kernel is close to the
    # full-line one, so the two-pole closed form is a tight oracle
    sd = rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0)
    return two_level(sd)


@functools.lru_cache(maxsize=None)
def far_resonant_solution():
    return kr.solve_time_domain(far_resonant(), 10.0, 2e-3)


def two_pole_reference(t, gam, lam):
    # resonant quadratic closure of the Laplace image: two simple poles
    root = np.sqrt(4.0 * gam - lam**2 + 0j)
    xp, xm = (-1j * lam + root) / 2.0, (-1j * lam - root) / 2.0
    rp = (xp + 1j * lam) / (xp - xm)
    rm = (xm + 1j * lam) / (xm - xp)
    return rp * np.exp(-1j * xp * t) + rm * np.exp(-1j * xm * t)


class TestSystemSpec:
    def test_validation(self):
        sd = rv.SpectralDensity.lorentzian(0.5, 5.0, 1.0)
        kern = rv.kernel_table(sd, {(2, 1, 1, 2): 1.0})
        with pytest.raises(ValueError):
            kr.SystemSpec((5.0, 0.0), kern)
        with pytest.raises(ValueError):
            kr.SystemSpec((0.0,), kern)  # slot label 2 out of range
        sys = kr.SystemSpec((0.0, 5.0), kern)
        assert sys.dim == 2
        assert sys.kernel.slots.tolist() == [[1, 0, 0, 1]]
        assert sys.kernel.weights.tolist() == [1.0 + 0.0j]
        with pytest.raises(ValueError, match=r"slot \(2, 1, 1, 2\) outside state labels 1\.\.1"):
            kr.SystemSpec((0.0,), kern)
        with pytest.raises(ValueError, match=r"slot \(0, 1, 1, 2\)"):
            kr.SystemSpec((0.0, 5.0), rv.kernel_table(sd, {(0, 1, 1, 2): 1.0}))

    def test_degenerate_energies_allowed(self):
        sd = rv.SpectralDensity.lorentzian(0.5, 5.0, 1.0)
        kern = rv.kernel_table(sd, {(2, 1, 1, 2): 1.0})
        sys = kr.SystemSpec((5.0, 5.0), kern)
        sol = kr.solve_time_domain(sys, 0.1, 0.05)
        assert np.all(np.isfinite(sol.values))


class TestTimeDomain:
    def test_zero_kernel_is_identity(self):
        sys = kr.SystemSpec((0.0, 3.0, 7.5), rv.kernel_table(
            rv.SpectralDensity.flat_window(0.1, 1.0, 2.0), {}))
        sol = kr.solve_time_domain(sys, 2.0, 0.01)
        assert np.max(np.abs(sol.values - np.eye(3))) == 0

    def test_initial_identity_exact(self):
        sol = far_resonant_solution()
        assert np.all(sol.values[0] == np.eye(2))

    def test_lorentzian_matches_two_pole_closure(self):
        sol = far_resonant_solution()
        ref = two_pole_reference(sol.grid, 0.5, 1.0)
        assert np.max(np.abs(sol.values[:, 1, 1] - ref)) < 1e-4
        # single raising-lowering slot leaves the rest of the matrix free
        assert np.max(np.abs(sol.values[:, 0, 0] - 1.0)) == 0
        assert np.max(np.abs(sol.values[:, 0, 1])) == 0
        assert np.max(np.abs(sol.values[:, 1, 0])) == 0

    def test_step_halving_is_second_order(self):
        # self-convergence against a fine grid; the closed-form reference
        # carries its own model error and would floor the ratio
        sys = far_resonant()
        fine = kr.solve_time_domain(sys, 5.0, 1e-3)
        errs = []
        for dt in (8e-3, 4e-3):
            sol = kr.solve_time_domain(sys, 5.0, dt)
            stride = round(dt / 1e-3)
            ref = fine.values[::stride, 1, 1]
            errs.append(np.max(np.abs(sol.values[:, 1, 1] - ref)))
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_wideband_exponential_decay(self):
        w21, half = 5.0, 2.0
        h = half / (40.0 * np.pi)
        gam = np.pi * h
        sys = two_level(rv.SpectralDensity.flat_window(h, w21 - half, w21 + half), w21=w21)
        sol = kr.solve_time_domain(sys, 3.0 / gam, 3.0 / gam / 6000)
        mask = sol.grid > 0
        ref = np.exp(-gam * sol.grid[mask])
        dev = np.abs(np.abs(sol.values[mask, 1, 1]) - ref) / ref
        assert np.max(dev) < 0.05

    def test_solver_diagnostics(self):
        sol = far_resonant_solution()
        assert sol.max_residual < 1e-11
        assert sol.picard_iters == 0

    def test_grid_validation(self):
        sys = far_resonant()
        with pytest.raises(ValueError):
            kr.solve_time_domain(sys, 1.0, 0.0)
        with pytest.raises(ValueError, match="cap"):
            kr.solve_time_domain(sys, 1.0, 1e-9)
        eye = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2))
        for grid in ([0.0, 0.1, 0.25, 0.3], [0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="propagator grid"):
                kr.KrausZero(np.array(grid), eye, 0.0, 0, np.zeros(4, dtype=complex))
        with pytest.raises(ValueError, match="one kernel sample per grid point"):
            kr.KrausZero(np.arange(4) * 0.1, eye, 0.0, 0, np.zeros(3, dtype=complex))


def _assert_matches_reference(sys, T, n):
    new = kr.solve_time_domain(sys, T, T / n)
    ref = volterra_reference.solve_time_domain(sys, T, T / n, picard_tol=1e-14)
    assert np.max(np.abs(new.values - ref.values)) <= 1e-12
    assert new.max_residual <= 1e-13


class TestExactStepAgreement:
    """Both routes of the time-domain solve against the fixed-point reference.

    A slot set whose reads of written rows form no cycle takes the series
    route (one power-series division per level); any other takes the
    step loop.
    """

    def test_dressed_jaynes_cummings(self):
        basis = jc.DressedBasis(0.0, 20.0, 0.3, 1)
        sys = jc.build_dressed_system(
            basis, rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0))
        assert len(sys.kernel.slots) == 36
        _assert_matches_reference(sys, 12.0, 64)

    @pytest.mark.parametrize("energies, weights", [
        ((0.0, 3.0, 7.5), [(2, 1.0), (3, 0.5)]),
        ((0.0, 3.0, 5.5, 7.5), [(2, 1.0), (3, 0.5), (4, 0.5)]),
    ])
    def test_generic_levels(self, energies, weights):
        sd = rv.SpectralDensity.flat_window(0.05, 2.0, 4.0)
        rule = {(k, 1, 1, k): w for k, w in weights}
        _assert_matches_reference(kr.SystemSpec(energies, rv.kernel_table(sd, rule)), 4.0, 200)

    @pytest.mark.parametrize("sd, w21, beta_inv, T, n, rule", [
        (rv.SpectralDensity.flat_window(2.0 / (40.0 * np.pi), 3.0, 7.0), 5.0, 0.0, 15.0, 3000,
         {(2, 1, 1, 2): 1.0}),
        (rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0), 200.0, 0.0, 7.0, 3500,
         {(2, 1, 1, 2): 1.0}),
        (rv.SpectralDensity.flat_window(0.04, 4.0, 8.0), 6.0, 2.0, 2.0, 200,
         {(2, 1, 1, 2): 1.0}),
        # each slot reads the row the other writes: the step loop
        (rv.SpectralDensity.flat_window(0.02, 3.0, 7.0), 5.0, 5.0, 4.0, 200,
         {(2, 1, 1, 2): 1.0, (1, 2, 2, 1): 1.0}),
    ], ids=["flat", "lorentzian", "thermal", "thermal_pair"])
    def test_two_level(self, sd, w21, beta_inv, T, n, rule):
        kern = rv.kernel_table(sd, rule, beta_inv=beta_inv)
        _assert_matches_reference(kr.SystemSpec((0.0, w21), kern), T, n)

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(2, 5),
        gaps=st.lists(st.floats(0.0, 4.0), min_size=4, max_size=4),
        data=st.data(),
        height=st.floats(0.001, 0.05),
        lo=st.floats(0.5, 5.0),
        width=st.floats(0.2, 3.0),
        beta_inv=st.floats(0.0, 5.0),
        n=st.integers(1, 200),
        dt=st.floats(0.02, 0.2),
    )
    def test_generated_acyclic_systems(self, dim, gaps, data, height, lo, width, beta_inv, n, dt):
        # written rows in levels 1, 2, ... without gaps, the others
        # unwritten (level 0); each written row reads the diagonal of a
        # row of a lower level, and up to six more slots read any entry
        # of such a row; j names a row of the writer's own level or a
        # lower one, and the complex weight is free
        written = sorted(data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1)))
        level = [0] * dim
        for r in written:
            level[r] = data.draw(st.integers(1, 1 + max(level)))
        rule = {}
        extra = data.draw(st.lists(st.sampled_from(written), max_size=6))
        for i, k in enumerate(written + extra):
            m = data.draw(st.sampled_from([r for r in range(dim) if level[r] < level[k]]))
            n_ = m if i < len(written) or data.draw(st.booleans()) else data.draw(st.integers(0, dim - 1))
            j = data.draw(st.sampled_from([r for r in range(dim) if level[r] <= level[k]]))
            weight = data.draw(st.floats(0.05, 1.0)) * np.exp(1j * data.draw(st.floats(-math.pi, math.pi)))
            rule[(k + 1, m + 1, n_ + 1, j + 1)] = weight
        energies = tuple(np.concatenate([[0.0], np.cumsum(gaps[: dim - 1])]))
        sd = rv.SpectralDensity.flat_window(height, lo, lo + width)
        sys = kr.SystemSpec(energies, rv.kernel_table(sd, rule, beta_inv=beta_inv))
        with mock.patch.object(kr, "_step_loop", side_effect=AssertionError("step loop")):
            _assert_matches_reference(sys, n * dt, n)

    @pytest.mark.parametrize("rule, levels", [
        # a three-level cascade whose last row also names the first as j
        ({(2, 1, 1, 2): 1.0, (3, 2, 2, 3): 0.5, (4, 3, 3, 4): 0.5, (4, 3, 3, 2): 0.3},
         [[2], [3], [4]]),
        # row 4 reads only row 1, which no slot writes, but names row 3 as
        # j, so it waits for row 3
        ({(2, 1, 1, 2): 1.0, (3, 2, 2, 3): 0.5, (4, 1, 1, 3): 0.5}, [[2], [3, 4]]),
        # row 2 names row 3 as j and row 3 names row 1, so entry (2, 1) is
        # not zero, and row 4 reads it
        ({(2, 1, 1, 2): 1.0, (2, 1, 1, 3): 0.5, (3, 1, 1, 1): 0.5, (4, 2, 1, 4): 0.5},
         [[2, 3], [4]]),
    ], ids=["cascade", "waits_for_j", "off_diagonal_read"])
    def test_series_levels(self, rule, levels, monkeypatch):
        monkeypatch.setattr(kr, "_step_loop", mock.Mock(side_effect=AssertionError("step loop")))
        sd = rv.SpectralDensity.flat_window(0.05, 2.0, 4.0)
        sys = kr.SystemSpec((0.0, 3.0, 5.5, 7.5), rv.kernel_table(sd, rule))
        assert [(r + 1).tolist() for r in kr._levels(sys.kernel.slots, sys.dim)[1]] == levels
        _assert_matches_reference(sys, 4.0, 200)

    def test_route_follows_read_cycles(self, monkeypatch):
        monkeypatch.setattr(kr, "_step_loop", mock.Mock(side_effect=AssertionError("step loop")))
        # one level per rung above the ground state (test_series_levels
        # runs a three-level cascade the same way)
        for n_max in (1, 2, 3):
            sys = dressed_ladder(n_max)
            assert len(kr._levels(sys.kernel.slots, sys.dim)[1]) == n_max + 1
            kr.solve_time_domain(sys, 1.0, 0.1)
        # an absorption-emission pair and a self-reading slot: read cycles
        sd = rv.SpectralDensity.flat_window(0.05, 2.0, 4.0)
        for energies, rule in [((0.0, 5.0), {(2, 1, 1, 2): 1.0, (1, 2, 2, 1): 1.0}),
                               ((0.0, 1.0), {(1, 1, 1, 1): 1.0})]:
            sys = kr.SystemSpec(energies, rv.kernel_table(sd, rule, beta_inv=5.0))
            assert kr._levels(sys.kernel.slots, sys.dim)[1] is None
            with pytest.raises(AssertionError, match="step loop"):
                kr.solve_time_domain(sys, 1.0, 0.1)

    @settings(max_examples=80, deadline=2000)
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
        n=st.integers(1, 40),
        dt=st.floats(0.02, 0.2),
    )
    def test_generated_systems(self, dim, gaps, slots, height, lo, width, n, dt):
        # arbitrary slot indices, including m != n, with complex |w| <= 1
        energies = np.concatenate([[0.0], np.cumsum(gaps[: dim - 1])])
        rule = {}
        for idx, mag, phase in slots:
            rule[tuple(1 + (i - 1) % dim for i in idx)] = mag * np.exp(1j * phase)
        sd = rv.SpectralDensity.flat_window(height, lo, lo + width)
        _assert_matches_reference(kr.SystemSpec(tuple(energies), rv.kernel_table(sd, rule)), n * dt, n)

    def test_singular_step_names_it(self):
        # a slot that writes the entry it reads, weighted so that entry
        # (1, 1) of step 1 cancels its own coupling
        sd = rv.SpectralDensity.flat_window(0.05, 1.0, 2.0)
        dt = 0.5
        kappa = rv.kernel_samples(sd, np.array([0.0, dt]))
        sys = kr.SystemSpec((0.0, 1.0), rv.kernel_table(
            sd, {(1, 1, 1, 1): -4.0 / (dt * dt * (kappa[0] + kappa[1]))}))
        with pytest.raises(kr.SingularOperatorError, match=r"at step 1 \("):
            kr.solve_time_domain(sys, 2 * dt, dt)
        # the linear route: the emission slot cancels the 2 of its row's
        # step operator, which is the same at every step
        sys = kr.SystemSpec((0.0, 1.0), rv.kernel_table(
            sd, {(2, 1, 1, 2): -4.0 / (dt * dt * kappa[0])}))
        with pytest.raises(kr.SingularOperatorError, match=r"at step 1 \(.*\)$"):
            kr.solve_time_domain(sys, 2 * dt, dt)
        # a two-level cascade whose second level, row 3, cancels its own
        # step operator in the same way: the message names that level
        sys = kr.SystemSpec((0.0, 1.0, 2.5), rv.kernel_table(
            sd, {(2, 1, 1, 2): 1.0, (3, 2, 2, 3): -4.0 / (dt * dt * kappa[0])}))
        with pytest.raises(kr.SingularOperatorError,
                           match=r"at step 1 \(.*\) in the level of written rows 3$"):
            kr.solve_time_domain(sys, 2 * dt, dt)


def dressed_ladder(n_max):
    return jc.build_dressed_system(
        jc.DressedBasis(0.0, 20.0, 0.3, n_max), rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0)
    )


def _assert_line_matches_reference(lk, imz):
    xg, W, cauchy = lk._solve_line(imz)
    ref_xg, ref_W, ref_cauchy = line_reference.solve_line(lk, imz)
    assert np.array_equal(xg, ref_xg)
    assert np.max(np.abs(W - ref_W)) <= 1e-13 * np.max(np.abs(ref_W))
    assert abs(cauchy - ref_cauchy) <= 1e-12
    # the dense iterates are exactly zero outside the blocks
    inside = np.zeros((lk.system.dim,) * 2, dtype=bool)
    for b in lk._blocks:
        inside[np.ix_(b, b)] = True
    assert not np.any(ref_W[:, ~inside])


@functools.lru_cache(maxsize=None)
def near_resonant():
    return two_level(rv.SpectralDensity.lorentzian(1.0, 5.0, 1.0))


class TestLaplaceDomain:
    def test_zero_kernel_free_resolvent(self):
        sys = kr.SystemSpec((0.0, 3.0), rv.kernel_table(
            rv.SpectralDensity.flat_window(0.1, 1.0, 2.0), {}))
        lk = kr.solve_continued_fraction(sys, 16, [1.0 + 1.0j, -4.0 + 0.3j])
        for z in (1.0 + 1.0j, -4.0 + 0.3j, 2.5 + 7.0j):
            got = lk.evaluate(z)
            ref = np.diag(1.0 / (z - np.array([0.0, 3.0])))
            assert np.max(np.abs(got - ref)) < 1e-15
            assert lk.cauchy_at(z) == 0

    def test_two_level_closes_at_depth_two(self):
        sys = near_resonant()
        sd = sys.kernel.sd
        z = 5.0 + 0.5j
        lk = kr.solve_continued_fraction(sys, 2, [z])
        exact = 1.0 / (z - 5.0 - rv.correlation_laplace(sd, z - 0.0))
        got = lk.evaluate(z)
        assert abs(got[1, 1] - exact) / abs(exact) < 1e-6
        assert abs(got[0, 0] - 1.0 / z) < 1e-10
        assert lk.cauchy[z] < 1e-12

    def test_cross_solver_agreement(self):
        sol = far_resonant_solution()
        lk = kr.LaplaceKraus(far_resonant(), 32)
        rng = np.random.default_rng(20240817)
        for _ in range(10):
            z = (195.0 + 10.0 * rng.random()) + 1j * (1.0 + 2.0 * rng.random())
            ft = lp.forward_transform(sol.values[:, 1, 1], 200.0, z, t=sol.grid)
            wz = lk.evaluate(z)[1, 1]
            assert abs(ft - wz) / abs(wz) < 1e-3

    def test_asymptotic_free_behaviour(self):
        sys = near_resonant()
        lk = kr.LaplaceKraus(sys, 16)
        scale = sys.kernel.sd.frequency_scale()
        z = 5.0 + 1e3j * scale
        got = lk.evaluate(z)
        en = np.array(sys.energies)
        assert np.max(np.abs(np.diag(got) * (z - en) - 1.0)) < 1e-3
        # far outside the window the deviation has decayed below floor
        z = 2.0e3 + 5.0j
        got = lk.evaluate(z)
        assert np.max(np.abs(np.diag(got) - 1.0 / (z - en))) < 1e-18

    def test_identity_zero_kernel(self):
        sys = kr.SystemSpec((0.0, 3.0), rv.kernel_table(
            rv.SpectralDensity.flat_window(0.1, 1.0, 2.0), {}))
        z = 0.7 + 0.9j
        out = kr.laplace_inverse_identity(sys, kr.LaplaceKraus(sys, 1), z)
        assert np.max(np.abs(out - np.diag(z - np.array([0.0, 3.0])))) == 0

    def test_identity_matches_closed_two_level_entry(self):
        sys = near_resonant()
        sd = sys.kernel.sd
        lk = kr.solve_continued_fraction(sys, 16, [5.0 + 0.5j])
        z = 5.0 + 0.5j
        out = kr.laplace_inverse_identity(sys, lk, z)
        ref = z - 5.0 - rv.correlation_laplace(sd, z - 0.0)
        assert abs(out[1, 1] - ref) < 1e-8
        assert abs(out[0, 0] - (z - 0.0)) < 1e-12

    def test_identity_inverts_converged_image(self):
        sys = near_resonant()
        for z in (5.0 + 0.5j, 3.0 + 2.0j):
            lk = kr.solve_continued_fraction(sys, 32, [z])
            ident = kr.laplace_inverse_identity(sys, lk, z)
            resid = ident @ lk.evaluate(z) - np.eye(2)
            assert np.max(np.abs(resid)) < 1e-6

    @pytest.mark.parametrize("case", ["zero_temperature", "thermal", "dressed_ladder"])
    def test_identity_matches_mode_loop(self, case):
        if case == "zero_temperature":
            sys, z = near_resonant(), 5.0 + 0.5j
        elif case == "thermal":
            sys = two_level(rv.SpectralDensity.flat_window(0.04, 4.0, 8.0), 2.0, 6.0)
            z = 6.0 + 3.5j
        else:
            sys = jc.build_dressed_system(
                jc.DressedBasis(0.0, 20.0, 0.3, 1),
                rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0),
            )
            z = 19.5 + 2.0j
        lk = kr.solve_continued_fraction(sys, 16, [z])
        got = kr.laplace_inverse_identity(sys, lk, z)
        ref = identity_reference.laplace_inverse_identity(sys, lk, z)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_contour_ordering_errors(self):
        sys = near_resonant()
        lk = kr.LaplaceKraus(sys, 8)
        with pytest.raises(rv.LaplaceDomainError):
            lk.evaluate(5.0 - 0.1j)
        with pytest.raises(rv.LaplaceDomainError):
            kr.solve_continued_fraction(sys, 8, [5.0 + 0.0j])

    def test_line_resolution_error(self):
        # criterion 01's line: the Lorentzian's support reaches far past
        # the 0.0125 spacing of Im z = 0.5, 672,801 line points
        sd = rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0)
        sys = kr.SystemSpec((0.0, 200.0), rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}))
        lk = kr.LaplaceKraus(sys, 8)
        with pytest.raises(kr.LineResolutionError, match="672801 points") as info:
            lk.evaluate(200.0 + 0.5j)
        assert isinstance(info.value, ValueError)
        assert info.value.npts == 672_801

    def test_batched_line_solve_matches_entry_loop(self):
        # dressed ladder: 5 levels, repeated (k, j) slots; the blocks are
        # those of the ladder's 2 x 2 recursion
        lk = kr.LaplaceKraus(dressed_ladder(1), 8)
        assert lk._blocks == ((0,), (1, 2), (3, 4))
        _assert_line_matches_reference(lk, 2.0)

    @pytest.mark.parametrize("case", ["ladder_n2", "ladder_n3", "thermal_ladder", "four_level_table"])
    def test_block_line_solve_matches_entry_loop(self, case):
        if case == "four_level_table":
            # slot (3,3,4,2) reads inside a block only after (4,2,2,3)
            # forms it, so the closure takes a second pass; (2,1,3,4)
            # reads across blocks and is dropped
            rule = {(2, 1, 1, 2): 1.0, (3, 3, 4, 2): 0.3j, (4, 2, 2, 3): 0.4,
                    (1, 2, 3, 1): 0.5, (2, 1, 3, 4): 0.2}
            sd = rv.SpectralDensity.flat_window(0.04, 0.5, 3.0)
            sys = kr.SystemSpec((0.0, 1.0, 2.5, 4.0), rv.kernel_table(sd, rule))
            blocks = ((0,), (1, 2, 3))
        elif case == "thermal_ladder":
            # negative mode offsets: the absorption branch
            sys = dressed_ladder(1)
            sys = kr.SystemSpec(sys.energies, replace(sys.kernel, beta_inv=0.5))
            blocks = ((0,), (1, 2), (3, 4))
        else:
            n_max = int(case[-1])
            sys = dressed_ladder(n_max)
            blocks = ((0,),) + tuple((i, i + 1) for i in range(1, 2 * n_max + 3, 2))
        lk = kr.LaplaceKraus(sys, 8)
        assert lk._blocks == blocks
        _assert_line_matches_reference(lk, 1.5)

    @settings(max_examples=15, deadline=None)
    @given(
        dim=st.integers(2, 4),
        gaps=st.lists(st.floats(0.0, 1.5), min_size=3, max_size=3),
        slots=st.lists(
            st.tuples(
                st.tuples(*[st.integers(1, 4)] * 4),
                st.floats(0.0, 0.5),
                st.floats(-math.pi, math.pi),
            ),
            min_size=1, max_size=6,
        ),
        height=st.floats(0.001, 0.05),
        lo=st.floats(0.5, 2.0),
        width=st.floats(0.2, 1.5),
        beta_inv=st.sampled_from([0.0, 0.5]),
        imz=st.floats(0.5, 2.0),
    )
    def test_generated_block_closure(self, dim, gaps, slots, height, lo, width, beta_inv, imz):
        # arbitrary slot indices, including m != n, with complex |w| <= 0.5
        energies = np.concatenate([[0.0], np.cumsum(gaps[: dim - 1])])
        rule = {}
        for idx, mag, phase in slots:
            rule[tuple(1 + (i - 1) % dim for i in idx)] = mag * np.exp(1j * phase)
        sd = rv.SpectralDensity.flat_window(height, lo, lo + width)
        sys = kr.SystemSpec(tuple(energies), rv.kernel_table(sd, rule, beta_inv=beta_inv))
        _assert_line_matches_reference(kr.LaplaceKraus(sys, 4), imz)

    @settings(max_examples=10, deadline=None)
    @given(
        gaps=st.lists(st.floats(2.5, 4.0), min_size=1, max_size=2),
        amps=st.lists(
            st.tuples(st.floats(0.1, 1.0), st.floats(-math.pi, math.pi)),
            min_size=3, max_size=3,
        ),
        lorentzian=st.booleans(),
        strength=st.floats(0.0, 1.0),
        zs=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(1.5, 3.0)), min_size=3, max_size=3
        ),
    )
    def test_generated_cross_solver_agreement(self, gaps, amps, lorentzian, strength, zs):
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
        sol = kr.solve_time_domain(sys, 20.0, 5e-3)
        lk = kr.LaplaceKraus(sys, 32)
        for frac, imz in zs:
            z = (energies[-1] + 2.0) * frac - 1.0 + 1j * imz
            direct = lk.evaluate(z)
            for k in range(dim):
                ft = lp.forward_transform(sol.values[:, k, k], energies[k], z, t=sol.grid)
                assert abs(ft - direct[k, k]) <= 1e-5 * abs(direct[k, k])

    def test_singular_near_real_axis(self):
        sys = near_resonant()
        lk = kr.LaplaceKraus(sys, 8)
        with pytest.raises(kr.SingularOperatorError):
            lk.evaluate(5.0 + 1e-13j)

    def test_singular_block_on_the_line(self, monkeypatch):
        # an image chat(y) = y - 1 cancels entry (1, 1) of the two-level
        # line exactly: B = (z - 1) - chat(z - 0) = 0 at every point
        sys = kr.SystemSpec((0.0, 1.0), rv.kernel_table(
            rv.SpectralDensity.flat_window(0.05, 1.0, 2.0), {(2, 1, 1, 2): 1.0}))
        monkeypatch.setattr(rv, "correlation_laplace", lambda sd, y, beta_inv=0.0: y - 1.0)
        with pytest.raises(kr.SingularOperatorError, match="singular inversion"):
            kr.LaplaceKraus(sys, 1).evaluate(0.5 + 1.0j)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_block_inverses_match_linalg(self, size):
        rng = np.random.default_rng(size)
        blk = rng.normal(size=(500, 3, size, size)) + 1j * rng.normal(size=(500, 3, size, size))
        got = kr._inverse_blocks(blk)
        ref = np.linalg.inv(blk)
        assert np.max(np.abs(got - ref) / np.max(np.abs(ref), axis=(-2, -1), keepdims=True)) < 1e-12
        # an exactly zero determinant raises as np.linalg.inv does: a
        # zero block, or for size >= 2 a block of equal rows
        blk[7, 1] = 0.0 if size == 1 else np.arange(1.0, size + 1.0)
        with pytest.raises(np.linalg.LinAlgError):
            kr._inverse_blocks(blk)

    def test_fold_spectrum_matches_scipy_fft(self):
        # the half-length real FFT plus its mirror is scipy.fft's full
        # spectrum of the binned weights, bit for bit
        from scipy import fft as sfft

        lk = kr.LaplaceKraus(dressed_ladder(1), 8)
        for imz in (0.5, 1.5):
            xg = lk._line_points(imz)
            npts = xg.size
            h = (xg[-1] - xg[0]) / (npts - 1)
            got = lk._fold_weights(h, npts)
            ref = sfft.fft(line_reference.binned_weights(lk, h, npts, got.size))
            assert np.array_equal(got, ref)

    def test_poles_stay_on_real_axis(self):
        # off the support of the shifted levels the boundary values are
        # insensitive to the approach distance
        sys = near_resonant()
        lk = kr.LaplaceKraus(sys, 32)
        for om in (-8.0, 30.0):
            vals = [np.max(np.abs(lk.evaluate(om + 1j * e))) for e in (1e-2, 1e-3, 1e-4)]
            assert max(vals) / min(vals) < 1.05

    def test_cauchy_riemann_residuals(self):
        sys = near_resonant()
        lk = kr.LaplaceKraus(sys, 32)
        h = 1e-3
        for z in (5.0 + 0.1j, 4.0 + 0.5j, 6.5 + 1.0j):
            fx = (lk.evaluate(z + h) - lk.evaluate(z - h)) / (2 * h)
            fy = (lk.evaluate(z + 1j * h) - lk.evaluate(z - 1j * h)) / (2 * h)
            assert np.max(np.abs(fx + 1j * fy)) / 2 < 1e-5

    def test_collapse_matches_nested_contour_quadrature(self):
        # tabulated density: the omega-axis exchange against an explicit
        # y-line integral of chat(y) W(z - y)
        om = np.linspace(2.0, 8.0, 121)
        g2 = 0.2 * np.exp(-((om - 5.0) ** 2))
        g2[0] = g2[-1] = 0.0
        sd = rv.SpectralDensity.tabulated(om, g2)
        sys = two_level(sd, w21=5.0)
        z = 5.0 + 0.8j
        lk = kr.solve_continued_fraction(sys, 32, [z])
        ident = kr.laplace_inverse_identity(sys, lk, z)
        collapsed = ident[1, 1] - (z - 5.0)
        eta = 0.4
        x = np.linspace(-1000.0, 1000.0, 400_001)
        y = x + 1j * eta
        chat = np.empty(x.size, dtype=complex)
        for lo in range(0, x.size, 20000):
            yy = y[lo:lo + 20000]
            chat[lo:lo + 20000] = np.trapezoid(g2 / (yy[:, None] - om), om, axis=1)
        w11 = 1.0 / (z - y - 0.0)
        nested = np.trapezoid(chat * w11, x) / (2j * np.pi)
        assert abs(collapsed - nested) < 1e-3


class TestWeakCoupling:
    def test_flat_sweep_converges_to_markov_resolvent(self):
        h, w21 = 0.05, 5.0
        sys = two_level(rv.SpectralDensity.flat_window(h, w21 - 2, w21 + 2), w21=w21)
        gamma = np.pi * h
        eps = 1e-3
        wt = np.linspace(-4, 4, 17)
        ref = 1.0 / (wt + 1j * (gamma + eps))
        devs = []
        for lam in (0.5, 0.25, 0.125):
            out = kr.weak_coupling_limit(sys, lam, wt, eps_tilde=eps)
            devs.append(np.max(np.abs(out[:, 1, 1] - ref) / np.abs(ref)))
        assert devs[1] < 0.35 * devs[0]
        assert devs[2] < 0.35 * devs[1]
        assert devs[2] < 1e-2

    def test_width_matches_wideband_damping(self):
        h, w21 = 0.05, 5.0
        sys = two_level(rv.SpectralDensity.flat_window(h, w21 - 2, w21 + 2), w21=w21)
        gamma = np.pi * h
        eps = 1e-3
        out = kr.weak_coupling_limit(sys, 0.125, np.array([0.0]), eps_tilde=eps)
        width = -1.0 / np.imag(out[0, 1, 1]) - eps
        assert abs(width - gamma) / gamma < 0.02

    def test_zero_coupling_gives_bare_resolvent(self):
        sys = kr.SystemSpec((0.0, 5.0), rv.kernel_table(
            rv.SpectralDensity.flat_window(0.1, 4.0, 6.0), {}))
        wt = np.array([-2.0, -0.5, 0.7, 3.0])
        out = kr.weak_coupling_limit(sys, 0.25, wt, eps_tilde=1e-12)
        assert np.max(np.abs(out[:, 1, 1] - 1.0 / wt)) < 1e-9

    def test_offdiagonal_entries_decay_with_lambda(self):
        sd = rv.SpectralDensity.flat_window(0.05, 3.0, 7.0)
        slots = {(2, 1, 1, 2): 1.0, (3, 1, 1, 3): 1.0,
                 (2, 1, 1, 3): 0.5, (3, 1, 1, 2): 0.5}
        sys3 = kr.SystemSpec((0.0, 5.0, 5.4), rv.kernel_table(sd, slots))
        offs = []
        for lam in (0.5, 0.25, 0.125):
            out = kr.weak_coupling_limit(sys3, lam, np.array([0.0]), anchor=2)
            offs.append(abs(out[0, 1, 2]))
        assert offs[1] < 0.5 * offs[0]
        assert offs[2] < 0.5 * offs[1]

    def test_lambda_validation(self):
        sys = near_resonant()
        with pytest.raises(ValueError):
            kr.weak_coupling_limit(sys, 0.0, 1.0)
        with pytest.raises(ValueError):
            kr.weak_coupling_limit(sys, 1.5, 1.0)


class TestThermal:
    def test_cross_solver_and_identity_at_temperature(self):
        sd = rv.SpectralDensity.flat_window(0.04, 4.0, 8.0)
        sys = two_level(sd, beta_inv=2.0, w21=6.0)
        sol = kr.solve_time_domain(sys, 6.0, 2.5e-3)
        z = 6.0 + 3.5j
        lk = kr.solve_continued_fraction(sys, 48, [z])
        ft = lp.forward_transform(sol.values[:, 1, 1], 6.0, z, t=sol.grid)
        wz = lk.evaluate(z)[1, 1]
        assert abs(ft - wz) / abs(wz) < 1e-5
        ident = kr.laplace_inverse_identity(sys, lk, z)
        assert np.max(np.abs(ident @ lk.evaluate(z) - np.eye(2))) < 1e-6


class TestThermalIdentityFreePart:
    def test_free_part_on_narrow_window(self):
        # the free resolvent has no deviation, so only the reservoir image
        # of the diagonal slot enters the identity
        h, lo, hi, binv = 0.2, 4.5, 5.5, 0.8
        sd = rv.SpectralDensity.flat_window(h, lo, hi)
        sys = two_level(sd, binv, 5.0)
        free = kr.LaplaceKraus(kr.SystemSpec((0.0, 5.0), rv.kernel_table(sd, {})), 1)
        z = 5.0 + 0.5j
        ident = kr.laplace_inverse_identity(sys, free, z)
        ref = z - 5.0 - thermal_reference.image(h, lo, hi, binv, z)
        assert abs(ident[1, 1] - ref) < 1e-12 * abs(ref)
        assert ident[0, 0] == z
