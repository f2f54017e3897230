"""Shifted transforms and contour inversion against closed forms."""

import math

import numpy as np
import pytest

import contour_reference
from nmkraus import dynamics as dy
from nmkraus import laplace as lp
from nmkraus import reservoir as rv
from nmkraus.reservoir import LaplaceDomainError

W0 = 3.0
GAM = 0.5


class TestGrids:
    def test_validation(self):
        with pytest.raises(ValueError):
            lp.ContourGrid(2.0, 1.0)
        with pytest.raises(ValueError):
            lp.ContourGrid(0.0, 1.0, n_points=8)
        with pytest.raises(ValueError):
            lp.ContourGrid(0.0, 1.0, im_offset=0.0)


def _simpson_grid(T):
    # 2000 Simpson intervals on [0, T]
    return np.linspace(0.0, T, 2001)


class TestForwardTransform:
    def test_constant_finite_window(self):
        z = W0 + 2.0j
        T = 8.0
        t = _simpson_grid(T)
        got = lp.forward_transform(np.ones_like(t), W0, z, t=t, tail_tol=1.0)
        ref = -1j * (np.exp(1j * (z - W0) * T) - 1.0) / (1j * (z - W0))
        assert abs(got - ref) < 1e-10

    def test_phase_only_pole(self):
        z = W0 + 2.0j
        t = _simpson_grid(20.0)
        got = lp.forward_transform(np.exp(-1j * W0 * t), 0.0, z, t=t)
        assert abs(got - 1.0 / (z - W0)) < 1e-8

    def test_damped_row_frame(self):
        # decaying residue in the frame of its row shift
        z = W0 + 2.0j
        t = _simpson_grid(20.0)
        got = lp.forward_transform(np.exp(-GAM * t), W0, z, t=t)
        assert abs(got - 1.0 / (z - W0 + 1j * GAM)) < 1e-8

    def test_sampled_input(self):
        t = np.linspace(0.0, 20.0, 4001)
        z = 1.0 + 1.5j
        got = lp.forward_transform(np.exp(-0.8 * t), 0.0, z, t=t)
        assert abs(got - 1.0 / (z + 0.8j)) < 1e-8

    def test_domain_error(self):
        t = _simpson_grid(10.0)
        with pytest.raises(LaplaceDomainError):
            lp.forward_transform(np.ones_like(t), 0.0, 1.0 - 0.1j, t=t)

    def test_tail_truncation_error(self):
        # non-decaying sample with weak contour damping: tail is large
        t = _simpson_grid(20.0)
        with pytest.raises(lp.TailTruncationError):
            lp.forward_transform(np.ones_like(t), 0.0, 1.0 + 0.1j, t=t)

    def test_grid_mismatch(self):
        t = _simpson_grid(10.0)
        with pytest.raises(ValueError):
            lp.forward_transform(np.ones(t.size - 1), 0.0, 1.0 + 1.0j, t=t)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        z = 2.0 + 1.0j
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = np.linspace(0.0, 40.0, 8001)
        f = np.exp(-0.5 * t - 2j * t)
        g = np.exp(-0.9 * t + 1j * t)
        va = lp.forward_transform(f, 0.0, z, t=t)
        vb = lp.forward_transform(g, 0.0, z, t=t)
        vc = lp.forward_transform(a * f + b * g, 0.0, z, t=t)
        assert abs(vc - a * va - b * vb) < 1e-12

    def test_non_uniform_grid_is_refused(self):
        # Simpson's weights assume equal steps; a stretched grid must not
        # silently get a worse rule
        t = _simpson_grid(10.0) ** 1.01
        with pytest.raises(ValueError, match="needs t uniform, increasing"):
            lp.forward_transform(np.exp(-t), 0.0, 1.0 + 1.0j, t=t)
        with pytest.raises(ValueError, match="at least three points"):
            lp.forward_transform(np.ones(2), 0.0, 1.0 + 1.0j, t=np.arange(2.0))

    @pytest.mark.parametrize("npts", [3, 4, 5, 6, 7, 400, 401, 2000, 2001])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_simpson(self, npts, seed):
        # odd counts are composite Simpson; even ones add Cartwright's
        # last-interval correction, as scipy >= 1.11 does
        from scipy import integrate

        rng = np.random.default_rng(seed)
        T = rng.uniform(0.5, 30.0)
        t = np.linspace(0.0, T, npts)
        w, rate = rng.uniform(-8.0, 8.0, 2), rng.uniform(0.0, 1.0)
        f = np.exp(-rate * t) * (np.exp(1j * w[0] * t) + 0.5j * np.cos(w[1] * t))
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(0.2, 3.0))
        shift = rng.uniform(-3.0, 3.0)
        got = lp.forward_transform(f, shift, z, t=t, tail_tol=np.inf)
        ref = -1j * integrate.simpson(np.exp(1j * (z - shift) * t) * f, x=t)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def _on(grid, F):
    # samples of F on the contour nodes
    return F(grid.nodes() + 1j * grid.im_offset)


class TestInvert:
    def test_oscillator_pole(self):
        # node spacing must resolve the contour height (trapezoid error
        # ~exp(-2 pi eps/h)); 2e6 nodes over +-50 give h = eps/2
        grid = lp.ContourGrid(W0 - 50, W0 + 50, 2_000_001, 1e-4)
        fv = _on(grid, lambda z: 1.0 / (z - W0))
        for t in (5.0, 7.0, 10.0):
            got = lp.invert(fv, grid, t)
            assert abs(got - np.exp(-1j * W0 * t)) <= 1e-3

    def test_initial_time_jump_average(self):
        # one-sided series inverts to the half-sum at the t=0 jump
        grid = lp.ContourGrid(W0 - 50, W0 + 50, 2_000_001, 1e-4)
        got = lp.invert(_on(grid, lambda z: 1.0 / (z - W0)), grid, 0.0)
        assert abs(got - 0.5) < 2e-3

    def test_window_too_narrow(self):
        grid = lp.ContourGrid(W0 - 50, W0 + 50, 20000, 1e-4)
        with pytest.raises(lp.WindowTooNarrowError):
            lp.invert(_on(grid, lambda z: 1.0 / (z - W0 + 1j * GAM)), grid, 1.0)

    def test_samples_must_match_nodes(self):
        grid = lp.ContourGrid(W0 - 50, W0 + 50, 20000, 1e-4)
        with pytest.raises(ValueError):
            lp.invert(np.ones(19999), grid, 1.0)

    def test_damped_pole_by_splitting(self):
        # intended workflow for transforms with 1/z tails: peel the pole,
        # invert the flat remainder, add the closed-form series back
        grid = lp.ContourGrid(W0 - 50, W0 + 50, 20000, 1e-4)
        p = W0 - 1j * GAM
        F = _on(grid, lambda z: 1.0 / (z - p))
        rest = F - 1.0 / (grid.nodes() + 1j * grid.im_offset - p)
        t = np.linspace(0.0, 10.0, 21)
        back = lp.invert(rest, grid, t, boundary_tol=np.inf) + lp.pole_series([p], [1.0], t)
        assert np.max(np.abs(back - np.exp(-1j * p * t))) < 1e-12

    def test_damped_pole_direct_window_tail(self):
        # direct inversion carries the ~1/(pi W t) window tail
        grid = lp.ContourGrid(W0 - 50, W0 + 50, 20000, 1e-4)
        t = np.array([1.0, 3.0, 7.0])
        fv = _on(grid, lambda z: 1.0 / (z - W0 + 1j * GAM))
        got = lp.invert(fv, grid, t, boundary_tol=0.05)
        ref = np.exp(-1j * W0 * t - GAM * t)
        assert np.max(np.abs(got - ref)) < 2e-2
        assert abs(got[-1] - ref[-1]) < 2e-3

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a1, a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        grid = lp.ContourGrid(W0 - 50, W0 + 50, 20000, 1e-4)
        Fa = _on(grid, lambda z: 1.0 / (z - 2.0 + 0.7j))
        Fb = _on(grid, lambda z: 1.0 / (z - 4.0 + 1.1j))
        va = lp.invert(Fa, grid, 1.7, boundary_tol=0.05)
        vb = lp.invert(Fb, grid, 1.7, boundary_tol=0.05)
        vc = lp.invert(a1 * Fa + a2 * Fb, grid, 1.7, boundary_tol=0.05)
        assert abs(vc - a1 * va - a2 * vb) < 1e-13

    def test_real_series_conjugation(self):
        # a real time series has F obeying conj(F(-conj z)) = -F(z);
        # the mirrored evaluator must invert to the same (real) series
        F = lambda z: 0.5 / (z - W0 + 1j * GAM) + 0.5 / (z + W0 + 1j * GAM)
        G = lambda z: -np.conj(F(-np.conj(z)))
        grid = lp.ContourGrid(-60, 60, 24000, 1e-4)
        t = np.linspace(2.0, 8.0, 13)
        a = lp.invert(_on(grid, F), grid, t, boundary_tol=0.05)
        b = lp.invert(_on(grid, G), grid, t, boundary_tol=0.05)
        ref = np.cos(W0 * t) * np.exp(-GAM * t)
        assert np.max(np.abs(a - b)) < 1e-12
        assert np.max(np.abs(a.imag)) < 2e-3
        assert np.max(np.abs(a - ref)) < 5e-3

    def test_translation(self):
        # shifting the window and the pole by c multiplies the series by
        # e^{-ict}; the Filon step must not carry the rounding of the
        # shifted window edge
        t = np.linspace(0.0, 10.0, 41)

        def shifted(c):
            grid = lp.ContourGrid(W0 - 2 + c, W0 + 2 + c, 4001, 1e-4)
            fv = _on(grid, lambda z: 1.0 / (z - c - W0 + 1j * GAM))
            return lp.invert(fv, grid, t, boundary_tol=np.inf) * np.exp(1j * c * t)

        ref = shifted(0.0)
        got = shifted(1e4)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


def _assert_matches_dense(fv, grid, t):
    om = grid.nodes()
    got = lp.invert(fv, grid, t, boundary_tol=np.inf)
    ref = contour_reference.invert_trapezoid(fv, om, grid.im_offset, t)
    assert np.shape(got) == np.shape(ref)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFactoredPhases:
    """The factored uniform-node inversion against the dense reference."""

    @pytest.mark.parametrize(
        "window, n",
        [
            ((W0 - 50, W0 + 50), 20000),
            ((-60, 60), 24000),
            ((W0 - 40, W0 + 40), 4000),
            ((W0 - 160, W0 + 160), 20000),
            ((W0 - 1, W0 + 1), 16),
            ((W0 - 1, W0 + 1), 17),
        ],
    )
    def test_uniform_grids(self, window, n):
        grid = lp.ContourGrid(*window, n, 1e-4)
        om = grid.nodes()
        fv = 1.0 / (om + 1e-4j - W0 + 1j * GAM) + 0.5 / (om + 1e-4j + W0 + 0.7j)
        _assert_matches_dense(fv, grid, 0.3)
        _assert_matches_dense(fv, grid, np.linspace(0.0, 10.0, 41))
        # 501 times leave a ragged last block of 245
        _assert_matches_dense(fv, grid, np.linspace(0.0, 40.0, 501))

    def test_two_million_nodes(self):
        grid = lp.ContourGrid(W0 - 50, W0 + 50, 2_000_001, 1e-4)
        om = grid.nodes()
        fv = 1.0 / (om + 1e-4j - W0)
        for t in (0.0, 5.0, 7.0, 10.0):
            _assert_matches_dense(fv, grid, t)

    def test_flat_window_contour_grid(self, monkeypatch):
        calls = []
        real = lp.invert

        def spy(F, grid, t, **kw):
            calls.append((F, grid, t))
            return real(F, grid, t, **kw)

        monkeypatch.setattr(lp, "invert", spy)
        h, w21 = 0.05, 5.0
        sd = rv.SpectralDensity.flat_window(h, w21 - 2.0, w21 + 2.0)
        T = 3.0 / (math.pi * h)
        dy.wigner_weisskopf(sd, 0.0, w21, np.arange(0, 3001, 6) * (T / 3000))
        ((fv, grid, t),) = calls
        assert grid.n_points > 30001
        _assert_matches_dense(fv, grid, t)


class TestRoundTrip:
    def setup_method(self):
        T, ns = 30.0, 3000
        self.tg = np.linspace(0.0, T, ns + 1)
        self.fs = np.exp(-GAM * self.tg - 1j * W0 * self.tg)

    def test_split_pole_route_full_range(self):
        grid = lp.ContourGrid(W0 - 40, W0 + 40, 4000, 1e-4)
        om = grid.nodes()
        FT = np.array(
            [lp.forward_transform(self.fs, 0.0, w + 1e-4j, t=self.tg) for w in om]
        )
        p = W0 - 1j * GAM
        restv = FT - 1.0 / (om + 1e-4j - p)
        t = np.linspace(0.0, 10.0, 41)
        back = lp.invert(restv, grid, t, boundary_tol=np.inf) + lp.pole_series([p], [1.0], t)
        assert np.max(np.abs(back - np.exp(-GAM * t - 1j * W0 * t))) < 1e-5

    def test_direct_route_wide_window(self):
        grid = lp.ContourGrid(W0 - 160, W0 + 160, 20000, 1e-4)
        om = grid.nodes()
        FT = np.array(
            [lp.forward_transform(self.fs, 0.0, w + 1e-4j, t=self.tg) for w in om]
        )
        t = np.linspace(2.0, 10.0, 33)
        back = lp.invert(FT, grid, t, boundary_tol=0.02)
        assert np.max(np.abs(back - np.exp(-GAM * t - 1j * W0 * t))) <= 1e-3
