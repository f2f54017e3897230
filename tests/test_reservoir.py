"""Reservoir kernels: closed forms, quadrature cross-checks, table plumbing."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import thermal_reference as tref
from nmkraus import jaynescummings as jc
from nmkraus import reservoir as rv


LOR = rv.SpectralDensity.lorentzian(0.7, 3.0, 0.8)
FLAT = rv.SpectralDensity.flat_window(0.31, 1.2, 4.5)


def quad_complex(f, a, b, **kw):
    re, _ = integrate.quad(lambda w: f(w).real, a, b, **kw)
    im, _ = integrate.quad(lambda w: f(w).imag, a, b, **kw)
    return re + 1j * im


class TestSpectralDensity:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rv.SpectralDensity.lorentzian(-1.0, 3.0, 0.8)
        with pytest.raises(ValueError):
            rv.SpectralDensity.lorentzian(1.0, 3.0, 0.0)
        with pytest.raises(ValueError):
            rv.SpectralDensity.flat_window(0.3, -0.5, 2.0)
        with pytest.raises(ValueError):
            rv.SpectralDensity.flat_window(0.3, 2.0, 1.0)
        with pytest.raises(ValueError):
            rv.SpectralDensity.tabulated([0.0, 1.0, 2.0], [0.1, -0.2, 0.1])

    def test_weight_nonnegative_and_supported(self):
        rng = np.random.default_rng(101)
        tab = rv.SpectralDensity.tabulated([0.5, 1.0, 2.0, 3.5], [0.0, 0.4, 0.2, 0.0])
        for sd in (LOR, FLAT, tab):
            w = rng.uniform(-5, 30, size=200)
            assert np.all(sd.weight(w) >= 0)
            assert np.all(sd.weight(w[w < 0]) == 0)

    def test_total_strength_matches_quadrature(self):
        for sd in (LOR, FLAT):
            ref, _ = integrate.quad(lambda w: float(sd.weight(w)), 0, np.inf, limit=300)
            assert abs(sd.total_strength() - ref) < 1e-8


class TestCorrelationTime:
    def test_zero_coupling_vanishes(self):
        sd = rv.SpectralDensity.lorentzian(0.0, 3.0, 0.8)
        assert rv.correlation_time(sd, 1.7, 0.2) == 0
        sd = rv.SpectralDensity.flat_window(0.0, 1.0, 2.0)
        assert rv.correlation_time(sd, -0.3, 4.1) == 0

    def test_equal_times_give_total_strength(self):
        # narrow line far from the origin: integral approaches the strength
        sd = rv.SpectralDensity.lorentzian(0.7, 50.0, 0.05)
        v = rv.correlation_time(sd, 2.0, 2.0)
        assert v.imag == 0
        assert abs(v - 0.7) < 1e-3
        assert abs(v - sd.total_strength()) < 1e-15

    def test_lorentzian_against_oscillatory_quadrature(self):
        # frozen from an adaptive-quadrature oracle run (weight='cos'/'sin')
        v = rv.correlation_time(LOR, 0.3, 0.0)
        assert abs(v - (0.31916335808299356 - 0.45148449921466904j)) < 1e-10
        for tau in (0.05, 1.0, 3.7, 25.0):
            f = lambda w: float(LOR.weight(w))
            re, _ = integrate.quad(f, 0, np.inf, weight="cos", wvar=tau, limlst=200)
            im, _ = integrate.quad(f, 0, np.inf, weight="sin", wvar=tau, limlst=200)
            assert abs(rv.correlation_time(LOR, tau, 0.0) - (re - 1j * im)) < 1e-9

    def test_flat_window_closed_form(self):
        sd = rv.SpectralDensity.flat_window(0.42, 0.0, 2.5)
        for tau in (0.1, 0.9, 6.0):
            ref = 0.42 * (1.0 - np.exp(-1j * 2.5 * tau)) / (1j * tau)
            assert abs(rv.correlation_time(sd, tau, 0.0) - ref) < 1e-14

    def test_stationarity(self):
        rng = np.random.default_rng(202)
        for sd in (LOR, FLAT):
            for _ in range(25):
                t, s, shift = rng.uniform(-4, 4, size=3)
                a = rv.correlation_time(sd, t + shift, s + shift)
                b = rv.correlation_time(sd, t, s)
                assert abs(a - b) < 1e-13 * max(1.0, abs(b))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(303)
        for sd in (LOR, FLAT):
            for _ in range(25):
                t, s = rng.uniform(-3, 5, size=2)
                assert (
                    abs(np.conj(rv.correlation_time(sd, t, s)) - rv.correlation_time(sd, s, t))
                    < 1e-13
                )

    def test_tabulated_matches_trapezoid(self):
        grid = np.linspace(0.5, 6.0, 400)
        g2 = 0.3 * np.exp(-((grid - 2.0) ** 2))
        sd = rv.SpectralDensity.tabulated(grid, g2)
        tau = 1.4
        ref = np.trapezoid(g2 * np.exp(-1j * grid * tau), grid)
        assert abs(rv.correlation_time(sd, tau, 0.0) - ref) < 1e-14


class TestCorrelationLaplace:
    def test_zero_coupling(self):
        sd = rv.SpectralDensity.flat_window(0.0, 1.0, 2.0)
        assert rv.correlation_laplace(sd, 1.0 + 1.0j) == 0

    def test_domain_error_lower_half_plane(self):
        for y in (2.0 + 0.0j, 1.0 - 0.5j):
            with pytest.raises(rv.LaplaceDomainError):
                rv.correlation_laplace(LOR, y)

    def test_flat_window_log_form_vs_quadrature(self):
        sd = rv.SpectralDensity.flat_window(0.6, 0.8, 3.1)
        rng = np.random.default_rng(404)
        for _ in range(10):
            y = complex(rng.uniform(-2, 5), rng.uniform(0.05, 2.0))
            ref = quad_complex(lambda w: 0.6 / (y - w), 0.8, 3.1, limit=200)
            got = rv.correlation_laplace(sd, y)
            assert abs(got - ref) <= 1e-8 * abs(ref)

    def test_lorentzian_vs_quadrature(self):
        # frozen spot value from the quadrature oracle
        got = rv.correlation_laplace(LOR, 2.5 + 0.4j)
        assert abs(got - (-0.21774701661332418 - 0.4959514987091119j)) < 1e-6
        for y in (3.0 + 2.0j, -1.0 + 1e-3j, 0.5j):
            ref = quad_complex(lambda w: complex(LOR.weight(w)) / (y - w), 0, 2000, limit=500)
            assert abs(rv.correlation_laplace(LOR, y) - ref) < 2e-6 * max(1.0, abs(ref))

    def test_narrow_line_approaches_simple_pole(self):
        y = 4.0 + 1.5j
        wc = 2.0
        sd = rv.SpectralDensity.lorentzian(0.9, wc, 1e-3 * abs(y - wc))
        got = rv.correlation_laplace(sd, y)
        assert abs(got - 0.9 / (y - wc)) <= 1e-2 * abs(0.9 / (y - wc))

    def test_forward_transform_consistency(self):
        # -i int_0^T e^{iyt} kappa(t) dt approaches the Laplace image
        for sd in (LOR, FLAT):
            y = 2.0 + 0.1 * sd.frequency_scale() * 1j
            T = 50.0 / y.imag
            t = np.linspace(0.0, T, 60001)
            kap = rv.kernel_samples(sd, t)
            val = -1j * integrate.simpson(np.exp(1j * y * t) * kap, x=t)
            ref = rv.correlation_laplace(sd, y)
            assert abs(val - ref) <= 1e-4 * abs(ref)

    def test_large_argument_asymptote(self):
        for sd in (LOR, FLAT):
            y = 1j * 1e3 * sd.support()[1]
            ref = sd.total_strength() / y
            assert abs(rv.correlation_laplace(sd, y) - ref) <= 1e-3 * abs(ref)

    def test_boundary_prescription(self):
        # inside a flat window the imaginary part tends to -pi * height
        sd = rv.SpectralDensity.flat_window(0.5, 1.0, 3.0)
        v = rv.correlation_boundary(sd, 2.0)
        assert abs(v.imag + np.pi * 0.5) < 1e-5


class TestThermal:
    def test_zero_temperature_limit(self):
        sd = rv.SpectralDensity.flat_window(0.2, 1.0, 3.0)
        a = rv.correlation_time(sd, 0.7, 0.0, beta_inv=1e-8)
        b = rv.correlation_time(sd, 0.7, 0.0)
        assert abs(a - b) < 1e-8

    def test_detailed_weight_structure(self):
        # emission branch carries (nbar+1), absorption branch nbar
        sd = rv.SpectralDensity.flat_window(0.2, 1.0, 3.0)
        binv = 0.8
        om, wq = rv.discrete_modes(sd, 1 / 32, beta_inv=binv)
        assert np.all(wq > 0)
        for tau in (0.4, 2.3):
            ref = rv.correlation_time(sd, tau, 0.0, beta_inv=binv)
            got = np.sum(wq * np.exp(-1j * om * tau))
            assert abs(got - ref) < 1e-6

    def test_thermal_hermiticity(self):
        sd = rv.SpectralDensity.flat_window(0.2, 1.0, 3.0)
        a = rv.correlation_time(sd, 0.0, 1.1, beta_inv=0.5)
        b = rv.correlation_time(sd, 1.1, 0.0, beta_inv=0.5)
        assert abs(np.conj(a) - b) < 1e-9

    def test_tiny_temperature_raises_no_warning(self):
        # beta = 1e308 overflows beta * omega to inf, whose occupation
        # 1/expm1(inf) = 0 is the zero-temperature limit
        sd = rv.SpectralDensity.flat_window(0.02, 3.0, 7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kern = rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}, beta_inv=1e-308)
            cold = rv.kernel_table(sd, {(2, 1, 1, 2): 1.0})
            tau = np.linspace(0.0, 3.0, 7)
            assert np.max(np.abs(kern.on_grid(tau) - cold.on_grid(tau))) < 1e-12

    def test_gapless_weight_diverges(self):
        with pytest.raises(rv.DivergentIntegralError):
            rv.correlation_time(LOR, 1.0, 0.0, beta_inv=0.5)
        sd = rv.SpectralDensity.flat_window(0.2, 0.0, 3.0)
        with pytest.raises(rv.DivergentIntegralError):
            rv.correlation_laplace(sd, 1.0 + 1.0j, beta_inv=0.3)


# an Ohmic bath, |g|^2 = omega e^-omega: it vanishes linearly at omega = 0,
# so every thermal sum converges
_W = np.linspace(0.0, 4.0, 401)
OHMIC_0 = rv.SpectralDensity.tabulated(_W, _W * np.exp(-_W))
GATE_DENSITIES = {
    "lorentzian": (LOR, rv.DivergentIntegralError),
    "flat_from_0": (rv.SpectralDensity.flat_window(0.2, 0.0, 3.0), rv.DivergentIntegralError),
    "flat_from_1": (rv.SpectralDensity.flat_window(0.2, 1.0, 3.0), None),
    "table_from_0_g2_0": (OHMIC_0, None),
    "table_from_0_g2_pos": (rv.SpectralDensity.tabulated([0.0, 1.0, 2.0], [0.3, 0.4, 0.0]),
                            rv.DivergentIntegralError),
    "table_from_half": (rv.SpectralDensity.tabulated([0.5, 1.0, 2.0], [0.3, 0.4, 0.0]), None),
}


def _raised(f):
    try:
        f()
    except Exception as e:
        return type(e)
    return None


@pytest.mark.parametrize("beta_inv", [-0.5, 0.0, 0.5, np.nan, np.inf])
@pytest.mark.parametrize("name", list(GATE_DENSITIES))
def test_thermal_gate_is_the_same_on_every_route(name, beta_inv):
    # the sum diverges exactly when |g(0)|^2 > 0, and a negative or
    # non-finite temperature is a ValueError, on all three routes alike
    sd, thermal_error = GATE_DENSITIES[name]
    expected = (ValueError if not 0 <= beta_inv < np.inf
                else thermal_error if beta_inv > 0 else None)
    routes = [
        lambda: rv.kernel_samples(sd, np.array([0.0, 0.7, -2.0]), beta_inv),
        lambda: rv.correlation_laplace(sd, np.array([1.0 + 1.0j, 2.5 + 0.3j]), beta_inv),
        lambda: rv.discrete_modes(sd, 1.0, beta_inv),
    ]
    assert [_raised(f) for f in routes] == [expected] * 3


def _ohmic_kappa(beta_inv, tau, top=12.0):
    # omega e^-omega coth(beta omega / 2) tends to 2 beta_inv at omega = 0
    def g2_coth(w):
        return w * np.exp(-w) / np.tanh(w / (2.0 * beta_inv)) if w > 0 else 2.0 * beta_inv

    tol = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    if tau == 0:
        return integrate.quad(g2_coth, 0.0, top, **tol)[0] + 0j
    re = integrate.quad(g2_coth, 0.0, top, weight="cos", wvar=tau, **tol)[0]
    im = integrate.quad(lambda w: -w * np.exp(-w), 0.0, top, weight="sin", wvar=tau, **tol)[0]
    return re + 1j * im


@pytest.mark.parametrize("beta_inv", [0.5, 2.0])
def test_ohmic_table_kernel_converges_at_second_order(beta_inv):
    # the omega = 0 node keeps the limit of |g|^2 (2 nbar + 1); dropping
    # it misses by 1.7e-3 (beta_inv 0.5) and 2.4e-3 (2) at 2,401 nodes
    taus = np.array([0.0, 0.5, 2.0, 5.0, -3.0])
    ref = np.array([_ohmic_kappa(beta_inv, t) for t in taus])
    errs = []
    for n in (2401, 4801):
        omega = np.linspace(0.0, 12.0, n)
        sd = rv.SpectralDensity.tabulated(omega, omega * np.exp(-omega))
        got = rv.kernel_samples(sd, taus, beta_inv)
        errs.append(np.max(np.abs(got - ref)) / ref[0].real)
        om, wq = rv.discrete_modes(sd, np.inf, beta_inv)
        assert np.all(wq > 0) and np.count_nonzero(om == 0) == 1
    assert errs[0] < 2e-5
    assert errs[1] < errs[0] / 3.0


def test_trapezoid_weights():
    assert rv.trapezoid_weights([1.0, 2.0, 3.0]).tolist() == [0.5, 1.5, 2.5, 1.5]
    assert rv.trapezoid_weights(np.full(4, 0.25)).tolist() == [0.125, 0.25, 0.25, 0.25, 0.125]


@pytest.mark.parametrize("omega, g2", [
    ([0.0, 1.0, np.nan], [0.1, 0.2, 0.3]),
    ([0.0, 1.0, 2.0], [0.1, np.inf, 0.3]),
    ([0.0, 1.0, np.inf], [0.1, 0.2, 0.3]),
], ids=["nan_omega", "inf_g2", "inf_omega"])
def test_non_finite_table_is_a_value_error(omega, g2):
    with pytest.raises(ValueError, match="finite"):
        rv.SpectralDensity.tabulated(omega, g2)


class TestThermalModeRule:
    """Thermal mode sums against quad restricted to the window."""

    # narrow against the span an unrestricted quadrature would search
    H, LO, HI, BINV = 0.2, 4.5, 5.5, 0.8

    def test_time_kernel_on_narrow_window(self):
        sd = rv.SpectralDensity.flat_window(self.H, self.LO, self.HI)
        taus = np.array([-3.1, 0.0, 0.4, 2.3, 17.0])
        ref = np.array([tref.kappa(self.H, self.LO, self.HI, self.BINV, t) for t in taus])
        peak = abs(ref[1])
        got = rv.kernel_samples(sd, taus, self.BINV)
        assert np.max(np.abs(got - ref)) < 1e-12 * peak
        for tau, r in zip(taus, ref):
            c = rv.correlation_time(sd, tau, 0.0, self.BINV)
            assert isinstance(c, complex) and abs(c - r) < 1e-12 * peak

    def test_image_on_narrow_window(self):
        sd = rv.SpectralDensity.flat_window(self.H, self.LO, self.HI)
        ys = np.array([[5.0 + 0.5j, 4.6 + 0.05j], [-2.0 + 1.0j, 30.0 + 0.2j]])
        ref = np.array([[tref.image(self.H, self.LO, self.HI, self.BINV, y) for y in row]
                        for row in ys])
        peak = np.max(np.abs(ref))
        got = rv.correlation_laplace(sd, ys, self.BINV)
        assert got.shape == ys.shape
        assert np.max(np.abs(got - ref)) < 1e-12 * peak
        one = rv.correlation_laplace(sd, ys[0, 0], self.BINV)
        assert isinstance(one, complex) and abs(one - ref[0, 0]) < 1e-12 * peak
        with pytest.raises(rv.LaplaceDomainError):
            rv.correlation_laplace(sd, np.array([1.0 + 1.0j, 2.0 - 1e-3j]), self.BINV)

    def test_image_close_to_the_axis(self):
        # a single 600-node Gauss rule over the window misses this line by 4e-2 of its peak
        h, lo, hi, binv = 0.04, 4.0, 8.0, 2.0
        sd = rv.SpectralDensity.flat_window(h, lo, hi)
        ys = np.linspace(3.0, 9.0, 13) + 0.005j
        ref = np.array([tref.image(h, lo, hi, binv, y) for y in ys])
        got = rv.correlation_laplace(sd, ys, binv)
        assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_node_cap(self):
        sd = rv.SpectralDensity.flat_window(0.04, 4.0, 8.0)
        # the reach (hi - lo) * tau = 16000 of a 4000-node Gauss rule is inside the cap
        assert np.isfinite(rv.kernel_samples(sd, 4000.0, 1.0))
        with pytest.raises(rv.DivergentIntegralError, match="needs [0-9]+ modes"):
            rv.kernel_samples(sd, np.array([0.0, 1e6]), 1.0)
        with pytest.raises(rv.DivergentIntegralError, match="needs [0-9]+ modes"):
            rv.correlation_laplace(sd, 6.0 + 1e-6j, 1.0)


@settings(max_examples=40, deadline=2000)
@given(lo=st.floats(0.2, 20.0), width=st.floats(0.1, 10.0),
       beta_inv=st.floats(0.05, 5.0), tau=st.floats(-40.0, 40.0),
       rise=st.floats(0.01, 1.0))
def test_thermal_flat_window_invariants(lo, width, beta_inv, tau, rise):
    h, hi = 0.3, lo + width
    sd = rv.SpectralDensity.flat_window(h, lo, hi)
    k, k_neg, k0 = rv.kernel_samples(sd, np.array([tau, -tau, 0.0]), beta_inv)
    ref0 = tref.kappa(h, lo, hi, beta_inv, 0.0)
    assert abs(k0 - ref0) <= 1e-12 * ref0.real
    assert abs(k - tref.kappa(h, lo, hi, beta_inv, tau)) <= 1e-12 * ref0.real
    assert k_neg == np.conj(k)
    y = lo + 0.5 * width + 1j * rise * width
    ref_y = tref.image(h, lo, hi, beta_inv, y)
    assert abs(rv.correlation_laplace(sd, y, beta_inv) - ref_y) <= 1e-11 * abs(ref_y)
    # the image tends to kappa(0)/y: total_strength/y only at zero temperature
    far = 1e8j * hi
    assert abs(far * rv.correlation_laplace(sd, far, beta_inv) - ref0) <= 1e-6 * ref0.real


@settings(max_examples=30, deadline=2000)
@given(lo=st.floats(0.2, 20.0), width=st.floats(0.1, 10.0),
       beta_inv=st.floats(0.05, 5.0), tau=st.floats(-40.0, 40.0),
       g2=st.lists(st.integers(0, 100), min_size=2, max_size=8))
def test_thermal_table_invariants(lo, width, beta_inv, tau, g2):
    # the trapezoid rule with occupation factors on the table's nodes,
    # each interval split into equal parts at most (40 / |tau|) / 32 wide
    omega = np.linspace(lo, lo + width, len(g2))
    g2 = np.array(g2) / 100.0
    sd = rv.SpectralDensity.tabulated(omega, g2)
    step = 40.0 / abs(tau) / 32 if tau else np.inf
    fine = np.concatenate([
        np.linspace(a, b, max(1, int(np.ceil((b - a) / step))) + 1)[:-1]
        for a, b in zip(omega[:-1], omega[1:])
    ] + [omega[-1:]])
    fine_g2 = np.interp(fine, omega, g2)

    def trapezoid(f, x):
        return np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(x))

    coth = 1.0 / np.tanh(fine / (2.0 * beta_inv))
    ref = trapezoid(fine_g2 * (coth * np.cos(fine * tau) - 1j * np.sin(fine * tau)), fine)
    ref0 = trapezoid(fine_g2 * coth, fine)
    k, k_neg, k0 = rv.kernel_samples(sd, np.array([tau, -tau, 0.0]), beta_inv)
    assert abs(k0 - ref0) <= 1e-12 * ref0
    assert abs(k - ref) <= 1e-12 * ref0
    assert k_neg == np.conj(k)
    # far from the support the image needs no split: the table's own nodes
    far = 1e8j * omega[-1]
    table0 = np.trapezoid(g2 / np.tanh(omega / (2.0 * beta_inv)), omega)
    assert abs(far * rv.correlation_laplace(sd, far, beta_inv) - table0) <= 1e-6 * table0


FLAT_37 = rv.SpectralDensity.flat_window(0.05, 3.0, 7.0)


def flat_table(n):
    """``n`` nodes of FLAT_37: the same weight, interpolated linearly."""
    return rv.SpectralDensity.tabulated(np.linspace(3.0, 7.0, n), np.full(n, 0.05))


class TestTableResolution:
    """A table is split as finely as each request needs, then summed by trapezoid."""

    @pytest.mark.parametrize("n, reach", [(401, 1000.0), (41, 100.0)])
    def test_kernel_past_the_node_spacing(self, n, reach):
        # tau times the node spacing passes 2 pi: the table's nodes alone
        # alias, missing by 98% (401 nodes) and 100% (41 nodes) of kappa(0)
        taus = np.linspace(0.0, reach, 2001)
        got = rv.kernel_samples(flat_table(n), taus)
        ref = rv.kernel_samples(FLAT_37, taus)
        assert np.max(np.abs(got - ref)) <= 1e-3 * ref[0].real

    def test_image_below_the_node_spacing(self):
        # heights at and below the spacing 0.01: the nodes alone miss by 3.8e-3
        ys = np.array([5.0 + 0.01j, 2.0 + 0.003j, 8.0 + 0.005j, 4.0 + 0.1j])
        got = rv.correlation_laplace(flat_table(401), ys)
        ref = rv.correlation_laplace(FLAT_37, ys)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-5

    def test_unresolvable_request_raises(self):
        # at height 1e-6 the nodes alone returned -500i for -0.157i
        sd = flat_table(401)
        with pytest.raises(rv.DivergentIntegralError, match="mode rule needs"):
            rv.correlation_laplace(sd, 5.0 + 1e-6j)
        with pytest.raises(rv.DivergentIntegralError, match="mode rule needs"):
            rv.correlation_boundary(sd, 5.0)
        # the cap counts the added nodes: 400 intervals of 151 parts are
        # 60,401 nodes, of 171 parts 68,401
        om, _ = rv.discrete_modes(sd, 0.32 / 150.5)
        assert om.size == 60401
        with pytest.raises(rv.DivergentIntegralError, match="above the cap of 65536"):
            rv.discrete_modes(sd, 0.32 / 170.5)

    def test_split_is_even_and_interpolates(self):
        sd = rv.SpectralDensity.tabulated([0.5, 1.0, 2.0, 3.5], [0.0, 0.4, 0.2, 0.0])
        grid, g2 = sd.table
        # a request coarser than every interval keeps the nodes bit for bit
        om, wq = rv.discrete_modes(sd, 32 * 1.5)
        assert np.array_equal(om, grid[1:3])
        assert np.array_equal(wq, (rv.trapezoid_weights(np.diff(grid)) * g2)[1:3])
        # span / 32 = 0.35 splits the intervals into 2, 3 and 5 parts
        om, wq = rv.discrete_modes(sd, 32 * 0.35)
        fine = np.concatenate([np.linspace(0.5, 1.0, 3)[:-1], np.linspace(1.0, 2.0, 4)[:-1],
                               np.linspace(2.0, 3.5, 6)])
        keep = np.interp(fine, grid, g2) > 0
        assert np.allclose(om, fine[keep], rtol=0, atol=1e-15)
        ref = rv.trapezoid_weights(np.diff(fine)) * np.interp(fine, grid, g2)
        assert np.allclose(wq, ref[keep], rtol=1e-14, atol=0)
        # the trapezoid rule is exact on the linearly interpolated weight
        assert abs(np.sum(wq) - sd.total_strength()) <= 1e-14


TABLE = rv.SpectralDensity.tabulated([0.5, 1.0, 2.0, 3.5], [0.0, 0.4, 0.2, 0.0])


@pytest.mark.parametrize("sd, beta_inv", [
    (FLAT, 0.0), (FLAT, 0.5), (TABLE, 0.0), (TABLE, 0.5), (LOR, 0.0),
], ids=["flat", "flat_thermal", "table", "table_thermal", "lorentzian"])
def test_kernel_front_end_contract(sd, beta_inv):
    # one sign fold for every route: a scalar gives a numpy complex scalar
    # equal to the one-element call, an array keeps its shape, and
    # kappa(-tau) is the exact conjugate of kappa(tau)
    for tau in (0.7, -0.7, 0.0):
        one = rv.kernel_samples(sd, tau, beta_inv)
        assert type(one) is np.complex128
        assert one == rv.kernel_samples(sd, np.array([tau]), beta_inv)[0]
    taus = np.linspace(0.25, 6.0, 12)
    got = rv.kernel_samples(sd, np.stack([taus, -taus]), beta_inv)
    assert got.shape == (2, 12)
    assert np.array_equal(got[1], got[0].conj())


class TestDiscreteModes:
    def test_mode_sum_reproduces_kernel(self):
        taus = np.linspace(-4.0, 4.0, 41)
        ref = rv.kernel_samples(FLAT, taus)
        om, wq = rv.discrete_modes(FLAT, 0.33)
        assert np.all(wq > 0)
        got = np.exp(-1j * np.outer(taus, om)) @ wq
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_lorentzian_mode_sum_converges(self):
        # the unbounded oscillatory tail limits the tangent map to O(1/n)
        # in sup norm; solver weightings decay faster and do not see this
        taus = np.linspace(-4.0, 4.0, 41)
        ref = rv.kernel_samples(LOR, taus)
        errs = []
        for span in (0.088, 0.044):  # 4,032 and 8,032 nodes
            om, wq = rv.discrete_modes(LOR, span)
            assert np.all(wq > 0)
            got = np.exp(-1j * np.outer(taus, om)) @ wq
            errs.append(np.max(np.abs(got - ref)))
        assert errs[0] < 3e-3
        assert errs[1] < 0.7 * errs[0]

    def test_gauss_rule_is_cached_read_only(self):
        x, w = rv.gauss_legendre(64)
        x2, w2 = rv.gauss_legendre(64)
        ref_x, ref_w = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(x2, ref_x) and np.array_equal(w2, ref_w)
        assert x2 is x and w2 is w
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_weights_sum_to_strength(self):
        for sd in (LOR, FLAT):
            _, wq = rv.discrete_modes(sd, 0.1)
            assert abs(np.sum(wq) - sd.total_strength()) < 1e-3


def assert_weight_symmetry(ck):
    # all slots share kappa, and kappa(-tau) = conj kappa(tau) (tested
    # above), so c_(kl)(mn)(t,s) = conj c_(nm)(lk)(s,t) holds exactly
    # when every slot (k,l,m,n) with weight w has a partner (n,m,l,k)
    # with weight conj(w)
    table = {tuple(s): w for s, w in zip(ck.slots.tolist(), ck.weights.tolist())}
    assert table
    for (k, l, m, n), w in table.items():
        assert table.get((n, m, l, k)) == np.conj(w)


class TestKernelTable:
    def test_empty_rule_all_zero(self):
        ck = rv.kernel_table(LOR, {})
        assert ck.slots.shape == (0, 4)
        assert ck.weights.shape == (0,)
        assert ck.sd is LOR and ck.beta_inv == 0.0

    def test_two_level_rule_single_slot(self):
        ck = rv.kernel_table(LOR, {(2, 1, 1, 2): 1})
        assert ck.slots.tolist() == [[1, 0, 0, 1]]
        assert ck.weights.tolist() == [1.0 + 0.0j]
        assert ck.weights.dtype == complex
        with pytest.raises(ValueError):
            ck.slots[0, 0] = 0
        with pytest.raises(ValueError):
            ck.weights[0] = 2.0

    def test_weighted_slots_scale_kernel(self):
        rng = np.random.default_rng(606)
        w = complex(rng.normal(), rng.normal())
        ck = rv.kernel_table(FLAT, [((3, 1, 2, 2), w)], beta_inv=0.5)
        assert ck.slots.tolist() == [[2, 0, 1, 1]]
        assert ck.weights[0] == w
        assert ck.sd is FLAT and ck.beta_inv == 0.5

    def test_zero_weights_dropped(self):
        ck = rv.kernel_table(LOR, {(2, 1, 1, 2): 0.0, (1, 2, 2, 1): 0.5, (1, 1, 1, 1): 0j})
        assert ck.slots.tolist() == [[0, 1, 1, 0]]
        assert ck.weights.tolist() == [0.5 + 0.0j]

    def test_rule_order_kept(self):
        rule = [((3, 1, 1, 3), 0.25), ((1, 2, 2, 1), 1.0), ((2, 1, 1, 2), -0.5j)]
        ck = rv.kernel_table(LOR, rule)
        assert ck.slots.tolist() == [[2, 0, 0, 2], [0, 1, 1, 0], [1, 0, 0, 1]]
        assert ck.weights.tolist() == [0.25, 1.0, -0.5j]

    def test_collision_rejected(self):
        with pytest.raises(rv.IndexCollisionError):
            rv.kernel_table(LOR, [((2, 1, 1, 2), 1.0), ((2, 1, 1, 2), 0.5)])
        with pytest.raises(ValueError, match="four entries"):
            rv.kernel_table(LOR, {(2, 1, 1): 1.0})

    def test_hermiticity_pairing(self):
        rng = np.random.default_rng(707)
        rule = {}
        for _ in range(6):
            k, l, m, n = (int(x) for x in rng.integers(1, 4, size=4))
            w = complex(rng.normal(), rng.normal())
            rule[(k, l, m, n)] = w
            rule[(n, m, l, k)] = np.conj(w)
        assert_weight_symmetry(rv.kernel_table(LOR, rule))
        # the dressed ladder's decay-pair table
        basis = jc.DressedBasis(0.0, 20.0, 0.3, 2)
        assert_weight_symmetry(jc.build_dressed_system(basis, FLAT).kernel)
        # a table without the partner slot fails the check
        with pytest.raises(AssertionError):
            assert_weight_symmetry(rv.kernel_table(LOR, {(2, 1, 1, 1): 1.0}))


class TestScipyFreeRules:
    """The numpy-only rules agree with the scipy functions they replace."""

    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len

        assert [rv.next_fast_len(n) for n in range(1, 20000)] == [
            next_fast_len(n) for n in range(1, 20000)
        ]
        with pytest.raises(ValueError):
            rv.next_fast_len(0)

    def test_wright_omega_matches_scipy_on_panel_edges(self, monkeypatch):
        from scipy.special import wrightomega

        # every argument _panel_edges hands to the solve, up to the
        # 2,048 panels of the 65,536-node cap
        args = []
        solve = rv._wright_omega
        monkeypatch.setattr(rv, "_wright_omega", lambda y: args.append(y) or solve(y))
        for lo in np.geomspace(1e-4, 20.0, 25):
            for width in np.geomspace(0.1, 10.0, 12):
                for n_panels in (2, 3, 8, 40, 300, 2048):
                    rv._panel_edges(lo, lo + width, n_panels)
        y = np.concatenate(args)
        ref = wrightomega(y)
        assert np.max(np.abs(solve(y) - ref) / ref) <= 4e-15

    def test_exp_e1_matches_mpmath_and_scipy(self):
        import mpmath
        from scipy.special import exp1

        # kernel arguments +-lam tau - i w_c tau over six decades each,
        # and points close to the negative real axis
        rng = np.random.default_rng(11)
        wc = 10 ** rng.uniform(-3, 3, 1500) * rng.choice([-1, 1], 1500)
        lam = 10 ** rng.uniform(-3, 3, 1500)
        tau = 10 ** rng.uniform(-4, 2, 1500)
        near = (-10 ** rng.uniform(-3, 3, 500)
                + 1j * rng.choice([-1, 1], 500) * 10 ** rng.uniform(-8, 1.5, 500))
        z = np.concatenate([rng.choice([-1, 1], 1500) * lam * tau - 1j * wc * tau, near])
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.exp(mpmath.mpc(q)) * mpmath.e1(mpmath.mpc(q)))
                            for q in z])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            val = rv._exp_e1(z)
        assert np.max(np.abs(val - ref) / np.abs(ref)) <= 1e-14
        # where scipy's product is finite it agrees to within its own error
        with np.errstate(all="ignore"):
            sp = np.exp(z) * exp1(z)
        ok = np.isfinite(sp)
        assert np.count_nonzero(~ok) > 0
        own = np.abs(sp[ok] - ref[ok]) / np.abs(ref[ok])
        assert np.all(np.abs(val[ok] - sp[ok]) / np.abs(ref[ok]) <= own + 1e-14)

    @pytest.mark.parametrize("sd, tau", [
        (rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0), [700.0, 710.0, 800.0, 1000.0]),
        (rv.SpectralDensity.lorentzian(0.5, 5.0, 20.0), [35.0, 36.0, 40.0, 50.0]),
    ], ids=["narrow", "wide"])
    def test_lorentzian_kernel_past_exp_overflow(self, sd, tau):
        # width * tau reaches 1,000; exp(width * tau) alone overflows
        # past 709
        import mpmath

        g0, wc, lam = sd.params
        with mpmath.workdps(40):
            def half(z, t):
                a = -1j * mpmath.mpc(z) * t
                v = mpmath.exp(a) * mpmath.e1(a)
                return v - 2j * mpmath.pi * mpmath.exp(a) if z.imag < 0 else v
            ref = np.array([complex(g0 / (2j * mpmath.pi)
                                    * (half(wc + 1j * lam, t) - half(wc - 1j * lam, t)))
                            for t in tau])
        val = rv.kernel_samples(sd, np.array(tau))
        assert np.all(np.isfinite(val))
        assert np.max(np.abs(val - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape, n, axis", [
        ((12, 16384), None, -1),  # jaynescummings._overlap_save blocks
        ((25133, 10), 25725, 0),  # LaplaceKraus._solve_line fold, Im z 1.5
        ((75395, 3), 77175, 0),  # the same at Im z 0.5
        ((128, 6, 6), None, 0),  # dynamics._CausalSolver._push spectra
        ((64, 6), 128, 0),  # the rows it pushes
        ((1, 2, 3500), 7000, -1),  # dynamics._decay_route, two levels at n 3500
        ((65, 5, 5), 132, 0),  # dynamics.solve_bitemporal columns
    ])
    def test_numpy_fft_matches_scipy_bit_for_bit(self, shape, n, axis):
        from scipy import fft as sfft

        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        f = np.fft.fft(x, n, axis=axis)
        assert np.array_equal(f, sfft.fft(x, n, axis=axis))
        assert np.array_equal(np.fft.ifft(f, axis=axis), sfft.ifft(f, axis=axis))
