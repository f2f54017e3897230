"""Input checks of the solver modules: each refuses a bad argument by name."""

import math

import numpy as np
import pytest

from nmkraus import dynamics as dy
from nmkraus import jaynescummings as jc
from nmkraus import kraus as kr
from nmkraus import reservoir as rv

SD = rv.SpectralDensity.flat_window(0.05, 3.0, 7.0)


def _two_level(weight=1.0):
    return kr.SystemSpec((0.0, 5.0), rv.kernel_table(SD, {(2, 1, 1, 2): weight}))


CASES = {
    "empty_energies": (lambda: kr.SystemSpec((), _two_level().kernel),
                       ValueError, "energies must be a nonempty vector"),
    "no_whole_step": (lambda: kr.solve_time_domain(_two_level(), 0.004, 0.01),
                      ValueError, "T must cover at least one step"),
    "fractional_steps": (lambda: kr.solve_time_domain(_two_level(), 1.0, 0.3),
                         ValueError, "not a whole number of steps"),
    "zero_depth": (lambda: kr.LaplaceKraus(_two_level(), 0),
                   ValueError, "depth must be >= 1"),
    # LAPACK refuses the exact zero, so the condition estimate takes over
    "singular_step": (lambda: kr._step_inverses(np.zeros((1, 2, 2), complex), 1,
                                                np.arange(2) * 0.1),
                      kr.SingularOperatorError, "singular at step 1"),
    "negative_height": (lambda: rv.SpectralDensity.flat_window(-1.0, 1.0, 2.0),
                        ValueError, "height must be >= 0"),
    "table_lengths": (lambda: rv.SpectralDensity.tabulated([0.0, 1.0, 2.0], [1.0, 1.0]),
                      ValueError, "matching 1-d arrays"),
    "table_decreasing": (lambda: rv.SpectralDensity.tabulated([0.0, 2.0, 1.0], [1.0] * 3),
                         ValueError, "strictly increasing"),
    "table_below_zero": (lambda: rv.SpectralDensity.tabulated([-1.0, 0.0, 1.0], [1.0] * 3),
                         ValueError, r"support must lie in \[0, inf\)"),
    "zero_span": (lambda: rv.discrete_modes(SD, 0.0), ValueError, "span must be > 0"),
    "state_shape": (lambda: dy.validate_density(np.eye(3) / 3, 2),
                    dy.StateValidationError, "must be 2x2"),
    "nan_energy": (lambda: kr.SystemSpec((0.0, math.nan), _two_level().kernel),
                   ValueError, "energies must be finite"),
    "inf_energy": (lambda: kr.SystemSpec((0.0, math.inf), _two_level().kernel),
                   ValueError, "energies must be finite"),
    "nan_lorentzian_strength": (lambda: rv.SpectralDensity.lorentzian(math.nan, 20.0, 1.0),
                                ValueError, "must be finite"),
    "inf_lorentzian_center": (lambda: rv.SpectralDensity.lorentzian(0.5, math.inf, 1.0),
                              ValueError, "must be finite"),
    "inf_lorentzian_width": (lambda: rv.SpectralDensity.lorentzian(0.5, 20.0, math.inf),
                             ValueError, "must be finite"),
    "nan_window_height": (lambda: rv.SpectralDensity.flat_window(math.nan, 1.0, 2.0),
                          ValueError, "must be finite"),
    "inf_window_height": (lambda: rv.SpectralDensity.flat_window(math.inf, 1.0, 2.0),
                          ValueError, "must be finite"),
    "inf_window_edge": (lambda: rv.SpectralDensity.flat_window(0.05, 1.0, math.inf),
                        ValueError, "must be finite"),
    "nan_slot_weight": (lambda: rv.kernel_table(SD, {(2, 1, 1, 2): math.nan}),
                        ValueError, "slot weights must be finite"),
    "inf_slot_weight": (lambda: rv.kernel_table(SD, {(2, 1, 1, 2): math.inf}),
                        ValueError, "slot weights must be finite"),
    "negative_lam": (lambda: jc.entropy_limit_scan(
        jc.DressedBasis(0.0, 20.0, 0.3, 1), rv.SpectralDensity.flat_window(0.0318, 18.0, 22.0),
        2.5, 1.0, [-0.1], p_tilde=2.0), ValueError, "lams must be positive"),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_is_refused(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()


BAD_STEPS = [(1.0, 0.0), (1.0, -0.1), (1.0, 1e-320), (-1.0, 0.1), (math.nan, 0.1),
             (1.0, math.nan), (math.inf, 0.1), (0.0, 0.1), (1.0, 0.3)]
BAD_STEP_MESSAGE = r"dt must be > 0|not a finite count|at least one step|not a whole number"


@pytest.mark.parametrize("T, dt", BAD_STEPS)
def test_field_size_check_refuses_a_bad_step(T, dt):
    with pytest.raises(ValueError, match=BAD_STEP_MESSAGE):
        dy.check_field_size(_two_level(), np.diag([0.0, 1.0]), T, dt)


@pytest.mark.parametrize("T, dt", BAD_STEPS)
def test_solve_time_domain_refuses_a_bad_step(T, dt):
    # shares kraus.step_count with check_field_size, so it refuses the same steps
    with pytest.raises(ValueError, match=BAD_STEP_MESSAGE):
        kr.solve_time_domain(_two_level(), T, dt)
