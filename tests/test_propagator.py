import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp_lab import propagator as prop
from logdamp_lab.experiments import _random_states
from logdamp_lab.symbols import SpectralState, energy_e0, log_symbol

PI = math.pi

cplx = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


@given(cplx, cplx, st.floats(min_value=0.0, max_value=20.0),
       st.sampled_from(["ode", "paper"]))
@settings(max_examples=100, deadline=None)
def test_initial_conditions(u0, u1, r, mode):
    st0 = prop.propagate_closed(u0, u1, r, 0.0, mode)
    assert st0.u_hat == u0
    assert st0.v_hat == u1


def test_oscillator_anchors():
    # undamped at r = 0: u'' + (pi/2)^2 u = 0
    st1 = prop.propagate_closed(0.0, 1.0, 0.0, 1.0, "ode")
    assert abs(st1.u_hat - 2.0 / PI) < 1e-15
    st2 = prop.propagate_closed(0.0, 1.0, 0.0, 1.0, "paper")
    assert abs(st2.u_hat - (4.0 / PI) * math.sin(PI / 4.0)) < 1e-15
    st3 = prop.propagate_closed(1.0, 0.0, 0.0, 2.0, "ode")
    assert abs(st3.u_hat - math.cos(PI)) < 1e-14


def test_carrier_frequency():
    assert prop.carrier_frequency("ode") == PI / 2.0
    assert prop.carrier_frequency(prop.PropagatorMode.PAPER) == PI / 4.0
    # PropagatorMode(...) is the one normaliser: members and names in any case
    assert prop.carrier_frequency("ODE") == PI / 2.0
    assert prop.carrier_frequency("Paper") == PI / 4.0
    assert prop.carrier_frequency(prop.PropagatorMode.ODE) == PI / 2.0
    for bad in ("fourier", 3, None):
        with pytest.raises(ValueError):
            prop.carrier_frequency(bad)
    # a name is accepted wherever a mode is
    assert prop.propagate_closed(0.3, 1.0, 2.0, 1.5, "ODE") \
        == prop.propagate_closed(0.3, 1.0, 2.0, 1.5, prop.PropagatorMode.ODE)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        prop.propagate_closed(1.0, 0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        prop.oracle_grid(1.0, 0.0, 1.0, np.array([-0.5]))


def test_closed_form_defect_ode_zero():
    rr = np.linspace(0.0, 10.0, 41)
    tt = np.linspace(0.0, 20.0, 41).reshape(-1, 1)
    defect = prop.closed_form_defect(1.0 + 0.4j, -0.3 + 0.8j, rr, tt, "ode")
    assert np.max(np.abs(defect)) < 1e-10


def test_closed_form_defect_paper_characterized():
    # the quarter-frequency formula misses the stated equation by exactly
    # (3 pi^2/16) u: measured, not assumed
    rr = np.linspace(0.0, 6.0, 25)
    tt = np.linspace(0.0, 10.0, 25).reshape(-1, 1)
    defect = prop.closed_form_defect(0.9 - 0.1j, 0.4 + 1.2j, rr, tt, "paper")
    st_t = prop.propagate_closed(0.9 - 0.1j, 0.4 + 1.2j, rr, tt, "paper")
    gap = np.abs(defect - (3.0 * PI * PI / 16.0) * np.asarray(st_t.u_hat))
    assert np.max(gap) < 1e-12
    # and it is genuinely nonzero
    assert np.max(np.abs(defect)) > 0.1


@pytest.mark.parametrize("index", [1, 3])
def test_closed_form_defect_sees_a_wrong_coefficient(monkeypatch, index):
    # u'' is the derivative of the closed-form v, so a state off its
    # coefficients is a defect: a 1 % error in b_u or b_v reads about 0.03
    # and 0.09 on this grid
    exact = prop.closed_form_coefficients

    def one_percent_off(*args, **kwargs):
        coeffs = list(exact(*args, **kwargs))
        coeffs[index] = coeffs[index] * 1.01
        return tuple(coeffs)

    monkeypatch.setattr(prop, "closed_form_coefficients", one_percent_off)
    rr = np.linspace(0.0, 10.0, 41)
    tt = np.linspace(0.0, 20.0, 41).reshape(-1, 1)
    defect = prop.closed_form_defect(1.0 + 0.4j, -0.3 + 0.8j, rr, tt, "ode")
    assert np.max(np.abs(defect)) > 1e-3


@given(cplx, cplx, st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=20.0), st.sampled_from(["ode", "paper"]))
@settings(max_examples=150, deadline=None)
def test_decay_envelope(u0, u1, r, t, mode):
    st_t = prop.propagate_closed(u0, u1, r, t, mode)
    L = log_symbol(r)
    cap = math.exp(-0.5 * L * t) * (abs(u0) * (1.0 + L) + abs(u1)) \
        * (1.0 + 2.0 / PI + 4.0 / PI)
    assert abs(st_t.u_hat) <= cap + 1e-12


# ---------------------------------------------------------------------------
# the numerical oracle


def test_oracle_undamped_cosine():
    ou, _ = prop.oracle_grid(1.0, 0.0, 0.0, np.array([2.0]))
    assert abs(ou[0] - (-1.0)) < 1e-8


def test_oracle_matches_closed_form_single():
    ou, ov = prop.oracle_grid(1.0, 0.0, 1.0, np.array([5.0]))
    st_c = prop.propagate_closed(1.0, 0.0, 1.0, 5.0, "ode")
    scale = max(abs(st_c.u_hat), abs(st_c.v_hat))
    assert abs(ou[0] - st_c.u_hat) / scale < 1e-8
    assert abs(ov[0] - st_c.v_hat) / scale < 1e-8


def test_oracle_conserves_energy_at_zero_frequency():
    e0_start = energy_e0(prop.propagate_closed(0.3 + 1j, -0.6 + 0.2j, 0.0, 0.0), 0.0)
    times = np.array([1.0, 5.0, 20.0])
    ou, ov = prop.oracle_grid(0.3 + 1j, -0.6 + 0.2j, 0.0, times)
    e0_t = energy_e0(SpectralState(ou, ov), 0.0)
    assert np.all(np.abs(e0_t - e0_start) < 1e-8 * e0_start)


def test_oracle_grid_matches_closed_form_dense():
    # the equivalence grid: radii 0..10 step 0.1, times 0..20 step 0.5
    rng = np.random.default_rng(3)
    radii = np.round(np.arange(0.0, 10.05, 0.1), 10)
    times = np.arange(0.0, 20.25, 0.5)
    u0 = complex(rng.normal(), rng.normal())
    u1 = complex(rng.normal(), rng.normal())
    ou, ov = prop.oracle_grid(u0, u1, radii, times)
    worst = 0.0
    for i, t in enumerate(times):
        st_c = prop.propagate_closed(u0, u1, radii, float(t), "ode")
        scale = np.maximum(np.maximum(np.abs(st_c.u_hat), np.abs(st_c.v_hat)), 1e-300)
        gap = np.maximum(np.abs(ou[i] - st_c.u_hat), np.abs(ov[i] - st_c.v_hat)) / scale
        worst = max(worst, float(np.max(gap)))
    assert worst <= 1e-8


@pytest.mark.parametrize("seed, k", [(2, 4), (8, 1)])
def test_oracle_reaches_output_times_of_simulate_states(seed, k):
    # these states of the simulate cross-check once stalled just short of an
    # output time, where capped steps were asked for sub-roundoff error
    u0s, u1s = _random_states(np.random.default_rng(seed), 5)
    radii = np.linspace(0.0, 10.0, 21)
    times = np.array([0.5, 2.0, 5.0, 10.0, 20.0])
    ou, ov = prop.oracle_grid(u0s[k], u1s[k], radii, times)
    st_c = prop.propagate_closed(u0s[k], u1s[k], radii, times.reshape(-1, 1), "ode")
    scale = np.maximum(np.maximum(np.abs(st_c.u_hat), np.abs(st_c.v_hat)), 1e-300)
    gap = np.maximum(np.abs(ou - st_c.u_hat), np.abs(ov - st_c.v_hat)) / scale
    assert float(np.max(gap)) <= 1e-8


def test_oracle_refuses_a_run_over_the_step_budget(monkeypatch):
    # t = 1e6 at r = 5 needs about 2.1e6 steps of 4 / (c + L): refused from
    # the step count, before the first step
    def no_step(*args):
        raise AssertionError("stepped before refusing")

    monkeypatch.setattr(prop, "_taylor_step", no_step)
    with pytest.raises(ValueError, match=r"needs up to 2094825 steps .* t=1e\+06"):
        prop.oracle_grid(1.0, 0.0, 5.0, np.array([1e6]))


@pytest.mark.parametrize("u0, u1, r", [
    (math.nan, 0.0, 1.0), (1.0, complex(0.0, math.inf), 1.0), (1.0, 0.0, math.nan),
    (1.0, 0.0, math.inf),
])
def test_oracle_refuses_non_finite_input(u0, u1, r):
    # a NaN never meets the remainder bound, so it is refused before any step
    with pytest.raises(ValueError, match="finite"):
        prop.oracle_grid(u0, u1, r, np.array([1.0]))


def test_oracle_refuses_an_overflowing_term():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
        prop.oracle_grid(1e308, 0.0, 10.0, np.array([1.0]))


def test_oracle_grid_validation():
    with pytest.raises(ValueError):
        prop.oracle_grid(1.0, 0.0, 1.0, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        prop.oracle_grid(1.0, 0.0, 1.0, np.array([-1.0]))
    with pytest.raises(ValueError):
        prop.oracle_grid(1.0, 0.0, 1.0, np.array([math.nan]))
