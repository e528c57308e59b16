import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp_lab import propagator as prop
from logdamp_lab.experiments import inequality_sweep
from logdamp_lab.symbols import energy_e0, log_symbol

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
    checks = inequality_sweep(mode="ODE", n_radii=5, n_times=4, n_states=2,
                              n_algebraic=10)
    assert all(c.passed for c in checks)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        prop.propagate_closed(1.0, 0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        prop.ode_oracle(1.0, 0.0, 1.0, -0.5)


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
    st_t = prop.ode_oracle(1.0, 0.0, 0.0, 2.0)
    assert abs(st_t.u_hat - (-1.0)) < 1e-8


def test_oracle_matches_closed_form_single():
    st_o = prop.ode_oracle(1.0, 0.0, 1.0, 5.0)
    st_c = prop.propagate_closed(1.0, 0.0, 1.0, 5.0, "ode")
    scale = max(abs(st_c.u_hat), abs(st_c.v_hat))
    assert abs(st_o.u_hat - st_c.u_hat) / scale < 1e-8
    assert abs(st_o.v_hat - st_c.v_hat) / scale < 1e-8


def test_oracle_conserves_energy_at_zero_frequency():
    e0_start = energy_e0(prop.propagate_closed(0.3 + 1j, -0.6 + 0.2j, 0.0, 0.0), 0.0)
    for t in (1.0, 5.0, 20.0):
        st_t = prop.ode_oracle(0.3 + 1j, -0.6 + 0.2j, 0.0, t)
        assert abs(energy_e0(st_t, 0.0) - e0_start) < 1e-8 * e0_start


def test_oracle_grid_matches_closed_form_dense():
    # the equivalence grid: radii 0..10 step 0.1, times 0..20 step 0.5
    rng = np.random.default_rng(3)
    radii = np.round(np.arange(0.0, 10.05, 0.1), 10)
    times = np.arange(0.0, 20.25, 0.5)
    u0 = complex(rng.normal(), rng.normal())
    u1 = complex(rng.normal(), rng.normal())
    ou, ov = prop.oracle_grid(u0, u1, radii, times, prop.OdeConfig(tol=1e-11))
    worst = 0.0
    for i, t in enumerate(times):
        st_c = prop.propagate_closed(u0, u1, radii, float(t), "ode")
        scale = np.maximum(np.maximum(np.abs(st_c.u_hat), np.abs(st_c.v_hat)), 1e-300)
        gap = np.maximum(np.abs(ou[i] - st_c.u_hat), np.abs(ov[i] - st_c.v_hat)) / scale
        worst = max(worst, float(np.max(gap)))
    assert worst <= 1e-8


def test_oracle_step_limit():
    with pytest.raises(prop.StepLimitExceeded):
        prop.ode_oracle(1.0, 0.0, 5.0, 20.0, prop.OdeConfig(step=1e-6, tol=1e-14,
                                                            max_steps=50))


def test_oracle_grid_validation():
    with pytest.raises(ValueError):
        prop.oracle_grid(1.0, 0.0, 1.0, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        prop.oracle_grid(1.0, 0.0, 1.0, np.array([-1.0]))


def test_ode_config_validation():
    with pytest.raises(ValueError):
        prop.OdeConfig(step=0.0)
    with pytest.raises(ValueError):
        prop.OdeConfig(tol=-1e-9)
    with pytest.raises(ValueError):
        prop.OdeConfig(max_steps=0)
