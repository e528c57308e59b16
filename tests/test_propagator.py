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


def test_closed_form_coefficients_take_a_complex_symbol():
    # a complex L (the contour routes' z off the real axis) gives the formula's
    # values, and a real L keeps the bits of the float arithmetic
    L = np.array([0.3 + 0.2j, 1.5 - 0.7j, 4.0 + 3.0j])
    for mode in prop.PropagatorMode:
        nu = prop.carrier_frequency(mode)
        for u0, u1 in ((1.2, -0.4), (1.0 + 0.3j, -0.7 + 1.0j)):
            want = (u0 + 0.0 * L, (u1 + 0.5 * L * u0) / nu, u1 + 0.0 * L,
                    -((0.25 * L * L + nu * nu) * u0 + 0.5 * L * u1) / nu)
            got = np.broadcast_arrays(*prop.closed_form_coefficients(u0, u1, L, mode))
            for g, w in zip(got, want):
                assert g.dtype == complex
                assert np.all(np.abs(g - w) <= 1e-15 * np.abs(w))
    L = np.log1p(np.linspace(0.0, 30.0, 61) ** 2)
    for mode in prop.PropagatorMode:
        nu = prop.carrier_frequency(mode)
        for u0, u1 in ((1.2, -0.4), (1.0 + 0.3j, -0.7 + 1.0j)):
            dtype = np.result_type(u0, u1, float)
            a, b = np.asarray(u0, dtype=dtype), np.asarray(u1, dtype=dtype)
            want = (a, (b + 0.5 * L * a) / nu, b,
                    -((0.25 * L * L + nu * nu) / nu * a + 0.5 * L / nu * b))
            got = prop.closed_form_coefficients(u0, u1, L, mode)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


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

    monkeypatch.setattr(prop, "_taylor_matrix", no_step)
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
    # at r = 0, v = -(pi/2) u0 sin(pi t/2) peaks at (pi/2) 1.7e308 at t = 1,
    # past the largest float
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
        prop.oracle_grid(1.7e308, 0.0, 0.0, np.array([1.0]))


def test_oracle_is_linear_up_to_the_float_range():
    # the true state from u0 = 1e308 at r = 10 stays finite; only the
    # closed form's b_v overflows there, so the unit datum is the reference
    big_u, big_v = prop.oracle_grid(1e308, 0.0, 10.0, np.array([1.0]))
    unit_u, unit_v = prop.oracle_grid(1.0, 0.0, 10.0, np.array([1.0]))
    for big, unit in ((big_u, unit_u), (big_v, unit_v)):
        assert np.all(np.isfinite(big))
        assert abs(big[0] - 1e308 * unit[0]) <= 1e-12 * abs(1e308 * unit[0])


def test_closed_form_is_finite_where_the_oracle_is():
    # b_v = -4.96e308 overflows unscaled (a RuntimeWarning, an error under
    # pytest); the data are scaled down by a power of two before the
    # coefficients are formed, so the state is the oracle's
    st = prop.propagate_closed(1e308, 0.0, 10.0, 1.0)
    ou, ov = prop.oracle_grid(1e308, 0.0, 10.0, np.array([1.0]))
    for closed, oracle in ((st.u_hat, ou[0]), (st.v_hat, ov[0])):
        assert abs(closed - oracle) <= 1e-12 * abs(oracle)
    # scaling by a power of two is exact: the bits of 2^600 times a datum are
    # 2^600 times the bits of the datum's state
    big = prop.propagate_closed(2.0 ** 600 * 0.3, -(2.0 ** 600) * 0.7, 10.0, 1.0)
    unit = prop.propagate_closed(0.3, -0.7, 10.0, 1.0)
    assert big.u_hat == 2.0 ** 600 * unit.u_hat and big.v_hat == 2.0 ** 600 * unit.v_hat


@pytest.mark.parametrize("mode", ["ode", "paper"])
def test_closed_form_defect_is_finite_where_the_state_is(mode):
    # unscaled, nu b_v - L a_v / 2 overflows at u0 = 1e308, r = 10 (two
    # RuntimeWarnings, errors under pytest) and the defect is nan; the data
    # are scaled by the same power of two as in propagate_closed
    defect = prop.closed_form_defect(1e308, 0.0, 10.0, 1.0, mode)
    st = prop.propagate_closed(1e308, 0.0, 10.0, 1.0, mode)
    assert np.isfinite(defect)
    if mode == "ode":
        assert abs(defect) <= 1e-14 * max(abs(st.u_hat), abs(st.v_hat))
    else:
        assert abs(defect - (3.0 * PI * PI / 16.0) * st.u_hat) <= 1e-14 * abs(st.u_hat)
    # exact: 2^600 times a datum gives 2^600 times its defect, bit for bit
    big = prop.closed_form_defect(2.0 ** 600 * 0.3, -(2.0 ** 600) * 0.7, 10.0, 1.0, mode)
    assert big == 2.0 ** 600 * prop.closed_form_defect(0.3, -0.7, 10.0, 1.0, mode)


def test_data_below_two_to_the_512_keep_their_bits():
    # the scaling wraps the closed forms; below 2^512 it is not applied
    rr = np.linspace(0.0, 10.0, 41)
    tt = np.linspace(0.0, 20.0, 41).reshape(-1, 1)
    for u0, u1 in ((1.0 + 0.4j, -0.3 + 0.8j), (2.0 ** 511, -(2.0 ** 510))):
        args = (u0, u1, rr, tt, "paper")
        defect = prop.closed_form_defect(*args)
        assert np.array_equal(defect, prop.closed_form_defect.__wrapped__(*args))
        st, raw = prop.propagate_closed(*args), prop.propagate_closed.__wrapped__(*args)
        assert np.array_equal(st.u_hat, raw.u_hat) and np.array_equal(st.v_hat, raw.v_hat)


@pytest.mark.parametrize("L", [0.0, math.log(101.0)])
@pytest.mark.parametrize("landing", [False, True])
def test_taylor_matrix_matches_expm(L, landing):
    # the certified step matrix against scipy's Pade exp(hA), for the full
    # step and for the step that lands on t = 0.5
    from scipy.linalg import expm

    c = 0.25 * (L * L + PI * PI)
    norm = max(1.0, c + L)
    h = 4.0 / norm
    if landing:
        h = 0.5 - math.floor(0.5 / h) * h
    m00, m01, m10, m11 = prop._taylor_matrix(h, np.array([L]), np.array([c]), norm)
    ours = np.array([[m00[0], m01[0]], [m10[0], m11[0]]])
    ref = expm(h * np.array([[0.0, 1.0], [-c, -L]]))
    assert np.max(np.sum(np.abs(ours - ref), axis=1)) <= 1e-11


def test_oracle_builds_one_matrix_per_step_length(monkeypatch):
    # the simulate cross-check: one matrix for the full step and one per
    # landing step, not one series per step
    calls = []
    build = prop._taylor_matrix

    def counted(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(prop, "_taylor_matrix", counted)
    u0s, u1s = (x.reshape(-1, 1) for x in _random_states(np.random.default_rng(0), 5))
    t_out = np.array([0.5, 2.0, 5.0, 10.0, 20.0])
    prop.oracle_grid(u0s, u1s, np.linspace(0.0, 10.0, 21), t_out)
    assert 0 < len(calls) <= len(t_out) + 1


def test_oracle_grid_validation():
    with pytest.raises(ValueError):
        prop.oracle_grid(1.0, 0.0, 1.0, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        prop.oracle_grid(1.0, 0.0, 1.0, np.array([-1.0]))
    with pytest.raises(ValueError):
        prop.oracle_grid(1.0, 0.0, 1.0, np.array([math.nan]))
