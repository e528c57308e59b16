import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp_lab import symbols as sym
from logdamp_lab.propagator import PropagatorMode, propagate_closed

PI = math.pi

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
radius = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def _state(ur, ui, vr, vi):
    return sym.SpectralState(complex(ur, ui), complex(vr, vi))


def test_log_symbol_anchors():
    assert sym.log_symbol(0.0) == 0.0
    assert abs(sym.log_symbol(1.0) - math.log(2.0)) < 1e-15
    # invert log(1+r^2) = 4/3 and plug back
    r = math.sqrt(math.expm1(4.0 / 3.0))
    assert abs(sym.log_symbol(r) - 4.0 / 3.0) < 1e-13


def test_log_symbol_past_the_square_overflow():
    # r*r overflows above about 1.3e154; L = 2 log r there, and every value
    # below keeps the bits of log1p(r*r)
    r = np.array([0.0, 1e-200, 1.0, 1e100, 1.3e154, 1e200, -1e200, 1e308])
    with np.errstate(over="ignore"):
        plain = np.log1p(r * r)
    L = sym.log_symbol(r)
    finite = np.isfinite(plain)
    assert np.array_equal(L[finite], plain[finite])
    assert np.array_equal(L[~finite], 2.0 * np.log(np.abs(r[~finite])))
    assert sym.log_symbol(1e200) == 2.0 * math.log(1e200)
    assert sym.log_symbol(np.inf) == np.inf


def test_propagate_closed_at_a_huge_radius():
    st0 = propagate_closed(1.0, 0.0, 1e200, 0.0)
    assert (st0.u_hat, st0.v_hat) == (1.0, 0.0)
    st1 = propagate_closed(1.0, 0.0, 1e200, 1.0)
    assert np.isfinite(st1.u_hat) and np.isfinite(st1.v_hat)
    assert 0.0 < abs(st1.u_hat) < 1e-190


@given(st.floats(min_value=0.0, max_value=1e3), st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_log_symbol_monotone(r, dr):
    assert sym.log_symbol(r + dr) > sym.log_symbol(r)


def test_rho_anchors():
    assert sym.rho(0.0) == 0.0
    r_split = math.sqrt(sym.RHO_SPLIT_RSQ)
    assert abs(sym.rho(r_split) - PI / (4.0 * math.sqrt(3.0))) < 1e-14
    # branch continuity at the split
    eps = 1e-9
    assert abs(sym.rho(r_split * (1 + eps)) - sym.rho(r_split * (1 - eps))) < 1e-8
    # L = pi sits on the high branch: (pi^2 + pi^2)/(16 pi) = pi/8
    r_pi = math.sqrt(math.expm1(PI))
    assert abs(sym.rho(r_pi) - PI / 8.0) < 1e-13


def test_rho_branch_continuity_tight():
    r_split = math.sqrt(sym.RHO_SPLIT_RSQ)
    L = sym.log_symbol(r_split)
    low = 0.25 * L
    high = (L * L + PI * PI) / (16.0 * L)
    assert abs(low - high) < 1e-12


def test_rho_square_bound_random_sweep():
    rng = np.random.default_rng(0)
    r = rng.uniform(0.0, 100.0, 1_000_000)
    L = sym.log_symbol(r)
    assert np.all(sym.rho(r) ** 2 <= L * L / 16.0 + 1e-15)


def test_phi_anchors():
    assert sym.phi(0.0) == 0.0
    r_split = math.sqrt(sym.PHI_SPLIT_RSQ)
    assert abs(sym.phi(r_split) - 8.0 / 9.0) < 1e-14
    assert abs(sym.phi(r_split * (1 + 1e-12)) - 8.0 / 9.0) < 1e-14
    assert sym.phi(10.0) == 8.0 / 9.0


@given(radius)
@settings(max_examples=100, deadline=None)
def test_phi_range(r):
    assert 0.0 <= sym.phi(r) <= 8.0 / 9.0 + 1e-15


def test_energy_e0_anchors():
    assert sym.energy_e0(_state(0, 0, 1, 0), 1.3) == 0.5
    assert abs(sym.energy_e0(_state(1, 0, 0, 0), 0.0) - PI * PI / 8.0) < 1e-15
    expected = 0.5 + math.log(2.0) ** 2 / 8.0 + PI * PI / 8.0
    assert abs(sym.energy_e0(_state(1, 0, 1, 0), 1.0) - expected) < 1e-14


def test_energy_e_anchors():
    assert sym.energy_e(_state(0, 0, 0, 0), 2.0) == 0.0
    assert abs(sym.energy_e(_state(1, 0, 0, 0), 0.0) - PI * PI / 8.0) < 1e-15


def test_dissipation_and_source_anchors():
    assert sym.dissipation_f(_state(0, 0, 0, 0), 1.0) == 0.0
    assert sym.source_r(_state(0, 0, 0, 0), 1.0) == 0.0
    expected = (math.log(2.0) ** 2 + PI * PI) / 4.0
    assert abs(sym.dissipation_f(_state(1, 0, 0, 0), 1.0) - expected) < 1e-14
    assert sym.dissipation_f(_state(0, 0, 1, 0), 0.0) == 0.0
    assert sym.source_r(_state(0, 0, 1, 0), 0.0) == 0.0


@given(finite, finite, finite, finite, radius)
@settings(max_examples=300, deadline=None)
def test_energy_equivalence_is_algebraic(ur, ui, vr, vi, r):
    # holds for arbitrary complex pairs, not only solutions
    state = _state(ur, ui, vr, vi)
    e0 = sym.energy_e0(state, r)
    e = sym.energy_e(state, r)
    assert e >= 0.5 * e0 - 1e-12
    assert e <= 2.25 * e0 + 1e-12


@given(finite, finite, finite, finite, radius)
@settings(max_examples=200, deadline=None)
def test_algebraic_decay_step(ur, ui, vr, vi, r):
    # R - F + phi E <= 0 for every state: the inequality the decay rate rests on
    state = _state(ur, ui, vr, vi)
    val = sym.source_r(state, r) - sym.dissipation_f(state, r) \
        + sym.phi(r) * sym.energy_e(state, r)
    assert val <= 1e-12


# ---------------------------------------------------------------------------
# identities along solutions


def _solution_energy(u0, u1, r, t):
    st_t = propagate_closed(u0, u1, r, t, PropagatorMode.ODE)
    return sym.energy_e(st_t, r)


def test_energy_budget_finite_difference():
    # d/dt E + F_eff = R, with the rho-weighted elastic term, to O(h^2)
    rng = np.random.default_rng(1)
    for _ in range(40):
        r = rng.uniform(0.0, 8.0)
        t = rng.uniform(0.2, 10.0)
        u0 = complex(rng.normal(), rng.normal())
        u1 = complex(rng.normal(), rng.normal())
        st_t = propagate_closed(u0, u1, r, t, PropagatorMode.ODE)
        rhs = sym.source_r(st_t, r) - sym.dissipation_f_effective(st_t, r)
        gaps = []
        for h in (1e-4, 5e-5):
            de = (_solution_energy(u0, u1, r, t + h)
                  - _solution_energy(u0, u1, r, t - h)) / (2.0 * h)
            gaps.append(abs(de - rhs))
        assert gaps[0] < 1e-6
        # halving h divides the defect by ~4 (second order), unless at noise floor
        assert gaps[1] < max(0.3 * gaps[0], 1e-9)


def test_unweighted_budget_gap_is_exactly_the_missing_rho():
    # d/dt E + F - R = (1 - rho)(L^2 + pi^2)|u|^2/4 identically
    rng = np.random.default_rng(2)
    for _ in range(40):
        r = rng.uniform(0.0, 12.0)
        t = rng.uniform(0.0, 10.0)
        u0 = complex(rng.normal(), rng.normal())
        u1 = complex(rng.normal(), rng.normal())
        st_t = propagate_closed(u0, u1, r, t, PropagatorMode.ODE)
        L = sym.log_symbol(r)
        gap = sym.dissipation_f(st_t, r) - sym.dissipation_f_effective(st_t, r)
        predicted = (1.0 - sym.rho(r)) * (L * L + PI * PI) / 4.0 * abs(st_t.u_hat) ** 2
        assert abs(gap - predicted) < 1e-12 * (1.0 + abs(predicted))


def test_pointwise_energy_identity_finite_difference():
    # d/dt E0 + L |v|^2 = 0 along solutions, to O(h^2)
    for r, t in ((0.0, 1.0), (0.7, 2.5), (3.0, 0.8), (9.0, 4.0)):
        u0, u1 = 0.8 - 0.2j, -0.5 + 1.1j
        h = 1e-5
        e_plus = sym.energy_e0(propagate_closed(u0, u1, r, t + h, "ode"), r)
        e_minus = sym.energy_e0(propagate_closed(u0, u1, r, t - h, "ode"), r)
        st_t = propagate_closed(u0, u1, r, t, "ode")
        L = sym.log_symbol(r)
        resid = (e_plus - e_minus) / (2.0 * h) + L * abs(st_t.v_hat) ** 2
        assert abs(resid) < 1e-7


def test_energy_e0_nonincreasing_along_solutions():
    ts = np.linspace(0.0, 15.0, 400)
    for r in (0.0, 0.4, 1.7, 6.0):
        st_t = propagate_closed(1.0 - 0.3j, 0.2 + 0.9j, r, ts, "ode")
        e0 = sym.energy_e0(st_t, r)
        assert np.all(np.diff(e0) <= 1e-12)


def test_differential_decay_inequality_fails_at_low_frequency():
    # the differential form dE/dt + phi E <= 0 is violated by the actual
    # evolution: at state (1, 0) the exact value is L(L^2+pi^2)/48 + L^3/12
    r = math.sqrt(math.e - 1.0)  # L = 1
    st0 = _state(1, 0, 0, 0)
    de = sym.source_r(st0, r) - sym.dissipation_f_effective(st0, r)
    val = de + sym.phi(r) * sym.energy_e(st0, r)
    predicted = (1.0 + PI * PI) / 48.0 + 1.0 / 12.0
    assert abs(val - predicted) < 1e-12
    assert val > 0.25  # decisively positive, not a tolerance artifact
