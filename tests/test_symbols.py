import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp_lab import symbols as sym
from logdamp_lab.data_catalog import make_profile, profile_terms
from logdamp_lab.propagator import PropagatorMode, closed_form_defect, propagate_closed

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


def test_multipliers_past_the_square_overflow():
    state = sym.SpectralState(0.3 - 1.2j, 0.7 + 0.4j)
    with np.errstate(all="raise"):
        values = [sym.rho(1e200), sym.phi(1e200), sym.energy_e(state, 1e200),
                  sym.source_r(state, 1e200)]
    assert all(math.isfinite(v) for v in values)
    assert values[1] == 8.0 / 9.0


# rho, phi, energy_e and source_r (at the state above) as computed from
# log1p(r*r) before the multipliers took L from log_symbol, as float hex
_R_GRID = [0.0, 1e-300, 1e-8, 0.1, 0.5, 1.0, 1.67, 1.68, 2.26, 2.27, 10.0, 1e4, 1e20,
           1e100, 1e149]
_MULTIPLIER_BITS = {
    "rho": ["0x0.0p+0", "0x0.0p+0", "0x1.cd2b297d889bdp-56", "0x1.460d6ccca3678p-9",
            "0x1.c8ff7c79a9a22p-5", "0x1.62e42fefa39efp-3", "0x1.5502ea68f2dccp-2",
            "0x1.5743d02f0e5e0p-2", "0x1.cf3d9d0e0619ap-2", "0x1.cfef0c0772e78p-2",
            "0x1.b03beb4c5c317p-2", "0x1.2f4db396139dfp+0", "0x1.70d79d74f933ap+2",
            "0x1.cc89d7ded93cap+4", "0x1.5717a59a8105cp+5"],
    "phi": ["0x0.0p+0", "0x0.0p+0", "0x1.33721ba905bd3p-54", "0x1.b2bc9110d9df5p-8",
            "0x1.30aa52fbc66c1p-3", "0x1.d9303fea2f7e9p-2", "0x1.c6ae8de143d10p-1"]
           + ["0x1.c71c71c71c71cp-1"] * 8,
    "energy_e": ["0x1.1b3539f741e68p+1", "0x1.1b3539f741e68p+1", "0x1.1b3539f741e68p+1",
                 "0x1.1b207576e46d2p+1", "0x1.1bb7c33e12a48p+1", "0x1.2cbdfa8166383p+1",
                 "0x1.66931d65f0138p+1", "0x1.67a68e56fe599p+1", "0x1.abe3886094aaep+1",
                 "0x1.acf81cb6ed808p+1", "0x1.ea640f5f958dfp+2", "0x1.4def35a328141p+6",
                 "0x1.fb46aeebc99e2p+10", "0x1.8c0ca0894915cp+15", "0x1.b7a4d8339f0ecp+16"],
    "source_r": ["0x0.0p+0", "0x0.0p+0", "0x1.2bc2749198cbap-56", "0x1.a7de40a3a139bp-10",
                 "0x1.290c774f14a95p-5", "0x1.cd5bd7eabb1b6p-4", "0x1.bb50972208855p-3",
                 "0x1.be3e8ea392ad5p-3", "0x1.2d1b3faf83f70p-2", "0x1.2d8e949e71167p-2",
                 "0x1.18f3bf5808b9bp-2", "0x1.8a4b69764cb3bp-1", "0x1.df7eb31810c31p+1",
                 "0x1.2b59991da6cdcp+4", "0x1.be052415a7baap+4"],
}


def test_multipliers_keep_their_bits_below_the_square_overflow():
    r = np.array(_R_GRID)
    state = sym.SpectralState(0.3 - 1.2j, 0.7 + 0.4j)
    got = {"rho": sym.rho(r), "phi": sym.phi(r), "energy_e": sym.energy_e(state, r),
           "source_r": sym.source_r(state, r)}
    for name, bits in _MULTIPLIER_BITS.items():
        assert [float(v).hex() for v in got[name]] == bits, name


def test_multipliers_are_the_piecewise_forms_across_the_splits():
    # the minimum of the two branches picks the branch the r^2 threshold
    # picks, bit for bit, on 4001 radii around each split
    rho_rsq, phi_rsq = math.expm1(PI / math.sqrt(3.0)), math.expm1(4.0 / 3.0)
    r = np.concatenate([math.sqrt(rsq) + np.arange(-2000, 2001) * np.spacing(math.sqrt(rsq))
                        for rsq in (rho_rsq, phi_rsq)])
    L = np.log1p(r * r)
    rho_low, phi_low = r * r <= rho_rsq, r * r <= phi_rsq
    assert rho_low.any() and not rho_low.all() and phi_low.any() and not phi_low.all()
    piecewise_rho = np.where(rho_low, 0.25 * L, (L * L + PI * PI) / (16.0 * L))
    piecewise_phi = np.where(phi_low, (2.0 / 3.0) * L, 8.0 / 9.0)
    assert sym.rho(r).tobytes() == piecewise_rho.tobytes()
    assert sym.phi(r).tobytes() == piecewise_phi.tobytes()
    # L = 0 or subnormal sends the high rho branch to inf: no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r0 in (0.0, 1e-300, 1e-160, 1e-155):
            L0 = sym.log_symbol(r0)
            assert sym.rho(r0) == 0.25 * L0
            assert sym.phi(r0) == (2.0 / 3.0) * L0


def test_a_scalar_in_gives_a_number_out_with_the_array_bits():
    # a 0-d array would refuse the :.3e format below
    r = np.array([0.0, 1e-8, 0.3, 1.7, 2.3, 40.0, 1e20])
    state = sym.SpectralState(0.3 - 1.2j, 0.7 + 0.4j)
    g = make_profile("gaussian", N=3, a=1.0)
    u0, u1 = 0.4 + 0.1j, -1.3 + 0.5j
    calls = {
        "log_symbol": sym.log_symbol, "rho": sym.rho, "phi": sym.phi,
        "energy_e0": lambda x: sym.energy_e0(state, x),
        "energy_e": lambda x: sym.energy_e(state, x),
        "dissipation_f": lambda x: sym.dissipation_f(state, x),
        "source_r": lambda x: sym.source_r(state, x),
        "propagate_closed.u_hat": lambda x: propagate_closed(u0, u1, x, 2.5).u_hat,
        "propagate_closed.v_hat": lambda x: propagate_closed(0.4, -1.3, x, 2.5).v_hat,
        "closed_form_defect": lambda x: closed_form_defect(u0, u1, x, 2.5, "paper"),
        "profile_terms.f1": lambda x: profile_terms(g, x, 2.5).f1,
        "profile_terms.f2": lambda x: profile_terms(g, x, 2.5).f2,
        "profile_terms.f3": lambda x: profile_terms(g, x, 2.5).f3,
    }
    for name, f in calls.items():
        arr = f(r)
        for i, x in enumerate(r.tolist()):
            v = f(x)
            assert isinstance(v, (float, complex)), (name, type(v))
            assert f"{v:.3e}", name
            assert np.asarray(v).tobytes() == arr[i:i + 1].tobytes(), (name, x)
    # past the r*r overflow, log_symbol takes its 2 log|r| branch
    v = sym.log_symbol(1e200)
    assert isinstance(v, float) and f"{v:.3e}" == "9.210e+02"


def test_propagate_closed_keeps_real_data_real():
    r = np.linspace(0.0, 8.0, 33)
    t = np.linspace(0.0, 12.0, 7).reshape(-1, 1)
    st_real = propagate_closed(0.4, -1.3, r, t)
    st_cplx = propagate_closed(0.4 + 0j, -1.3 + 0j, r, t)
    assert st_real.u_hat.dtype == st_real.v_hat.dtype == np.float64
    assert st_cplx.u_hat.dtype == np.complex128
    for a, b in ((st_real.u_hat, st_cplx.u_hat), (st_real.v_hat, st_cplx.v_hat)):
        assert np.allclose(a, b.real, rtol=1e-15, atol=0.0)


@given(st.floats(min_value=0.0, max_value=1e3), st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_log_symbol_monotone(r, dr):
    assert sym.log_symbol(r + dr) > sym.log_symbol(r)


def test_rho_anchors():
    assert sym.rho(0.0) == 0.0
    r_split = math.sqrt(math.expm1(PI / math.sqrt(3.0)))
    assert abs(sym.rho(r_split) - PI / (4.0 * math.sqrt(3.0))) < 1e-14
    # branch continuity at the split
    eps = 1e-9
    assert abs(sym.rho(r_split * (1 + eps)) - sym.rho(r_split * (1 - eps))) < 1e-8
    # L = pi sits on the high branch: (pi^2 + pi^2)/(16 pi) = pi/8
    r_pi = math.sqrt(math.expm1(PI))
    assert abs(sym.rho(r_pi) - PI / 8.0) < 1e-13


def test_rho_branch_continuity_tight():
    r_split = math.sqrt(math.expm1(PI / math.sqrt(3.0)))
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
    r_split = math.sqrt(math.expm1(4.0 / 3.0))
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
