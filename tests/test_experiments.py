import json
import math
import tracemalloc

import numpy as np
import pytest

from logdamp_lab import experiments as xp
from logdamp_lab.data_catalog import make_profile
from logdamp_lab.propagator import PropagatorMode, carrier_frequency, \
    closed_form_coefficients, oracle_grid, propagate_closed
from logdamp_lab.quadrature import integrate, surface_area
from logdamp_lab.symbols import PI_SQ, energy_e0

PI = math.pi


@pytest.fixture(scope="module")
def gaussian():
    return make_profile("gaussian", N=3, a=1.0)


@pytest.fixture(scope="module")
def zero():
    return make_profile("zero", N=3)


@pytest.fixture(scope="module")
def pair():
    return make_profile("zero_mean_pair", N=3)


# ---------------------------------------------------------------------------
# carriers, grids and traces


def test_time_grid():
    g = xp.TimeGrid(1.0, 100.0, 5)
    assert np.allclose(g.times(), np.geomspace(1.0, 100.0, 5))
    for bad in (dict(lo=2.0, hi=1.0, count=5), dict(lo=1.0, hi=2.0, count=1),
                dict(lo=0.0, hi=2.0, count=4), dict(lo=-1.0, hi=2.0, count=4)):
        with pytest.raises(ValueError):
            xp.TimeGrid(**bad)


def test_trace_validation():
    with pytest.raises(ValueError):
        xp.Trace(np.array([1.0, 1.0]), np.array([1.0, 2.0]), "x")
    with pytest.raises(ValueError):
        xp.Trace(np.array([1.0, 2.0]), np.array([1.0, np.inf]), "x")
    with pytest.raises(ValueError):
        xp.Trace(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]), "x")


def test_carrier_peak_times():
    ts = xp.carrier_peak_times(100.0, 10_000.0, 40, PropagatorMode.ODE)
    assert np.all(np.diff(ts) > 0)
    # odd integers: |sin(pi t / 2)| = 1
    assert np.allclose(np.abs(np.sin(PI * ts / 2.0)), 1.0)
    tp = xp.carrier_peak_times(100.0, 10_000.0, 40, PropagatorMode.PAPER)
    assert np.allclose(np.abs(np.sin(PI * tp / 4.0)), 1.0)


def test_carrier_peak_times_follow_the_phase_of_the_data():
    # theta = atan2(P0, P1/nu) puts the samples on the peaks of |sin(nu t + theta)|
    for mode in PropagatorMode:
        nu = carrier_frequency(mode)
        for theta in (0.3, math.pi / 2.0, -1.0, math.pi):
            ts = xp.carrier_peak_times(100.0, 10_000.0, 40, mode, theta)
            assert np.all(np.diff(ts) > 0) and ts[0] >= 100.0 and ts[-1] <= 10_000.0
            assert np.allclose(np.abs(np.sin(nu * ts + theta)), 1.0)


@pytest.mark.parametrize("mode", list(PropagatorMode))
@pytest.mark.parametrize("u1", ["zero", "gaussian"])
def test_decay_with_a_displacement_datum_samples_the_envelope(mode, u1):
    p0, p1 = make_profile("gaussian", N=3), make_profile(u1, N=3)
    rep = xp.run_decay(p0, p1, 3, mode, xp.TimeGrid(100.0, 10_000.0, 40))
    assert abs(rep.parameters["l2_squared_rate"] + 1.5) <= 0.01
    assert rep.all_passed


@pytest.mark.parametrize("mode", list(PropagatorMode))
def test_decay_with_a_zero_mass_displacement_samples_the_envelope(mode):
    # with both masses zero the carrier's phase comes from the r^2 terms:
    # u0 = zero_mean_pair leads with cos(nu t), so its samples sit on the peaks
    # of |cos|, not on its zeros, and read the exponent of the swapped pair
    pair, zero = make_profile("zero_mean_pair", N=3), make_profile("zero", N=3)
    grid = xp.TimeGrid(100.0, 10_000.0, 40)
    rates = [xp.run_decay(p0, p1, 3, mode, grid).parameters["l2_squared_rate"]
             for p0, p1 in ((pair, zero), (zero, pair))]
    assert abs(rates[0] - rates[1]) <= 0.1, rates


def test_two_nonzero_data_one_non_radial_are_refused():
    shifted, g = make_profile("shifted_gaussian", N=3), make_profile("gaussian", N=3)
    for p0, p1 in ((g, shifted), (shifted, g), (shifted, shifted)):
        with pytest.raises(ValueError, match="need radial data"):
            xp.l2_value(p0, p1, 3, 1.0, PropagatorMode.ODE)
    # paired with a zero datum, the non-radial one is read through its modulus
    zero = make_profile("zero", N=3)
    times = np.array([1.0, 5.0])
    assert np.array_equal(xp.l2_value(zero, shifted, 3, times, PropagatorMode.ODE),
                          xp.l2_value(zero, g, 3, times, PropagatorMode.ODE))


def test_energy_value_plancherel_anchor(zero, gaussian):
    # at t = 0 the energy functional reduces to ||u1||_2^2 = (pi/2)^{3/2}
    val = xp.energy_value(zero, gaussian, 3, 0.0, PropagatorMode.ODE)
    assert abs(val - (PI / 2.0) ** 1.5) < 1e-9
    # and equals twice the scalar energy by definition
    assert abs(val - 2.0 * 0.5 * val) == 0.0


def test_l2_value_zero_data(zero):
    assert xp.l2_value(zero, zero, 3, 1.0, PropagatorMode.ODE) == 0.0
    tr = xp.l2_trace(zero, zero, 3, np.array([1.0, 2.0, 3.0]), PropagatorMode.ODE)
    assert np.all(tr.values == 0.0)


def test_energy_trace_nonincreasing(zero, gaussian):
    tr = xp.energy_trace(zero, gaussian, 3, np.linspace(0.5, 40.0, 25), PropagatorMode.ODE)
    assert np.all(np.diff(tr.values) <= 1e-12 * tr.values[0])
    assert np.all(tr.values > 0)


def test_trace_matches_oracle_recomputation(zero, gaussian):
    # same fixed radial rule applied to closed-form and oracle states
    nodes, weights = np.polynomial.legendre.leggauss(120)
    r = 0.5 * 12.0 * (nodes + 1.0)
    w = 0.5 * 12.0 * weights
    hat1 = gaussian.hat_z(r * r)
    spot_times = np.array([0.5, 1.5, 3.0, 6.0, 10.0])
    ou, ov = oracle_grid(np.zeros_like(r, dtype=complex), hat1.astype(complex),
                         r, spot_times)
    const = (2.0 * PI) ** -3 * surface_area(3)
    L = np.log1p(r * r)
    for i, t in enumerate(spot_times):
        closed = xp.energy_value(zero, gaussian, 3, float(t), PropagatorMode.ODE)
        dens = np.abs(ov[i]) ** 2 + 0.25 * (L * L + PI_SQ) * np.abs(ou[i]) ** 2
        via_oracle = const * np.sum(w * dens * r * r)
        assert abs(closed - via_oracle) < 1e-6 * closed


def test_energy_identity_residual_small(zero, gaussian):
    assert xp.energy_identity_residual(zero, gaussian, 3, 2.0) < 1e-6
    with pytest.raises(ValueError):
        xp.energy_identity_residual(zero, gaussian, 3, 0.0)


@pytest.mark.parametrize("mode", list(PropagatorMode))
@pytest.mark.parametrize("u1", ["gaussian", "zero_mean_pair", "shifted_gaussian"])
def test_traces_equal_per_time_values_bit_for_bit(zero, u1, mode):
    # one vector integral per trace; no time forces a bisection, so every
    # sample keeps the bytes of its own scalar integral
    p1 = make_profile(u1, N=3)
    times = np.geomspace(100.0, 10_000.0, 12)
    for trace, value in ((xp.energy_trace, xp.energy_value), (xp.l2_trace, xp.l2_value)):
        tr = trace(zero, p1, 3, times, mode)
        per_time = [value(zero, p1, 3, float(t), mode) for t in times]
        assert tr.values.tolist() == per_time


def _residual_per_node(p0, p1, N, t, mode):
    # the energy identity by nested quadrature: a time integral of the
    # dissipation, one scalar radial integral per outer node
    e_start = 0.5 * xp.energy_value(p0, p1, N, 0.0, mode)
    e_end = 0.5 * xp.energy_value(p0, p1, N, t, mode)

    def diss(s):
        return np.array([xp._spectral_quadratic(p0, p1, N, float(x), mode, wv=lambda L: L,
                                                rel_tol=1e-10) for x in s])

    quarter = 0.25 * PI / carrier_frequency(mode)
    dissipated = integrate(diss, 0.0, t, tol=1e-300, rel_tol=3e-8,
                           breakpoints=np.arange(quarter, t, quarter)).value
    return abs(e_end + dissipated - e_start) / e_start


@pytest.mark.parametrize("u0, u1, N, mode, t", [
    pytest.param("zero", "gaussian", 3, PropagatorMode.ODE, 1.0, id="ode-1.0"),
    pytest.param("zero", "gaussian", 3, PropagatorMode.ODE, 5.0, id="ode-5.0"),
    pytest.param("zero", "gaussian", 3, PropagatorMode.PAPER, 2.0, id="paper-2.0"),
    # the quarter-frequency mode solves another equation: residuals 0.174,
    # 5.77e-4 and 5.26e-5, which both routes give to the last digits
    pytest.param("zero", "zero_mean_pair", 3, PropagatorMode.PAPER, 1.0, id="pair-paper-1.0"),
    pytest.param("zero", "zero_mean_pair", 3, PropagatorMode.PAPER, 5.0, id="pair-paper-5.0"),
    pytest.param("zero", "zero_mean_pair", 3, PropagatorMode.PAPER, 10.0,
                 id="pair-paper-10.0"),
    pytest.param("gaussian", "zero_mean_pair", 3, PropagatorMode.ODE, 10.0,
                 id="gaussian-pair-ode-10.0"),
    pytest.param("zero", "gaussian", 5, PropagatorMode.PAPER, 5.0, id="n5-paper-5.0"),
])
def test_energy_identity_residual_equals_per_node_loop(u0, u1, N, mode, t):
    p0, p1 = make_profile(u0, N=N), make_profile(u1, N=N)
    closed = xp.energy_identity_residual(p0, p1, N, t, mode)
    assert abs(closed - _residual_per_node(p0, p1, N, t, mode)) <= 1e-14


def test_mixed_nonradial_data_rejected(gaussian):
    shifted = make_profile("shifted_gaussian", N=3, offset=0.5)
    with pytest.raises(ValueError):
        xp.energy_value(shifted, gaussian, 3, 1.0, PropagatorMode.ODE)
    # but a lone non-radial datum is fine (only |hat| enters)
    zero3 = make_profile("zero", N=3)
    val = xp.l2_value(zero3, shifted, 3, 1.0, PropagatorMode.ODE)
    assert val > 0


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("mode", list(PropagatorMode))
def test_shifted_gaussian_traces_equal_unit_gaussian_bit_for_bit(N, mode):
    # paired with a zero datum, a trace sees the shift only through |hat|,
    # which is the unit gaussian's transform whatever the offset
    zero_n = make_profile("zero", N=N)
    unit = make_profile("gaussian", N=N, a=1.0)
    times = np.geomspace(1.0, 10_000.0, 12)
    for trace in (xp.energy_trace, xp.l2_trace):
        want = [trace(zero_n, unit, N, times, mode).values.tolist(),
                trace(unit, zero_n, N, times, mode).values.tolist()]
        for c in (0.0, 0.25, 1.0):
            shifted = make_profile("shifted_gaussian", N=N, offset=c)
            assert [trace(zero_n, shifted, N, times, mode).values.tolist(),
                    trace(shifted, zero_n, N, times, mode).values.tolist()] == want


_WEIGHTS = {
    "energy": (lambda L: 0.25 * (L * L + PI_SQ), lambda L: np.ones_like(L)),
    "l2": (lambda L: np.ones_like(L), None),
    "dissipation": (None, lambda L: L),
}


@pytest.mark.parametrize("mode", list(PropagatorMode))
@pytest.mark.parametrize("data", ["zero,gaussian", "gaussian,zero_mean_pair",
                                  "zero,shifted_gaussian", "shifted_gaussian,zero"])
def test_factored_density_matches_propagate_closed(data, mode):
    # e^{-Lt} (k0 c^2 + k1 2cs + k2 s^2) r^{N-1} against wu|u|^2 + wv|v|^2 of the
    # full closed-form state.  u and v vanish along curves in (r, t), where
    # both routes lose relative accuracy, so the error is held to the density's
    # largest value over the carrier phase, e^{-Lt} r^{N-1} sum w (a^2 + b^2);
    # the energy density is positive definite and also holds pointwise.
    N = 3
    p0, p1 = (make_profile(k, N=N) for k in data.split(","))
    h0, h1 = p0.hat_z, p1.hat_z
    r = np.linspace(0.0, 20.0, 401)
    z = r * r
    L = np.log1p(z)
    coef = closed_form_coefficients(h0(z), h1(z), L, mode)
    for wu, wv in _WEIGHTS.values():
        for t in (0.0, 3.3, np.array([0.0, 0.7, 3.3, 12.5, 40.0])):
            t = np.asarray(t)
            got = xp._quadratic_density(h0, h1, N, t, mode, wu, wv)(r)
            t_col = t.reshape(-1, 1) if t.ndim else t
            st = propagate_closed(h0(z), h1(z), r, t_col, mode)
            want, scale = 0.0, 0.0
            for w, x, a, b in ((wu, st.u_hat, *coef[:2]), (wv, st.v_hat, *coef[2:])):
                if w is not None:
                    want, scale = want + w(L) * x * x, scale + w(L) * (a * a + b * b)
            rn = np.power(r, N - 1)
            want, scale = (want * rn).T, (scale * np.exp(-L * t_col) * rn).T
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * scale)
            if wu is not None and wv is not None:
                assert np.all(np.abs(got - want) <= 1e-14 * want)


@pytest.mark.parametrize("T", [1, 34, 35, 200])
@pytest.mark.parametrize("n", [15, 480, 20_000])
def test_damped_products_equal_the_elementwise_formula(T, n):
    # bit for bit, with one to three factor pairs; at n = 480 a block holds
    # 2^14 // 480 = 34 times, so 35 spill into a second block, and at
    # n = 20 000 > 2^14 each time is a block of its own
    rng = np.random.default_rng(T + n)
    t_col = rng.uniform(0.0, 40.0, (T, 1))
    q = rng.uniform(0.0, 3.0, n)
    for j in (1, 2, 3):
        a = rng.standard_normal((T, j)) * 10.0 ** rng.uniform(-6.0, 6.0, (T, j))
        b = rng.standard_normal((j, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (j, n))
        want = a[:, :1] * b[0]
        for i in range(1, j):
            want += a[:, i:i + 1] * b[i]
        want *= np.exp(-t_col * q)
        got = xp._damped_products(t_col, q, a, b)
        assert got.shape == (n, T)
        assert got.tobytes() == want.T.tobytes()


def test_trace_integrals_take_their_seed_panels_only(monkeypatch):
    # 32 geometric seed panels; no energy or L^2 trace of the decay grids
    # bisects, which is what keeps every trace value bit for bit equal to its
    # scalar integral
    data = [("gaussian", dict(a=a)) for a in (0.5, 2.0)] + [("zero_mean_pair", {})] + \
        [("shifted_gaussian", dict(offset=c)) for c in (0.25, 1.0)]
    profiles = [(N, make_profile("zero", N=N), make_profile(k, N=N, **kw))
                for N in (3, 5) for k, kw in data]
    evals = []
    real_integrate = xp.quadrature.integrate

    def spy(*args, **kwargs):
        res = real_integrate(*args, **kwargs)
        evals.append(res.evals)
        return res

    monkeypatch.setattr(xp.quadrature, "integrate", spy)
    grid = xp.TimeGrid(100.0, 10_000.0, 200)
    for mode in PropagatorMode:
        peaks = xp.carrier_peak_times(100.0, 10_000.0, 200, mode)
        for N, p0, p1 in profiles:
            xp.energy_trace(p0, p1, N, grid, mode)
            xp.l2_trace(p0, p1, N, peaks, mode)
    assert evals == [15 * 32] * 40


@pytest.mark.parametrize("value", [xp.energy_value, xp.l2_value])
def test_quadratic_values_refuse_negative_times(zero, gaussian, value):
    with pytest.raises(ValueError, match="t >= 0"):
        value(zero, gaussian, 3, -0.5, PropagatorMode.ODE)
    with pytest.raises(ValueError, match="t >= 0"):
        value(zero, gaussian, 3, np.array([1.0, -0.5]), PropagatorMode.ODE)


def test_traces_need_no_propagate_closed(monkeypatch, zero, gaussian):
    # the factored density takes the coefficients alone, never the full state
    def refuse(*args):
        raise AssertionError("a trace called propagate_closed")

    monkeypatch.setattr(xp, "propagate_closed", refuse)
    times = np.geomspace(100.0, 10_000.0, 12)
    for mode in PropagatorMode:
        assert np.all(xp.energy_trace(zero, gaussian, 3, times, mode).values > 0)
        assert np.all(xp.l2_trace(zero, gaussian, 3, times, mode).values > 0)
    assert xp.energy_identity_residual(zero, gaussian, 3, 2.0, PropagatorMode.ODE) < 1e-6
    # the quarter-frequency mode solves another equation: a residual, not a zero
    assert xp.energy_identity_residual(zero, gaussian, 3, 2.0, PropagatorMode.PAPER) > 0.1


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_power():
    ts = np.geomspace(10.0, 1000.0, 20)
    fit = xp.fit_rate(xp.Trace(ts, 7.0 * ts ** -1.5, "p"), "power")
    assert abs(fit.rate + 1.5) < 1e-9
    assert abs(math.exp(fit.intercept) - 7.0) < 1e-8
    assert fit.max_residual < 1e-12


def test_fit_rate_exact_exponential():
    ts = np.linspace(1.0, 30.0, 20)
    fit = xp.fit_rate(xp.Trace(ts, 3.0 * np.exp(-0.89 * ts), "e"), "exponential")
    assert abs(fit.rate + 0.89) < 1e-9


def test_fit_rate_bounded_oscillation():
    ts = np.geomspace(10.0, 10_000.0, 60)
    vals = ts ** -1.5 * (1.0 + 0.2 * np.sin(np.log(ts)))
    fit = xp.fit_rate(xp.Trace(ts, vals, "o"), "power")
    assert abs(fit.rate + 1.5) < 0.2
    assert fit.max_residual > 0.0


def test_fit_rate_scale_invariance():
    ts = np.geomspace(5.0, 500.0, 15)
    vals = 2.3 * ts ** -0.7 * (1.0 + 0.05 * np.cos(ts / 50.0))
    f1 = xp.fit_rate(xp.Trace(ts, vals, "a"), "power")
    f2 = xp.fit_rate(xp.Trace(ts, 5.0 * vals, "a"), "power")
    assert abs(f1.rate - f2.rate) < 1e-12
    assert abs((f2.intercept - f1.intercept) - math.log(5.0)) < 1e-12


def test_fit_rate_errors():
    ts = np.geomspace(1.0, 10.0, 10)
    with pytest.raises(xp.InsufficientData):
        xp.fit_rate(xp.Trace(ts[:7], ts[:7], "x"), "power")
    with pytest.raises(xp.NonPositiveValues, match="trace 'x' .* 7 of 10 samples"):
        xp.fit_rate(xp.Trace(ts, ts - 5.0, "x"), "power")
    with pytest.raises(ValueError):
        xp.fit_rate(xp.Trace(ts, ts, "x"), "cubic")


def test_fit_rate_power_refuses_times_at_or_below_zero():
    # log(0) would reach the least-squares solver as -inf; the power fit is
    # refused first, the exponential fit needs no log of t
    ts = np.linspace(0.0, 100.0, 20)
    tr = xp.Trace(ts, np.exp(-0.01 * ts), "x")
    with pytest.raises(xp.NonPositiveValues,
                       match=r"trace 'x' needs positive times: 1 of 20 samples .* t <= 0"):
        xp.fit_rate(tr, "power")
    assert abs(xp.fit_rate(tr, "exponential").rate + 0.01) < 1e-12


# ---------------------------------------------------------------------------
# sweeps


def test_inequality_sweep_all_pass():
    checks = xp.inequality_sweep(seed=0)
    assert len(checks) == 5
    for c in checks:
        assert c.passed, c.description


@pytest.mark.parametrize("seed", range(4))
def test_sweep_energies_match_the_materialised_states(seed):
    # the factored E0(t) and |u|^2 against energy_e0 and |u_hat|^2 of the
    # closed-form states on the same grid; |u|^2 comes close to zero between
    # carrier phases, so its gap is taken relative to the bound
    # 8 E0 / (L^2 + pi^2) >= |u|^2 of the same state
    u0, u1, radii, times = xp._solution_grid(np.random.default_rng(seed))
    e0_t, u2_t = xp._solution_energies(u0, u1, radii, times)
    st = propagate_closed(u0, u1, radii, times)
    e0_ref, u2_ref = energy_e0(st, radii), np.abs(st.u_hat) ** 2
    L = np.log1p(radii * radii)
    assert e0_t.shape == u2_t.shape == (10, 200, 100)
    assert np.max(np.abs(e0_t - e0_ref) / e0_ref) <= 1e-13
    assert np.max(np.abs(u2_t - u2_ref) / (8.0 * e0_ref / (L * L + PI_SQ))) <= 1e-13


def test_differential_sweep_measures_the_known_violation():
    # the differential inequality fails along true solutions; the sweep must
    # find a violation at least as large as the analytic value at (1, 0), L=1
    chk = xp.differential_inequality_sweep(seed=0)
    predicted_floor = (1.0 + PI_SQ) / 48.0 + 1.0 / 12.0
    worst = 1e-10 - chk.margin
    assert not chk.passed
    assert worst >= predicted_floor


# ---------------------------------------------------------------------------
# profile-error traces


def test_profile_error_zero_mass_equals_deviation_term(pair):
    # with P1 = 0 only the datum's deviation term survives
    t = 6.0
    tr = xp.profile_error_trace(pair, 3, np.array([t]), "low")
    from logdamp_lab.quadrature import integrate

    def direct(r):
        L = np.log1p(r * r)
        return (16.0 / PI_SQ) * np.exp(-L * t) * (math.sin(PI * t / 4.0)
                                                  * pair.hat_z(r * r)) ** 2 * r * r

    ref = (2 * PI) ** -3 * surface_area(3) * integrate(direct, 0.0, 1.0, tol=1e-14).value
    assert abs(tr.values[0] - ref) < 1e-9 * ref


def test_profile_error_additivity(gaussian):
    ts = np.array([6.0, 14.0])
    low = xp.profile_error_trace(gaussian, 3, ts, "low").values
    high = xp.profile_error_trace(gaussian, 3, ts, "high").values
    both = xp.profile_error_trace(gaussian, 3, ts, "all").values
    assert np.all(np.abs(both - (low + high)) <= 1e-8 * both)


@pytest.mark.xfail(strict=True, reason="the high-band tail cut scales the mass-term "
                   "majorant by (2 pi)^-N omega_N but compares it with the budget of "
                   "the unnormalised integrand, so the cut is short by that factor")
def test_profile_error_high_band_meets_its_tolerance():
    # against a cut at r = 1e6 (beyond which the tail is below 1e-16 relative)
    N, t = 5, 5.0
    profile = make_profile("gaussian", N=N, a=1.767)
    cut = xp._profile_error_value(profile, N, t, 1.0, None)
    ref = xp._profile_error_value(profile, N, t, 1.0, 1e6)
    assert abs(cut - ref) <= 1e-9 * ref


def test_profile_error_validation(gaussian):
    with pytest.raises(ValueError):
        xp.profile_error_trace(gaussian, 3, np.array([5.0]), "mid")
    shifted = make_profile("shifted_gaussian", N=3, offset=0.5)
    with pytest.raises(ValueError):
        xp.profile_error_trace(shifted, 3, np.array([5.0]), "low")
    with pytest.raises(ValueError):
        xp.profile_error_trace(gaussian, 3, np.array([1.0]), "high")  # needs t > N/2+1


def test_profile_error_zero_at_t0(gaussian):
    tr = xp.profile_error_trace(gaussian, 3, np.array([0.0, 6.0]), "low")
    assert tr.values[0] == 0.0


def _bench_profile_grids(N):
    """The times at which run_profile samples a zero-mass datum on the
    benchmark's grid [1e2, 1e4] x 200: carrier peaks for the low band, the
    high-band fit times, and the additivity times."""
    low = xp.carrier_peak_times(100.0, 10_000.0, 200, PropagatorMode.PAPER)
    t_high_lo = max(5.0, N / 2.0 + 1.5)
    high = np.arange(math.ceil((t_high_lo - 2.0) / 4.0) * 4.0 + 2.0, 60.0, 4.0)
    return low, high, np.array([6.0, 14.0, 26.0, 46.0])


@pytest.mark.parametrize("N", [3, 4, 5])
def test_zero_mass_trace_matches_the_per_time_scalar_route(N):
    # with P1 = 0 the wave term vanishes and the vector L^2 trace is the
    # error; the scalar route integrates the full error integrand per time.
    # At t = 1e8 only the low band has a scalar route: on [1, 4] the rough
    # pass of the unbounded regions needs ~1e8 phase panels
    pair = make_profile("zero_mean_pair", N=N)
    low, high, shared = _bench_profile_grids(N)
    cases = [("low", np.append(low, 1e8)), ("low", shared), ("high", high),
             ("high", shared), ("all", shared), ("all", high)]
    for region, times in cases:
        lo, hi = {"low": (0.0, 1.0), "high": (1.0, None), "all": (0.0, None)}[region]
        got = xp.profile_error_trace(pair, N, times, region).values
        want = np.array([xp._profile_error_value(pair, N, float(t), lo, hi) for t in times])
        assert np.all(want > 0), region
        assert np.all(np.abs(got - want) <= 1e-13 * want), region


def _uncut_low_band(profile, N, t):
    """The low band over all of [0, 1], phase-seeded throughout, to 1e-12."""
    P1, s4 = profile.P1, math.sin(PI * t / 4.0)

    def f(r):
        L = np.log1p(r * r)
        diff = s4 * profile.hat_z(r * r) - P1 * np.sin(t * np.sqrt(L))
        return (16.0 / PI_SQ) * np.exp(-L * t) * diff * diff * r ** (N - 1)

    seeds = np.concatenate([xp.quadrature.phase_radii(t, 0.0, 1.0),
                            np.geomspace(1e-6, 1.0, 8)])
    res = integrate(f, 0.0, 1.0, tol=1e-300, rel_tol=1e-12, breakpoints=seeds)
    return xp._trace_norm(N) * res.value


_CUT_TIMES = [100.0, 316.0, 1000.0, 3162.0, 10_000.0, 6.0, 14.0, 26.0, 46.0]


@pytest.mark.parametrize("N", [3, 4, 5])
def test_mass_low_band_cut_matches_the_uncut_band(N):
    # the phase seeds end where e^{-Lt} has fallen below e^{-40} rel_tol
    for a in (0.5, 1.0, 2.0):
        g = make_profile("gaussian", N=N, a=a)
        for t in _CUT_TIMES:
            ref = _uncut_low_band(g, N, t)
            got = xp._profile_error_value(g, N, t, 0.0, 1.0)
            assert abs(got - ref) <= 1e-10 * ref, (a, t)


def _spy_integrate(monkeypatch):
    calls = []
    real = xp.quadrature.integrate

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(xp.quadrature, "integrate", spy)
    return calls


@pytest.mark.parametrize("count", [40, 200])  # the CLI default and bench grids
def test_mass_low_band_takes_one_integral_per_sample(count, monkeypatch):
    # the real axis takes the band in one pass, with no cut to grow
    calls = _spy_integrate(monkeypatch)
    times = xp.TimeGrid(100.0, 10_000.0, count).times()
    for N in (3, 5):
        for a in (0.5, 1.0, 2.0):
            g = make_profile("gaussian", N=N, a=a)
            del calls[:]
            for t in times:
                xp._profile_error_value(g, N, float(t), 0.0, 1.0)
            assert len(calls) == count


@pytest.mark.parametrize("N", [3, 5])
def test_mass_low_band_integrates_the_whole_band_up_to_n_half_plus_one(N, monkeypatch):
    # at t <= N/2 + 1, where no tail bound holds, as at every other t, the
    # band is one integral over all of [0, 1]
    g = make_profile("gaussian", N=N, a=1.0)
    refs = {t: _uncut_low_band(g, N, t) for t in (0.5, N / 2.0, N / 2.0 + 1.0)}
    calls = _spy_integrate(monkeypatch)
    for t, ref in refs.items():
        del calls[:]
        got = xp._profile_error_value(g, N, t, 0.0, 1.0)
        assert abs(got - ref) <= 1e-10 * got
        assert calls == [(0.0, 1.0)]


_CONTOUR_GRIDS = (xp.TimeGrid(100.0, 10_000.0, 40).times(),
                  xp.TimeGrid(100.0, 10_000.0, 200).times())


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_mass_low_band_contour_matches_a_tight_real_axis(N):
    # every sample of these grids is certified for the contour; the real axis
    # is held to 1e-13, and to 1e-12 at t = 1e8, where 1e-13 needs more than
    # the 60,000-panel budget
    for a in (0.5, 1.0, 1.767, 2.0):
        g = make_profile("gaussian", N=N, a=a)
        for times in _CONTOUR_GRIDS + (np.array([1e6, 1e7, 1e8]),):
            assert xp._low_band_contour_mask(g, N, times, 1e-9).all()
            got = xp.profile_error_trace(g, N, times, "low").values
            want = np.array([xp._profile_error_value(g, N, float(t), 0.0, 1.0,
                                                     1e-13 if t < 1e8 else 1e-12)
                             for t in times])
            assert np.all(np.abs(got - want) <= 1e-13 * want), (a, times.size)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_mass_low_band_contour_samples_equal_their_one_time_calls(N):
    g = make_profile("gaussian", N=N, a=1.767)
    for times in _CONTOUR_GRIDS:
        trace = xp.profile_error_trace(g, N, times, "low").values
        one = [xp.profile_error_trace(g, N, times[j:j + 1], "low").values[0]
               for j in range(times.size)]
        assert np.array_equal(trace, one)


def _third_leg(profile, N, t):
    """|T_1|, the leg of C_1 = int_0^Y e^{-ty^2 + ity} HG dy that the contour
    drops: y = Y + i sigma, sigma in [0, 1/2]."""
    Y = xp._Y_LOW

    def f(sigma):
        y = Y + 1j * sigma
        F = np.exp(xp.quadrature._log_g(N, y)) * profile.hat_z(np.expm1(y * y))
        v = 1j * F * np.exp(-t * y * y + 1j * t * y)
        return np.stack([v.real, v.imag], axis=1)

    res = integrate(f, 0.0, 0.5, tol=1e-300, rel_tol=1e-10,
                    breakpoints=np.linspace(0.0, 0.5, 65))
    return math.hypot(*res.value)


def _comparison_beyond_one(N, t):
    """The comparison integral over r >= 1 over omega_N, int_Y^inf e^{-ty^2}
    sin^2(ty) G dy, on the real axis to 1e-10, cut at e^{-(t-N/2) y^2} = 1e-40."""
    beta = 0.5 * (N - 2)
    y_hi = math.sqrt(40.0 * math.log(10.0) / (t - N / 2.0))

    def f(y):
        z = y * y
        return y * np.exp((1.0 - t) * z + beta * np.log(np.expm1(z))) * np.sin(t * y) ** 2

    seeds = xp.quadrature._phase_points(t, xp._Y_LOW, y_hi)
    return integrate(f, xp._Y_LOW, y_hi, tol=1e-300, rel_tol=1e-10,
                     breakpoints=seeds).value


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_third_leg_bound_holds(N):
    # (16/pi^2) (P1^2 K + 2 |s4 P1| |T_1|), K the comparison integral over
    # r >= 1, against its closed-form bound, from just above N/2 + 1 past the
    # times where the contour starts
    for a in (0.5, 1.0, 2.0):
        g = make_profile("gaussian", N=N, a=a)
        for t in np.linspace(N / 2.0 + 1.01, 60.0, 23):
            s4 = math.sin(PI * t / 4.0)
            dropped = (16.0 / PI_SQ) * (g.P1 ** 2 * _comparison_beyond_one(N, t)
                                        + 2.0 * abs(s4 * g.P1) * _third_leg(g, N, t))
            assert dropped <= math.exp(xp._third_legs_log_bound(g, N, t, s4)), (a, t)


def test_contour_check_refuses_a_perturbed_value(monkeypatch):
    # the real axis recomputes the first, middle and last contour samples; a
    # contour off by 1e-9 relative is refused, naming N and t
    real = xp._low_band_contour
    monkeypatch.setattr(xp, "_low_band_contour",
                        lambda *args, **kwargs: real(*args, **kwargs) * (1.0 + 1e-9))
    g = make_profile("gaussian", N=3, a=1.0)
    with pytest.raises(xp.quadrature.NonConvergence, match=r"N=3, t=100:"):
        xp.profile_error_trace(g, 3, _CONTOUR_GRIDS[0], "low")


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_mass_low_band_trace_is_two_contour_integrals(N, monkeypatch):
    # a 200-time trace makes two vector integrals (the contour's flat leg, and
    # its rise for odd N or the comparison integral's leg 1 for even N) plus
    # the real-axis check of three samples: a return to per-time work fails here
    calls = _spy_integrate(monkeypatch)
    checked = []
    real = xp._profile_error_value

    def spy(*args, **kwargs):
        before = len(calls)
        value = real(*args, **kwargs)
        checked.append(len(calls) - before)
        return value

    monkeypatch.setattr(xp, "_profile_error_value", spy)
    g = make_profile("gaussian", N=N, a=1.0)
    xp.profile_error_trace(g, N, _CONTOUR_GRIDS[1], "low")
    assert len(checked) <= 3
    assert len(calls) - sum(checked) <= 2


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_mass_low_band_takes_its_mass_term_from_the_comparison_integral(N, monkeypatch):
    # the P1^2 term is one optimality_integral call for the whole trace, and
    # the contour itself evaluates nothing on Im y = 1
    calls, heights = [], []
    real_opt, real_log_g = xp.quadrature.optimality_integral, xp.quadrature._log_g

    def opt(n, times):
        calls.append(np.array(times))
        return real_opt(n, times)

    def log_g(n, y):
        heights.append(y.imag)
        return real_log_g(n, y)

    monkeypatch.setattr(xp.quadrature, "optimality_integral", opt)
    monkeypatch.setattr(xp.quadrature, "_log_g", log_g)
    g = make_profile("gaussian", N=N, a=1.0)
    times = _CONTOUR_GRIDS[1]
    xp._low_band_contour(g, N, times)
    assert len(calls) == 1 and np.array_equal(calls[0], times)
    assert heights and not any(np.any(h == 1.0) for h in heights)


def test_zero_mass_profile_run_is_five_integrals(monkeypatch):
    # low and high traces plus the three additivity regions, one vector
    # integral each: a return to one integral per time fails here
    pair = make_profile("zero_mean_pair", N=3)
    calls = _spy_integrate(monkeypatch)
    rep = xp.run_profile(pair, 3, xp.TimeGrid(100.0, 10_000.0, 40))
    assert rep.all_passed
    assert len(calls) <= 5


# ---------------------------------------------------------------------------
# reports


def test_report_writing(tmp_path, zero, gaussian):
    rep = xp.run_decay(zero, gaussian, 3, PropagatorMode.ODE,
                       xp.TimeGrid(100.0, 1000.0, 12))
    base = xp.write_report(rep, tmp_path)
    data = json.loads((base / "report.json").read_text())
    assert data["name"] == "decay"
    assert data["all_passed"] is True
    assert {t["csv"] for t in data["traces"]} == {"energy.csv", "l2-squared.csv"}
    csv_lines = (base / "energy.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "t,value"
    t0, v0 = csv_lines[1].split(",")
    assert float(t0) == rep.traces[0].times[0]
    assert float(v0) == rep.traces[0].values[0]


def test_run_decay_zero_mass(zero, pair):
    rep = xp.run_decay(zero, pair, 3, PropagatorMode.ODE,
                       xp.TimeGrid(100.0, 2000.0, 12))
    assert rep.all_passed
    l2_fit = [f for f in rep.fits if f.trace_label == "l2-squared"][0]
    assert l2_fit.rate <= -(3 + 2) / 2.0 + 0.1
    # dissipativity holds for the zero-mass datum too
    energy = [t for t in rep.traces if t.label == "energy"][0]
    assert np.all(np.diff(energy.values) <= 1e-12 * energy.values[0])


def test_run_simulate_quarter_frequency_mode(zero, gaussian):
    # the quarter-frequency formula does not balance the stated energy, so the
    # identity checks fail and the defect check asserts the (3 pi^2/16) u law
    rep = xp.run_simulate(zero, gaussian, 3, PropagatorMode.PAPER,
                          xp.TimeGrid(1.0, 20.0, 6), 0)
    assert rep.parameters["mode"] == "paper"
    by_desc = {c.description: c for c in rep.checks}
    defect = next(c for d, c in by_desc.items() if "quarter-frequency defect" in d)
    assert defect.passed
    identity = [c for d, c in by_desc.items() if "energy-identity" in d]
    assert identity and not any(c.passed for c in identity)
    oracle = next(c for d, c in by_desc.items() if "oracle" in d)
    assert oracle.passed  # oracle is always checked against the true equation


def test_run_all_names_and_serialization(tmp_path, zero, gaussian):
    reps = xp.run_all(zero, gaussian, 3, PropagatorMode.ODE,
                      xp.TimeGrid(100.0, 1000.0, 12), 0)
    assert [r.name for r in reps] == ["simulate", "decay", "profile", "optimality",
                                      "lemmas"]
    for rep in reps:
        d = xp.report_as_dict(rep)
        json.dumps(d)  # everything must be serializable
        assert d["name"] == rep.name


def test_optimality_majorant_needs_no_quadrature(monkeypatch):
    # the sin^2 <= 1 majorant is omega_N B(N/2, t - N/2) / 2 in closed form
    def refuse(*args):
        raise AssertionError("run_optimality integrated the majorant")

    monkeypatch.setattr(xp.quadrature, "integral_Ip", refuse)
    monkeypatch.setattr(xp.quadrature, "integral_Jp", refuse)
    checks = xp.run_optimality(3, xp.TimeGrid(100.0, 1000.0, 8)).checks
    majorant = [c for c in checks if c.description.startswith("sin^2 <= 1 majorant")]
    assert len(majorant) == 1 and majorant[0].passed


@pytest.mark.parametrize("N", [20, 50, 100])
def test_gaussian_moment_checks_are_relative_at_large_n(N):
    # A_N = Gamma(N/2)/2 is 1.8e5 at N = 20 and 3e62 at N = 100, where rounding
    # alone misses an absolute 1e-10 or 5e-3; both bounds turn relative at
    # f_osc's rel_tol 1e-13 and keep their descriptions
    rep = xp.run_optimality(N, xp.TimeGrid(100.0, 10_000.0, 40))
    passed = {c.description: c.passed for c in rep.checks}
    assert passed["A_N by quadrature matches Gamma(N/2)/2 to 1e-10"]
    assert passed["|F_N(t_hi) - A_N/2| < 5e-3"]


# the two pre-asymptotic windows: from N = 20 the normalized trace is still
# short of its t^{-N/2} regime on some of these grids
_WINDOWS = ("two-sided-window: normalized max/min <= 3", "comparison-integral exponent")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t_hi", [1e4, 1e8, 1e12])
@pytest.mark.parametrize("N", [3, 4, 5, 6, 10, 20, 50])
def test_optimality_certifies_to_1e12(N, t_hi):
    # F_N(t_hi) certifies on the weighted panels, where K15 panels at every
    # half period of cos^2 would exceed the panel budget from t = 2.5e8 at
    # N = 3 and before 1e8 at N = 10, 20 and 50
    rep = xp.run_optimality(N, xp.TimeGrid(100.0, t_hi, 40))
    failed = [c.description for c in rep.checks if not c.passed]
    assert all(d.startswith(_WINDOWS) for d in failed), failed
    assert not failed or N >= 20


# ---------------------------------------------------------------------------
# working set: numpy reports its buffers to tracemalloc


def _traced_peak_mib(fn):
    """Peak traced memory of a second call of fn, in MiB (the first fills the
    caches that live for the process)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


_GRID_200 = xp.TimeGrid(100.0, 10_000.0, 200)


# the sweep walks its 10 x 200 x 100 grid one state at a time, the identity's
# dissipation is one radial integral, and the trace densities fill their
# (time, node) array in blocks; the materialised routes peaked at 5.6, 3.4,
# 2.3 and 2.3 MiB
@pytest.mark.parametrize("run, limit", [
    pytest.param(lambda z, g: xp.inequality_sweep(0), 2.5, id="inequality_sweep"),
    pytest.param(lambda z, g: xp.energy_identity_residual(z, g, 3, 10.0), 0.5,
                 id="energy_identity_residual"),
    pytest.param(lambda z, g: xp.energy_trace(z, g, 3, _GRID_200), 1.5, id="energy_trace"),
    pytest.param(lambda z, g: xp.run_profile(g, 3, _GRID_200), 1.5, id="run_profile"),
])
def test_working_set_in_mib(zero, gaussian, run, limit):
    assert _traced_peak_mib(lambda: run(zero, gaussian)) <= limit
