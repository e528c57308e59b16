import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp_lab import quadrature as q


def test_polynomial_exact():
    res = q.integrate(lambda r: r * r, 0.0, 1.0, tol=1e-12)
    assert abs(res.value - 1.0 / 3.0) < 1e-12
    assert res.err_estimate >= 0
    assert res.evals > 0


def test_rational_closed_form():
    # antiderivative -(1+r^2)^{1-t}/(2(t-1)) at t = 2
    res = q.integrate(lambda r: r / (1.0 + r * r) ** 2, 0.0, 1.0, tol=1e-13)
    assert abs(res.value - 0.25) < 1e-12


def test_gaussian_moment():
    res = q.integrate(lambda r: np.exp(-r * r) * r * r, 0.0, 6.0, tol=1e-12)
    assert abs(res.value - math.sqrt(math.pi) / 4.0) < 1e-10


def test_scalar_only_integrand_is_wrapped():
    # integrands must be vectorised: a scalar-only one is not wrapped in a
    # Python loop but fails on the first batch of abscissae
    def f(r):
        if isinstance(r, np.ndarray):
            raise TypeError("scalar only")
        return r * r

    with pytest.raises(TypeError):
        q.integrate(f, 0.0, 1.0, tol=1e-10)


def test_divergent_integrand_fails_fast():
    # bisection towards the pole overflows the error estimate; that ends the
    # run at once instead of after the whole panel budget
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        with pytest.raises(q.NonConvergence, match=r"non-finite integrand on \[0.0, 1.0\]"):
            q.integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_nan_integrand_fails_fast():
    with np.errstate(invalid="ignore"):
        with pytest.raises(q.NonConvergence, match="non-finite integrand"):
            q.integrate(lambda x: np.sqrt(x - 0.5), 0.0, 1.0, max_panels=3)


def test_empty_and_invalid_intervals():
    assert q.integrate(lambda r: r, 2.0, 2.0).value == 0.0
    with pytest.raises(ValueError):
        q.integrate(lambda r: r, 1.0, 0.0)
    with pytest.raises(ValueError):
        q.integrate(lambda r: r, 0.0, 1.0, tol=0.0)


def test_panel_budget_exhaustion():
    with pytest.raises(q.NonConvergence):
        q.integrate(lambda r: np.sin(50.0 * r), 0.0, 10.0, tol=1e-15, max_panels=4)


def test_breakpoints_respected():
    # heavily oscillatory: seeded quarter-period edges converge quickly
    t = 2000.0
    seeds = q.quarter_period_radii(t, 0.0, 0.5)
    res = q.integrate(
        lambda r: np.sin(t * np.sqrt(np.log1p(r * r))) ** 2 * np.exp(-t * np.log1p(r * r)),
        0.0, 0.5, tol=1e-300, rel_tol=1e-10, breakpoints=seeds,
    )
    assert res.value > 0


def test_quarter_period_radii_phase_spacing():
    t = 321.0
    radii = q.quarter_period_radii(t, 0.0, 1.0)
    phases = t * np.sqrt(np.log1p(radii * radii))
    k = np.round(phases / (math.pi / 4.0))
    assert np.max(np.abs(phases - k * math.pi / 4.0)) < 1e-8


# ---------------------------------------------------------------------------
# vector-valued integrands: (n, m) values, one panel tree, a target per component


def test_vector_components_equal_scalar_calls_without_bisection():
    ks = np.array([0.5, 1.0, 2.0])
    seeds = np.geomspace(1e-3, 3.0, 24)
    kw = dict(tol=1e-300, rel_tol=1e-6, breakpoints=seeds)
    # a C-ordered (n, m) array: the nodes of one component are not contiguous
    res = q.integrate(lambda x: np.stack([np.exp(-k * x) * x * x for k in ks], axis=1),
                      0.0, 3.0, **kw)
    assert res.evals == 22 * 24  # the seed pass met every target
    assert res.value.shape == res.err_estimate.shape == (3,)
    for j, k in enumerate(ks):
        one = q.integrate(lambda x: np.exp(-k * x) * x * x, 0.0, 3.0, **kw)
        assert res.value[j] == one.value and res.err_estimate[j] == one.err_estimate
        assert isinstance(one.value, float) and isinstance(one.err_estimate, float)


def test_vector_bisection_driven_by_one_component_meets_every_target():
    tol, rel_tol = 1e-14, 1e-12
    res = q.integrate(lambda x: np.stack([x * x, np.sqrt(x), np.cos(x)], axis=1),
                      0.0, 1.0, tol=tol, rel_tol=rel_tol)
    assert res.evals > 22  # sqrt's endpoint forces bisection
    exact = np.array([1.0 / 3.0, 2.0 / 3.0, math.sin(1.0)])
    target = np.maximum(tol, rel_tol * np.abs(res.value))
    assert np.all(res.err_estimate <= target)
    assert np.all(np.abs(res.value - exact) <= 1e-11 * exact)


def test_vector_rule_matches_scipy_quad_vec():
    from scipy.integrate import quad_vec

    w = 40.0

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.exp(-x), np.sin(w * x) ** 2 * np.exp(-x),
                         x * x / (1.0 + x * x)], axis=-1)

    quarter = np.arange(1, int(4.0 * w * 5.0 / math.pi) + 1) * math.pi / (4.0 * w)
    quarter = quarter[quarter < 5.0]
    res = q.integrate(f, 0.0, 5.0, tol=1e-300, rel_tol=1e-13, breakpoints=quarter)
    ref, _ = quad_vec(f, 0.0, 5.0, epsabs=1e-300, epsrel=1e-13, points=quarter,
                      limit=10_000)
    assert np.all(np.abs(res.value - ref) <= 1e-10 * np.abs(ref))


def test_vector_integrand_of_wrong_shape_is_refused():
    with pytest.raises(ValueError, match=r"shape \(16,\) at 15 abscissae"):
        q.integrate(lambda x: np.zeros(len(x) + 1), 0.0, 1.0)
    with pytest.raises(ValueError, match=r"shape \(15, 2, 2\)"):
        q.integrate(lambda x: np.zeros((len(x), 2, 2)), 0.0, 1.0)


def test_vector_non_finite_component_fails_fast():
    with np.errstate(invalid="ignore"):
        with pytest.raises(q.NonConvergence, match=r"non-finite integrand on \[0.0, 1.0\]"):
            q.integrate(lambda x: np.stack([x, np.sqrt(x - 0.5)], axis=1), 0.0, 1.0,
                        max_panels=3)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        with pytest.raises(q.NonConvergence, match=r"non-finite integrand on \[0.0, 1.0\]"):
            q.integrate(lambda x: np.stack([x, 1.0 / x], axis=1), 0.0, 1.0)


def test_surface_area_known_dimensions():
    assert abs(q.surface_area(3) - 4.0 * math.pi) < 1e-12
    assert abs(q.surface_area(4) - 2.0 * math.pi ** 2) < 1e-11
    assert abs(q.surface_area(5) - 8.0 * math.pi ** 2 / 3.0) < 1e-11


# ---------------------------------------------------------------------------
# I_p and J_p


def _exact_I1(t):
    return (1.0 - 2.0 ** (1.0 - t)) / (2.0 * (t - 1.0))


def _exact_J1(t):
    return 2.0 ** (-t) / (t - 1.0)


@pytest.mark.parametrize("t", [2.0, 5.0, 11.0, 101.0])
def test_I1_closed_form(t):
    ex = _exact_I1(t)
    assert abs(q.integral_Ip(1.0, t) - ex) <= 1e-12 * ex


@pytest.mark.parametrize("t", [2.0, 5.0, 11.0, 101.0])
def test_J1_closed_form(t):
    ex = _exact_J1(t)
    assert abs(q.integral_Jp(1.0, t) - ex) <= 1e-12 * ex


def test_Ip_anchor_values():
    assert abs(q.integral_Ip(1.0, 2.0) - 0.25) < 1e-13
    assert abs(q.integral_Ip(1.0, 11.0) - (1.0 - 2.0 ** -10) / 20.0) < 1e-14


def test_Jp_anchor_values():
    assert abs(q.integral_Jp(1.0, 2.0) - 0.25) < 1e-13
    assert abs(q.integral_Jp(1.0, 11.0) - 2.0 ** -10 / 20.0) < 1e-16


def test_Ip_negative_exponent_against_reference():
    # independent oracle: scipy's QUADPACK on the raw integrand
    from scipy.integrate import quad

    for p, t in ((-0.5, 3.0), (-0.9, 2.0)):
        ref, err = quad(lambda r: (1 + r * r) ** (-t) * r ** p, 0.0, 1.0,
                        epsabs=1e-13, epsrel=1e-12)
        assert abs(q.integral_Ip(p, t) - ref) < 1e-10
    with pytest.raises(ValueError):
        q.integral_Ip(-1.0, 2.0)


def test_I0_normalized_window():
    ts = np.geomspace(50.0, 5000.0, 10)
    w = np.array([q.integral_Ip(0.0, float(t)) * math.sqrt(t) for t in ts])
    assert w.min() > 0
    assert w.max() / w.min() <= 3.0
    # the normalized values settle near sqrt(pi)/2
    assert abs(w[-1] - math.sqrt(math.pi) / 2.0) < 0.01


def test_J2_normalized_window():
    ts = np.linspace(50.0, 200.0, 6)
    w = np.array([q.integral_Jp(2.0, float(t)) * (t - 1.0) * 2.0 ** t for t in ts])
    assert w.min() > 0
    assert w.max() / w.min() <= 3.0


def test_Ip_monotone_decreasing_in_t():
    vals = [q.integral_Ip(2.0, t) for t in (2.0, 3.0, 5.0, 9.0, 17.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_additivity_split_vs_single_pass():
    p, t = 2.0, 5.0
    split = q.integral_Ip(p, t) + q.integral_Jp(p, t)

    def f(r):
        return np.exp(-t * np.log1p(r * r)) * np.power(r, p)

    single = q.integrate(f, 0.0, 400.0, tol=1e-300, rel_tol=1e-12,
                         breakpoints=np.geomspace(1e-3, 400.0, 64)).value
    assert abs(split - single) <= 1e-10 * single


def test_Jp_tail_not_certifiable():
    with pytest.raises(q.TailNotBounded):
        q.integral_Jp(1.0, 0.9)


@pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.0, 4.0])
def test_Ip_plus_Jp_equals_half_beta(p):
    # int_0^inf (1+r^2)^{-t} r^p dr = B((p+1)/2, t-(p+1)/2)/2, from t just
    # above the threshold (p+1)/2 (tail ~ r^-2) to t = 1e4; mpmath gives the
    # Beta function without lgamma's cancellation at large t
    import mpmath

    a = (p + 1.0) / 2.0
    for t in (a + 0.5, a + 1.0, 5.0, 30.0, 100.0, 1e3, 1e4):
        with mpmath.workdps(30):
            ex = float(mpmath.beta(a, t - a) / 2)
        assert abs(q.integral_Ip(p, t) + q.integral_Jp(p, t) - ex) <= 1e-12 * ex


def test_Jp_slow_tail_anchors():
    # decay t - (p+1)/2 = 1/2: the tail falls only like r^-2
    for p, t, exact in ((2.0, 2.0, math.pi / 8.0 + 0.25), (1.0, 1.5, 2.0 ** -0.5)):
        assert abs(q.integral_Jp(p, t) - exact) <= 1e-13 * exact


def test_Jp_refuses_a_cut_beyond_the_float_range():
    # decay 0.02: the first cut needs log(1+R^2) ~ 3500
    with pytest.raises(q.TailNotBounded, match=r"J_1 at t=1\.02: .* leaves the float range"):
        q.integral_Jp(1.0, 1.02)


@given(st.floats(min_value=-0.5, max_value=4.0), st.floats(min_value=2.0, max_value=50.0))
@settings(max_examples=25, deadline=None)
def test_Ip_bounds_elementary(p, t):
    # 0 < I_p(t) <= 1/(p+1), the t = 0 value
    val = q.integral_Ip(p, t)
    assert 0.0 < val <= 1.0 / (p + 1.0) + 1e-12


# ---------------------------------------------------------------------------
# the sin^2 comparison integral and the Gaussian moments


@pytest.mark.parametrize("t, N", [
    *itertools.product([100.0, 1000.0, 10_000.0, 1e5, 1e6], [3, 4, 5]),
    # just above the t > N/2 + 1 threshold, where the tail decays slowest
    (2.6, 3), (3.6, 5),
])
def test_optimality_matches_substitution_oracle(N, t):
    a = q.optimality_integral(N, t)
    b = q.substitution_oracle(N, t)
    assert abs(a - b) <= 1e-8 * abs(a)


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("t", [100.0, 1e4, 1e6])
def test_optimality_matches_beta_closed_form(N, t):
    # sin^2 = (1 - cos)/2: the mean half is omega_N B(N/2, t - N/2) / 4, and
    # for odd N the cosine half is exponentially small; lgamma's own rounding
    # (about 1e-9 relative at t = 1e6) sets the tolerance
    log_beta = math.lgamma(N / 2.0) + math.lgamma(t - N / 2.0) - math.lgamma(t)
    beta_half = q.surface_area(N) * math.exp(log_beta) / 4.0
    assert abs(q.optimality_integral(N, t) - beta_half) <= 1e-8 * beta_half


@pytest.mark.parametrize("t", [3455.11, 3700.0])
def test_large_n_value_near_the_float_floor(t):
    # at N = 200 the value omega_N B(N/2, t - N/2) / 4 leaves the normal float
    # range near t = 3772; just below, both routes still compute it, although
    # their first cut holds only a sliver of the mass
    N = 200
    log_value = (math.log(q.surface_area(N)) + math.lgamma(N / 2.0)
                 + math.lgamma(t - N / 2.0) - math.lgamma(t) - math.log(4.0))
    value = math.exp(log_value)
    assert value >= sys.float_info.min
    for route in (q.optimality_integral, q.substitution_oracle):
        assert abs(route(N, t) - value) <= 1e-8 * value


def test_optimality_majorant():
    for N, t in ((3, 100.0), (4, 200.0)):
        val = q.optimality_integral(N, t)
        cap = q.surface_area(N) * (q.integral_Ip(N - 1, t) + q.integral_Jp(N - 1, t))
        assert 0.0 < val <= cap


def test_optimality_preconditions():
    with pytest.raises(ValueError):
        q.optimality_integral(2, 100.0)
    with pytest.raises(ValueError):
        q.optimality_integral(3, 2.0)
    # at N = 200 the value is subnormal at t = 4000 and rounds to 0.0 at
    # t = 1e4: refused, not returned
    for route in (q.optimality_integral, q.substitution_oracle):
        for t, shown in ((4000.0, "4000"), (1e4, "10000")):
            with pytest.raises(ValueError, match=rf"at N=200, t={shown} underflows a float"):
                route(200, t)


def test_a_const_gamma_values():
    assert abs(q.a_const(3) - math.sqrt(math.pi) / 4.0) < 1e-10
    assert abs(q.a_const(4) - 0.5) < 1e-10
    assert abs(q.a_const(5) - 3.0 * math.sqrt(math.pi) / 8.0) < 1e-10  # Gamma(5/2)/2


def test_f_osc_limits():
    a3 = q.a_const(3)
    # at t = 0 the cosine factor is 1, so F_N(0) = A_N
    assert abs(q.f_osc(3, 0.0) - a3) < 1e-10
    # the oscillatory half washes out for large t
    assert abs(q.f_osc(3, 1e4) - 0.5 * a3) < 5e-3
