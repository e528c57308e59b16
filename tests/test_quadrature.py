import math

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


@given(st.floats(min_value=-0.5, max_value=4.0), st.floats(min_value=2.0, max_value=50.0))
@settings(max_examples=25, deadline=None)
def test_Ip_bounds_elementary(p, t):
    # 0 < I_p(t) <= 1/(p+1), the t = 0 value
    val = q.integral_Ip(p, t)
    assert 0.0 < val <= 1.0 / (p + 1.0) + 1e-12


# ---------------------------------------------------------------------------
# the sin^2 comparison integral and the Gaussian moments


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("t", [100.0, 1000.0, 10_000.0])
def test_optimality_matches_substitution_oracle(N, t):
    a = q.optimality_integral(N, t)
    b = q.substitution_oracle(N, t)
    assert abs(a - b) <= 1e-8 * abs(a)


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
