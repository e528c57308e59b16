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
    with pytest.raises(q.NonConvergence, match=r"on \[0.0, 10.0\] after 4 panels$"):
        q.integrate(lambda r: np.sin(50.0 * r), 0.0, 10.0, tol=1e-15, max_panels=4)


def test_breakpoints_respected():
    # heavily oscillatory: seeded half-period edges converge quickly
    t = 2000.0
    seeds = q.phase_radii(t, 0.0, 0.5)
    res = q.integrate(
        lambda r: np.sin(t * np.sqrt(np.log1p(r * r))) ** 2 * np.exp(-t * np.log1p(r * r)),
        0.0, 0.5, tol=1e-300, rel_tol=1e-10, breakpoints=seeds,
    )
    assert res.value > 0


def test_phase_radii_phase_spacing():
    # every multiple of pi/2 in the phase range, and nothing in between: steps
    # of exactly pi/2, half a period of sin^2
    t = 321.0
    radii = q.phase_radii(t, 0.0, 1.0)
    phases = t * np.sqrt(np.log1p(radii * radii))
    k = np.round(phases / (math.pi / 2.0))
    assert np.max(np.abs(phases - k * math.pi / 2.0)) < 1e-8
    assert np.array_equal(k, np.arange(1, math.floor(t * math.sqrt(math.log(2.0))
                                                     / (math.pi / 2.0)) + 1))


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("t", [1e2, 3e4])
def test_comparison_routes_meet_their_target_on_the_phase_seeds(N, t, monkeypatch):
    # panels too long for the envelope show up as a halved m or a second cut:
    # the substitution oracle must certify its first panel set, m half
    # periods each at the largest m with m pi/2 <= sqrt(t)/4, and make no
    # integrate call.  The contour route makes one integral here, leg 1 for
    # even N on geometric seeds, and it must finish in its seed pass; for odd
    # N the mean half is the whole value and leg 2 is skipped by its bound
    panels = _sin2_spy(monkeypatch)
    calls = []
    integrate = q.integrate

    def spy(f, a, b, *args, breakpoints=None, **kw):
        res = integrate(f, a, b, *args, breakpoints=breakpoints, **kw)
        inner = np.asarray(breakpoints, dtype=float).ravel()
        calls.append((res.evals, len(np.unique(inner[(inner > a) & (inner < b)])) + 1))
        return res

    monkeypatch.setattr(q, "integrate", spy)
    q.substitution_oracle(N, t)
    assert [m for m, _ in panels] == [{1e2: 1, 3e4: 16}[t]]
    assert not calls
    q.optimality_integral(N, t)
    assert len(calls) == (N % 2 == 0)
    assert all(evals == 15 * seeds for evals, seeds in calls)


def test_non_convergence_names_the_interval():
    with pytest.raises(q.NonConvergence,
                       match=r"^10 seed panels on \[0.0, 1.0\] exceed budget 5$"):
        q.integrate(lambda r: r, 0.0, 1.0, breakpoints=np.linspace(0.0, 1.0, 11),
                    max_panels=5)
    with pytest.raises(q.NonConvergence,
                       match=r"^component 1: .* on \[0.0, 10.0\] after 4 panels$"):
        q.integrate(lambda r: np.stack([r, np.sin(50.0 * r)], axis=1), 0.0, 10.0,
                    tol=1e-15, max_panels=4)
    # one ulp wide: the midpoint rounds onto an edge, so no bisection can help
    b = float(np.nextafter(1.0, 2.0))

    def step(r):
        return (r < 1.0) * 1.0

    with pytest.raises(q.NonConvergence, match=rf"^panel \[1.0, {b}\] of \[1.0, {b}\] "
                                               r"at machine resolution with error"):
        q.integrate(step, 1.0, b, tol=1e-300)
    with pytest.raises(q.NonConvergence, match=rf"^panel \[1.0, {b}\] of \[1.0, {b}\] "
                                               r"at machine resolution with scaled error"):
        q.integrate(lambda r: np.stack([r, step(r)], axis=1), 1.0, b, tol=1e-300)


# ---------------------------------------------------------------------------
# the panel rule: G7 embedded in K15


def _monomial_errors(x, w, degrees):
    return [abs(float((w * x ** d).sum()) - (0.0 if d % 2 else 2.0 / (d + 1)))
            for d in degrees]


def test_k15_exact_to_degree_23_not_24():
    assert max(_monomial_errors(q._K15_X, q._K15_W, range(24))) <= 1e-15
    assert _monomial_errors(q._K15_X, q._K15_W, [24])[0] > 1e-10


def test_g7_on_the_odd_kronrod_nodes_is_exact_to_degree_13():
    x7 = q._K15_X[1::2]
    assert max(_monomial_errors(x7, q._G7_W, range(14))) <= 1e-15
    assert _monomial_errors(x7, q._G7_W, [14])[0] > 1e-5
    gx, gw = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(x7 - gx)) <= 2e-16 and np.max(np.abs(q._G7_W - gw)) <= 3e-16
    # the panel's error estimate is |K15 - G7|: zero up to degree 13, not at 14
    one = np.array([-1.0]), np.array([1.0])
    assert q._panel_values(lambda x: x ** 13 + x ** 12, *one)[1][0] <= 1e-15
    assert q._panel_values(lambda x: x ** 14, *one)[1][0] > 1e-5


def test_seed_pass_costs_15_evals_per_panel():
    res = q.integrate(lambda x: x ** 5, 0.0, 2.0, tol=1e-12,
                      breakpoints=[0.5, 1.0, 1.5])
    assert res.evals == 15 * 4
    assert abs(res.value - 64.0 / 6.0) <= 1e-13


def test_breakpoints_merge_like_a_sorted_set():
    def f(r):
        return np.sin(3.0 * r) ** 2 * np.exp(-r)

    a, b = 0.0, 4.0
    messy = [3.5, 0.25, 2.0, 0.25, -1.0, 4.0, 0.0, 9.0, 1.0, 2.0, 3.5, 0.75]
    edges = sorted(set(float(x) for x in messy if a < x < b))
    kw = dict(tol=1e-300, rel_tol=1e-12)
    ref = q.integrate(f, a, b, breakpoints=edges, **kw)
    assert ref.evals > 15 * (len(edges) + 1)  # bisection ran
    with_nan = messy + [math.nan, 0.25, math.nan, 9.0]
    for bp in (messy, np.array(messy), np.array(messy).reshape(3, 4), with_nan,
               np.array(with_nan).reshape(4, 4)):
        res = q.integrate(f, a, b, breakpoints=bp, **kw)
        assert (res.value, res.err_estimate, res.evals) == (
            ref.value, ref.err_estimate, ref.evals)


# ---------------------------------------------------------------------------
# vector-valued integrands: (n, m) values, one panel tree, a target per component


def test_vector_components_equal_scalar_calls_without_bisection():
    ks = np.array([0.5, 1.0, 2.0])
    seeds = np.geomspace(1e-3, 3.0, 24)
    kw = dict(tol=1e-300, rel_tol=1e-6, breakpoints=seeds)
    # a C-ordered (n, m) array: the nodes of one component are not contiguous
    res = q.integrate(lambda x: np.stack([np.exp(-k * x) * x * x for k in ks], axis=1),
                      0.0, 3.0, **kw)
    assert res.evals == 15 * 24  # the seed pass met every target
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
    for t in (a + 0.5, a + 1.0, 5.0, 30.0, 100.0, 1e3):
        with mpmath.workdps(30):
            ex = float(mpmath.beta(a, t - a) / 2)
        assert abs(q.integral_Ip(p, t) + q.integral_Jp(p, t) - ex) <= 1e-12 * ex
    # at t = 1e4, J_p ~ 2^{-t} is below the normal float range: refused, not
    # returned as 0.0, and I_p alone carries the Beta value
    with mpmath.workdps(30):
        ex = float(mpmath.beta(a, 1e4 - a) / 2)
    with pytest.raises(ValueError, match=rf"J_{p:g} at t=10000 underflows a float"):
        q.integral_Jp(p, 1e4)
    assert abs(q.integral_Ip(p, 1e4) - ex) <= 1e-12 * ex


def test_Jp_slow_tail_anchors():
    # decay t - (p+1)/2 = 1/2: the tail falls only like r^-2
    for p, t, exact in ((2.0, 2.0, math.pi / 8.0 + 0.25), (1.0, 1.5, 2.0 ** -0.5)):
        assert abs(q.integral_Jp(p, t) - exact) <= 1e-13 * exact


def test_Jp_refuses_a_cut_beyond_the_float_range():
    # decay 0.02: the first cut needs log(1+R^2) ~ 1800
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
    *itertools.product([100.0, 1000.0, 10_000.0, 1e5, 1e6, 1e8], [3, 4, 5]),
    # just above the t > N/2 + 1 threshold, where the tail decays slowest
    (2.6, 3), (3.6, 5),
])
def test_optimality_matches_substitution_oracle(N, t):
    a = q.optimality_integral(N, t)
    b = q.substitution_oracle(N, t)
    assert abs(a - b) <= 1e-8 * abs(a)


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("t", [100.0, 1e4, 1e6, 1e8])
def test_optimality_matches_beta_closed_form(N, t):
    # sin^2 = (1 - cos)/2: the mean half is omega_N B(N/2, t - N/2) / 4, and
    # for odd N the cosine half is exponentially small; mpmath gives the Beta
    # function without lgamma's rounding (about 1e-9 relative at t = 1e6 and
    # 4e-7 at t = 1e8)
    import mpmath

    with mpmath.workdps(30):
        beta_half = float(q.surface_area(N) * mpmath.beta(N / 2.0, t - N / 2.0) / 4)
    assert abs(q.optimality_integral(N, t) - beta_half) <= 1e-8 * beta_half


@pytest.mark.parametrize("t", [3455.11, 3700.0])
def test_large_n_value_near_the_float_floor(t):
    # at N = 200 the value omega_N B(N/2, t - N/2) / 4 leaves the normal float
    # range near t = 3772; just below, both routes still compute it, their
    # first cut sized by that value
    N = 200
    log_value = (math.log(q.surface_area(N)) + math.lgamma(N / 2.0)
                 + math.lgamma(t - N / 2.0) - math.lgamma(t) - math.log(4.0))
    value = math.exp(log_value)
    assert value >= sys.float_info.min
    for route in (q.optimality_integral, q.substitution_oracle):
        assert abs(route(N, t) - value) <= 1e-8 * value


def _integrate_spy(monkeypatch):
    """The evals of every integrate call made through the quadrature module."""
    evals = []
    integrate = q.integrate

    def spy(*args, **kw):
        res = integrate(*args, **kw)
        evals.append(res.evals)
        return res

    monkeypatch.setattr(q, "integrate", spy)
    return evals


def _sin2_spy(monkeypatch):
    """(m, panels) of every panel pass of the substitution oracle."""
    passes = []
    panels = q._sin2_panels

    def spy(f, dy, m, n, shift=0):
        passes.append((m, n))
        return panels(f, dy, m, n, shift)

    monkeypatch.setattr(q, "_sin2_panels", spy)
    return passes


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("route", [q.substitution_oracle])
def test_tail_cut_certifies_from_an_estimate_far_too_high(route, N, monkeypatch):
    # a log_scale 20 too high puts the first cut far too short: the loop's own
    # test must reject it and grow the cut, at the same m, until the value
    # certifies
    t = 1e3
    want = route(N, t)
    scale = q._comparison_log_scale
    monkeypatch.setattr(q, "_comparison_log_scale", lambda N, t: scale(N, t) + 20.0)
    passes = _sin2_spy(monkeypatch)
    assert abs(route(N, t) - want) <= 1e-12 * want
    assert len(passes) > 1
    assert {m for m, _ in passes} == {4}
    assert all(a < b for (_, a), (_, b) in zip(passes, passes[1:]))


@pytest.mark.parametrize("route", [q.substitution_oracle])
@pytest.mark.parametrize("N, t, max_evals", [(200, 3455.11, None), (3, 1e4, 1650)])
def test_comparison_routes_certify_their_first_cut(route, N, t, max_evals, monkeypatch):
    # the value-sized first cut certifies in one panel pass, even at N = 200
    # where the value is near the float floor; at N = 3, t = 1e4 it costs
    # 1,518 evals
    evals = _integrate_spy(monkeypatch)
    passes = _sin2_spy(monkeypatch)
    route(N, t)
    assert len(passes) == 1 and not evals
    if max_evals is not None:
        assert 33 * passes[0][1] <= max_evals


@pytest.mark.parametrize("N", [3, 4])
def test_leg_two_cut_certifies_from_an_estimate_far_too_high(N, monkeypatch):
    # the contour route's one tail cut is leg 2's, integrated at small t: a
    # log_scale 20 too high puts its first cut far too short, and the loop's
    # own test must reject it and grow the cut until the value certifies
    t = 6.0
    want = q.optimality_integral(N, t)
    cut, heads = q._tail_cut, []

    def too_high(name, N, t, rel_tol, head, log_scale, **kw):
        def counted(y, r_hi):
            heads.append(y)
            return head(y, r_hi)

        return cut(name, N, t, rel_tol, counted, log_scale + 20.0, **kw)

    monkeypatch.setattr(q, "_tail_cut", too_high)
    assert abs(q.optimality_integral(N, t) - want) <= 1e-12 * want
    assert len(heads) > 1


@pytest.mark.parametrize("N, t, calls, max_evals", [(3, 5.0, 1, 130), (200, 150.0, 2, None)])
def test_leg_two_certifies_its_first_cut(N, t, calls, max_evals, monkeypatch):
    # the value-sized first cut of leg 2 certifies in one pass (even N adds
    # the one leg-1 integral); at N = 3, t = 5 it costs 90 evals, held here
    # with about 40 % headroom
    evals = _integrate_spy(monkeypatch)
    q.optimality_integral(N, t)
    assert len(evals) == calls
    if max_evals is not None:
        assert evals[-1] <= max_evals


@pytest.mark.parametrize("t", [101.5, 282.0])
def test_leg_two_is_skipped_where_its_bound_is_negligible_at_n_200(t, monkeypatch):
    # e^{x^2-1} + 1 <= (1 + 1/e) e^{x^2} bounds leg 2 below 1e-14 of the value
    # here, so the even-N route is the mean half and the one leg-1 integral
    evals = _integrate_spy(monkeypatch)
    q.optimality_integral(200, t)
    assert len(evals) == 1


def test_comparison_values_format_no_message_unless_they_refuse(monkeypatch):
    # the underflow refusal is built only for a value that needs it
    calls = []
    normal_value = q._normal_value

    def spy(*args):
        calls.append(args)
        return normal_value(*args)

    monkeypatch.setattr(q, "_normal_value", spy)
    times = np.geomspace(3.0, 1e6, 200)
    values = q.optimality_integral(3, times)
    assert values.shape == (200,) and np.all(values > 0)
    assert not calls
    with pytest.raises(ValueError, match=r"^comparison integral at N=200, t=3888.16 "
                                         r"underflows a float \(1.02e-309 < 2.23e-308\)$"):
        q.optimality_integral(200, np.array([1e3, 3888.16, 4e3]))
    assert len(calls) == 1


def _real_axis_reference(N, t, dps=30):
    """The comparison integral at dps digits by mpmath on the real axis, in
    y = sqrt(log(1+r^2)), panels at every half period of sin^2(t y)."""
    import mpmath

    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        beta = mpmath.mpf(N - 2) / 2

        def g(y):
            return (y * mpmath.exp((1 - t) * y * y) * mpmath.expm1(y * y) ** beta
                    * mpmath.sin(t * y) ** 2)

        Y = mpmath.sqrt((2.5 * dps + 10) / (t - mpmath.mpf(N) / 2)) + 2
        n = int(t * Y / mpmath.pi) + 2
        omega = 2 * mpmath.pi ** (mpmath.mpf(N) / 2) / mpmath.gamma(mpmath.mpf(N) / 2)
        return omega * mpmath.quad(g, [Y * k / n for k in range(n + 1)])


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_contour_route_against_mpmath(N):
    # the route reads within a few ulps of a 30-digit real-axis quadrature
    # from just above the threshold, where leg 2 carries the value, to t = 10;
    # the substitution oracle reads up to 9e-13 low here (its tail cut)
    for t in (N / 2.0 + 1.01, 5.0, 10.0):
        ref = _real_axis_reference(N, t)
        assert abs(q.optimality_integral(N, t) - ref) <= 1e-13 * ref, t


def _bench_grids():
    from logdamp_lab.experiments import TimeGrid, _times

    # pipeline-default's optimality grid and the corners of comparison-large-t's
    return [_times(TimeGrid(lo, hi, 40))
            for lo, hi in ((100.0, 1e4), (90.0, 2.9e4), (110.0, 3e4))]


@pytest.mark.parametrize("N", [3, 4, 5])
def test_contour_route_matches_the_oracle(N):
    times = np.concatenate([*_bench_grids(), [1e5, 1e6, 1e8]])
    contour = q.optimality_integral(N, times)
    oracle = np.array([q.substitution_oracle(N, float(t)) for t in times])
    assert np.max(np.abs(contour - oracle) / oracle) <= 1e-10


@pytest.mark.parametrize("t, rel", [(101.5, 1e-13), (102.0, 1e-13), (3455.11, 1e-12)])
def test_contour_route_at_large_n(t, rel):
    # at N = 200 the cosine half is below 1e-30 of the value here (a 40-digit
    # real-axis quadrature), so the mean half is the reference; at t = 101.5
    # and 102 leg 2 is integrated (its bound is 9e-12 and 4e-11 of the value),
    # and at t = 3455.11 the value is near the float floor, where log_beta's
    # own error is up to 5e-13
    import mpmath

    N = 200
    with mpmath.workdps(30):
        ref = float(2 * mpmath.pi ** (N // 2) / mpmath.gamma(N // 2)
                    * mpmath.beta(N // 2, mpmath.mpf(t) - N // 2) / 4)
    assert abs(q.optimality_integral(N, t) - ref) <= rel * ref


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [101.5, 103.0, 104.0])
def test_oracle_at_large_n_just_above_the_threshold(t):
    # at N = 200, (e^{y^2} - 1)^99 overflows where e^{(1-t) y^2} underflows;
    # in one exp the oracle certifies where the contour does
    N = 200
    oracle, contour = q.substitution_oracle(N, t), q.optimality_integral(N, t)
    assert abs(oracle - contour) <= 1e-12 * contour


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("t", [1e10, 1e12])
def test_contour_route_past_the_oracle_wall(N, t):
    # the contour route does not oscillate at frequency t, and the oracle's
    # panels grow with the envelope: both certify here, and the oracle's
    # panel wall lies near t = 2e14 at N = 3.  Odd N: the value is the mean half
    # omega_N B(N/2, t-N/2)/4 (leg 2 is below e^{-t}); even N adds leg 1,
    # taken by mpmath
    import mpmath

    with pytest.raises(q.NonConvergence, match=rf"^substitution oracle at N={N}, "
                                               rf"t=1e\+15: \d+ panels exceed budget 60000$"):
        q.substitution_oracle(N, 1e15)
    with mpmath.workdps(30):
        half = mpmath.beta(mpmath.mpf(N) / 2, mpmath.mpf(t) - mpmath.mpf(N) / 2) / 4
        if N % 2 == 0:
            beta = (N - 2) // 2

            def leg_one(s):
                return (s * mpmath.exp(-s * s) * (-mpmath.expm1(-s * s)) ** beta
                        * mpmath.exp(-t * s * (2 - s)))

            peak = mpmath.mpf(N - 1) / (2 * t)
            half += (-1) ** beta * mpmath.quad(leg_one, [0, peak, 10 * peak, 100 * peak, 1]) / 2
        ref = float(2 * mpmath.pi ** (mpmath.mpf(N) / 2) / mpmath.gamma(mpmath.mpf(N) / 2) * half)
    assert abs(q.optimality_integral(N, t) - ref) <= 1e-12 * ref
    assert abs(q.substitution_oracle(N, t) - ref) <= 1e-10 * ref


def _cos_moments(m, n):
    """int_{-1}^{1} T_j(x) cos(w (1+x)) dx, j = 0..n, w = m pi/2, by the
    Jacobi-Anger series e^{iwx} = sum_k eps_k i^k J_k(w) T_k(x) and the closed
    form of int T_j T_k."""
    from scipy.special import jv

    w = m * math.pi / 2.0
    k = np.arange(int(w) + 80)
    coef = np.where(k == 0, 1.0, 2.0) * 1j ** k * jv(k, w)

    def int_t(order):
        order = np.abs(order)
        return 2.0 / (1.0 - np.where(order % 2 == 0, order, 0.5) ** 2) * (order % 2 == 0)

    j = np.arange(n + 1)[:, None]
    return (np.exp(1j * w) * (0.5 * (int_t(j + k) + int_t(j - k)) @ coef)).real


@pytest.mark.parametrize("m", [2 ** e for e in range(11)])
def test_sin2_weights_integrate_chebyshev_times_sin2_exactly(m):
    # W_0 = sin^2((1+x) m pi/4) = (1 - cos(m pi (1+x)/2))/2 on a panel that
    # starts on an even half period, W_1 = cos^2 on an odd one; the 33-node
    # rule is exact for T_j W_p to j = 32, the nested 17-node one to j = 16
    w = q._sin2_weights(m)
    j = np.arange(33)
    T = np.cos(np.outer(j, np.arccos(q._CC_X)))
    one = np.where(j % 2 == 0, 2.0 / (1.0 - np.where(j % 2 == 0, j, 0.5) ** 2), 0.0)
    cos_part = _cos_moments(m, 32)
    for p, sign in ((0, -1.0), (1, 1.0)):
        ref = 0.5 * (one + sign * cos_part)
        assert np.max(np.abs(T @ w[p, :, 0] - ref)) <= 1e-14
        w17 = w[p, :, 0] - w[p, :, 1]
        assert not w17[1::2].any()
        assert np.max(np.abs(T[:17] @ w17 - ref[:17])) <= 1e-14


_ORACLE_CASES = [
    *((N, t) for N in (3, 4, 5, 6) for t in (N / 2.0 + 1.01, 10.0, 1e2, 1e3, 1e4, 1e6, 1e8,
                                             1e10, 1e12)),
    *((N, t) for N in (20, 50, 100) for t in (N / 2.0 + 1.01, N / 2.0 + 2.0)),
    *((200, t) for t in (101.5, 103.0, 3455.11, 3700.0)),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("N, t", _ORACLE_CASES)
def test_oracle_certifies_from_the_threshold_to_1e12(N, t):
    assert abs(q.substitution_oracle(N, t) / q.optimality_integral(N, t) - 1.0) <= 1e-12


def test_oracle_costs_at_most_1650_evals_per_time(monkeypatch):
    # one panel pass of 23 to 49 panels of 33 nodes: m grows with sqrt(t)
    # until it reaches 1024 at t = 4.1e7, so the panel count tracks only the
    # cut's sqrt(log t) up to there
    passes = _sin2_spy(monkeypatch)
    for t in q.geom_points(1e2, 1e8, 121):
        passes.clear()
        q.substitution_oracle(3, t)
        assert len(passes) == 1 and 33 * passes[0][1] <= 1650, t


@pytest.mark.parametrize("N", [3, 4, 200])
def test_oracle_array_call_equals_per_time_calls(N):
    times = N / 2.0 + np.array([1.01, 4.0, 40.0, 150.0, 1e3, 3e3])
    values = q.substitution_oracle(N, times)
    assert isinstance(values, np.ndarray) and values.shape == times.shape
    scalars = [q.substitution_oracle(N, float(t)) for t in times]
    assert all(isinstance(v, float) for v in scalars)
    assert values.tolist() == scalars


def test_oracle_halves_its_panels_then_refuses(monkeypatch):
    # a target no panel set can meet: m halves from its first value down to
    # one half period per panel, then the oracle names N and t
    monkeypatch.setattr(q, "_CMP_TOL", 1e-30)
    passes = _sin2_spy(monkeypatch)
    with pytest.raises(q.NonConvergence, match=r"^substitution oracle at N=3, t=10000: error "):
        q.substitution_oracle(3, 1e4)
    assert [m for m, _ in passes] == [8, 4, 2, 1]


@pytest.mark.parametrize("N", [3, 4, 6, 200])
def test_contour_route_array_call_equals_scalar_calls(N):
    times = N / 2.0 + np.array([1.01, 4.0, 40.0, 150.0, 1e3, 3e3])
    values = q.optimality_integral(N, times)
    assert isinstance(values, np.ndarray) and values.shape == times.shape
    scalars = [q.optimality_integral(N, float(t)) for t in times]
    assert all(isinstance(v, float) for v in scalars)
    assert np.max(np.abs(values - scalars) / values) <= 1e-14


def _leg_two_value(N, t, bound):
    """Re of leg 2 at one time, integrated to 1e-6 of its bound with a cut far
    past where the bound falls below 1e-30 of itself."""
    x_cut = math.sqrt(70.0 / (t - N / 2.0)) + 1.0
    return q.integrate(q._leg_two_integrand(N, t), 0.0, x_cut, tol=1e-6 * bound,
                       breakpoints=q._phase_points(N, 0.0, x_cut)).value


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8, 9, 10, 200])
def test_leg_two_bound_holds(N):
    # |Re leg 2| <= e^{-t-1} 2^beta (sqrt(pi/a)/2 + 1/(2a)) from just above the
    # threshold on; at N = 3 the bound is within a factor 3.2 of the leg, at
    # N = 200 it is loose by more than e^{114}
    times = q.geom_points(N / 2.0 + 1.01, max(40.0, N / 2.0 + 40.0), 8)
    for t, bound in zip(times, q._leg_two_bound(N, times)):
        assert abs(_leg_two_value(N, float(t), bound)) <= bound, t


@pytest.mark.parametrize("N", [3, 4, 5, 6, 10])
def test_skipping_leg_two_moves_no_value(N, monkeypatch):
    # from the threshold to t = 60, which spans the time where the bound
    # starts to skip leg 2: integrating it anyway moves no value past 1e-14
    # (a skip at 0.1 _CMP_TOL in place of 0.1 _LEG_TWO_TOL moves N = 3 by 1.5e-12)
    times = q.geom_points(N / 2.0 + 1.01, 60.0, 24)
    values = q.optimality_integral(N, times)
    skipped = q._leg_two_bound(N, times) <= 0.1 * q._LEG_TWO_TOL * values / q.surface_area(N)
    assert skipped.any() and not skipped.all()
    bound = q._leg_two_bound
    monkeypatch.setattr(q, "_leg_two_bound", lambda N, times: 1e30 * bound(N, times))
    forced = q.optimality_integral(N, times)
    assert np.max(np.abs(forced - values) / values) <= 1e-14


def test_log_beta_array_equals_scalar_calls():
    # b below and above 10: the lgamma branch and the Stirling one
    for a in (1.5, 2.0, 100.0):
        b = np.array([0.7, 2.5, 9.99, 10.0, 10.01, 97.3, 3e4, 1e15])
        assert q.log_beta(a, b).tolist() == [q.log_beta(a, float(x)) for x in b]


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 10, 50, 200])
def test_log_beta_against_mpmath(N):
    # from just above the t > N/2 + 1 threshold to t = 1e15, where the plain
    # lgamma difference is off by a factor 7.9 in B
    import mpmath

    a = N / 2.0
    ts = np.concatenate([[a + 1.01, a + 2.5, 9.9, 10.0, 10.1, 25.0],
                         np.geomspace(a + 1.01, 1e15, 60)])
    for t in ts[ts > a + 1.0]:
        with mpmath.workdps(60):
            ex = mpmath.log(mpmath.beta(mpmath.mpf(a), mpmath.mpf(float(t)) - a))
            err = float(abs(q.log_beta(a, float(t) - a) - ex))
        assert err <= 1e-14 + 1e-15 * abs(float(ex)), (t, err)


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("t", [10.0, 100.0, 1e3])
def test_majorant_closed_form_matches_quadrature(N, t):
    # omega_N (I_{N-1} + J_{N-1}) = omega_N B(N/2, t - N/2) / 2
    omega = q.surface_area(N)
    closed = math.exp(math.log(omega) + q.log_beta(N / 2.0, t - N / 2.0) - math.log(2.0))
    quad = omega * (q.integral_Ip(N - 1, t) + q.integral_Jp(N - 1, t))
    assert abs(closed - quad) <= 1e-12 * quad


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


def _f_osc_closed_form(N, t):
    """Gamma(N/2)/4 (1 + 1F1(N/2; 1/2; -t)) in 40 digits: cos^2 = (1 + cos 2u)/2
    and the Gaussian cosine moment (DLMF 13.7)."""
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(N) / 2
        return mpmath.gamma(a) / 4 * (1 + mpmath.hyp1f1(a, 0.5, -mpmath.mpf(t)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("N", [3, 4, 5, 6, 10, 20, 50, 250])
def test_f_osc_matches_its_closed_form_to_1e12(N):
    # the weighted panels certify F_N from t = 3 up to 1e12, far past where
    # K15 panels at every half period would exceed the 60,000-panel budget
    # (t = 2.5e8 at N = 3); at N = 250 the cut must lie past the peak
    for t in (3.0, 10.0, 1e2, 1e3, 1e4, 1e6, 1e8, 1e10, 1e12):
        want = _f_osc_closed_form(N, t)
        assert abs(q.f_osc(N, t) / want - 1) <= 1e-13, t


@pytest.mark.parametrize("N", [3, 4, 5, 10, 50, 250])
def test_f_osc_at_zero_is_a_const(N):
    assert q.f_osc(N, 0.0) == q.a_const(N)


@pytest.mark.parametrize("N, t", [(3, 0.5), (10, 1.0), (50, 0.1)])
def test_f_osc_refuses_below_one_half_period_per_envelope(N, t):
    # one half period of cos^2 per panel is wider than e^{-y^2} y^{N-1} here
    with pytest.raises(q.NonConvergence,
                       match=rf"^F_N at N={N}, t={t:g}: error .* at one half period per panel"):
        q.f_osc(N, t)


def test_f_osc_halves_its_panels_then_refuses(monkeypatch):
    # the oracle's loop: an error estimate no panel set can meet halves m from
    # its first value at t = 1e4 down to one half period per panel, then F_N
    # names N and t
    passes = _sin2_spy(monkeypatch)
    panels = q._sin2_panels
    monkeypatch.setattr(q, "_sin2_panels", lambda *args: (panels(*args)[0], math.inf))
    with pytest.raises(q.NonConvergence, match=r"^F_N at N=3, t=10000: error inf > target "):
        q.f_osc(3, 1e4)
    assert [m for m, _ in passes] == [8, 4, 2, 1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("N", range(3, 281))
def test_a_const_is_gamma_half_to_1e13(N):
    # the cut is relative to A_N, so it moves past the moment's peak
    # sqrt((N-1)/2) at large N; the integrand is one exp, so y^{N-1} never
    # overflows on its own (it would from N = 270 at y = 14)
    assert abs(q.a_const(N) / (0.5 * math.gamma(0.5 * N)) - 1) <= 1e-13
