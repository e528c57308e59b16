import math

import numpy as np
import pytest

from logdamp_lab import data_catalog as cat
from logdamp_lab import quadrature
from logdamp_lab.propagator import propagate_closed

PI = math.pi


def test_gaussian_closed_forms():
    p = cat.make_profile("gaussian", N=3, a=1.0)
    assert abs(p.P1 - PI ** 1.5) < 1e-12
    # first absolute moment of e^{-|x|^2} in R^3 is omega_3 Gamma(2)/2 = 2 pi
    assert abs(p.l11 - (PI ** 1.5 + 2.0 * PI)) < 1e-12
    assert abs(p.hat_z(1.0) - PI ** 1.5 * math.exp(-0.25)) < 1e-12


def test_gaussian_general_width():
    p = cat.make_profile("gaussian", N=4, a=2.0)
    assert abs(p.P1 - (PI / 2.0) ** 2) < 1e-12
    assert abs(p.hat_z(4.0) - p.P1 * math.exp(-4.0 / 8.0)) < 1e-12


def test_zero_mean_pair():
    p = cat.make_profile("zero_mean_pair", N=3)
    assert abs(p.P1) < 1e-14
    assert abs(p.hat_z(0.0)) < 1e-14


def test_zero_mean_pair_l1_against_reference():
    from scipy.integrate import quad

    p = cat.make_profile("zero_mean_pair", N=3)
    r_star = math.sqrt(1.5 * math.log(2.0))  # sign change of the datum

    def f(r):
        # (1 + |x|) |u| r^2 for ||u||_{L^{1,1}} = int (1 + |x|) |u|
        return (1.0 + r) * abs(math.exp(-r * r) - 2.0 ** 1.5 * math.exp(-2 * r * r)) * r * r

    ref = sum(quad(f, a, b, epsabs=1e-14, limit=200)[0]
              for a, b in ((0.0, r_star), (r_star, 12.0)))
    assert abs(p.l11 - 4.0 * PI * ref) < 1e-11


@pytest.mark.parametrize("N", [3, 4, 5])
def test_zero_mean_pair_transform_to_a_few_ulp(N):
    # pi^{N/2} (e^{-r^2/4} - e^{-r^2/8}): the two terms agree to 4e-5 at
    # r = 0.018 and to 1e-9 at r = 1e-4, so their difference in floats would
    # keep only a few digits there
    import mpmath

    p = cat.make_profile("zero_mean_pair", N=N)
    for r in (1e-4, 1e-2, 0.018, 0.5, 3.0):
        with mpmath.workdps(40):
            x = mpmath.mpf(r) ** 2
            ex = float(mpmath.pi ** (mpmath.mpf(N) / 2)
                       * (mpmath.exp(-x / 4) - mpmath.exp(-x / 8)))
        assert abs(float(p.hat_z(r * r)) - ex) <= 4.0 * np.finfo(float).eps * abs(ex)


def test_hat_z_at_r_squared_keeps_the_bits_of_the_radial_forms():
    # every reader takes hat_z at z = r * r; each kind's radial form before
    # the transform moved to z = r^2, on 1e5 radii
    r = np.concatenate([np.geomspace(1e-8, 40.0, 99_990), np.arange(10.0)])
    for N in (3, 5):
        for a in (0.5, 1.0, 1.767):
            amp = (PI / a) ** (N / 2.0)
            got = cat.make_profile("gaussian", N=N, a=a).hat_z(r * r)
            assert np.array_equal(got, amp * np.exp(-r ** 2 / (4.0 * a)))
        amp = PI ** (N / 2.0)
        pair = cat.make_profile("zero_mean_pair", N=N).hat_z(r * r)
        assert np.array_equal(pair, amp * np.exp(-r * r / 8.0) * np.expm1(-r * r / 8.0))
        shifted = cat.make_profile("shifted_gaussian", N=N, offset=0.5).hat_z(r * r)
        assert np.array_equal(shifted, amp * np.exp(-r ** 2 / 4.0))


def test_transform_in_z_matches_mpmath_off_the_real_axis():
    # the contour routes take hat_z at z = e^{y^2} - 1 for complex y
    import mpmath

    ys = (0.3 + 0.5j, 0.7j, 0.45j, 0.8 + 1j, 0.2 + 0.5j, 0.83 + 0.25j)
    zs = [complex(np.expm1(y * y)) for y in ys] + [complex(np.exp(0.4j * k)) for k in range(8)]
    g = cat.make_profile("gaussian", N=3, a=1.767)
    pair = cat.make_profile("zero_mean_pair", N=4)
    with mpmath.workdps(30):
        for z in zs:
            zm = mpmath.mpc(z.real, z.imag)
            want_g = (mpmath.pi / mpmath.mpf(1.767)) ** 1.5 * mpmath.exp(-zm / (4 * mpmath.mpf(1.767)))
            want_p = mpmath.pi ** 2 * (mpmath.exp(-zm / 4) - mpmath.exp(-zm / 8))
            for prof, want in ((g, want_g), (pair, want_p)):
                got = prof.hat_z(np.array([z]))[0]
                assert abs(got - complex(want)) <= 1e-14 * abs(complex(want)), (prof.kind, z)
    assert cat.make_profile("zero", N=3).hat_z(np.array([0.5 + 1j]))[0] == 0.0


def test_shifted_gaussian_fields():
    p = cat.make_profile("shifted_gaussian", N=3, offset=0.8)
    assert not p.is_radial and p.l11 is None
    assert abs(p.P1 - PI ** 1.5) < 1e-12
    # |hat| is radial even though hat is not, and does not see the offset
    assert abs(p.hat_z(1.0) - PI ** 1.5 * math.exp(-0.25)) < 1e-12


def test_zero_profile():
    p = cat.make_profile("zero", N=3)
    assert p.is_zero and p.P1 == 0.0 and p.l11 == 0.0
    assert p.hat_z(4.0) == 0.0


def test_make_profile_validation():
    with pytest.raises(ValueError):
        cat.make_profile("gaussian", N=2, a=1.0)
    with pytest.raises(ValueError):
        cat.make_profile("gaussian", N=3, a=-1.0)
    with pytest.raises(ValueError):
        cat.make_profile("gaussian", N=3, b=1.0)
    with pytest.raises(ValueError):
        cat.make_profile("plane_wave", N=3)


@pytest.mark.parametrize("kind, key", [("gaussian", "a"), ("shifted_gaussian", "offset")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_make_profile_refuses_non_finite_parameters(kind, key, value):
    # a <= 0 and offset < 0 are both false for NaN, and inf passes a > 0
    with pytest.raises(ValueError, match=rf"^{kind} parameter {key}={value} is not a finite number$"):
        cat.make_profile(kind, N=3, **{key: value})


def test_parse_profile():
    p = cat.parse_profile("gaussian:a=2", N=3)
    assert p.kind == "gaussian" and dict(p.params)["a"] == 2.0
    assert cat.parse_profile("zero", N=3).is_zero
    assert cat.parse_profile("shifted_gaussian:offset=0.5", N=3).params == (("offset", 0.5),)
    for bad in ("", "gaussian:a", "gaussian:a=x", "wavelet"):
        with pytest.raises(ValueError):
            cat.parse_profile(bad, N=3)


@pytest.mark.parametrize("N", [3, 5])
def test_profiles_are_built_without_quadrature(N, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("make_profile called quadrature.integrate")

    monkeypatch.setattr(quadrature, "integrate", no_quadrature)
    for desc in ("zero", "gaussian:a=0.7", "gaussian:a=2", "shifted_gaussian:offset=0",
                 "shifted_gaussian:offset=0.25", "shifted_gaussian:offset=1"):
        cat.parse_profile(desc, N=N)


# ---------------------------------------------------------------------------
# the A/B split


def test_moment_bounds_with_unit_constants():
    # |A| = |hat(xi) - P1| <= |xi| ||u||_{1,1}; B vanishes for radial data
    rng = np.random.default_rng(5)
    r = rng.uniform(1e-3, 2.0, 1000)
    for kind, kw in (("gaussian", {"a": 1.0}), ("zero_mean_pair", {})):
        p = cat.make_profile(kind, N=3, **kw)
        A = p.hat_z(r * r) - p.P1
        assert np.all(np.abs(A) <= r * p.l11 + 1e-12)
        worst = float(np.max(np.abs(A) / (r * p.l11)))
        print(f"measured moment-bound maximum, {kind}: {worst:.4f}")


# ---------------------------------------------------------------------------
# the three-term split


def test_profile_terms_trivial_cases():
    pair = cat.make_profile("zero_mean_pair", N=3)
    terms = cat.profile_terms(pair, 0.7, 3.0)
    assert terms.f2 == 0.0 and terms.f3 == 0.0  # every mass factor vanishes
    u_hat = propagate_closed(0.0, complex(pair.hat_z(0.7 * 0.7)), 0.7, 3.0, "paper").u_hat
    assert abs(u_hat - terms.f1) < 1e-15  # the solution reduces to F1
    g = cat.make_profile("gaussian", N=3, a=1.0)
    t0 = cat.profile_terms(g, 0.9, 0.0)
    assert t0.f1 == t0.f2 == t0.f3 == 0.0


def test_profile_terms_f2_vanishing_radius():
    # the phase gap pi/4 - sqrt(L) vanishes at L = (pi/4)^2
    g = cat.make_profile("gaussian", N=3, a=1.0)
    r_star = math.sqrt(math.expm1((PI / 4.0) ** 2))
    terms = cat.profile_terms(g, r_star, 5.0)
    assert abs(terms.f2) < 1e-13


def test_profile_terms_exact_split():
    g = cat.make_profile("gaussian", N=3, a=1.0)
    r = np.linspace(0.0, 3.0, 13)
    t = np.array([0.5, 1.0, 4.2, 11.0]).reshape(-1, 1)
    terms = cat.profile_terms(g, r, t)
    u_hat = propagate_closed(0.0, g.hat_z(r * r), r, t, "paper").u_hat
    assert u_hat.shape == terms.f1.shape == (4, 13)
    assert np.all(np.abs(u_hat - (terms.f1 + terms.f2 + terms.f3)) < 1e-12)


def test_profile_terms_f2_bound():
    # |F2| <= (4/pi)|P1| |pi/4 - sqrt(L)| e^{-Lt/2} t
    g = cat.make_profile("gaussian", N=3, a=1.0)
    for r in (0.1, 0.5, 0.9, 1.5):
        for t in (0.5, 2.0, 8.0):
            L = math.log1p(r * r)
            cap = (4.0 / PI) * g.P1 * abs(PI / 4.0 - math.sqrt(L)) \
                * math.exp(-0.5 * L * t) * t
            assert abs(cat.profile_terms(g, r, t).f2) <= cap + 1e-12


def test_profile_terms_validation():
    g = cat.make_profile("gaussian", N=3, a=1.0)
    shifted = cat.make_profile("shifted_gaussian", N=3, offset=0.5)
    with pytest.raises(ValueError):
        cat.profile_terms(shifted, 0.5, 1.0)
    with pytest.raises(ValueError):
        cat.profile_terms(g, 0.5, -1.0)


def test_profile_label():
    assert cat.make_profile("gaussian", N=3, a=1.0).label == "gaussian:a=1"
    assert cat.make_profile("zero", N=3).label == "zero"
