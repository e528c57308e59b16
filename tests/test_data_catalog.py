import math

import numpy as np
import pytest

from logdamp_lab import data_catalog as cat
from logdamp_lab.propagator import propagate_closed

PI = math.pi


def test_gaussian_closed_forms():
    p = cat.make_profile("gaussian", N=3, a=1.0)
    assert abs(p.P1 - PI ** 1.5) < 1e-12
    assert p.l1 == p.P1  # nonnegative datum
    assert abs(p.l2 ** 2 - (PI / 2.0) ** 1.5) < 1e-12
    # first absolute moment of e^{-|x|^2} in R^3 is omega_3 Gamma(2)/2 = 2 pi
    assert abs(p.l11 - (PI ** 1.5 + 2.0 * PI)) < 1e-12
    assert abs(complex(p.hat(np.zeros(3))) - p.P1) < 1e-12
    assert abs(p.hat_radial(1.0) - PI ** 1.5 * math.exp(-0.25)) < 1e-12


def test_gaussian_general_width():
    p = cat.make_profile("gaussian", N=4, a=2.0)
    assert abs(p.P1 - (PI / 2.0) ** 2) < 1e-12
    assert abs(p.hat_radial(2.0) - p.P1 * math.exp(-4.0 / 8.0)) < 1e-12


def test_zero_mean_pair():
    p = cat.make_profile("zero_mean_pair", N=3)
    assert abs(p.P1) < 1e-14
    assert abs(complex(p.hat(np.zeros(3)))) < 1e-14
    l2_sq = ((PI / 2.0) ** 1.5 - 2.0 * 2.0 ** 1.5 * (PI / 3.0) ** 1.5
             + 8.0 * (PI / 4.0) ** 1.5)
    assert abs(p.l2 ** 2 - l2_sq) < 1e-12


def test_zero_mean_pair_l1_against_reference():
    from scipy.integrate import quad

    p = cat.make_profile("zero_mean_pair", N=3)
    r_star = math.sqrt(1.5 * math.log(2.0))  # sign change of the datum

    def f(r):
        return abs(math.exp(-r * r) - 2.0 ** 1.5 * math.exp(-2 * r * r)) * r * r

    ref = sum(quad(f, a, b, epsabs=1e-14, limit=200)[0]
              for a, b in ((0.0, r_star), (r_star, 12.0)))
    assert abs(p.l1 - 4.0 * PI * ref) < 1e-11


def test_shifted_gaussian_fields():
    c = 0.8
    p = cat.make_profile("shifted_gaussian", N=3, offset=c)
    assert p.hat_radial is None and not p.is_radial
    assert abs(p.P1 - PI ** 1.5) < 1e-12
    xi = np.array([1.0, 0.0, 0.0])
    h = complex(p.hat(xi))
    assert abs(h - PI ** 1.5 * math.exp(-0.25) * np.exp(-1j * c)) < 1e-12
    # |hat| is radial even though hat is not
    assert abs(abs(h) - p.hat_abs_radial(1.0)) < 1e-12


def test_shifted_gaussian_weighted_norm_against_reference():
    from scipy.integrate import quad

    c = 0.8
    p = cat.make_profile("shifted_gaussian", N=3, offset=c)

    def sphere_mean(r):
        # closed form in three dimensions
        return ((r + c) ** 3 - abs(r - c) ** 3) / (6.0 * r * c)

    extra, _ = quad(lambda r: sphere_mean(r) * math.exp(-r * r) * r * r, 0.0, 10.0,
                    epsabs=1e-12, limit=200)
    assert abs(p.l11 - (PI ** 1.5 + 4.0 * PI * extra)) < 1e-8


def test_zero_profile():
    p = cat.make_profile("zero", N=3)
    assert p.is_zero and p.P1 == 0.0 and p.l2 == 0.0
    assert p.hat_radial(2.0) == 0.0


def test_make_profile_validation():
    with pytest.raises(ValueError):
        cat.make_profile("gaussian", N=2, a=1.0)
    with pytest.raises(ValueError):
        cat.make_profile("gaussian", N=3, a=-1.0)
    with pytest.raises(ValueError):
        cat.make_profile("gaussian", N=3, b=1.0)
    with pytest.raises(ValueError):
        cat.make_profile("plane_wave", N=3)


def test_parse_profile():
    p = cat.parse_profile("gaussian:a=2", N=3)
    assert p.kind == "gaussian" and dict(p.params)["a"] == 2.0
    assert cat.parse_profile("zero", N=3).is_zero
    assert cat.parse_profile("shifted_gaussian:offset=0.5", N=3).params == (("offset", 0.5),)
    for bad in ("", "gaussian:a", "gaussian:a=x", "wavelet"):
        with pytest.raises(ValueError):
            cat.parse_profile(bad, N=3)


def test_hat_bounded_by_l1_random_sweep():
    rng = np.random.default_rng(4)
    for kind, kw in (("gaussian", {"a": 1.0}), ("zero_mean_pair", {}),
                     ("shifted_gaussian", {"offset": 0.7})):
        p = cat.make_profile(kind, N=3, **kw)
        xi = rng.normal(size=(400, 3)) * 2.0
        vals = np.abs(np.array([complex(p.hat(x)) for x in xi]))
        assert np.all(vals <= p.l1 + 1e-12)
        assert abs(complex(p.hat(np.zeros(3))) - p.P1) < 1e-12


# ---------------------------------------------------------------------------
# the A/B split


def test_moment_bounds_with_unit_constants():
    # |A| <= |xi| ||u||_{1,1} and |B| <= |xi| ||u||_{1,1}
    rng = np.random.default_rng(5)
    worst_a = worst_b = 0.0
    for kind, kw in (("gaussian", {"a": 1.0}), ("zero_mean_pair", {}),
                     ("shifted_gaussian", {"offset": 0.7})):
        p = cat.make_profile(kind, N=3, **kw)
        xi = rng.normal(size=(1000, 3))
        xi = xi / np.linalg.norm(xi, axis=1, keepdims=True) * rng.uniform(1e-3, 2.0, (1000, 1))
        for x in xi:
            h = complex(p.hat(x))  # hat = A - iB + P1
            A, B = h.real - p.P1, -h.imag
            nx = float(np.linalg.norm(x))
            worst_a = max(worst_a, abs(A) / (nx * p.l11))
            worst_b = max(worst_b, abs(B) / (nx * p.l11))
            assert abs(A) <= nx * p.l11 + 1e-12
            assert abs(B) <= nx * p.l11 + 1e-12
    print(f"measured moment-bound maxima: A {worst_a:.4f}, B {worst_b:.4f}")


# ---------------------------------------------------------------------------
# the three-term split


def test_profile_terms_trivial_cases():
    pair = cat.make_profile("zero_mean_pair", N=3)
    terms = cat.profile_terms(pair, 0.7, 3.0)
    assert terms.f2 == 0.0 and terms.f3 == 0.0  # every mass factor vanishes
    u_hat = propagate_closed(0.0, complex(pair.hat_radial(0.7)), 0.7, 3.0, "paper").u_hat
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
    for r in np.linspace(0.0, 3.0, 13):
        for t in (0.5, 1.0, 4.2, 11.0):
            terms = cat.profile_terms(g, float(r), float(t))
            u_hat = propagate_closed(0.0, complex(g.hat_radial(float(r))),
                                     float(r), float(t), "paper").u_hat
            assert abs(u_hat - (terms.f1 + terms.f2 + terms.f3)) < 1e-12


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
