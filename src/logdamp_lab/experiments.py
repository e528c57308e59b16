"""End-to-end experiments: norm traces, decay fits, inequality sweeps, reports.

Spatial L^2 quantities are computed on the frequency side as radial integrals
with the single normalization constant (2 pi)^{-N} applied uniformly; decay
exponents are normalization-invariant, so nothing downstream depends on the
convention.

All randomness flows through an explicit seed so that two runs of the same
configuration produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import quadrature
from .data_catalog import DataProfile, make_profile, profile_terms
from .propagator import PropagatorMode, carrier_frequency, closed_form_coefficients, \
    closed_form_defect, oracle_grid, propagate_closed
from .symbols import PI_SQ, SpectralState, dissipation_f, dissipation_f_effective, \
    energy_e, energy_e0, phi, source_r


class InsufficientData(Exception):
    """Fewer than the minimum number of samples inside the fit window."""


class NonPositiveValues(Exception):
    """A log-transformed fit needs strictly positive trace values."""


# ---------------------------------------------------------------------------
# small data carriers


@dataclass(frozen=True)
class TimeGrid:
    """count log-spaced sample times from lo to hi."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise ValueError("need 0 < t_lo < t_hi")
        if self.count < 2:
            raise ValueError("need at least two samples")

    def times(self) -> np.ndarray:
        return np.geomspace(self.lo, self.hi, self.count)


def _times(tgrid) -> np.ndarray:
    """Sample times of a TimeGrid, or an explicit array of times."""
    return tgrid.times() if isinstance(tgrid, TimeGrid) else np.asarray(tgrid, dtype=float)


@dataclass
class Trace:
    times: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be 1-d and equally long")
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trace values must be finite")


@dataclass(frozen=True)
class DecayFit:
    model: str
    rate: float
    intercept: float
    max_residual: float
    window: tuple[float, float]
    trace_label: str = ""


@dataclass(frozen=True)
class Check:
    description: str
    passed: bool
    margin: float


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    traces: list = field(default_factory=list)
    fits: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# Plancherel accounting


def _trace_norm(N: int) -> float:
    """(2 pi)^{-N} omega_N: Plancherel's constant times the sphere's area."""
    return (2.0 * math.pi) ** (-N) * quadrature.surface_area(N)


def carrier_peak_times(lo: float, hi: float, count: int, mode,
                       theta: float = 0.0) -> np.ndarray:
    """Log-spaced times snapped to maxima of the r-independent carrier.

    The closed form factors as envelope(r, t) * sin(nu t + theta) at low
    frequency, with nu fixed across frequencies, so the squared norm vanishes
    on a periodic time set; sampling at the carrier peaks (|sin(nu t + theta)|
    = 1) measures the envelope, which is what a decay exponent describes.
    For data of masses P0 (displacement) and P1 (velocity) the leading term
    is P0 cos(nu t) + (P1/nu) sin(nu t), so theta = atan2(P0, P1/nu); with
    both masses zero, the r^2 terms of the transforms take their place.
    theta 0 gives the peaks of |sin(nu t)|.
    """
    nu = carrier_frequency(mode)
    period = math.pi / nu  # sin^2 period
    offset = (0.5 * period - theta / nu) % period  # first maximum of |sin(nu t + theta)|
    raw = np.geomspace(max(lo, offset), hi, count)
    snapped = offset + period * np.round((raw - offset) / period)
    snapped = snapped[(snapped >= lo) & (snapped <= hi)]
    return np.unique(snapped)


def _envelope_cut(p0: DataProfile, p1: DataProfile) -> float:
    alphas = [alpha for amp, alpha in (p0.envelope, p1.envelope) if amp > 0]
    if not alphas:
        return 1.0
    return math.sqrt(60.0 / min(alphas))


def _quadratic_density(h0, h1, N, t, mode, wu=None, wv=None):
    """r -> (wu(L) u^2 + wv(L) v^2) r^{N-1} at every time of t, for the real
    radial data with transforms (h0, h1) in z = r^2: (node, time) values at a
    1-d t, (node,) at a scalar.

    By :func:`closed_form_coefficients`, u = e^{-Lt/2} (a_u c + b_u s) and v
    likewise, with c = cos(nu t), s = sin(nu t), so the density is
    e^{-Lt} (k0 c^2 + k1 2cs + k2 s^2), where k0 = (wu a_u^2 + wv a_v^2)
    r^{N-1}, k1 = (wu a_u b_u + wv a_v b_v) r^{N-1} and k2 = (wu b_u^2 +
    wv b_v^2) r^{N-1}.  The k's are built once per node batch, c^2, 2cs and s^2
    once here, leaving one exp and a few products per (time, node).  The
    products are elementwise, not a matrix product, so a scalar t and entry j
    of an array t give the same bits.
    """
    nu = carrier_frequency(mode)
    t_col = t.reshape(-1, 1) if t.ndim else t
    c, s = np.cos(nu * t_col), np.sin(nu * t_col)
    cc, cs2, ss = c * c, 2.0 * c * s, s * s
    neg_t = -t_col

    def density(r):
        z = r * r
        L = np.log1p(z)
        a_u, b_u, a_v, b_v = closed_form_coefficients(h0(z), h1(z), L, mode)
        rn = np.power(r, N - 1)
        k0 = k1 = k2 = 0.0
        for w, a, b in ((wu, a_u, b_u), (wv, a_v, b_v)):
            if w is not None:
                wr = w(L) * rn
                k0, k1, k2 = k0 + wr * a * a, k1 + wr * a * b, k2 + wr * b * b
        dens = cc * k0
        dens += cs2 * k1
        dens += ss * k2
        dens *= np.exp(neg_t * L)
        # (time, node) as (node, time): a transposed view, no copy
        return dens.T

    return density


def _spectral_quadratic(p0, p1, N, t, mode, wu=None, wv=None, rel_tol=1e-9, lo=0.0,
                        hi=None):
    """(2 pi)^{-N} omega_N * int_lo^hi (wu(L)|u|^2 + wv(L)|v|^2) r^{N-1} dr.

    At one time t this is a float; at a 1-d array of times it is an array,
    computed as one vector integral of :func:`_quadratic_density` with each
    time held to rel_tol.  hi=None cuts at the data's Gaussian envelope.  The
    band is seeded with 32 geometric panels, from hi * 1e-5 (or lo, if
    higher) to hi: with them no energy or L^2 trace of the lab's data on the
    decay grids bisects, so every time keeps the bits of its own scalar
    integral.  The first seed is at most 0.03 of the density's peak radius
    sqrt((N-1)/(2t)) at the largest time (binding from t ~ 3.7e4 at N = 3),
    lest the tree bisect down to the peak until its budget is spent.  A
    non-radial datum is read as its modulus, which the real coefficients
    allow only beside a zero datum; two nonzero data, one of them non-radial,
    and negative times raise ValueError.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("requires t >= 0")
    if p0.is_zero and p1.is_zero:
        return np.zeros(t.shape)[()]
    if not (p0.is_radial and p1.is_radial or p0.is_zero or p1.is_zero):
        raise ValueError("need radial data (or a single non-radial datum with the other zero)")
    if hi is None:
        hi = _envelope_cut(p0, p1)
    t_max = t.max(initial=0.0)
    peak_seed = 0.03 * math.sqrt((N - 1) / (2.0 * t_max)) if t_max > 0 else math.inf
    seeds = quadrature.geom_points(max(lo, min(hi * 1e-5, peak_seed)), hi, 32)
    res = quadrature.integrate(_quadratic_density(p0.hat_z, p1.hat_z, N, t, mode, wu, wv),
                               lo, hi, tol=1e-300, rel_tol=rel_tol, breakpoints=seeds)
    return _trace_norm(N) * res.value


def _unit(L):
    return np.ones_like(L)


def energy_value(p0, p1, N, t, mode, rel_tol=1e-9):
    """||v||^2 + ||L u||^2/4 + pi^2 ||u||^2/4 at time t, or at each time of an
    array t (twice the energy)."""
    return _spectral_quadratic(
        p0, p1, N, t, mode,
        wu=lambda L: 0.25 * (L * L + PI_SQ), wv=_unit,
        rel_tol=rel_tol,
    )


def l2_value(p0, p1, N, t, mode, rel_tol=1e-9):
    return _spectral_quadratic(p0, p1, N, t, mode, wu=_unit, rel_tol=rel_tol)


def dissipation_value(p0, p1, N, t, mode, rel_tol=1e-10):
    return _spectral_quadratic(p0, p1, N, t, mode, wv=lambda L: L, rel_tol=rel_tol)


def _value_trace(value, label, p0, p1, N, tgrid, mode, rel_tol) -> Trace:
    times = _times(tgrid)
    return Trace(times, value(p0, p1, N, times, mode, rel_tol), label)


def energy_trace(profile_u0, profile_u1, N, tgrid, mode=PropagatorMode.ODE,
                 rel_tol=1e-9) -> Trace:
    """Total-energy trace (twice the scalar energy), radially integrated."""
    return _value_trace(energy_value, "energy", profile_u0, profile_u1, N, tgrid,
                        mode, rel_tol)


def l2_trace(profile_u0, profile_u1, N, tgrid, mode=PropagatorMode.ODE,
             rel_tol=1e-9) -> Trace:
    """Squared L^2 norm of the solution over the time grid."""
    return _value_trace(l2_value, "l2-squared", profile_u0, profile_u1, N, tgrid,
                        mode, rel_tol)


def energy_identity_residual(profile_u0, profile_u1, N, t,
                             mode=PropagatorMode.ODE) -> float:
    """Relative defect of E(t) + int_0^t ||L^{1/2} v||^2 ds = E(0).

    Nested quadrature: the dissipation integrand oscillates with the carrier,
    so the outer panels are seeded at quarter periods; each batch of outer
    nodes is one vector inner integral.
    """
    if t <= 0:
        raise ValueError("requires t > 0")
    e_start, e_end = 0.5 * energy_value(profile_u0, profile_u1, N, np.array([0.0, t]),
                                        mode)
    if e_start == 0.0:
        return 0.0

    def diss(s):
        return dissipation_value(profile_u0, profile_u1, N, s, mode)

    quarter = 0.25 * math.pi / carrier_frequency(mode)
    seeds = np.arange(quarter, t, quarter)
    dissipated = quadrature.integrate(diss, 0.0, float(t), tol=1e-300, rel_tol=3e-8,
                                      breakpoints=seeds).value
    return abs(e_end + dissipated - e_start) / e_start


# ---------------------------------------------------------------------------
# profile-error traces (quarter-frequency mode, zero displacement datum)


def _low_band_log_estimate(P1, N, t, s4) -> float:
    """log of the leading term (8/pi^2) P1^2 (s4^2 + 1/2) Gamma(N/2) t^{-N/2} of
    the low band of a mass datum before _trace_norm(N), s4 = sin(pi t/4): the
    scale against which :func:`_low_band_contour_mask` certifies the contour.
    Broadcasts over t and s4."""
    return (np.log((8.0 / PI_SQ) * (s4 * s4 + 0.5)) + 2.0 * math.log(abs(P1))
            + math.lgamma(N / 2.0) - (N / 2.0) * np.log(t))


def _profile_error_value(profile, N, t, lo, hi, rel_tol=1e-9) -> float:
    """(2 pi)^{-N} omega_N * int_lo^hi (16/pi^2) e^{-Lt} (sin(pi t/4) hat -
    P1 sin(t sqrt L))^2 r^{N-1} dr at one time t, with hi=None for infinity.

    Panels are seeded at half periods of the mass term's phase up to
    log(1 + r^2) = (log(1/rel_tol) + 40)/t, where e^{-Lt} has fallen below
    e^{-40} rel_tol, plus 8 geometric points up to hi.
    """
    P1, hat_z = profile.P1, profile.hat_z
    s4 = math.sin(math.pi * t / 4.0)

    def integrand(r):
        z = r * r
        L = np.log1p(z)
        diff = s4 * hat_z(z) - P1 * np.sin(t * np.sqrt(L))
        return (16.0 / PI_SQ) * np.exp(-L * t) * diff * diff * np.power(r, N - 1)

    if hi is None:
        # cut where both the datum envelope and the mass term are certifiably
        # negligible; the mass term needs t > N/2 for its majorant
        if t <= N / 2.0 + 1.0:
            raise ValueError("unbounded region needs t > N/2 + 1")
        rough = quadrature.integrate(
            integrand, lo, max(lo + 1.0, 4.0), tol=1e-300, rel_tol=1e-3,
            breakpoints=quadrature.phase_radii(t, lo, max(lo + 1.0, 4.0)),
        ).value
        scale = max(abs(rough), 1e-250)
        budget = rel_tol * scale / 10.0
        coef = (16.0 / PI_SQ) * max(P1 * P1, 1e-300) * _trace_norm(N)
        # (1+R^2)^{N/2-t} / (2(t-N/2)) * coef <= budget
        need = math.log(coef / (budget * 2.0 * (t - N / 2.0))) / (t - N / 2.0)
        r_maj = quadrature.log_radius(min(max(need, 0.1), 400.0))
        hi = max(_envelope_cut(profile, profile), r_maj, lo + 1.0, 2.0)

    X = math.log(1.0 / rel_tol) + 40.0
    r_osc_hi = min(hi, quadrature.log_radius(min(X / max(t, 1e-9), 400.0)))
    seeds = np.concatenate([quadrature.phase_radii(t, lo, r_osc_hi),
                            quadrature.geom_points(max(lo, hi * 1e-6), hi, 8)])
    return _trace_norm(N) * quadrature.integrate(integrand, lo, hi, tol=1e-300,
                                                 rel_tol=rel_tol, breakpoints=seeds).value


# the low band's end, r = 1, in y = sqrt(log(1 + r^2))
_Y_LOW = math.sqrt(math.log(2.0))
# the contour's geometric seeds: 32 on each of its two integrals (the flat
# one over x in [0, Y] and, for odd N, the rising one over y = is), down to
# these fractions of its end; with them neither bisects for N = 3..6 and t
# from 40 to 1e8, so every sample keeps the bits of its one-time call
_FLAT_SEED_LO = 1e-5
_RISE_SEED_LO = 1e-8
# the largest relative gap between a contour sample and its real-axis check,
# and the largest time checked (the real axis costs about sqrt(t))
_CONTOUR_GAP = 1e-10
_CHECK_T_MAX = 1e6


def _third_legs_log_bound(profile, N, t, s4) -> float:
    """log of a bound on what :func:`_low_band_contour` drops at time t > N/2, in
    the units of :func:`_low_band_log_estimate`: (16/pi^2) (P1^2 K + 2 |s4 P1|
    |T_1|), K the comparison integral over r >= 1, T_1 the third leg of C_1.

    K <= 2^{-(t-N/2)} / (2t - N), quadrature._tail_cut's majorant at R = 1.
    T_1 runs down Re y = Y from Y + i/2, where |e^{-ty^2 + ity}| = 2^{-t}
    e^{-t sigma (1 - sigma)}, so |T_1| <= 2^{-t} max |HG| 2/t.  There |G| <=
    2 3^beta sqrt(Y^2 + 1/4), and Re z = Re e^{y^2} - 1 > 0, where a
    Gaussian's transform amp e^{-z/(4a)} (the catalog's mass data) is at most
    the envelope amplitude A.  Broadcasts over t and s4.
    """
    P1, A, beta = abs(profile.P1), profile.envelope[0], 0.5 * (N - 2)
    # both terms over 2^{-t} 3^beta, since 3^beta overflows a float from N = 1295 on
    legs = (2.0 * P1 * P1 * (2.0 / 3.0) ** beta / (2.0 * t - N)
            + 8.0 * np.abs(s4) * P1 * A * math.hypot(_Y_LOW, 0.5) / t)
    return np.log(legs) + beta * math.log(3.0) - t * math.log(2.0) + math.log(16.0 / PI_SQ)


def _low_band_contour_mask(profile, N, times, rel_tol) -> np.ndarray:
    """Where :func:`_low_band_contour` may give the low band of a mass datum:
    the times t > N/2 + 1 (as optimality_integral needs) whose
    :func:`_third_legs_log_bound` is at most 0.1 rel_tol of the leading term."""
    take = times > N / 2.0 + 1.0
    t = times[take]
    s4 = np.sin(math.pi * t / 4.0)
    take[take] = (_third_legs_log_bound(profile, N, t, s4)
                  <= math.log(0.1 * rel_tol) + _low_band_log_estimate(profile.P1, N, t, s4))
    return take


def _low_band_contour(profile, N, times, rel_tol=1e-9) -> np.ndarray:
    """The low-band profile error of a mass datum at each of times, by steepest
    descent (Huybrechs & Vandewalle 2006): one quadrature.optimality_integral
    call and at most two vector integrals for the trace.

    In y = sqrt(log(1+r^2)) the band is int_0^Y e^{-ty^2} (s4 H - P1 sin ty)^2
    G dy, Y = sqrt(log 2), with H = hat_z(e^{y^2} - 1), G as in
    :func:`quadrature._log_g` and s4 = sin(pi t/4).  That is s4^2 int
    e^{-ty^2} H^2 G + P1^2 K - 2 s4 P1 Im C_1: K, the comparison integral over
    [0, Y], is optimality_integral over omega_N, and C_1 = int_0^Y e^{-ty^2 +
    ity} HG moves to the path 0 -> i/2 -> i/2 + Y -> Y through its saddle:
      - on y = x + i/2 the exponent is -t(x^2 + 1/4), so this leg and the
        phase-free H^2 G term are one vector integral over x in [0, Y];
      - on y = is the exponent is ts^2 - ts and i HG(is) is i^N times a real
        function, so only odd N has a leg here: one more vector integral;
      - K over r >= 1 and the third leg, at Re y = Y, are dropped: the caller
        takes the contour only where :func:`_third_legs_log_bound` makes them
        negligible.
    Neither integral oscillates at the frequency t.  Both are seeded from the
    band alone (32 geometric points each), and the products are elementwise
    with one real exp per (time, node), so each sample keeps the bits of its
    one-time call wherever neither integral bisects.
    """
    P1, hat_z, beta = profile.P1, profile.hat_z, 0.5 * (N - 2)
    mass = P1 * P1 * quadrature.optimality_integral(N, times) / quadrature.surface_area(N)
    s4 = np.sin(math.pi * times / 4.0)
    t_col = times.reshape(-1, 1)
    c_flat = (s4 * s4).reshape(-1, 1)
    c_one = (2.0 * P1 * s4 * np.exp(-0.25 * times)).reshape(-1, 1)

    def flat(x):
        # per-node factors first, (time, node) products after
        z = x * x
        g = x * np.exp(z) * np.expm1(z) ** beta
        h = hat_z(np.expm1(z))
        y = x + 0.5j
        leg_one = (hat_z(np.expm1(y * y)) * np.exp(quadrature._log_g(N, y))).imag
        dens = c_flat * (h * h * g)
        dens -= c_one * leg_one
        dens *= np.exp(-z * t_col)
        # (time, node) as (node, time): a transposed view, no copy
        return dens.T

    def rise(s):
        y = 1j * s  # Im(i HG) = Re(HG)
        f = (hat_z(np.expm1(y * y)) * np.exp(quadrature._log_g(N, y))).real
        return (f * np.exp(t_col * (s * (s - 1.0)))).T

    def leg(f, end, seed_lo):
        seeds = quadrature.geom_points(seed_lo * end, end, 32)
        return quadrature.integrate(f, 0.0, end, tol=1e-300, rel_tol=rel_tol,
                                    breakpoints=seeds).value

    value = leg(flat, _Y_LOW, _FLAT_SEED_LO) + mass
    if N % 2:
        value -= 2.0 * P1 * s4 * leg(rise, 0.5, _RISE_SEED_LO)
    return _trace_norm(N) * (16.0 / PI_SQ) * value


def _check_contour(profile, N, times, values, rel_tol) -> None:
    """Recompute the first, middle and last samples up to _CHECK_T_MAX on the
    real axis (:func:`_profile_error_value`, held to a tenth of _CONTOUR_GAP
    or rel_tol, whichever is tighter); where one differs by more than
    _CONTOUR_GAP relative, raise NonConvergence naming N and t, or ValueError
    if its reference underflows a float."""
    checked = np.flatnonzero(times <= _CHECK_T_MAX)
    if not checked.size:
        return
    for j in sorted({checked[0], checked[checked.size // 2], checked[-1]}):
        t = float(times[j])
        ref = _profile_error_value(profile, N, t, 0.0, 1.0, min(rel_tol, 0.1 * _CONTOUR_GAP))
        gap = abs(values[j] - ref) / abs(ref) if ref else math.inf
        if not gap <= _CONTOUR_GAP:
            quadrature._normal_value(f"low-band profile error at N={N}, t={t:g}", ref)
            raise quadrature.NonConvergence(
                f"low-band profile error at N={N}, t={t:g}: the contour and the real "
                f"axis differ by {gap:.3e} relative (limit {_CONTOUR_GAP:g})")


def profile_error_trace(profile_u1, N, tgrid, region="low", rel_tol=1e-9) -> Trace:
    """Squared distance between the solution and its wave-like leading term.

    Zero-displacement scenario in the quarter-frequency mode (the mode the
    three-term split is stated in).  Regions partition the frequency space at
    radius 1: "low" is [0, 1], "high" is [1, inf), "all" their union.  For a
    zero-mass datum the leading term vanishes, so the error is the
    quarter-frequency L^2 density of the band: one vector integral over all
    times by :func:`_spectral_quadratic`.  A mass datum's low band is
    :func:`_low_band_contour` at every time its third-leg bound certifies,
    checked on the real axis by :func:`_check_contour`; every other time and
    region takes one :func:`_profile_error_value`.
    """
    if not profile_u1.is_radial:
        raise ValueError("profile error traces need a radial datum")
    if region not in ("low", "high", "all"):
        raise ValueError(f"unknown region {region!r}")
    times = _times(tgrid)
    lo, hi = {"low": (0.0, 1.0), "high": (1.0, None), "all": (0.0, None)}[region]
    if profile_u1.P1 == 0.0:
        vals = _spectral_quadratic(make_profile("zero", N=N), profile_u1, N, times,
                                   PropagatorMode.PAPER, wu=_unit, rel_tol=rel_tol,
                                   lo=lo, hi=hi)
    else:
        vals = np.zeros(times.shape)
        take = (_low_band_contour_mask(profile_u1, N, times, rel_tol) if region == "low"
                else np.zeros(times.shape, dtype=bool))
        if np.any(take):
            vals[take] = _low_band_contour(profile_u1, N, times[take], rel_tol)
            _check_contour(profile_u1, N, times[take], vals[take], rel_tol)
        for j in np.flatnonzero(~take & (times != 0.0)):
            vals[j] = _profile_error_value(profile_u1, N, float(times[j]), lo, hi, rel_tol)
    return Trace(times, vals, f"profile-error-{region}")


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(trace: Trace, model: str = "power") -> DecayFit:
    """Least-squares decay rate in transformed coordinates over the whole trace.

    power: slope of log(value) against log(t); exponential: against t.  The
    fit's window is the trace's time span.
    """
    if model not in ("power", "exponential"):
        raise ValueError(f"unknown model {model!r}")
    ts, vs = trace.times, trace.values
    if len(ts) < 8:
        raise InsufficientData(f"{len(ts)} samples in window, need >= 8")
    bad = np.count_nonzero(ts <= 0) if model == "power" else 0
    if bad:
        raise NonPositiveValues(f"power fit of trace {trace.label!r} needs positive times: "
                                f"{bad} of {len(ts)} samples in its window are at t <= 0")
    bad = np.count_nonzero(vs <= 0)
    if bad:
        raise NonPositiveValues(f"{model} fit of trace {trace.label!r} needs positive "
                                f"values: {bad} of {len(vs)} samples in its window are <= 0")
    x = np.log(ts) if model == "power" else ts
    y = np.log(vs)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    return DecayFit(
        model=model, rate=float(coeffs[0]), intercept=float(coeffs[1]),
        max_residual=float(np.max(np.abs(resid))), window=(float(ts[0]), float(ts[-1])),
        trace_label=trace.label,
    )


# ---------------------------------------------------------------------------
# frequency-side inequality sweeps


def _random_states(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n),
            rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _solution_grid(rng):
    """The sweeps' grid: 10 random data (u0, u1), 200 radii in [0, 10] and 100
    times in [0, 20], shaped to broadcast as (state, radius, time).

    Returns (u0, u1, radii, times).
    """
    radii = np.linspace(0.0, 10.0, 200).reshape(1, -1, 1)
    times = np.linspace(0.0, 20.0, 100).reshape(1, 1, -1)
    su, sv = _random_states(rng, 10)
    return su.reshape(-1, 1, 1), sv.reshape(-1, 1, 1), radii, times


def _solution_energies(u0, u1, radii, times):
    """E0 and |u|^2 along the exact "ode"-mode solutions from (u0, u1), on the
    broadcast (state, radius, time) grid.

    By :func:`closed_form_coefficients`, u = e^{-Lt/2} (a_u c + b_u s) and v
    likewise, with c = cos(nu t), s = sin(nu t), so |u|^2 = e^{-Lt} (k0 c^2 +
    k1 2cs + k2 s^2) with k0 = |a_u|^2, k1 = Re(a_u conj(b_u)), k2 = |b_u|^2,
    and E0 = |v|^2/2 + (L^2 + pi^2) |u|^2/8 has the k's of v and u combined
    so.  The k's are per (state, radius), c^2, 2cs and s^2 per time and e^{-Lt}
    per (radius, time); no complex state is formed.
    """
    mode = PropagatorMode.ODE
    L = np.log1p(radii * radii)
    a_u, b_u, a_v, b_v = closed_form_coefficients(u0, u1, L, mode)
    k_u = (np.abs(a_u) ** 2, np.real(a_u * np.conj(b_u)), np.abs(b_u) ** 2)
    k_v = (np.abs(a_v) ** 2, np.real(a_v * np.conj(b_v)), np.abs(b_v) ** 2)
    w_u = 0.125 * (L * L + PI_SQ)
    k_e = tuple(0.5 * kv + w_u * ku for kv, ku in zip(k_v, k_u))

    nu = carrier_frequency(mode)
    c, s = np.cos(nu * times), np.sin(nu * times)
    cc, cs2, ss = c * c, 2.0 * c * s, s * s
    env2 = np.exp(-L * times)

    def along(k):
        return env2 * (k[0] * cc + k[1] * cs2 + k[2] * ss)

    return along(k_e), along(k_u)


def inequality_sweep(seed=0) -> list:
    """The three pointwise inequality families, plus the algebraic step that
    certifies the decay-rate envelope.

    Returns a list of Check with worst margins.  The pointwise families are
    evaluated along exact "ode"-mode solutions on the (state, radius, time)
    grid of :func:`_solution_grid`, with E0(t) and |u|^2 built from the
    closed-form coefficients by :func:`_solution_energies` and e^{-phi t}
    formed once.  The frequency-side quantities do not depend on N.
    """
    rng = np.random.default_rng(seed)
    tol_eq = 1e-12
    checks = []

    # (a) algebraic equivalence on random states (solutions not required)
    u, v = _random_states(rng, 10_000)
    r = rng.uniform(0.0, 50.0, 10_000)
    st = SpectralState(u, v)
    e0 = energy_e0(st, r)
    e = energy_e(st, r)
    lower = float(np.min(e - 0.5 * e0))
    upper = float(np.min(2.25 * e0 - e))
    margin = min(lower, upper)
    checks.append(Check(
        "energy-equivalence: E0/2 <= E <= 9E0/4 on 10000 random states",
        margin >= -tol_eq, margin))

    # (b) the algebraic decay step: R - F + phi E <= 0 for any state
    lyap = float(np.max(source_r(st, r) - dissipation_f(st, r) + phi(r) * e))
    checks.append(Check(
        "decay-step (algebraic): R - F + phi*E <= 0 on random states",
        lyap <= tol_eq, -lyap))

    # (c) pointwise families along solutions on a deterministic grid
    u0, u1, radii, times = _solution_grid(rng)
    e0_t, u2_t = _solution_energies(u0, u1, radii, times)
    e0_0 = energy_e0(SpectralState(u0, u1), radii)
    decay = np.exp(-phi(radii) * times)

    decay_margin = float(np.min(4.5 * e0_0 * decay + 1e-12 - e0_t))
    checks.append(Check(
        "pointwise-decay: 2E0(t) <= 9 E0(0) e^{-phi t} + tol along solutions",
        decay_margin >= 0.0, decay_margin))

    L = np.log1p(radii * radii)
    amp_bound = 18.0 * (np.abs(u1) ** 2 / (L * L + PI_SQ) + 0.25 * np.abs(u0) ** 2)
    amp_margin = float(np.min(amp_bound * decay + 1e-12 - u2_t))
    checks.append(Check(
        "pointwise-amplitude: |u|^2 <= 18(|u1|^2/(L^2+pi^2) + |u0|^2/4) e^{-phi t} + tol",
        amp_margin >= 0.0, amp_margin))

    mono_margin = float(np.min(e0_t[..., :-1] - e0_t[..., 1:]))
    checks.append(Check(
        "pointwise-energy monotone non-increasing in t",
        mono_margin >= -tol_eq, mono_margin))
    return checks


def differential_inequality_sweep(seed=0) -> Check:
    """Worst value of dE/dt + phi E along exact solutions.

    The derivative is evaluated through the exact budget
    dE/dt = R - F_eff (validated elsewhere against finite differences).
    The measured worst value is positive at low frequency: the cross-term
    weight is too large for the differential form of the decay inequality,
    even though the integrated envelope holds.
    """
    u0, u1, radii, times = _solution_grid(np.random.default_rng(seed))
    st_t = propagate_closed(u0, u1, radii, times)
    de_dt = source_r(st_t, radii) - dissipation_f_effective(st_t, radii)
    worst = float(np.max(de_dt + phi(radii) * energy_e(st_t, radii)))
    return Check("differential-decay: dE/dt + phi*E <= 1e-10 along solutions",
                 worst <= 1e-10, 1e-10 - worst)


# ---------------------------------------------------------------------------
# experiment runners (shared by the CLI and the acceptance suite)


def run_simulate(p0, p1, N, mode, tgrid, seed=0, rel_tol=1e-9) -> ExperimentReport:
    rep = ExperimentReport(
        name="simulate",
        parameters={"N": N, "mode": PropagatorMode(mode).value, "seed": seed,
                    "u0": p0.label, "u1": p1.label},
    )
    rep.traces.append(energy_trace(p0, p1, N, tgrid, mode, rel_tol))
    rep.traces.append(l2_trace(p0, p1, N, tgrid, mode, rel_tol))

    rng = np.random.default_rng(seed)
    radii = np.linspace(0.0, 10.0, 21)
    t_out = np.array([0.5, 2.0, 5.0, 10.0, 20.0])
    u0s, u1s = (x.reshape(-1, 1) for x in _random_states(rng, 5))
    ou, ov = oracle_grid(u0s, u1s, radii, t_out)
    st = propagate_closed(u0s, u1s, radii, t_out.reshape(-1, 1, 1), PropagatorMode.ODE)
    scale = np.maximum(np.maximum(np.abs(st.u_hat), np.abs(st.v_hat)), 1e-300)
    worst = float(np.max(np.maximum(np.abs(ou - st.u_hat), np.abs(ov - st.v_hat)) / scale))
    rep.checks.append(Check("closed-form vs numerical oracle <= 1e-8 relative",
                            worst <= 1e-8, 1e-8 - worst))

    for t in (1.0, 5.0, 10.0):
        resid = energy_identity_residual(p0, p1, N, t, mode)
        rep.checks.append(Check(f"energy-identity residual at t={t:g} <= 1e-6",
                                resid <= 1e-6, 1e-6 - resid))

    ev = rep.traces[0].values
    mono = float(np.min(ev[:-1] - ev[1:])) if len(ev) > 1 else 0.0
    rep.checks.append(Check("energy trace non-increasing", mono >= -1e-12 * ev[0], mono))

    rr = np.linspace(0.0, 6.0, 25)
    tt = np.linspace(0.0, 12.0, 25).reshape(-1, 1)
    defect = closed_form_defect(1.0 + 0.3j, -0.7 + 1j, rr, tt, mode)
    if PropagatorMode(mode) is PropagatorMode.ODE:
        dmax = float(np.max(np.abs(defect)))
        rep.checks.append(Check("closed-form defect < 1e-10", dmax < 1e-10, 1e-10 - dmax))
    else:
        st = propagate_closed(1.0 + 0.3j, -0.7 + 1j, rr, tt, mode)
        gap = float(np.max(np.abs(defect - (3.0 * PI_SQ / 16.0) * np.asarray(st.u_hat))))
        rep.checks.append(Check(
            "quarter-frequency defect equals (3 pi^2/16) u exactly",
            gap < 1e-10, 1e-10 - gap))
    return rep


def run_decay(p0, p1, N, mode, tgrid, rel_tol=1e-9) -> ExperimentReport:
    rep = ExperimentReport(
        name="decay",
        parameters={"N": N, "mode": PropagatorMode(mode).value,
                    "u0": p0.label, "u1": p1.label},
    )
    e_tr = energy_trace(p0, p1, N, tgrid, mode, rel_tol)
    rep.traces.append(e_tr)
    e_fit = fit_rate(e_tr, "power")
    rep.fits.append(e_fit)

    has_mass = abs(p1.P1) > 0 or abs(p0.P1) > 0
    if has_mass:
        gap = abs(e_fit.rate + N / 2.0)
        rep.checks.append(Check(
            f"total-energy decay exponent = -{N / 2:.2f} +- 0.10",
            gap <= 0.10, 0.10 - gap))
    else:
        rep.checks.append(Check(
            f"total-energy decay exponent <= -{N / 2:.2f} + 0.10",
            e_fit.rate <= -N / 2.0 + 0.10, -N / 2.0 + 0.10 - e_fit.rate))

    # with both masses zero the r^2 terms lead; hat_z(1e-8) gives their ratio
    c0, c1 = (p0.P1, p1.P1) if has_mass else (p0.hat_z(1e-8), p1.hat_z(1e-8))
    theta = math.atan2(c0, c1 / carrier_frequency(mode))
    peak_times = carrier_peak_times(tgrid.lo, tgrid.hi, tgrid.count, mode, theta)
    l_tr = l2_trace(p0, p1, N, peak_times, mode, rel_tol)
    rep.traces.append(l_tr)
    l_fit = fit_rate(l_tr, "power")
    rep.fits.append(l_fit)
    rep.parameters["l2_squared_rate"] = l_fit.rate
    rep.parameters["l2_norm_rate"] = 0.5 * l_fit.rate  # reported, not asserted

    if has_mass:
        gap = abs(l_fit.rate + N / 2.0)
        rep.checks.append(Check(
            f"squared-norm decay exponent = -{N / 2:.2f} +- 0.10 (mass-carrying datum)",
            gap <= 0.10, 0.10 - gap))
    else:
        floor = -(N + 2.0) / 2.0 + 0.10
        rep.checks.append(Check(
            f"squared-norm decay exponent <= {floor:.2f} (zero-mass datum)",
            l_fit.rate <= floor, floor - l_fit.rate))
    return rep


def run_profile(p1, N, tgrid, rel_tol=1e-9) -> ExperimentReport:
    """Leading-term error experiment, quarter-frequency mode, u0 = 0."""
    mode = PropagatorMode.PAPER
    rep = ExperimentReport(
        name="profile",
        parameters={"N": N, "mode": mode.value, "u1": p1.label},
    )
    # a zero-mass datum leaves only the carrier-locked term, which vanishes on
    # a periodic time set; sample its envelope at carrier peaks
    if abs(p1.P1) > 0:
        low_times = _times(tgrid)
    else:
        low_times = carrier_peak_times(tgrid.lo, tgrid.hi, tgrid.count, mode)
    low = profile_error_trace(p1, N, low_times, "low", rel_tol)
    rep.traces.append(low)
    low_fit = fit_rate(low, "power")
    rep.fits.append(low_fit)

    if abs(p1.P1) > 0:
        inside = -0.6 <= low_fit.rate <= -0.4
        margin = min(low_fit.rate + 0.6, -0.4 - low_fit.rate)
        rep.checks.append(Check(
            "low-band error exponent within [-0.6, -0.4]", inside, margin))
    else:
        floor = -(N + 2.0) / 2.0 + 0.10
        rep.checks.append(Check(
            f"low-band error exponent <= {floor:.2f} (zero-mass datum)",
            low_fit.rate <= floor, floor - low_fit.rate))

    # calibrate the stated two-power bound on the first half of the window,
    # then require domination on the second half
    mid = math.sqrt(low.times[0] * low.times[-1])
    first = low.times <= mid
    shape = (p1.l11 ** 2 * low.times ** (-(N + 2.0) / 2.0)
             + p1.P1 ** 2 * low.times ** (-(N - 2.0) / 2.0))
    if np.any(shape[first] > 0):
        c_cal = float(np.max(low.values[first] / shape[first]))
        dom = c_cal * shape[~first] - low.values[~first]
        dom_margin = float(np.min(dom / np.maximum(low.values[~first], 1e-300)))
        rep.parameters["bound_calibration"] = c_cal
        rep.checks.append(Check(
            "calibrated two-power bound dominates the low-band error",
            dom_margin >= 0.0, dom_margin))

    # the high band underflows double precision past t ~ 1000 (values ~ 2^{-t}),
    # so its fit window sits at moderate times, ending by the whole carrier
    # periods of the additivity times below past t = 60
    periods = max(0, math.floor((N / 2.0 - 5.0) / 4.0) + 1)
    t_lo, t_hi = max(5.0, N / 2.0 + 1.5), 60.0 + 4.0 * periods
    if abs(p1.P1) > 0:
        high_times = np.linspace(t_lo, t_hi, 23)
    else:
        high_times = np.arange(math.ceil((t_lo - 2.0) / 4.0) * 4.0 + 2.0, t_hi, 4.0)
    high = profile_error_trace(p1, N, high_times, "high", rel_tol)
    rep.traces.append(high)
    high_fit = fit_rate(high, "exponential")
    rep.fits.append(high_fit)
    slope_cap = -min(8.0 / 9.0, (2.0 / 3.0) * math.log(2.0)) + 0.05
    rep.checks.append(Check(
        f"high-band log-linear slope <= {slope_cap:.4f}",
        high_fit.rate <= slope_cap, slope_cap - high_fit.rate))

    # exact three-term split of the solution; |u_hat| grows like pi^{N/2} with
    # the Gaussian's amplitude, so above |u_hat| = 100 the bound is relative
    r = np.linspace(0.0, 3.0, 16)
    t = np.array([0.5, 1.0, 7.3, 20.0]).reshape(-1, 1)
    terms = profile_terms(p1, r, t)
    u_hat = propagate_closed(0.0, p1.hat_z(r * r), r, t, mode).u_hat
    worst = float(np.max(np.abs(u_hat - (terms.f1 + terms.f2 + terms.f3))))
    bound = max(1e-12, 1e-14 * float(np.max(np.abs(u_hat))))
    rep.checks.append(Check("exact split u = F1 + F2 + F3 to 1e-12",
                            worst <= bound, bound - worst))

    # the frequency regions partition at radius 1 (times off the carrier zeros,
    # moved by whole carrier periods until the high band's t > N/2 + 1 holds)
    t_shared = np.array([6.0, 14.0, 26.0, 46.0]) + 4.0 * periods
    v_low = profile_error_trace(p1, N, t_shared, "low").values
    v_high = profile_error_trace(p1, N, t_shared, "high").values
    v_all = profile_error_trace(p1, N, t_shared, "all").values
    add_gap = float(np.max(np.abs(v_all - (v_low + v_high)) / np.maximum(v_all, 1e-300)))
    rep.checks.append(Check("region additivity: all = low + high within 1e-6 relative",
                            add_gap <= 1e-6, 1e-6 - add_gap))
    return rep


def run_optimality(N, tgrid) -> ExperimentReport:
    """Raw and t^{N/2}-normalized traces of the sin^2 comparison integral (one
    quadrature.optimality_integral call for the whole trace), with its
    two-sided window checks, the agreement with one quadrature.substitution_oracle
    call for the whole trace, the sin^2 <= 1
    majorant omega_N (I_{N-1} + J_{N-1}), taken in closed form as omega_N
    B(N/2, t - N/2) / 2 through quadrature.log_beta, the exponent fit and the
    anchors A_N and F_N(t_hi) of the floor check."""
    rep = ExperimentReport(name="optimality", parameters={"N": N})
    times = _times(tgrid)
    with np.errstate(over="ignore"):
        scale = times ** (N / 2.0)
    if not np.all(np.isfinite(scale)):
        t_over = float(times[~np.isfinite(scale)][0])
        raise ValueError(f"normalized comparison integral at N={N}, t={t_over:g}: "
                         f"t^(N/2) overflows a float")
    raw = quadrature.optimality_integral(N, times)
    oracle = quadrature.substitution_oracle(N, times)
    norm = raw * scale
    t_raw = Trace(times, raw, "comparison-integral")
    rep.traces += [t_raw, Trace(times, norm, "comparison-integral-normalized")]

    a_n = quadrature.a_const(N)
    f_end = quadrature.f_osc(N, float(times[-1]))
    omega = quadrature.surface_area(N)
    lower_floor = omega * (a_n - f_end) * 0.95
    rel_gap = float(np.max(np.abs(raw - oracle) / np.abs(raw)))
    log_omega = math.log(omega)
    majorant = np.array([math.exp(log_omega + log_b - math.log(2.0))
                         for log_b in quadrature.log_beta(N / 2.0, times - N / 2.0)])
    ratio = float(norm.max() / norm.min()) if norm.min() > 0 else math.inf
    rep.checks += [
        Check("two-sided-window: normalized comparison integral positive",
              bool(norm.min() > 0), float(norm.min())),
        Check("two-sided-window: normalized max/min <= 3",
              bool(ratio <= 3.0), 3.0 - ratio),
        Check("lower-bound-constant: normalized min >= 0.95 * omega_N (A_N - F_N(t_hi))",
              bool(norm.min() >= lower_floor), float(norm.min() - lower_floor)),
        Check("substitution-oracle agreement <= 1e-8 relative",
              bool(rel_gap <= 1e-8), 1e-8 - rel_gap),
        Check("sin^2 <= 1 majorant: raw <= omega_N (I_{N-1} + J_{N-1})",
              bool(np.all(raw <= majorant)), float(np.min(majorant - raw))),
    ]
    raw_fit = fit_rate(t_raw, "power")
    rep.fits.append(raw_fit)
    gap = abs(raw_fit.rate + N / 2.0)
    rep.checks.append(Check(
        f"comparison-integral exponent = -{N / 2:.2f} +- 0.05", gap <= 0.05, 0.05 - gap))

    # relative at f_osc's rel_tol once A_N is large (1.8e5 at N = 20, 3e62 at 100)
    gamma_val = 0.5 * math.gamma(N / 2.0)
    a_gap, a_bound = abs(a_n - gamma_val), max(1e-10, 1e-13 * a_n)
    rep.checks.append(Check("A_N by quadrature matches Gamma(N/2)/2 to 1e-10",
                            a_gap <= a_bound, a_bound - a_gap))
    f_gap, f_bound = abs(f_end - 0.5 * a_n), max(5e-3, 1e-13 * a_n)
    rep.parameters["f_osc_at_t_hi"] = f_end
    rep.checks.append(Check("|F_N(t_hi) - A_N/2| < 5e-3", f_gap < f_bound, f_bound - f_gap))
    return rep


def run_lemmas(N=3, seed=0) -> ExperimentReport:
    """Inequality sweeps and model-integral anchors; the sweeps are defined for
    mode "ode" only."""
    rep = ExperimentReport(
        name="lemmas",
        parameters={"N": N, "mode": PropagatorMode.ODE.value, "seed": seed},
    )
    rep.checks += inequality_sweep(seed=seed)

    worst = 0.0
    for t in (2.0, 5.0, 11.0, 101.0):
        exact_i = (1.0 - 2.0 ** (1.0 - t)) / (2.0 * (t - 1.0))
        exact_j = 2.0 ** (-t) / (t - 1.0)
        worst = max(worst, abs(quadrature.integral_Ip(1.0, t) - exact_i) / exact_i,
                    abs(quadrature.integral_Jp(1.0, t) - exact_j) / exact_j)
    rep.checks.append(Check("I_1/J_1 match closed forms to 1e-12 relative",
                            worst <= 1e-12, 1e-12 - worst))

    ts_i = np.geomspace(50.0, 5000.0, 12)
    w_i = np.array([quadrature.integral_Ip(0.0, float(t)) * math.sqrt(t) for t in ts_i])
    rep.traces.append(Trace(ts_i, w_i, "I0-normalized"))
    ratio_i = float(w_i.max() / w_i.min()) if w_i.min() > 0 else math.inf
    rep.checks.append(Check("I_0(t) sqrt(t) window: positive, max/min <= 3",
                            w_i.min() > 0 and ratio_i <= 3.0, 3.0 - ratio_i))

    ts_j = np.linspace(50.0, 200.0, 7)
    w_j = np.array([quadrature.integral_Jp(2.0, float(t)) * (t - 1.0) * 2.0 ** t
                    for t in ts_j])
    rep.traces.append(Trace(ts_j, w_j, "J2-normalized"))
    ratio_j = float(w_j.max() / w_j.min()) if w_j.min() > 0 else math.inf
    rep.checks.append(Check("J_2(t)(t-1)2^t window: positive, max/min <= 3",
                            w_j.min() > 0 and ratio_j <= 3.0, 3.0 - ratio_j))

    ivals = [quadrature.integral_Ip(2.0, t) for t in (2.0, 4.0, 8.0, 16.0)]
    mono = float(np.min(np.diff(ivals) * -1.0))
    rep.checks.append(Check("I_p strictly decreasing in t", mono > 0, mono))

    # additivity against a single pass over (0, inf)
    p_add, t_add = 2.0, 5.0

    def f(r):
        return np.exp(-t_add * np.log1p(r * r)) * np.power(r, p_add)

    split = quadrature.integral_Ip(p_add, t_add) + quadrature.integral_Jp(p_add, t_add)
    single = quadrature.integrate(f, 0.0, 300.0, tol=1e-300, rel_tol=1e-12,
                                  breakpoints=np.geomspace(1e-3, 300.0, 64)).value
    add_gap = abs(split - single) / single
    rep.checks.append(Check("I_p + J_p equals the single-pass integral (1e-10 rel)",
                            add_gap <= 1e-10, 1e-10 - add_gap))
    return rep


def run_all(p0, p1, N, mode, tgrid, seed=0, rel_tol=1e-9) -> list[ExperimentReport]:
    return [
        run_simulate(p0, p1, N, mode, tgrid, seed, rel_tol),
        run_decay(p0, p1, N, mode, tgrid, rel_tol),
        run_profile(p1, N, tgrid, rel_tol),
        run_optimality(N, tgrid),
        run_lemmas(N, seed),
    ]


# ---------------------------------------------------------------------------
# report serialization


def _slug(label: str) -> str:
    out = re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")
    return out or "trace"


def report_as_dict(report: ExperimentReport) -> dict:
    params = {k: (float(v) if isinstance(v, (np.floating, np.integer)) else v)
              for k, v in report.parameters.items()}
    return {
        "name": report.name,
        "parameters": params,
        "all_passed": bool(report.all_passed),
        "traces": [{"label": tr.label, "csv": f"{_slug(tr.label)}.csv",
                    "points": int(len(tr.times))} for tr in report.traces],
        "fits": [{"trace": f.trace_label, "model": f.model, "rate": f.rate,
                  "intercept": f.intercept, "max_residual": f.max_residual,
                  "window": list(f.window)} for f in report.fits],
        "checks": [{"description": c.description, "passed": bool(c.passed),
                    "margin": float(c.margin)} for c in report.checks],
    }


def write_report(report: ExperimentReport, out_dir) -> Path:
    """Write report.json plus one CSV per trace under out_dir/<name>/."""
    base = Path(out_dir) / report.name
    base.mkdir(parents=True, exist_ok=True)
    for tr in report.traces:
        lines = ["t,value"]
        lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(tr.times, tr.values)]
        (base / f"{_slug(tr.label)}.csv").write_text("\n".join(lines) + "\n",
                                                     encoding="utf-8")
    payload = json.dumps(report_as_dict(report), indent=2, sort_keys=True)
    (base / "report.json").write_text(payload + "\n", encoding="utf-8")
    return base
