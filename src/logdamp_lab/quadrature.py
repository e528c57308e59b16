"""Adaptive radial quadrature with certified improper tails.

Everything here integrates real-valued radial functions.  The workhorse is
:func:`integrate`, an adaptive panel scheme with the 7-point Gauss rule
embedded in the 15-point Kronrod rule (QUADPACK's qk15: 15 evals per panel,
one integrand call and one matrix product, the K15 value and |K15 - G7| as
its error): panels are bisected greedily, worst error first, until the
summed panel-error estimate meets the tolerance.  An integrand may also return m values per abscissa, an
(n, m) array: all m components then share one panel tree (the rule of
scipy's quad_vec), each is held to its own target, and a panel is bisected
while any component misses its target.  On top of it sit the model integrals
I_p / J_p, the sin^2 comparison integral with its substitution oracle and
the Gaussian moments A_N / F_N(t); :func:`log_beta` gives their sum
I_p + J_p = B((p+1)/2, t-(p+1)/2)/2 in closed form.  The comparison integral
is taken by steepest descent (:func:`optimality_integral`): its mean half is
that Beta function, and its cosine half moves onto a path through the saddle
of e^{-t y^2 + 2ity}, where it no longer oscillates at the frequency t; the
substitution oracle stays on the real axis as its independent check.  One
loop, :func:`_tail_cut`, cuts the improper tails of J_p, of the oracle and of
the contour's second leg: its first cut is sized by an estimate of the value,
and it certifies a cut with a bound factor e^{-(t-N/2) y^2} / (2(t-N/2)) or
refuses with TailNotBounded.

Oscillatory integrands are handled by seeding panel edges where the known
phase crosses a multiple of pi/2 (half a period of sin^2), never by letting
the bisection discover the oscillation on its own (which can alias silently).
With 15 nodes per half period and K15 exact to degree 23, a seed panel holds
too little of the oscillation to hide it from |K15 - G7|.  The oracle and
F_N(t) move their sin^2 and cos^2 into the weights, a Filon-type rule (Filon
1928; Iserles & Norsett, Proc. R. Soc. A 2005): 33 Chebyshev–Lobatto nodes
per panel of m half periods, m growing like sqrt(t) up to 1024: at N = 3 an
oracle time costs at most 1,617 evals up to t = 1e8, and its wall is near 2e14.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NonConvergence(Exception):
    """Panel budget exhausted before the error target was met."""


class TailNotBounded(Exception):
    """No analytic majorant certifies the improper tail at this parameter."""


@dataclass(frozen=True)
class QuadResult:
    """Value and error estimate: floats for a scalar integrand, (m,) arrays for
    an (n, m) one.  evals counts abscissae, not abscissae times components."""

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    evals: int


# The 7-point Gauss rule embedded in the 15-point Kronrod rule on [-1, 1]: the
# half tables xgk, wgk, wg of QUADPACK's qk15 (Piessens et al. 1983), nodes
# from 1 down to 0, mirrored below.  The K15 nodes run from -1 to 1 and the
# Gauss nodes are the odd-indexed ones, _K15_X[1::2].  The K15 value is
# returned, the G7 value only feeds the error estimate.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_K15_X = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_K15_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G7_W = np.concatenate([_WG[:-1], _WG[::-1]])
# (15, 2): the K15 weights, and K15 minus G7 with G7 zero off the Gauss nodes
_KG_W = np.stack([_K15_W, _K15_W], axis=1)
_KG_W[1::2, 1] -= _G7_W

# the substitution oracle's 33 Chebyshev–Lobatto nodes on [-1, 1], ascending,
# and its panel budget
_CC_X = -np.cos(np.arange(33) * math.pi / 32.0)
_SIN2_MAX_PANELS = 60_000

_CMP_TOL = 1e-10  # relative tolerance of both routes to the comparison integral
# leg 2 of the contour route costs a few hundred evals where it is taken at
# all, so it is held three digits tighter: cut at _CMP_TOL, its tail leaves
# up to 7e-14 of the value near t = N/2 + 1, and a skip at _CMP_TOL up to
# 1.5e-12 near t = 30 (N = 3), far more than the rest of the route
_LEG_TWO_TOL = 1e-3 * _CMP_TOL
# the first tail cut leaves this fraction of rel_tol times the value estimate:
# a tenth of what the certifying test allows, so an estimate up to 10x high
# still certifies in one pass
_FIRST_CUT = 0.01

# Oscillatory integrands get panel edges where their phase crosses a multiple
# of this step: half a period of sin^2, a quarter period of sin.
_PHASE_STEP = math.pi / 2.0


def surface_area(n: int) -> float:
    """Surface area of the unit sphere in R^n, 2 pi^{n/2} / Gamma(n/2)."""
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


# B_{2k} / (2k (2k-1)), k = 1..6: the Stirling series of lgamma(x) - (x - 1/2)
# log x + x - log(2 pi)/2, whose next term is below 1e-15 / x at x >= 10
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0)


def _stirling_sum(x: float) -> float:
    z = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * z + c
    return acc / x


def log_beta(a: float, b):
    """log B(a, b) for a, b > 0, to about 1e-14 + 1e-15 |log B| absolute; for a
    1-d array b, an array of each element's scalar value, bit for bit.

    With both arguments below 10, three lgamma values.  Otherwise lgamma of
    the smaller argument s plus the Stirling difference lgamma(T - s) -
    lgamma(T), T = a + b, in closed form: the plain lgamma difference cancels,
    and at T = 1e15 it is off by a factor 7.9 in B.
    """
    if np.ndim(b) == 0:
        return _log_beta(a, b)
    return np.array([_log_beta(a, float(x)) for x in b])


def _log_beta(a: float, b: float) -> float:
    if max(a, b) < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    s, T = min(a, b), a + b
    return (math.lgamma(s) - s * math.log(T) + (T - s - 0.5) * math.log1p(-s / T) + s
            + _stirling_sum(T - s) - _stirling_sum(T))


def _at_nodes(f: Callable, x: np.ndarray) -> np.ndarray:
    """f on the (panel, node) abscissae x: (P, k), or (m, P, k) for m components.

    The component layout is contiguous, so each node sum below runs in the
    same order as for a scalar integrand.
    """
    n = x.size
    y = np.asarray(f(x.ravel()))
    if y.shape == (n,):
        return y.reshape(x.shape)
    if y.ndim == 2 and y.shape[0] == n:
        return np.ascontiguousarray(y.T).reshape((y.shape[1],) + x.shape)
    raise ValueError(f"integrand returned shape {y.shape} at {n} abscissae; "
                     f"expected ({n},) or ({n}, m)")


def _panel_values(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Evaluate G7 embedded in K15 on a batch of panels: 15 evals per panel,
    one integrand call, one matrix product.

    Returns (value15, abs(value15 - value7)) per panel, each (P,) or, for m
    components, (m, P): the node values times _KG_W give the K15 sum and the
    K15 - G7 sum at once, G7 reusing the K15 values at the Gauss nodes.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    sums = _at_nodes(f, mid[:, None] + half[:, None] * _K15_X[None, :]) @ _KG_W
    return half * sums[..., 0], np.abs(half * sums[..., 1])


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    rel_tol: float = 0.0,
    breakpoints: Sequence[float] | None = None,
    max_panels: int = 60_000,
) -> QuadResult:
    """Adaptively integrate f over [a, b].

    f must be vectorised: it is called only with a 1-d float array of n
    abscissae and must return real values of shape (n,), or (n, m) for m
    integrands at once.  Each component j is done when its summed error
    estimate is at most max(tol, rel_tol * |total_j|); the run stops when
    every component is done.  Until then the panel with the largest
    err_j / scale_j over j is bisected, scale being the targets of the seed
    pass (for a scalar integrand that is plain worst-error-first).  A seed
    pass that already meets every target returns at once.  A scalar f gets
    float value and error; an (n, m) one gets (m,) arrays.  An empty
    interval returns 0.0 without calling f.

    `breakpoints` pre-seeds panel edges (any shape, flattened, deduplicated,
    clipped to (a, b), NaNs dropped); use them whenever the integrand
    oscillates on a known scale.  Raises NonConvergence if the panel budget
    runs out first, or at once when the integrand turns non-finite;
    ValueError when f returns another shape.
    """
    if not (tol > 0.0) and not (rel_tol > 0.0):
        raise ValueError("need a positive tol or rel_tol")
    if a > b:
        raise ValueError(f"inverted interval [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    edges = [a, b]
    if breakpoints is not None:
        inner = np.asarray(breakpoints, dtype=float).ravel()
        inner = inner[(inner > a) & (inner < b)]
        edges = np.concatenate([[a], inner, [b]])
    edges = np.unique(np.asarray(edges, dtype=float))

    lo, hi = edges[:-1], edges[1:]
    if len(lo) > max_panels:
        raise NonConvergence(f"{len(lo)} seed panels on [{a}, {b}] exceed budget "
                             f"{max_panels}")
    vals, errs = _panel_values(f, lo, hi)
    evals = 15 * len(lo)
    # Scalars keep their own loop.  Routed through _integrate_components they
    # give the same bits but run slower (one Intel Xeon core): exp(-x^2) on
    # [0, 3] with no bisection 72 -> 98 us, sqrt on [0, 1] at rel_tol 1e-13
    # (23 bisections) 0.54 -> 0.97 ms.  Per seed-0 pass the benchmark's
    # pipeline-default / comparison-large-t / traces-mixed-data make 148 / 126
    # / 206 scalar calls (38 / 0 / 78 bisections) and 14 / 1 / 40 vector ones
    # (none); traces-mixed-data's set-up adds 12 scalar calls (99 bisections),
    # 3.2 -> 4.9 ms routed (best of 30, 2-vCPU Xeon VM).
    if vals.ndim == 2:
        return _integrate_components(f, a, b, tol, rel_tol, max_panels,
                                     lo, hi, vals, errs, evals)

    total = float(vals.sum())
    total_err = float(errs.sum())
    heap = None
    n_panels = len(lo)

    while True:
        if not math.isfinite(total_err):
            raise NonConvergence(f"non-finite integrand on [{a}, {b}]: error {total_err}")
        target = max(tol, rel_tol * abs(total))
        if total_err <= target:
            return QuadResult(total, total_err, evals)
        if n_panels + 1 > max_panels:
            raise NonConvergence(f"error {total_err:.3e} > target {target:.3e} on "
                                 f"[{a}, {b}] after {n_panels} panels")
        if heap is None:
            heap = [(-errs[i], i, lo[i], hi[i], vals[i]) for i in range(len(lo))]
            heapq.heapify(heap)
            counter = len(lo)
        neg_err, _, pa, pb, pval = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            # worst panel already at floating-point resolution: no further
            # refinement can reduce the dominant error term
            raise NonConvergence(f"panel [{pa}, {pb}] of [{a}, {b}] at machine "
                                 f"resolution with error {-neg_err:.3e}")
        l2, h2 = np.array([pa, pm]), np.array([pm, pb])
        v2, e2 = _panel_values(f, l2, h2)
        evals += 30
        total += float(v2.sum() - pval)
        total_err += float(e2.sum()) - (-neg_err)
        for i in range(2):
            heapq.heappush(heap, (-e2[i], counter, l2[i], h2[i], v2[i]))
            counter += 1
        n_panels += 1


def _integrate_components(f, a, b, tol, rel_tol, max_panels, lo, hi, vals, errs,
                          evals) -> QuadResult:
    """The loop of :func:`integrate` for (m, P) panel values: one panel tree,
    a target per component, bisection by the largest scaled error."""
    total, total_err = vals.sum(axis=1), errs.sum(axis=1)
    scale = np.maximum(np.maximum(tol, rel_tol * np.abs(total)), sys.float_info.min)
    heap = None
    n_panels = len(lo)

    while True:
        if not np.all(np.isfinite(total_err)):
            raise NonConvergence(f"non-finite integrand on [{a}, {b}]: "
                                 f"error {total_err[~np.isfinite(total_err)][0]}")
        target = np.maximum(tol, rel_tol * np.abs(total))
        if np.all(total_err <= target):
            return QuadResult(total, total_err, evals)
        if n_panels + 1 > max_panels:
            j = int(np.argmax(total_err / target))
            raise NonConvergence(f"component {j}: error {total_err[j]:.3e} > target "
                                 f"{target[j]:.3e} on [{a}, {b}] after {n_panels} panels")
        if heap is None:
            key = (errs / scale[:, None]).max(axis=0)
            heap = [(-key[i], i, lo[i], hi[i], vals[:, i], errs[:, i])
                    for i in range(len(lo))]
            heapq.heapify(heap)
            counter = len(lo)
        neg_key, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            raise NonConvergence(f"panel [{pa}, {pb}] of [{a}, {b}] at machine "
                                 f"resolution with scaled error {-neg_key:.3e}")
        l2, h2 = np.array([pa, pm]), np.array([pm, pb])
        v2, e2 = _panel_values(f, l2, h2)
        evals += 30
        total = total + (v2.sum(axis=1) - pval)
        total_err = total_err + (e2.sum(axis=1) - perr)
        key = (e2 / scale[:, None]).max(axis=0)
        for i in range(2):
            heapq.heappush(heap, (-key[i], counter, l2[i], h2[i], v2[:, i], e2[:, i]))
            counter += 1
        n_panels += 1


def log_radius(x: float) -> float:
    """Inverse of r -> log(1+r^2): the radius where the symbol equals x."""
    return math.sqrt(math.expm1(x))


def _phase_points(w: float, x_lo: float, x_hi: float) -> np.ndarray:
    """The points x > 0 of [x_lo, x_hi] where the phase w*x is a multiple of
    _PHASE_STEP: the one phase grid of this module."""
    k_lo = max(int(math.ceil(w * x_lo / _PHASE_STEP)), 1)
    k_hi = int(math.floor(w * x_hi / _PHASE_STEP))
    return np.arange(k_lo, k_hi + 1, dtype=float) * _PHASE_STEP / w


def phase_radii(t: float, r_lo: float, r_hi: float) -> np.ndarray:
    """Radii of [r_lo, r_hi] where the phase t*sqrt(log(1+r^2)) crosses a
    multiple of _PHASE_STEP = pi/2.

    As panel edges they hold each panel to half a period of
    sin^2(t sqrt(log(1+r^2))): 15 K15 and 7 G7 nodes per half period, the
    aliasing guard for large t.
    """
    y = _phase_points(t, math.sqrt(math.log1p(r_lo * r_lo)),
                      math.sqrt(math.log1p(r_hi * r_hi)))
    return np.sqrt(np.expm1(y * y))


def geom_points(lo: float, hi: float, n: int) -> np.ndarray:
    """n points from lo to hi in geometric progression, both ends exact:
    np.geomspace's values to rounding, in closed form at a fraction of its
    call cost."""
    x = lo * (hi / lo) ** (np.arange(n) / (n - 1))
    x[-1] = hi
    return x


def _geom_fill(lo: float, hi: float) -> np.ndarray:
    """Geometric seed points from lo to hi, 8 per decade and at least 4."""
    if hi <= lo or lo <= 0:
        return np.empty(0)
    n = max(4, int(8 * math.log10(hi / lo)) + 1)
    return geom_points(lo, hi, n)


def integral_Ip(p: float, t: float) -> float:
    """The model integral int_0^1 (1+r^2)^{-t} r^p dr, p > -1, to 1e-13 relative.

    For -1 < p < 0 the endpoint power is absorbed by r = u^{1/(p+1)}, which
    turns the integrand into something smooth.
    """
    if p <= -1:
        raise ValueError("requires p > -1")

    if p >= 0:
        def f(r):
            return np.exp(-t * np.log1p(r * r)) * np.power(r, p)

        seeds = _geom_fill(1e-4, 1.0)
    else:
        beta = 1.0 / (p + 1.0)

        def f(u):
            r = np.power(u, beta)
            return beta * np.exp(-t * np.log1p(r * r))

        seeds = _geom_fill(1e-6, 1.0)
    return integrate(f, 0.0, 1.0, tol=1e-300, rel_tol=1e-13, breakpoints=seeds).value


def _normal_value(what: str, value: float) -> float:
    """value, refused below the normal float range: there the relative target
    is out of reach, and a zero passes the tail test of :func:`_tail_cut` as
    0 <= 0 once the bound underflows."""
    if not value >= sys.float_info.min:
        raise ValueError(f"{what} underflows a float "
                         f"({value:.3g} < {sys.float_info.min:.3g})")
    return value


def _comparison_value(N: int, t, integral):
    """omega_N * integral at a time t or at each of an array of times, refused
    by :func:`_normal_value` at the first subnormal value, whose message is
    the only one formatted."""
    value = surface_area(N) * integral
    for j in np.flatnonzero(~(np.ravel(value) >= sys.float_info.min)):
        _normal_value(f"comparison integral at N={N}, t={np.ravel(t)[j]:g}", np.ravel(value)[j])
    return value


def _comparison_times(N: int, t) -> np.ndarray:
    """t as a 1-d float array, refused unless N >= 3 and every t > N/2 + 1."""
    if N < 3:
        raise ValueError("requires N >= 3")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    low = times[~(times > N / 2.0 + 1.0)]
    if low.size:
        raise ValueError(f"requires t > N/2 + 1 (got t={low[0]})")
    return times


def _comparison_log_scale(N: int, t):
    """log B(N/2, t-N/2)/4 at a time or at each of a 1-d array of times: the
    mean half of the comparison integral over omega_N, which is its value up
    to a relative e^{-t} for odd N."""
    return log_beta(N / 2.0, t - N / 2.0) - math.log(4.0)


def _tail_cut(name: str, N: float, t: float, rel_tol: float, head: Callable,
              log_scale: float, r_lo: float = 0.0, factor: float = 1.0) -> float:
    """An integral from r_lo to infinity: the one cut loop of the lab, serving
    :func:`integral_Jp`, :func:`substitution_oracle` and :func:`_leg_two`.

    head(y, R) integrates from r_lo to R = log_radius(y^2) to relative
    rel_tol (leg 2 of the contour route cuts at x = y and ignores R); the
    tail beyond R must be at most factor e^{-(t-N/2) y^2} / (2(t-N/2)), which
    factor 1 gives for |f| <= (1+r^2)^{-t} r^{N-1}, N >= 2 (as r^{N-2} <=
    (1+r^2)^{(N-2)/2}).  log_scale is the log of an estimate of
    |value|, passed as a log since the value itself may underflow: the first
    cut is where the bound meets _FIRST_CUT rel_tol e^{log_scale}, but not
    below r_lo nor y^2 = 1/(t-N/2), so that y > 0.  y grows by 1.5 per pass
    until the bound is at most 0.1 rel_tol |value|, so the estimate sets the
    work, never the certificate.  Raises TailNotBounded, naming the integral
    and t, once R leaves the float range.
    """
    decay = t - N / 2.0
    log_target = math.log(_FIRST_CUT * rel_tol) + log_scale
    y = math.sqrt(max(math.log1p(r_lo * r_lo), 1.0 / decay,
                      (math.log(factor / (2.0 * decay)) - log_target) / decay))
    while True:
        try:
            # log_radius(y^2), formed here: the oracle cuts once per time
            r_hi = math.sqrt(math.expm1(y * y))
        except OverflowError:
            raise TailNotBounded(f"{name} at t={t:g}: the tail cut log(1+R^2) = "
                                 f"{y * y:.4g} leaves the float range") from None
        value = head(y, r_hi)
        if factor * math.exp(-decay * y * y) / (2.0 * decay) <= 0.1 * rel_tol * abs(value):
            return value
        y *= 1.5


def integral_Jp(p: float, t: float) -> float:
    """The model integral int_1^inf (1+r^2)^{-t} r^p dr, to 1e-13 relative.

    Cut by :func:`_tail_cut` at N = p + 1, times 2^{(1-p)/2} for p < 1 since
    r^2 >= (1+r^2)/2 on r >= 1, from the value estimate 2^{-t} / (2t - p - 1).
    Raises TailNotBounded when 2t <= p + 1 or when the cut leaves the float
    range, ValueError when the value underflows a float.
    """
    if p <= -1:
        raise ValueError("requires p > -1")
    if 2.0 * t - p - 1.0 <= 0.0:
        raise TailNotBounded(f"majorant diverges for p={p}, t={t}")

    def f(r):
        return np.exp(-t * np.log1p(r * r)) * np.power(r, p)

    def head(y, r_hi):
        return integrate(f, 1.0, r_hi, tol=1e-300, rel_tol=1e-13,
                         breakpoints=_geom_fill(1.0 + 1e-9, r_hi)).value

    factor = 2.0 ** (0.5 * (1.0 - p)) if p < 1.0 else 1.0
    log_scale = -t * math.log(2.0) - math.log(2.0 * t - p - 1.0)
    value = _tail_cut(f"J_{p:g}", p + 1.0, t, 1e-13, head, log_scale, r_lo=1.0,
                      factor=factor)
    return _normal_value(f"J_{p:g} at t={t:g}", value)


def optimality_integral(N: int, t):
    """omega_N * int_0^inf (1+r^2)^{-t} sin^2(t sqrt(log(1+r^2))) r^{N-1} dr, by
    steepest descent: a float for a scalar t, an array for a 1-d array of times.

    In y = sqrt(log(1+r^2)) the integrand is e^{-t y^2} sin^2(t y) G(y), with
    G(y) = y^{N-1} e^{y^2} w(y^2)^beta, w(z) = (e^z - 1)/z, beta = (N-2)/2.
    Since sin^2 = (1 - cos 2ty)/2 the integral over omega_N is the mean half
    B(N/2, t-N/2)/4, in closed form by :func:`log_beta`, minus (1/2) Re of
    int_0^inf e^{-t((y-i)^2+1)} G(y) dy.  w has no zero in 0 <= Im y <= 1, so
    that integral moves to the path 0 -> i -> i + inf through the saddle
    y = i: :func:`_leg_one` on y = is, one vector integral over all times and
    zero for odd N, and :func:`_leg_two` on y = x + i, integrated only where
    its closed-form bound :func:`_leg_two_bound` exceeds 0.1 _LEG_TWO_TOL of
    the value.  Neither leg oscillates at the frequency t, so the cost grows
    only like log t, with leg 1's geometric seeds.  Raises ValueError unless N >= 3 and every t > N/2 + 1, and
    when a value underflows a float.
    """
    times = _comparison_times(N, t)
    integral = np.array([math.exp(v) for v in _comparison_log_scale(N, times)])
    if N % 2 == 0:
        integral -= 0.5 * _leg_one(N, times)
    bound = _leg_two_bound(N, times)
    for j in np.flatnonzero(bound > 0.1 * _LEG_TWO_TOL * np.abs(integral)):
        integral[j] = _leg_two(N, float(times[j]), float(integral[j]), float(bound[j]))
    values = _comparison_value(N, times, integral)
    return values[0] if np.ndim(t) == 0 else values


def _leg_one(N: int, times: np.ndarray) -> np.ndarray:
    """Re int_0^i e^{-t((y-i)^2+1)} G(y) dy for even N, one value per time.

    On y = is, G(is) i = i^N s e^{-s^2} (1 - e^{-s^2})^beta and the exponent
    is -ts(2-s), so the value is -(-1)^beta times the integral of a positive
    integrand over s in [0, 1] that does not oscillate; the log of its
    positive factor is the real part of :func:`_log_g` at is.  One vector
    integral over all times, on geometric seeds down past the peak
    s ~ (N-1)/(2t), each time held to _CMP_TOL relative.
    """
    beta = 0.5 * (N - 2)

    def f(s):
        # one exp per (node, time), so that no factor underflows on its own
        log_g = _log_g(N, 1j * s).real
        return np.exp(log_g[:, None] - np.outer(s * (2.0 - s), times))

    res = integrate(f, 0.0, 1.0, tol=1e-300, rel_tol=_CMP_TOL,
                    breakpoints=_geom_fill(0.25 / times.max(), 1.0))
    return -(-1.0) ** beta * res.value


def _leg_two_bound(N: int, times: np.ndarray) -> np.ndarray:
    """The closed-form bound e^{-t-1} q^beta (sqrt(pi/a)/2 + 1/(2a)), a = t-N/2,
    q = 1 + 1/e, on |Re int_i^{i+inf} e^{-t((y-i)^2+1)} G(y) dy|, per time.

    On y = x + i, |G| <= sqrt(x^2+1) e^{x^2-1} (e^{x^2-1}+1)^beta <= (1+x)
    e^{-1} q^beta e^{(1+beta) x^2}, as e^{x^2-1} + 1 <= q e^{x^2}, so the leg's
    integrand e^{-t(1+x^2)} G is at most e^{-t-1} q^beta (1+x) e^{-a x^2}, and
    int_0^inf (1+x) e^{-a x^2} dx is sqrt(pi/a)/2 + 1/(2a).  Beyond any x = X
    the same integral is at most that bound times e^{-a X^2}, the shape
    :func:`_tail_cut` certifies.
    """
    a = times - N / 2.0
    return (np.exp(-times - 1.0 + 0.5 * (N - 2) * math.log1p(math.exp(-1.0)))
            * (0.5 * np.sqrt(math.pi / a) + 0.5 / a))


def _log_g(N: int, y: np.ndarray) -> np.ndarray:
    """log G(y), G(y) = y^{N-1} e^{y^2} w(y^2)^beta, at complex y with Re y >= 0
    and 0 <= Im y <= 1: the one form of G off the real axis.

    G is taken as y^{N-1} e^{y^2} w(y^2)^beta with the principal power where
    Re y^2 < 0 (Re y < Im y), and as y e^{(1+beta) y^2} (1 - e^{-y^2})^beta
    where Re y^2 >= 0: there |e^{-y^2}| <= 1 keeps 1 - e^{-y^2} off the
    principal cut, which it meets at y = i (1 - e < 0), and e^{y^2} - 1, the
    form without e^{(1+beta) y^2} factored out, would overflow.  Both are the
    branch that is real on the real axis, since w has no zero in
    0 <= Im y <= 1.  Callers fold it into one exp with their own exponent, so
    that no factor overflows at large N.
    """
    beta = 0.5 * (N - 2)
    z = y * y
    log_g = np.empty(y.shape, dtype=complex)
    inner = y.real < y.imag
    zi, zo = z[inner], z[~inner]
    log_g[inner] = (N - 1) * np.log(y[inner]) + zi + beta * np.log(np.expm1(zi) / zi)
    log_g[~inner] = np.log(y[~inner]) + (1.0 + beta) * zo + beta * np.log(-np.expm1(-zo))
    return log_g


def _leg_two_integrand(N: int, t: float) -> Callable:
    """x -> Re e^{-t(1+x^2)} G(x + i): the integrand of leg 2, y = x + i, with
    G by :func:`_log_g`."""

    def f(x):
        return np.exp(_log_g(N, x + 1j) - t * (1.0 + x * x)).real

    return f


def _leg_two(N: int, t: float, base: float, bound: float) -> float:
    """base - (1/2) Re int_i^{i+inf} e^{-t((y-i)^2+1)} G(y) dy: the comparison
    integral over omega_N, given base, its mean half and leg 1, and bound,
    the leg's :func:`_leg_two_bound`.

    G oscillates like e^{iNx} on y = x + i, so the panels are seeded at its
    phase points; each cut is held to _LEG_TWO_TOL of base, and the tail is cut
    by :func:`_tail_cut` with the bound of :func:`_leg_two_bound`.
    """
    f = _leg_two_integrand(N, t)

    def head(x_cut, r_hi):
        return base - 0.5 * integrate(f, 0.0, x_cut, tol=_LEG_TWO_TOL * abs(base),
                                      breakpoints=_phase_points(N, 0.0, x_cut)).value

    # factor 2a bound turns _tail_cut's factor e^{-a x^2} / (2a) into bound e^{-a x^2}
    a = t - N / 2.0
    return _tail_cut(f"comparison integral (N={N}) on Im y = 1", N, t, _LEG_TWO_TOL, head,
                     math.log(abs(base)), factor=2.0 * a * bound)


def substitution_oracle(N: int, t):
    """Independent route to :func:`optimality_integral`, on the real axis: a
    float for a scalar t, an array for a 1-d array of times.

    Change of variables y = sqrt(log(1+r^2)) maps the integral to
    omega_N * int_0^inf h(y) sin^2(t y) dy, h(y) = y e^{(1-t)y^2}
    (e^{y^2}-1)^{(N-2)/2}, cut at the same y by :func:`_tail_cut` from the
    mean half, rounded up to whole panels.  h is one exp, since at large N the
    power overflows where the Gaussian underflows; it is written out here,
    not taken from :func:`_log_g`, so that the check shares no code with the
    contour.  sin^2 goes into the weights of :func:`_sin2_head`, whose panels
    resolve only h.  Raises NonConvergence, naming N and t, where they miss
    _CMP_TOL, and ValueError when a value underflows a float.
    """
    times = _comparison_times(N, t)
    integral = np.array([_oracle_integral(N, float(T), float(s))
                         for T, s in zip(times, _comparison_log_scale(N, times))])
    values = _comparison_value(N, times, integral)
    return values[0] if np.ndim(t) == 0 else values


def _oracle_integral(N: int, t: float, log_scale: float) -> float:
    """The oracle's integral over omega_N at one time, first cut by log_scale."""
    beta = 0.5 * (N - 2)

    def h(y):
        z = y * y
        with np.errstate(divide="ignore"):  # log 0 at y = 0, where h is 0
            return y * np.exp((1.0 - t) * z + beta * np.log(np.expm1(z)))

    head = _sin2_head("substitution oracle", N, t, h, t, _CMP_TOL)
    return _tail_cut(f"substitution oracle (N={N})", N, t, _CMP_TOL, head, log_scale)


def _sin2_head(name, N, t, f, w, rel_tol, shift=0) -> Callable:
    """head(y_cut, r_hi=None) = int_0^{y_cut} f(y) sin^2(w y + shift pi/2) dy on panels
    of m half periods, the last past y_cut, m the largest power of two <= 1024 with
    m pi/2 <= sqrt(t)/4 (f varies on that scale), halved while sum |I33 - I17| > rel_tol."""
    m = 1 << min(max(int(math.log2(math.sqrt(t) / (2.0 * math.pi))), 0), 10)

    def head(y_cut, r_hi=None):
        nonlocal m
        while True:
            dy = 0.5 * math.pi * m / w
            panels = math.ceil(y_cut / dy)
            if panels > _SIN2_MAX_PANELS:
                raise NonConvergence(f"{name} at N={N}, t={t:g}: {panels} panels exceed "
                                     f"budget {_SIN2_MAX_PANELS}")
            value, err = _sin2_panels(f, dy, m, panels, shift)
            if err <= rel_tol * abs(value):
                return value
            if m == 1:
                raise NonConvergence(f"{name} at N={N}, t={t:g}: error {err:.3e} > target "
                                     f"{rel_tol * abs(value):.3e} at one half period per panel")
            m //= 2

    return head


def _sin2_panels(f: Callable, dy: float, m: int, panels: int, shift: int = 0):
    """int_0^{panels dy} f(y) sin^2(w y + shift pi/2) dy at w = m pi / (2 dy), and
    its error estimate: the sums over panels of I33 and of |I33 - I17|, each
    panel m half periods long and weighted by :func:`_sin2_weights`."""
    w = _sin2_weights(m)
    fy = f((np.arange(panels)[:, None] + 0.5 * (1.0 + _CC_X)) * dy)
    # panel k starts at k m + shift half periods, and sees cos^2 where that is odd
    sums = np.concatenate([fy[0::2] @ w[shift], fy[1::2] @ w[(m + shift) % 2]])
    return 0.5 * dy * float(sums[:, 0].sum()), 0.5 * dy * float(np.abs(sums[:, 1]).sum())


@functools.cache
def _sin2_weights(m: int) -> np.ndarray:
    """(2, 33, 2) weights on the nodes _CC_X of [-1, 1] for sin^2 over m half
    periods: [p, :, 0] integrates q(x) W_p(x) exactly for every polynomial q
    of degree <= 32, and [p, :, 1] is that rule minus the nested 17-node one
    on _CC_X[::2], which is exact to degree 16.  W_0(x) = sin^2((1+x) m pi/4)
    is a panel that starts on an even half period, W_1 = cos^2 = 1 - W_0 one
    that starts on an odd one.

    A Filon-type rule (Filon 1928; Iserles & Norsett, Proc. R. Soc. A 2005):
    the Clenshaw–Curtis weights of the Chebyshev moments int T_j W_p.  The
    moments of W_0 come from a 32-point Gauss–Legendre rule on each half
    period, O(m) work; those of W_1 from int T_j = 2/(1-j^2), even j.  Built
    once per m, on first use.
    """
    # Golub–Welsch: the nodes and weights of Gauss–Legendre from its Jacobi matrix
    k = np.arange(1.0, 32.0)
    g, vec = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    x = ((np.arange(m)[:, None] + 0.5 * (1.0 + g)) * (2.0 / m) - 1.0).ravel()
    sin2 = np.sin(0.25 * m * math.pi * (1.0 + x)) ** 2
    mu_sin = _chebyshev(x, 32) @ (np.tile(2.0 * vec[0] ** 2 / m, m) * sin2)
    mu_one = np.zeros(33)
    mu_one[::2] = 2.0 / (1.0 - np.arange(0.0, 33.0, 2.0) ** 2)
    w = np.empty((2, 33, 2))
    for p, mu in enumerate((mu_sin, mu_one - mu_sin)):
        w[p, :, 0] = w[p, :, 1] = _cc_weights(_CC_X, mu)
        w[p, ::2, 1] -= _cc_weights(_CC_X[::2], mu[:17])
    w.flags.writeable = False
    return w


def _cc_weights(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Weights on the n+1 Chebyshev–Lobatto nodes x that integrate the
    interpolant of degree n against the weight function of moments mu."""
    n = len(x) - 1
    half = np.ones(n + 1)
    half[[0, -1]] = 0.5
    return (2.0 / n) * half * ((half * mu) @ _chebyshev(x, n))


def _chebyshev(x: np.ndarray, n: int) -> np.ndarray:
    """(n+1, len(x)): T_0 .. T_n at x, by their three-term recurrence."""
    T = np.empty((n + 1, len(x)))
    T[0], T[1] = 1.0, x
    for j in range(2, n + 1):
        T[j] = 2.0 * x * T[j - 1] - T[j - 2]
    return T


def _gauss_moment_cut(N: int) -> float:
    # the tail int_Y^inf y^{N-1} e^{-y^2} dy <= Y^{N-2} e^{-Y^2} once Y^2 >= N-1,
    # held to 1e-13 max(1, A_N) in logs: the first Y of a short ladder with tail
    # <= 1e-13, a tenth of A_N's tol 1e-12, else the first of 14, 16, ...
    for Y in (6.0, 7.0, 8.0, 9.0, 10.0, 12.0):
        if Y * Y >= N - 1 and (N - 2) * math.log(Y) - Y * Y <= math.log(1e-13):
            return Y
    Y, log_bound = 14.0, math.log(1e-13) + max(0.0, math.lgamma(0.5 * N) - math.log(2.0))
    while Y * Y < N - 1 or (N - 2) * math.log(Y) - Y * Y > log_bound:
        Y += 2.0
    return Y


def a_const(N: int) -> float:
    """A_N = int_0^inf e^{-y^2} y^{N-1} dy, by quadrature (equals Gamma(N/2)/2).

    The same Gaussian moment as F_N(0), where cos^2 is identically 1."""
    return f_osc(N, 0.0)


def f_osc(N: int, t: float) -> float:
    """F_N(t) = int_0^inf e^{-y^2} cos^2(sqrt(t) y) y^{N-1} dy, to 1e-13 relative.

    Tends to A_N / 2: the mean of cos^2 survives, the oscillatory half washes
    out.  F_N(0) = A_N by K15; for t > 0 cos^2 goes into the oracle's weights
    (:func:`_sin2_head`), which refuse below about t = 0.9 (N = 3) to 1.25
    (N >= 10), where half a period outgrows the envelope."""
    if N < 3:
        raise ValueError("requires N >= 3")
    if t < 0:
        raise ValueError("requires t >= 0")
    Y = _gauss_moment_cut(N)

    def g(y):
        with np.errstate(divide="ignore"):  # log 0 at y = 0, where g is 0
            return np.exp((N - 1) * np.log(y) - y * y)

    if t == 0:
        return integrate(g, 0.0, Y, tol=1e-12, rel_tol=1e-13,
                         breakpoints=np.linspace(0.0, Y, 16)[1:-1]).value
    return _sin2_head("F_N", N, t, g, math.sqrt(t), 1e-13, shift=1)(Y)
