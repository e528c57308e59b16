"""Adaptive radial quadrature with certified improper tails.

Everything here integrates real-valued radial functions.  The workhorse is
:func:`integrate`, an adaptive panel scheme with a pair of Gauss rules (G7 and
G15, which share only the node 0, so a panel costs 22 evals): panels are
bisected greedily, worst error first, until the summed panel-error estimate
meets the tolerance.  An integrand may also return m values per abscissa, an
(n, m) array: all m components then share one panel tree (the rule of
scipy's quad_vec), each is held to its own target, and a panel is bisected
while any component misses its target.  On top of it sit the model integrals
I_p / J_p, the sin^2 comparison integral with its substitution oracle, and
the Gaussian moments A_N / F_N(t).  One loop, :func:`_tail_cut`, cuts the
improper tails of J_p and of both comparison routes: it certifies a cut with
the bound (1+R^2)^{-(t-N/2)} / (2(t-N/2)) or refuses with TailNotBounded.

Oscillatory integrands are handled by seeding panel edges at quarter-period
increments of the known phase, never by letting the bisection discover the
oscillation on its own (which can alias silently).
"""

from __future__ import annotations

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


# Gauss pair on [-1, 1], not embedded: the two rules share only the node 0.
# The 15-point value is returned, the 7-point value only feeds the error
# estimate.
_G7_X, _G7_W = np.polynomial.legendre.leggauss(7)
_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)

_CMP_TOL = 1e-10  # relative tolerance of both routes to the comparison integral


def surface_area(n: int) -> float:
    """Surface area of the unit sphere in R^n, 2 pi^{n/2} / Gamma(n/2)."""
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


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
    """Evaluate the G15/G7 pair on a batch of panels.

    Returns (value15, abs(value15 - value7)) per panel, each (P,) or, for m
    components, (m, P); 22 evals per panel.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    f15 = _at_nodes(f, mid[:, None] + half[:, None] * _G15_X[None, :])
    f7 = _at_nodes(f, mid[:, None] + half[:, None] * _G7_X[None, :])
    v15 = half * (f15 * _G15_W).sum(axis=-1)
    v7 = half * (f7 * _G7_W).sum(axis=-1)
    return v15, np.abs(v15 - v7)


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

    `breakpoints` pre-seeds panel edges (deduplicated, clipped to (a, b));
    use them whenever the integrand oscillates on a known scale.  Raises
    NonConvergence if the panel budget runs out first, or at once when the
    integrand turns non-finite; ValueError when f returns another shape.
    """
    if not (tol > 0.0) and not (rel_tol > 0.0):
        raise ValueError("need a positive tol or rel_tol")
    if a > b:
        raise ValueError(f"inverted interval [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    edges = [a, b]
    if breakpoints is not None:
        inner = np.asarray(sorted(set(float(x) for x in breakpoints)))
        inner = inner[(inner > a) & (inner < b)]
        edges = np.concatenate([[a], inner, [b]])
    edges = np.unique(np.asarray(edges, dtype=float))

    lo, hi = edges[:-1], edges[1:]
    if len(lo) > max_panels:
        raise NonConvergence(f"{len(lo)} seed panels exceed budget {max_panels}")
    vals, errs = _panel_values(f, lo, hi)
    evals = 22 * len(lo)
    # scalars keep their own loop: merged, bisection-heavy ones ran 1.4-1.8x slower
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
            raise NonConvergence(
                f"error {total_err:.3e} > target {target:.3e} after {n_panels} panels"
            )
        if heap is None:
            heap = [(-errs[i], i, lo[i], hi[i], vals[i]) for i in range(len(lo))]
            heapq.heapify(heap)
            counter = len(lo)
        neg_err, _, pa, pb, pval = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            # worst panel already at floating-point resolution: no further
            # refinement can reduce the dominant error term
            raise NonConvergence(
                f"panel [{pa}, {pb}] at machine resolution with error {-neg_err:.3e}"
            )
        l2, h2 = np.array([pa, pm]), np.array([pm, pb])
        v2, e2 = _panel_values(f, l2, h2)
        evals += 44
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
                                 f"{target[j]:.3e} after {n_panels} panels")
        if heap is None:
            key = (errs / scale[:, None]).max(axis=0)
            heap = [(-key[i], i, lo[i], hi[i], vals[:, i], errs[:, i])
                    for i in range(len(lo))]
            heapq.heapify(heap)
            counter = len(lo)
        neg_key, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            raise NonConvergence(f"panel [{pa}, {pb}] at machine resolution with "
                                 f"scaled error {-neg_key:.3e}")
        l2, h2 = np.array([pa, pm]), np.array([pm, pb])
        v2, e2 = _panel_values(f, l2, h2)
        evals += 44
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


def quarter_period_radii(t: float, r_lo: float, r_hi: float) -> np.ndarray:
    """Radii where the phase t*sqrt(log(1+r^2)) crosses multiples of pi/4.

    These seed panel edges so each panel spans at most a quarter period of
    sin(t sqrt(log(1+r^2))), the aliasing guard for large t.
    """
    if t <= 0 or r_hi <= r_lo:
        return np.empty(0)
    ph_lo = t * math.sqrt(math.log1p(r_lo * r_lo))
    ph_hi = t * math.sqrt(math.log1p(r_hi * r_hi))
    k_lo = int(math.ceil(ph_lo / (math.pi / 4)))
    k_hi = int(math.floor(ph_hi / (math.pi / 4)))
    if k_hi < k_lo:
        return np.empty(0)
    k = np.arange(max(k_lo, 1), k_hi + 1, dtype=float)
    return np.sqrt(np.expm1((k * math.pi / (4.0 * t)) ** 2))


def _geom_fill(lo: float, hi: float, per_decade: int = 8) -> np.ndarray:
    if hi <= lo or lo <= 0:
        return np.empty(0)
    n = max(4, int(per_decade * math.log10(hi / lo)) + 1)
    return np.geomspace(lo, hi, n)


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


def _comparison_value(N: int, t: float, integral: float) -> float:
    """omega_N * integral, refused below the normal float range: there the
    relative target is out of reach, and a zero passes the tail test of
    :func:`_tail_cut` as 0 <= 0 once the bound underflows."""
    value = surface_area(N) * integral
    if not value >= sys.float_info.min:
        raise ValueError(f"comparison integral at N={N}, t={t:g} underflows a float "
                         f"({value:.3g} < {sys.float_info.min:.3g})")
    return value


def _tail_cut(name: str, N: float, t: float, rel_tol: float, head: Callable,
              r_lo: float = 0.0, factor: float = 1.0) -> float:
    """An integral from r_lo to infinity: the one cut loop of this module.

    head(y, R) integrates from r_lo to R = log_radius(y^2) to relative
    rel_tol; the tail beyond R must be at most factor e^{-(t-N/2) y^2} /
    (2(t-N/2)), which factor 1 gives for |f| <= (1+r^2)^{-t} r^{N-1}, N >= 2
    (as r^{N-2} <= (1+r^2)^{(N-2)/2}).  The first cut is where that bound has
    fallen by e^{-X}, X = log(1/rel_tol) + 40, from its value at r_lo; y grows
    by 1.5 per pass until the bound is at most 0.1 rel_tol |value|.  Raises
    TailNotBounded, naming the integral and t, once R leaves the float range.
    """
    decay = t - N / 2.0
    y = math.sqrt(math.log1p(r_lo * r_lo) + (math.log(1.0 / rel_tol) + 40.0) / decay)
    while True:
        try:
            r_hi = log_radius(y * y)
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
    r^2 >= (1+r^2)/2 on r >= 1.  Raises TailNotBounded when 2t <= p + 1 or
    when the cut leaves the float range.
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
    return _tail_cut(f"J_{p:g}", p + 1.0, t, 1e-13, head, r_lo=1.0, factor=factor)


def optimality_integral(N: int, t: float) -> float:
    """omega_N * int_0^inf (1+r^2)^{-t} sin^2(t sqrt(log(1+r^2))) r^{N-1} dr.

    Panels are pre-seeded at quarter-period phase increments; with
    sin^2 <= 1 the tail is cut by :func:`_tail_cut`, so the panel count grows
    like sqrt(t).  Raises ValueError when the value underflows a float.
    """
    if N < 3:
        raise ValueError("requires N >= 3")
    if t <= N / 2.0 + 1.0:
        raise ValueError(f"requires t > N/2 + 1 (got t={t})")

    def f(r):
        L = np.log1p(r * r)
        return np.exp(-t * L) * np.sin(t * np.sqrt(L)) ** 2 * np.power(r, N - 1)

    def head(y, r_hi):
        seeds = np.concatenate([quarter_period_radii(t, 0.0, r_hi),
                                _geom_fill(r_hi * 1e-8, r_hi)])
        return integrate(f, 0.0, r_hi, tol=1e-300, rel_tol=_CMP_TOL,
                         breakpoints=seeds).value

    integral = _tail_cut(f"comparison integral (N={N})", N, t, _CMP_TOL, head)
    return _comparison_value(N, t, integral)


def substitution_oracle(N: int, t: float) -> float:
    """Independent route to :func:`optimality_integral`.

    Change of variables y = sqrt(log(1+r^2)) maps the integral to
    omega_N * int_0^inf y e^{(1-t)y^2} (e^{y^2}-1)^{(N-2)/2} sin^2(t y) dy,
    cut at the same y by :func:`_tail_cut`.  Raises ValueError when the value
    underflows a float.
    """
    if N < 3:
        raise ValueError("requires N >= 3")
    if t - N / 2.0 <= 1.0:
        raise ValueError(f"requires t > N/2 + 1 (got t={t})")

    def g(y):
        return (
            y
            * np.exp((1.0 - t) * y * y)
            * np.power(np.expm1(y * y), 0.5 * (N - 2))
            * np.sin(t * y) ** 2
        )

    def head(y_cut, r_hi):
        k = np.arange(1, int(4.0 * t * y_cut / math.pi) + 1, dtype=float)
        seeds = np.concatenate([k * math.pi / (4.0 * t), _geom_fill(y_cut * 1e-8, y_cut)])
        return integrate(g, 0.0, y_cut, tol=1e-300, rel_tol=_CMP_TOL,
                         breakpoints=seeds).value

    integral = _tail_cut(f"substitution oracle (N={N})", N, t, _CMP_TOL, head)
    return _comparison_value(N, t, integral)


def _gauss_moment_cut(N: int) -> float:
    # smallest Y in a short ladder with tail int_Y^inf y^{N-1} e^{-y^2} dy
    # <= Y^{N-2} e^{-Y^2} <= 1e-13, a tenth of f_osc's tol (valid once Y^2 >= N-1)
    for Y in (6.0, 7.0, 8.0, 9.0, 10.0, 12.0):
        if Y * Y >= N - 1 and Y ** max(N - 2, 0) * math.exp(-Y * Y) <= 1e-12 / 10.0:
            return Y
    return 14.0


def a_const(N: int) -> float:
    """A_N = int_0^inf e^{-y^2} y^{N-1} dy, by quadrature (equals Gamma(N/2)/2).

    The same Gaussian moment as F_N(0), where cos^2 is identically 1."""
    return f_osc(N, 0.0)


def f_osc(N: int, t: float) -> float:
    """F_N(t) = int_0^inf e^{-y^2} cos^2(sqrt(t) y) y^{N-1} dy, to 1e-12 absolute.

    Tends to A_N / 2: the mean of cos^2 survives, the oscillatory half washes
    out.  Panels are kept below a quarter period of cos(sqrt(t) y).
    """
    if N < 3:
        raise ValueError("requires N >= 3")
    if t < 0:
        raise ValueError("requires t >= 0")
    Y = _gauss_moment_cut(N)

    w = math.sqrt(t)

    def g(y):
        return np.exp(-y * y) * np.cos(w * y) ** 2 * np.power(y, N - 1)

    seeds = np.linspace(0.0, Y, 16)[1:-1]
    if w > 0:
        k = np.arange(1, int(4.0 * w * Y / math.pi) + 1, dtype=float)
        seeds = np.concatenate([seeds, k * math.pi / (4.0 * w)])
    res = integrate(g, 0.0, Y, tol=1e-12, rel_tol=1e-13, breakpoints=seeds)
    return res.value
