"""Adaptive radial quadrature with certified improper tails.

Everything here integrates real-valued radial functions.  The workhorse is
:func:`integrate`, an adaptive panel scheme with an embedded Gauss pair
(G7 inside G15): panels are bisected greedily, worst error first, until the
summed panel-error estimate meets the tolerance.  On top of it sit the model
integrals I_p / J_p, the sin^2 comparison integral with its substitution
oracle, and the Gaussian moments A_N / F_N(t).

Oscillatory integrands are handled by seeding panel edges at quarter-period
increments of the known phase, never by letting the bisection discover the
oscillation on its own (which can alias silently).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NonConvergence(Exception):
    """Panel budget exhausted before the error target was met."""


class TailNotBounded(Exception):
    """No analytic majorant certifies the improper tail at this parameter."""


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    evals: int


# Embedded Gauss pair on [-1, 1].  The 15-point value is returned, the
# 7-point value only feeds the error estimate.
_G7_X, _G7_W = np.polynomial.legendre.leggauss(7)
_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)


def surface_area(n: int) -> float:
    """Surface area of the unit sphere in R^n, 2 pi^{n/2} / Gamma(n/2)."""
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


def _panel_values(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the G15/G7 pair on a batch of panels.

    Returns (value15, abs(value15 - value7)) per panel; 22 evals per panel.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x15 = mid[:, None] + half[:, None] * _G15_X[None, :]
    x7 = mid[:, None] + half[:, None] * _G7_X[None, :]
    f15 = f(x15.ravel()).reshape(x15.shape)
    f7 = f(x7.ravel()).reshape(x7.shape)
    v15 = half * (f15 * _G15_W[None, :]).sum(axis=1)
    v7 = half * (f7 * _G7_W[None, :]).sum(axis=1)
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

    f must be vectorised: it is called only with a 1-d float array of
    abscissae and must return a same-shaped array of real values.

    `breakpoints` pre-seeds panel edges (deduplicated, clipped to (a, b));
    use them whenever the integrand oscillates on a known scale.  Raises
    NonConvergence if the panel budget runs out first, or at once when the
    integrand turns non-finite.
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

    total = float(vals.sum())
    total_err = float(errs.sum())
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    for i in range(len(lo)):
        heapq.heappush(heap, (-errs[i], counter, lo[i], hi[i], vals[i]))
        counter += 1
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


def integral_Ip(p: float, t: float, tol: float = 0.0, rel_tol: float = 1e-13) -> float:
    """The model integral over [0, 1]: int_0^1 (1+r^2)^{-t} r^p dr, p > -1.

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
    return integrate(f, 0.0, 1.0, tol=max(tol, 1e-300), rel_tol=rel_tol,
                     breakpoints=seeds).value


def _tail_majorant_J(p: float, t: float, r: float) -> float:
    # (1+s^2)^{-t} <= s^{-2t} for s >= 1, so the tail beyond r is at most
    # r^{p+1-2t} / (2t - p - 1).
    return r ** (p + 1.0 - 2.0 * t) / (2.0 * t - p - 1.0)


def integral_Jp(p: float, t: float, tol: float = 0.0, rel_tol: float = 1e-13) -> float:
    """The model integral over [1, inf): int_1^inf (1+r^2)^{-t} r^p dr.

    The improper tail is certified with the r^{-2t} majorant; the split point
    is pushed out until the majorant guarantees less than a tenth of the
    error budget.  Raises TailNotBounded when 2t - p - 1 <= 0.
    """
    if p <= -1:
        raise ValueError("requires p > -1")
    if 2.0 * t - p - 1.0 <= 0.0:
        raise TailNotBounded(f"majorant diverges for p={p}, t={t}")

    def f(r):
        return np.exp(-t * np.log1p(r * r)) * np.power(r, p)

    rough = integrate(f, 1.0, 4.0, tol=1e-300, rel_tol=1e-6).value
    budget = max(tol, rel_tol * abs(rough), 1e-280) / 10.0
    # smallest R with R^{p+1-2t}/(2t-p-1) <= budget
    r_split = (budget * (2.0 * t - p - 1.0)) ** (1.0 / (p + 1.0 - 2.0 * t))
    r_split = min(max(4.0, r_split), 1e12)
    if _tail_majorant_J(p, t, r_split) > 10.0 * budget:
        raise TailNotBounded(f"cannot certify tol={tol}/rel_tol={rel_tol} at p={p}, t={t}")
    res = integrate(f, 1.0, r_split, tol=max(tol, 1e-300), rel_tol=rel_tol,
                    breakpoints=_geom_fill(1.0 + 1e-9, r_split))
    return res.value


def optimality_integral(N: int, t: float, rel_tol: float = 1e-10) -> float:
    """omega_N * int_0^inf (1+r^2)^{-t} sin^2(t sqrt(log(1+r^2))) r^{N-1} dr.

    Panels are pre-seeded at quarter-period phase increments; the far tail is
    certified by the same majorant as J_p (sin^2 <= 1).
    """
    if N < 3:
        raise ValueError("requires N >= 3")
    if t <= N / 2.0 + 1.0:
        raise ValueError(f"requires t > N/2 + 1 (got t={t})")

    def f(r):
        L = np.log1p(r * r)
        return np.exp(-t * L) * np.sin(t * np.sqrt(L)) ** 2 * np.power(r, N - 1)

    X = math.log(1.0 / rel_tol) + 40.0
    r_hi = max(log_radius(min(X / t, 500.0)), 1.0)
    while True:
        seeds = np.concatenate([
            quarter_period_radii(t, 0.0, r_hi),
            _geom_fill(r_hi * 1e-8, r_hi),
        ])
        res = integrate(f, 0.0, r_hi, tol=1e-300, rel_tol=rel_tol, breakpoints=seeds)
        if _tail_majorant_J(N - 1, t, r_hi) <= 0.1 * rel_tol * abs(res.value):
            return surface_area(N) * res.value
        r_hi *= 2.0


def substitution_oracle(N: int, t: float, rel_tol: float = 1e-10) -> float:
    """Independent route to :func:`optimality_integral`.

    Change of variables y = sqrt(log(1+r^2)) maps the integral to
    omega_N * int_0^inf y e^{(1-t)y^2} (e^{y^2}-1)^{(N-2)/2} sin^2(t y) dy,
    with a clean exp tail since the integrand is <= y e^{-(t-N/2) y^2}.
    """
    if N < 3:
        raise ValueError("requires N >= 3")
    decay = t - N / 2.0
    if decay <= 1.0:
        raise ValueError(f"requires t > N/2 + 1 (got t={t})")

    def g(y):
        y = np.asarray(y, dtype=float)
        return (
            y
            * np.exp((1.0 - t) * y * y)
            * np.power(np.expm1(y * y), 0.5 * (N - 2))
            * np.sin(t * y) ** 2
        )

    X = math.log(1.0 / rel_tol) + 40.0
    y_cut = math.sqrt(X / decay)
    while True:
        k = np.arange(1, int(4.0 * t * y_cut / math.pi) + 1, dtype=float)
        seeds = np.concatenate([k * math.pi / (4.0 * t), _geom_fill(y_cut * 1e-8, y_cut)])
        res = integrate(g, 0.0, y_cut, tol=1e-300, rel_tol=rel_tol, breakpoints=seeds)
        tail = math.exp(-decay * y_cut * y_cut) / (2.0 * decay)
        if tail <= 0.1 * rel_tol * abs(res.value):
            return surface_area(N) * res.value
        y_cut *= 1.5


def _gauss_moment_cut(N: int, tol: float) -> float:
    # smallest Y in a short ladder with tail int_Y^inf y^{N-1} e^{-y^2} dy
    # <= Y^{N-2} e^{-Y^2} <= tol/10 (valid once Y^2 >= N-1)
    for Y in (6.0, 7.0, 8.0, 9.0, 10.0, 12.0):
        if Y * Y >= N - 1 and Y ** max(N - 2, 0) * math.exp(-Y * Y) <= tol / 10.0:
            return Y
    return 14.0


def a_const(N: int, tol: float = 1e-12) -> float:
    """A_N = int_0^inf e^{-y^2} y^{N-1} dy, by quadrature (equals Gamma(N/2)/2)."""
    if N < 3:
        raise ValueError("requires N >= 3")
    Y = _gauss_moment_cut(N, tol)

    def g(y):
        return np.exp(-y * y) * np.power(y, N - 1)

    res = integrate(g, 0.0, Y, tol=tol, rel_tol=1e-13,
                    breakpoints=np.linspace(0.0, Y, 16)[1:-1])
    return res.value


def f_osc(N: int, t: float, tol: float = 1e-12) -> float:
    """F_N(t) = int_0^inf e^{-y^2} cos^2(sqrt(t) y) y^{N-1} dy.

    Tends to A_N / 2: the mean of cos^2 survives, the oscillatory half washes
    out.  Panels are kept below a quarter period of cos(sqrt(t) y).
    """
    if N < 3:
        raise ValueError("requires N >= 3")
    if t < 0:
        raise ValueError("requires t >= 0")
    Y = _gauss_moment_cut(N, tol)

    w = math.sqrt(t)

    def g(y):
        return np.exp(-y * y) * np.cos(w * y) ** 2 * np.power(y, N - 1)

    seeds = np.linspace(0.0, Y, 16)[1:-1]
    if w > 0:
        k = np.arange(1, int(4.0 * w * Y / math.pi) + 1, dtype=float)
        seeds = np.concatenate([seeds, k * math.pi / (4.0 * w)])
    res = integrate(g, 0.0, Y, tol=tol, rel_tol=1e-13, breakpoints=seeds)
    return res.value
