"""Initial-datum profiles with analytic Fourier transforms.

The catalog is deliberately Gaussian-only so that the radial transform and the
mass have closed forms (transform convention F f(xi) = int f(x) e^{-i x.xi} dx,
under which hat(0) equals the mass); the L^{1,1} norm falls back to radial
quadrature where no closed form exists.  Of a non-radial datum only |hat| is
kept, as its transform: paired with a zero datum, every quadratic quantity
sees it through |hat| alone, and the experiments that need the signed
transform refuse it.

Profiles are immutable; all evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quadrature
from .symbols import log_symbol


@dataclass(frozen=True)
class DataProfile:
    """An initial datum, described entirely on the frequency side.

    hat_z is the transform as a function of z = |xi|^2 = r^2, real for real z
    and defined for complex z (the contour routes evaluate it off the real
    axis).  Of a non-radial datum (is_radial False, the shifted_gaussian) hat_z
    is the modulus |hat|, which only a quadratic functional paired with a zero
    datum may read.  l11 = ||u||_{L^{1,1}} = int (1 + |x|) |u| is None for
    non-radial data: its one reader, the profile experiment, refuses them.
    envelope = (A, alpha) certifies |hat(xi)| <= A exp(-alpha |xi|^2) for tail
    cutoffs.
    """

    kind: str
    N: int
    params: tuple
    P1: float
    l11: float | None
    hat_z: Callable = field(repr=False)
    envelope: tuple[float, float] = (0.0, 1.0)

    @property
    def is_radial(self) -> bool:
        return self.kind != "shifted_gaussian"

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.kind}:{inner}" if inner else self.kind


@dataclass(frozen=True)
class ProfileTerms:
    """Values of the three solution pieces F1, F2, F3 at (r, t), real."""

    f1: float | np.ndarray
    f2: float | np.ndarray
    f3: float | np.ndarray


def _gaussian_z(amp: float, a: float) -> Callable:
    """The transform amp exp(-z/(4a)) of a Gaussian of width a, in z = r^2."""
    return lambda z: amp * np.exp(-z / (4.0 * a))


def _weighted_radial_norm(u_abs: Callable, N: int, r_hi: float,
                          breakpoints=None) -> tuple[float, float]:
    """(int |u|, int |x| |u|) over R^N for a radial |u|, by quadrature."""
    w = quadrature.surface_area(N)

    def f0(r):
        return u_abs(r) * np.power(r, N - 1)

    def f1(r):
        return u_abs(r) * np.power(r, N)

    kw = dict(tol=1e-12, rel_tol=1e-11, breakpoints=breakpoints)
    return (
        w * quadrature.integrate(f0, 0.0, r_hi, **kw).value,
        w * quadrature.integrate(f1, 0.0, r_hi, **kw).value,
    )


def make_profile(kind: str, N: int = 3, **params) -> DataProfile:
    """Build a catalog profile: zero, gaussian(a), zero_mean_pair, or
    shifted_gaussian(offset)."""
    if N < 3:
        raise ValueError("requires N >= 3")
    kind = kind.strip().lower()

    if kind == "zero":
        if params:
            raise ValueError(f"unknown zero parameters: {sorted(params)}")
        return DataProfile(
            kind="zero", N=N, params=(), P1=0.0, l11=0.0,
            hat_z=np.zeros_like, envelope=(0.0, 1.0),
        )

    if kind == "gaussian":
        a = float(params.pop("a", 1.0))
        if params:
            raise ValueError(f"unknown gaussian parameters: {sorted(params)}")
        if a <= 0:
            raise ValueError("gaussian width a must be positive")
        amp = (math.pi / a) ** (N / 2.0)
        l11 = amp + quadrature.surface_area(N) * math.exp(
            math.lgamma(0.5 * (N + 1))
        ) / (2.0 * a ** (0.5 * (N + 1)))
        return DataProfile(
            kind="gaussian", N=N, params=(("a", a),), P1=amp, l11=l11,
            hat_z=_gaussian_z(amp, a), envelope=(amp, 1.0 / (4.0 * a)),
        )

    if kind == "zero_mean_pair":
        if params:
            raise ValueError(f"unknown zero_mean_pair parameters: {sorted(params)}")
        amp = math.pi ** (N / 2.0)

        def hat_z(z, amp=amp):
            # e^{-z/4} - e^{-z/8} without the cancellation at small z
            return amp * np.exp(-z / 8.0) * np.expm1(-z / 8.0)

        def u_abs(r):
            r = np.asarray(r, dtype=float)
            return np.abs(np.exp(-r * r) - 2.0 ** (N / 2.0) * np.exp(-2.0 * r * r))

        r_star = math.sqrt(0.5 * N * math.log(2.0))  # sign change of the datum
        l1, first_moment = _weighted_radial_norm(u_abs, N, 14.0, breakpoints=[r_star])
        return DataProfile(
            kind="zero_mean_pair", N=N, params=(), P1=0.0, l11=l1 + first_moment,
            hat_z=hat_z, envelope=(amp, 1.0 / 8.0),
        )

    if kind == "shifted_gaussian":
        c = float(params.pop("offset", 1.0))
        if params:
            raise ValueError(f"unknown shifted_gaussian parameters: {sorted(params)}")
        if c < 0:
            raise ValueError("offset must be nonnegative")
        amp = math.pi ** (N / 2.0)
        # the offset only turns the phase of hat, which no experiment reads:
        # the modulus is the a = 1 Gaussian's transform
        return DataProfile(
            kind="shifted_gaussian", N=N, params=(("offset", c),), P1=amp, l11=None,
            hat_z=_gaussian_z(amp, 1.0), envelope=(amp, 0.25),
        )

    raise ValueError(f"unknown profile kind {kind!r}")


def parse_profile(descriptor: str, N: int = 3) -> DataProfile:
    """Build a profile from a CLI descriptor like ``gaussian:a=1``."""
    desc = descriptor.strip()
    if not desc:
        raise ValueError("empty profile descriptor")
    kind, _, rest = desc.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ValueError(f"bad profile parameter {item!r} in {descriptor!r}")
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise ValueError(f"non-numeric value in {descriptor!r}") from exc
    try:
        return make_profile(kind, N=N, **params)
    except OverflowError as exc:
        raise OverflowError(f"{desc} at N={N}: a closed form overflows a float "
                            f"({exc.args[-1]})") from exc


def profile_terms(profile: DataProfile, r, t) -> ProfileTerms:
    """The three-term split of the zero-displacement solution at (r, t).

    F1 carries the datum's deviation from its mass, F3 is the wave-like
    leading term with phase t sqrt(L), and F2 = u_hat - F1 - F3 is their
    exact complement: the quarter-frequency solution equals F1 + F2 + F3
    identically.  Broadcasts over r and t; the terms are real.
    """
    if not profile.is_radial:
        raise ValueError("profile terms require a radial profile")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("requires t >= 0")
    r = np.asarray(r, dtype=float)
    L = log_symbol(r)
    env = np.exp(-0.5 * L * t)
    four_over_pi = 4.0 / math.pi
    A = profile.hat_z(r * r) - profile.P1
    carrier = np.sin(math.pi * t / 4.0)
    wave = np.sin(t * np.sqrt(L))
    f1 = four_over_pi * A * env * carrier
    f3 = four_over_pi * profile.P1 * env * wave
    f2 = four_over_pi * profile.P1 * env * (carrier - wave)
    return ProfileTerms(f1=f1, f2=f2, f3=f3)
