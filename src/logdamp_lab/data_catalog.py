"""Initial-datum profiles with analytic Fourier transforms.

The catalog is deliberately Gaussian-only so that the transform, the mass and
the plain L^2 norm all have closed forms (transform convention
F f(xi) = int f(x) e^{-i x.xi} dx, under which hat(0) equals the mass).  The
weighted L^{1,1} norm falls back to radial quadrature where no closed form
exists.

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

    hat maps a frequency vector (shape (N,) or (..., N)) to the transform
    value; hat_radial is the real-valued radial restriction and is None for
    non-radial data; hat_abs_radial gives |hat| as a function of the radius
    (available for every catalog entry).  envelope = (A, alpha) certifies
    |hat(xi)| <= A exp(-alpha |xi|^2) for tail cutoffs.
    """

    kind: str
    N: int
    params: tuple
    P1: float
    l1: float
    l11: float
    l2: float
    hat: Callable = field(repr=False)
    hat_radial: Callable | None = field(repr=False)
    hat_abs_radial: Callable = field(repr=False)
    envelope: tuple[float, float] = (0.0, 1.0)

    @property
    def is_radial(self) -> bool:
        return self.hat_radial is not None

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.kind}:{inner}" if inner else self.kind


@dataclass(frozen=True)
class ProfileTerms:
    """Values of the three solution pieces F1, F2, F3 at one (r, t)."""

    f1: complex
    f2: complex
    f3: complex


def _sphere_mean_abs_shift(r, c: float, N: int) -> np.ndarray:
    # mean of |y + c e1| over the sphere |y| = r, at every radius of the 1-d
    # array r, via one vector polar-angle integral (a component per radius)
    # with the sqrt-endpoint weight smoothed by u = sin(theta)
    r = np.asarray(r, dtype=float)

    def g(theta):
        s = np.sin(theta)
        return (np.sqrt(r * r + c * c + 2.0 * r * c * s[:, None])
                * (np.cos(theta) ** (N - 2))[:, None])

    num = quadrature.integrate(g, -math.pi / 2, math.pi / 2, tol=1e-12, rel_tol=1e-11).value
    den = math.sqrt(math.pi) * math.exp(math.lgamma(0.5 * (N - 1)) - math.lgamma(0.5 * N))
    return np.where(r == 0.0, c, num / den)


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
        zero_r = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        return DataProfile(
            kind="zero", N=N, params=(), P1=0.0, l1=0.0, l11=0.0, l2=0.0,
            hat=lambda xi: np.zeros(np.asarray(xi, dtype=float).shape[:-1]),
            hat_radial=zero_r, hat_abs_radial=zero_r, envelope=(0.0, 1.0),
        )

    if kind == "gaussian":
        a = float(params.pop("a", 1.0))
        if params:
            raise ValueError(f"unknown gaussian parameters: {sorted(params)}")
        if a <= 0:
            raise ValueError("gaussian width a must be positive")
        amp = (math.pi / a) ** (N / 2.0)

        def hat_r(r, amp=amp, a=a):
            return amp * np.exp(-np.asarray(r, dtype=float) ** 2 / (4.0 * a))

        def hat(xi, hat_r=hat_r):
            xi = np.asarray(xi, dtype=float)
            return hat_r(np.linalg.norm(xi, axis=-1)) + 0.0j

        l11 = amp + quadrature.surface_area(N) * math.exp(
            math.lgamma(0.5 * (N + 1))
        ) / (2.0 * a ** (0.5 * (N + 1)))
        return DataProfile(
            kind="gaussian", N=N, params=(("a", a),), P1=amp, l1=amp, l11=l11,
            l2=math.sqrt((math.pi / (2.0 * a)) ** (N / 2.0)),
            hat=hat, hat_radial=hat_r,
            hat_abs_radial=hat_r, envelope=(amp, 1.0 / (4.0 * a)),
        )

    if kind == "zero_mean_pair":
        if params:
            raise ValueError(f"unknown zero_mean_pair parameters: {sorted(params)}")
        amp = math.pi ** (N / 2.0)

        def hat_r(r, amp=amp):
            r = np.asarray(r, dtype=float)
            # e^{-r^2/4} - e^{-r^2/8} without the cancellation at small r
            return amp * np.exp(-r * r / 8.0) * np.expm1(-r * r / 8.0)

        def hat(xi, hat_r=hat_r):
            xi = np.asarray(xi, dtype=float)
            return hat_r(np.linalg.norm(xi, axis=-1)) + 0.0j

        def u_abs(r):
            r = np.asarray(r, dtype=float)
            return np.abs(np.exp(-r * r) - 2.0 ** (N / 2.0) * np.exp(-2.0 * r * r))

        r_star = math.sqrt(0.5 * N * math.log(2.0))  # sign change of the datum
        l1, first_moment = _weighted_radial_norm(u_abs, N, 14.0, breakpoints=[r_star])
        l2_sq = (
            (math.pi / 2.0) ** (N / 2.0)
            - 2.0 * 2.0 ** (N / 2.0) * (math.pi / 3.0) ** (N / 2.0)
            + 2.0 ** N * (math.pi / 4.0) ** (N / 2.0)
        )
        return DataProfile(
            kind="zero_mean_pair", N=N, params=(), P1=0.0, l1=l1,
            l11=l1 + first_moment, l2=math.sqrt(l2_sq),
            hat=hat, hat_radial=hat_r,
            hat_abs_radial=lambda r: np.abs(hat_r(r)),
            envelope=(amp, 1.0 / 8.0),
        )

    if kind == "shifted_gaussian":
        c = float(params.pop("offset", 1.0))
        if params:
            raise ValueError(f"unknown shifted_gaussian parameters: {sorted(params)}")
        if c < 0:
            raise ValueError("offset must be nonnegative")
        amp = math.pi ** (N / 2.0)

        def hat(xi, amp=amp, c=c):
            xi = np.asarray(xi, dtype=float)
            rsq = np.sum(xi * xi, axis=-1)
            return amp * np.exp(-rsq / 4.0) * np.exp(-1j * c * xi[..., 0])

        def hat_abs(r, amp=amp):
            return amp * np.exp(-np.asarray(r, dtype=float) ** 2 / 4.0)

        def outer(r):
            return _sphere_mean_abs_shift(r, c, N) * np.exp(-r * r) * np.power(r, N - 1)

        first_moment = quadrature.surface_area(N) * quadrature.integrate(
            outer, 0.0, 10.0, tol=1e-11, rel_tol=1e-9
        ).value
        return DataProfile(
            kind="shifted_gaussian", N=N, params=(("offset", c),), P1=amp, l1=amp,
            l11=amp + first_moment, l2=math.sqrt((math.pi / 2.0) ** (N / 2.0)),
            hat=hat, hat_radial=None, hat_abs_radial=hat_abs,
            envelope=(amp, 0.25),
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


def profile_terms(profile: DataProfile, r: float, t: float) -> ProfileTerms:
    """The three-term split of the zero-displacement solution at (r, t).

    F1 carries the datum's deviation from its mass, F3 is the wave-like
    leading term with phase t sqrt(L), and F2 = u_hat - F1 - F3 is their
    exact complement: the quarter-frequency solution equals F1 + F2 + F3
    identically.
    """
    if not profile.is_radial:
        raise ValueError("profile terms require a radial profile")
    if t < 0:
        raise ValueError("requires t >= 0")
    L = log_symbol(r)
    sq = math.sqrt(L)
    env = math.exp(-0.5 * L * t)
    four_over_pi = 4.0 / math.pi
    A = float(profile.hat_radial(r)) - profile.P1
    f1 = four_over_pi * A * env * math.sin(math.pi * t / 4.0)
    f3 = four_over_pi * profile.P1 * env * math.sin(t * sq)
    f2 = four_over_pi * profile.P1 * env * (
        math.sin(math.pi * t / 4.0) - math.sin(t * sq)
    )
    return ProfileTerms(f1=complex(f1), f2=complex(f2), f3=complex(f3))

