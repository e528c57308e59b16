"""Frequency-side symbols, multipliers and energy densities.

Every quantity in the model depends on the frequency only through the radius
r = |xi| and the scalar symbol L(r) = log(1 + r^2).  This module collects the
pure functions built from it:

* the piecewise multipliers rho(r) and phi(r) used by the energy method,
* the energy densities E0, E, F, R.

All functions accept scalars or numpy arrays (broadcasting) and are stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PI_SQ = math.pi ** 2

# Branch thresholds stored on the r^2 scale: comparisons use r*r <= threshold
# so no square root is taken.  rho switches where L = pi/sqrt(3), phi where
# L = 4/3.
RHO_SPLIT_RSQ = math.expm1(math.pi / math.sqrt(3.0))
PHI_SPLIT_RSQ = math.expm1(4.0 / 3.0)


@dataclass(frozen=True)
class SpectralState:
    """Value of (u_hat, d/dt u_hat) at one frequency and time."""

    u_hat: complex | np.ndarray
    v_hat: complex | np.ndarray


def _unbox(out):
    """A 0-d result as a Python float or complex; arrays pass through."""
    return np.asarray(out).item() if np.ndim(out) == 0 else out


def log_symbol(r):
    """The scalar symbol L = log(1 + r^2); monotone increasing, L(0) = 0.
    Where r*r overflows (|r| > 1.3e154) it is 2 log|r|, exact to rounding."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        out = np.log1p(r * r)
    if np.isinf(out).any():
        out = np.where(np.isinf(out), 2.0 * np.log(np.maximum(np.abs(r), 1.0)), out)
    return _unbox(out)


def rho(r):
    """Piecewise cross-term weight: L/4 up to L = pi/sqrt(3), then
    (L^2 + pi^2) / (16 L).

    Continuous at the split (both branches give pi/(4 sqrt(3))) and satisfies
    rho(r)^2 <= L^2/16 everywhere.
    """
    r = np.asarray(r, dtype=float)
    L = np.log1p(r * r)
    low = r * r <= RHO_SPLIT_RSQ
    L_safe = np.where(low, 1.0, L)  # high branch never sees L = 0
    out = np.where(low, 0.25 * L, (L * L + PI_SQ) / (16.0 * L_safe))
    return _unbox(out)


def phi(r):
    """Piecewise decay-rate envelope: (2/3) L up to L = 4/3, then 8/9.

    Continuous at the split and bounded by 8/9.
    """
    r = np.asarray(r, dtype=float)
    L = np.log1p(r * r)
    out = np.where(r * r <= PHI_SPLIT_RSQ, (2.0 / 3.0) * L, 8.0 / 9.0)
    return _unbox(out)


def energy_e0(state: SpectralState, r):
    """Total energy density: |v|^2/2 + L^2 |u|^2/8 + pi^2 |u|^2/8."""
    L = log_symbol(r)
    u2 = np.abs(state.u_hat) ** 2
    v2 = np.abs(state.v_hat) ** 2
    out = 0.5 * v2 + 0.125 * (L * L + PI_SQ) * u2
    return _unbox(out)


def energy_e(state: SpectralState, r):
    """Cross-term modified energy E = E0 + rho Re(v conj(u)) + rho L |u|^2/2.

    Algebraically equivalent to E0: E0/2 <= E <= 9 E0/4 for every complex
    state, solution or not.
    """
    rh = rho(r)
    L = log_symbol(r)
    cross = np.real(state.v_hat * np.conj(state.u_hat))
    out = energy_e0(state, r) + rh * cross + 0.5 * rh * L * np.abs(state.u_hat) ** 2
    return _unbox(out)


def dissipation_f(state: SpectralState, r):
    """Dissipation functional F = L |v|^2 + (L^2 + pi^2) |u|^2 / 4."""
    L = log_symbol(r)
    out = L * np.abs(state.v_hat) ** 2 + 0.25 * (L * L + PI_SQ) * np.abs(state.u_hat) ** 2
    return _unbox(out)


def dissipation_f_effective(state: SpectralState, r):
    """The rho-weighted dissipation that the evolution actually balances.

    Along solutions the exact budget is d/dt E + F_eff = R with
    F_eff = L |v|^2 + rho (L^2 + pi^2) |u|^2 / 4.  The unweighted
    :func:`dissipation_f` drops the rho on the elastic term, which is why
    d/dt E + F = R fails off the rho = 1 set; the measured gap equals
    (1 - rho)(L^2 + pi^2)|u|^2/4 exactly.
    """
    L = log_symbol(r)
    out = (
        L * np.abs(state.v_hat) ** 2
        + 0.25 * rho(r) * (L * L + PI_SQ) * np.abs(state.u_hat) ** 2
    )
    return _unbox(out)


def source_r(state: SpectralState, r):
    """Source functional R = rho |v|^2."""
    out = rho(r) * np.abs(state.v_hat) ** 2
    return _unbox(out)
