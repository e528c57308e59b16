"""Per-frequency time evolution: exact closed forms and a numerical oracle.

At a fixed radius r the unknown solves a damped linear oscillator.  Two
closed forms are exposed:

* mode "ode": envelope e^{-Lt/2} with carrier frequency pi/2; solves
  u'' + L u' + (L^2/4 + pi^2/4) u = 0 identically.
* mode "paper": same envelope with carrier frequency pi/4; it satisfies the
  variant equation whose zeroth-order coefficient is L^2/4 + pi^2/16, so
  against the equation above it carries the exact defect (3 pi^2 / 16) u.

The oracle integrates the oscillator with classical RK4 plus step doubling
and a Richardson error estimate, entirely independent of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .symbols import PI_SQ, SpectralState, _unbox, log_symbol


class PropagatorMode(str, Enum):
    """The closed form to use.  ``PropagatorMode(x)`` is the one conversion:
    it accepts a member, a value ("ode") or a name in any case ("ODE",
    "Paper"), and raises ValueError for anything else."""

    ODE = "ode"
    PAPER = "paper"

    @classmethod
    def _missing_(cls, value):
        if isinstance(value, str):
            return cls.__members__.get(value.upper())


class StepLimitExceeded(Exception):
    """The oracle hit its step budget before reaching the requested time."""


@dataclass(frozen=True)
class OdeConfig:
    step: float = 0.1
    tol: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.step <= 0 or self.tol <= 0 or self.max_steps <= 0:
            raise ValueError("step, tol and max_steps must be positive")


def carrier_frequency(mode) -> float:
    """Oscillation frequency of the closed form: pi/2 (ode) or pi/4 (paper)."""
    return math.pi / 2.0 if PropagatorMode(mode) is PropagatorMode.ODE else math.pi / 4.0


def propagate_closed(u0, u1, r, t, mode=PropagatorMode.ODE) -> SpectralState:
    """Closed-form state at time t from data (u0, u1) at radius r.

    u_hat   = e^{-Lt/2} [ u0 cos(nu t) + (u1 + L u0 / 2) sin(nu t) / nu ]
    with nu = pi/2 ("ode") or pi/4 ("paper"; the sin coefficient then equals
    the familiar (2L/pi) u0 + (4/pi) u1 form).  The derivative is the exact
    analytic one, so the returned pair solves the mode's own equation with no
    discretisation error.  Broadcasts over r and t.
    """
    nu = carrier_frequency(mode)
    L = np.asarray(log_symbol(r), dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("requires t >= 0")
    u0 = np.asarray(u0, dtype=complex)
    u1 = np.asarray(u1, dtype=complex)

    env = np.exp(-0.5 * L * t)
    c, s = np.cos(nu * t), np.sin(nu * t)
    u = env * (u0 * c + (u1 + 0.5 * L * u0) * s / nu)
    v = env * (u1 * c - ((0.25 * L * L + nu * nu) / nu * u0 + 0.5 * L / nu * u1) * s)
    return SpectralState(_unbox(u), _unbox(v))


def closed_form_defect(u0, u1, r, t, mode=PropagatorMode.ODE):
    """Residual of the closed form in u'' + L u' + (L^2 + pi^2)/4 u = 0.

    Uses the analytically differentiated second derivative.  Identically zero
    in "ode" mode; in "paper" mode it equals (3 pi^2 / 16) u_hat, which is
    reported by callers rather than asserted away.
    """
    nu = carrier_frequency(mode)
    st = propagate_closed(u0, u1, r, t, mode)
    L = np.asarray(log_symbol(r), dtype=float)
    # second derivative from the mode's own oscillator: u'' = -L u' - c_mode u
    c_mode = 0.25 * L * L + nu * nu
    u_acc = -L * np.asarray(st.v_hat) - c_mode * np.asarray(st.u_hat)
    out = u_acc + L * np.asarray(st.v_hat) + 0.25 * (L * L + PI_SQ) * np.asarray(st.u_hat)
    return _unbox(out)


def _rk4_step(u, v, h, L, c):
    k1u = v
    k1v = -c * u - L * v
    u2, v2 = u + 0.5 * h * k1u, v + 0.5 * h * k1v
    k2u = v2
    k2v = -c * u2 - L * v2
    u3, v3 = u + 0.5 * h * k2u, v + 0.5 * h * k2v
    k3u = v3
    k3v = -c * u3 - L * v3
    u4, v4 = u + h * k3u, v + h * k3v
    k4u = v4
    k4v = -c * u4 - L * v4
    un = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    vn = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return un, vn


def oracle_grid(u0, u1, r, t_values, cfg: OdeConfig | None = None):
    """Integrate many trajectories at once, reporting at each requested time.

    u0, u1, r are broadcast to a common shape (the trajectory batch); t_values
    must be nondecreasing and nonnegative.  Returns (u, v) arrays of shape
    (len(t_values),) + batch.  A single adaptive step sequence drives the
    whole batch, controlled by the worst per-trajectory relative local error.
    """
    cfg = cfg or OdeConfig()
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or len(t_values) == 0:
        raise ValueError("t_values must be a nonempty 1-d array")
    if np.any(t_values < 0) or np.any(np.diff(t_values) < 0):
        raise ValueError("t_values must be nondecreasing and nonnegative")

    u0, u1, rr = np.broadcast_arrays(
        np.asarray(u0, dtype=complex), np.asarray(u1, dtype=complex),
        np.asarray(r, dtype=float),
    )
    L = np.log1p(rr * rr)
    c = 0.25 * (L * L + PI_SQ)

    u = u0.astype(complex).copy()
    v = u1.astype(complex).copy()
    out_u = np.empty((len(t_values),) + u.shape, dtype=complex)
    out_v = np.empty_like(out_u)

    now = 0.0
    h = cfg.step
    steps = 0
    for k, t_out in enumerate(t_values):
        while now < t_out:
            if steps >= cfg.max_steps:
                raise StepLimitExceeded(f"budget {cfg.max_steps} reached at t={now}")
            h_try = min(h, t_out - now)
            ub, vb = _rk4_step(u, v, h_try, L, c)
            uh, vh = _rk4_step(u, v, 0.5 * h_try, L, c)
            uh, vh = _rk4_step(uh, vh, 0.5 * h_try, L, c)
            scale = np.maximum(np.maximum(np.abs(uh), np.abs(vh)), 1e-280)
            err = float(np.max(np.maximum(np.abs(uh - ub), np.abs(vh - vb)) / scale))
            steps += 1
            if err <= cfg.tol * h_try or h_try < 1e-13:
                # advance with the Richardson-extrapolated value
                u = uh + (uh - ub) / 15.0
                v = vh + (vh - vb) / 15.0
                now += h_try
                if h_try >= h:  # not capped by the output time: adapt
                    grow = 2.0 if err == 0.0 else 0.9 * (cfg.tol * h_try / err) ** 0.25
                    h = h_try * min(2.0, max(0.5, grow))
            else:
                h = 0.5 * h_try
        out_u[k] = u
        out_v[k] = v
    return out_u, out_v


def ode_oracle(u0, u1, r, t, cfg: OdeConfig | None = None) -> SpectralState:
    """Numerical solution at time t, independent of the closed forms."""
    if t < 0:
        raise ValueError("requires t >= 0")
    ou, ov = oracle_grid(complex(u0), complex(u1), float(r), np.array([float(t)]), cfg)
    return SpectralState(complex(ou[0]), complex(ov[0]))
