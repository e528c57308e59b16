"""Per-frequency time evolution: exact closed forms and a numerical oracle.

At a fixed radius r the unknown solves a damped linear oscillator.  Two
closed forms are exposed:

* mode "ode": envelope e^{-Lt/2} with carrier frequency pi/2; solves
  u'' + L u' + (L^2/4 + pi^2/4) u = 0 identically.
* mode "paper": same envelope with carrier frequency pi/4; it satisfies the
  variant equation whose zeroth-order coefficient is L^2/4 + pi^2/16, so
  against the equation above it carries the exact defect (3 pi^2 / 16) u.

Both are u_hat = e^{-Lt/2} (a_u cos(nu t) + b_u sin(nu t)) and v_hat likewise,
with coefficients that depend on the radius only through L;
:func:`closed_form_coefficients` is the one place they are formed, so callers
that need many times (the energy and L^2 traces) build them once per radius.

The oracle integrates the oscillator as the linear system y' = A y,
A = [[0, 1], [-c, -L]], one Taylor series per step with a certified
remainder (Jorba & Zou 2005; Moler & Van Loan 2003), using only L and c, so
it stays independent of the closed forms.
"""

from __future__ import annotations

import itertools
import math
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


def carrier_frequency(mode) -> float:
    """Oscillation frequency of the closed form: pi/2 (ode) or pi/4 (paper)."""
    return math.pi / 2.0 if PropagatorMode(mode) is PropagatorMode.ODE else math.pi / 4.0


def closed_form_coefficients(u0, u1, L, mode=PropagatorMode.ODE):
    """(a_u, b_u, a_v, b_v) with u_hat = e^{-Lt/2} (a_u c + b_u s) and
    v_hat = e^{-Lt/2} (a_v c + b_v s), c = cos(nu t), s = sin(nu t).

    The one place a mode is normalised:
        a_u = u0,  b_u = (u1 + L u0 / 2) / nu,
        a_v = u1,  b_v = -((L^2/4 + nu^2) u0 + L u1 / 2) / nu,
    nu = pi/2 ("ode") or pi/4 ("paper"; b_u is then the familiar
    (2L/pi) u0 + (4/pi) u1).  The coefficients depend on the radius only
    through L, so a caller that needs many times builds them once per radius.
    Broadcasts over u0, u1 and L; real data give real coefficients.
    """
    nu = carrier_frequency(mode)
    dtype = np.result_type(u0, u1, float)
    u0 = np.asarray(u0, dtype=dtype)
    u1 = np.asarray(u1, dtype=dtype)
    L = np.asarray(L, dtype=float)
    b_u = (u1 + 0.5 * L * u0) / nu
    b_v = -((0.25 * L * L + nu * nu) / nu * u0 + 0.5 * L / nu * u1)
    return u0, b_u, u1, b_v


def propagate_closed(u0, u1, r, t, mode=PropagatorMode.ODE) -> SpectralState:
    """Closed-form state at time t from data (u0, u1) at radius r.

    u_hat = e^{-Lt/2} (a_u cos(nu t) + b_u sin(nu t)), v_hat likewise, with
    the coefficients of :func:`closed_form_coefficients`.  The derivative is
    the exact analytic one, so the returned pair solves the mode's own
    equation with no discretisation error.  Broadcasts over r and t.  Real
    data give a real state, complex data a complex one.
    """
    nu = carrier_frequency(mode)
    L = np.asarray(log_symbol(r), dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("requires t >= 0")
    a_u, b_u, a_v, b_v = closed_form_coefficients(u0, u1, L, mode)

    env = np.exp(-0.5 * L * t)
    c, s = np.cos(nu * t), np.sin(nu * t)
    return SpectralState(_unbox(env * (a_u * c + b_u * s)), _unbox(env * (a_v * c + b_v * s)))


def closed_form_defect(u0, u1, r, t, mode=PropagatorMode.ODE):
    """Residual of the closed form in u'' + L u' + (L^2 + pi^2)/4 u = 0.

    u and u' = v are the state of :func:`propagate_closed`; u'' is the time
    derivative of the closed-form v, taken from the coefficients of
    :func:`closed_form_coefficients`, so a state that is not the solution of
    those coefficients shows up as a defect.  Zero to rounding in "ode" mode;
    in "paper" mode it equals (3 pi^2 / 16) u_hat, which is reported by
    callers rather than asserted away.
    """
    nu = carrier_frequency(mode)
    st = propagate_closed(u0, u1, r, t, mode)
    L = np.asarray(log_symbol(r), dtype=float)
    t = np.asarray(t, dtype=float)
    _, _, a_v, b_v = closed_form_coefficients(u0, u1, L, mode)
    c, s = np.cos(nu * t), np.sin(nu * t)
    u_acc = np.exp(-0.5 * L * t) * ((nu * b_v - 0.5 * L * a_v) * c
                                    - (nu * a_v + 0.5 * L * b_v) * s)
    u_hat, v_hat = np.asarray(st.u_hat), np.asarray(st.v_hat)
    return _unbox(u_acc + L * v_hat + 0.25 * (L * L + PI_SQ) * u_hat)


# h ||A||_inf per step: the bound 4^k/k! on the Taylor terms peaks near 11 at
# k = 4, so a step loses at most about one digit to rounding.
_STEP_NORM = 4.0
# remainder of each Taylor step relative to the state
_STEP_TOL = 1e-11
# a run whose step count bound exceeds this is refused before its first step
_MAX_STEPS = 1_000_000


def _taylor_step(u, v, h, L, c, norm):
    """y(t+h) = sum_k (hA)^k y / k! for y = (u, v), A = [[0, 1], [-c, -L]].

    Term k is (u_k, v_k) = (h v_{k-1}, h (-c u_{k-1} - L v_{k-1})) / k.  With
    norm >= ||A||_inf for every trajectory and q = h norm / (K+1) < 1, term
    K+j is at most |term_K| q^j, so the terms left out sum to at most
    |term_K| q/(1-q).  Terms are added until that bound is at most
    _STEP_TOL max(|u|, |v|) for every trajectory.  A term that overflows
    raises OverflowError.
    """
    bound = _STEP_TOL * np.maximum(np.abs(u), np.abs(v))
    a, b = -h * c, -h * L
    su, sv, du, dv = u, v, u, v
    for k in itertools.count(1):
        du, dv = dv * (h / k), (a * du + b * dv) / k
        su, sv = su + du, sv + dv
        q = h * norm / (k + 1)
        if q < 1.0:
            rem = np.maximum(np.abs(du), np.abs(dv)) * (q / (1.0 - q))
            if np.all(rem <= bound):
                return su, sv
            if not np.all(np.isfinite(rem)):
                raise OverflowError(f"oracle step overflows at Taylor term {k}")


def oracle_grid(u0, u1, r, t_values):
    """Integrate many trajectories at once, reporting at each requested time.

    u0, u1, r are broadcast to a common shape (the trajectory batch) and must
    be finite; t_values must be nondecreasing and nonnegative.  Returns (u, v)
    arrays of shape (len(t_values),) + batch.  Every step is one
    :func:`_taylor_step` of the fixed length h = 4 / max(1, c + L), with
    c + L at its largest over the batch, except the step that lands on each
    output time; its remainder is at most 1e-11 relative to each trajectory's
    state.  So a run takes at most t_max / h + len(t_values) steps; one whose
    bound exceeds a million steps is refused with ValueError before the first.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or len(t_values) == 0:
        raise ValueError("t_values must be a nonempty 1-d array")
    if not np.all(t_values >= 0) or np.any(np.diff(t_values) < 0):
        raise ValueError("t_values must be nondecreasing and nonnegative")

    u, v, rr = np.broadcast_arrays(
        np.asarray(u0, dtype=complex), np.asarray(u1, dtype=complex),
        np.asarray(r, dtype=float),
    )
    L = np.log1p(rr * rr)
    if not all(np.all(np.isfinite(x)) for x in (u, v, L)):
        raise ValueError("oracle input must be finite: u0, u1 and log(1 + r^2)")
    c = 0.25 * (L * L + PI_SQ)
    norm = max(1.0, float(np.max(c + L)))  # ||A||_inf over the batch
    h = _STEP_NORM / norm
    t_max = float(t_values[-1])
    n_steps = t_max / h + len(t_values)
    if n_steps > _MAX_STEPS:
        raise ValueError(f"oracle needs up to {n_steps:.0f} steps of length {h:.3g} "
                         f"to reach t={t_max:g}, over its budget of {_MAX_STEPS}")

    out_u = np.empty((len(t_values),) + u.shape, dtype=complex)
    out_v = np.empty_like(out_u)

    now = 0.0
    for k, t_out in enumerate(t_values):
        while now < t_out:
            step = min(h, t_out - now)
            u, v = _taylor_step(u, v, step, L, c, norm)
            now = t_out if step == t_out - now else now + step
        out_u[k], out_v[k] = u, v
    return out_u, out_v
