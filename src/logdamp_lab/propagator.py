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
A = [[0, 1], [-c, -L]], using only L and c, so it stays independent of the
closed forms.  A and the step length h are fixed between steps, so the Taylor
series of exp(hA) is summed once, with a certified remainder, into a 2x2
matrix per trajectory (Jorba & Zou 2005; Moler & Van Loan 2003), and each
step is one product with it; only the step that lands on an output time
needs a matrix of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum

import numpy as np

from .symbols import PI_SQ, SpectralState, log_symbol


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
    Broadcasts over u0, u1 and L, which may be complex (an L off the real
    axis makes the data complex too); real data and real L give real
    coefficients, and a real L stays real.
    """
    nu = carrier_frequency(mode)
    dtype = np.result_type(u0, u1, L, float)
    u0 = np.asarray(u0, dtype=dtype)
    u1 = np.asarray(u1, dtype=dtype)
    L = np.asarray(L, dtype=np.result_type(L, float))
    b_u = (u1 + 0.5 * L * u0) / nu
    b_v = -((0.25 * L * L + nu * nu) / nu * u0 + 0.5 * L / nu * u1)
    return u0, b_u, u1, b_v


# data of modulus 2^_SCALE_EXPONENT or more are scaled below it
_SCALE_EXPONENT = 512


def _scaled_data(fn):
    """fn(u0, u1, r, t, mode), linear in the data (u0, u1), with data of
    modulus 2^512 or more scaled by a power of two to below 2^512 and the
    result scaled back: |b_v| reaches 6.5e5 max(|u0|, |u1|) over the float
    range of r, so the coefficients would overflow where the result is
    finite.  Power-of-two scaling is exact, and smaller data are not scaled
    at all, so they keep their bits.
    """

    @functools.wraps(fn)
    def scaled(u0, u1, r, t, mode=PropagatorMode.ODE):
        _, exponent = np.frexp(np.maximum(np.abs(u0), np.abs(u1)))
        shift = np.maximum(exponent - _SCALE_EXPONENT, 0)
        if not np.any(shift):
            return fn(u0, u1, r, t, mode)
        down, up = np.ldexp(1.0, -shift), np.ldexp(1.0, shift)
        out = fn(u0 * down, u1 * down, r, t, mode)
        if isinstance(out, SpectralState):
            return SpectralState(out.u_hat * up, out.v_hat * up)
        return out * up

    return scaled


@_scaled_data
def propagate_closed(u0, u1, r, t, mode=PropagatorMode.ODE) -> SpectralState:
    """Closed-form state at time t from data (u0, u1) at radius r.

    u_hat = e^{-Lt/2} (a_u cos(nu t) + b_u sin(nu t)), v_hat likewise, with
    the coefficients of :func:`closed_form_coefficients`.  The derivative is
    the exact analytic one, so the returned pair solves the mode's own
    equation with no discretisation error.  Broadcasts over r and t.  Real
    data give a real state, complex data a complex one.  Data of modulus
    2^512 or more are scaled by a power of two first (:func:`_scaled_data`).
    """
    nu = carrier_frequency(mode)
    L = log_symbol(r)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("requires t >= 0")
    a_u, b_u, a_v, b_v = closed_form_coefficients(u0, u1, L, mode)

    env = np.exp(-0.5 * L * t)
    c, s = np.cos(nu * t), np.sin(nu * t)
    return SpectralState(env * (a_u * c + b_u * s), env * (a_v * c + b_v * s))


@_scaled_data
def closed_form_defect(u0, u1, r, t, mode=PropagatorMode.ODE):
    """Residual of the closed form in u'' + L u' + (L^2 + pi^2)/4 u = 0.

    u and u' = v are the state of :func:`propagate_closed`; u'' is the time
    derivative of the closed-form v, taken from the coefficients of
    :func:`closed_form_coefficients`, so a state that is not the solution of
    those coefficients shows up as a defect.  Zero to rounding in "ode" mode;
    in "paper" mode it equals (3 pi^2 / 16) u_hat, which is reported by
    callers rather than asserted away.  Data of modulus 2^512 or more are
    scaled by a power of two first, as in :func:`propagate_closed`.
    """
    nu = carrier_frequency(mode)
    st = propagate_closed(u0, u1, r, t, mode)
    L = log_symbol(r)
    t = np.asarray(t, dtype=float)
    _, _, a_v, b_v = closed_form_coefficients(u0, u1, L, mode)
    c, s = np.cos(nu * t), np.sin(nu * t)
    u_acc = np.exp(-0.5 * L * t) * ((nu * b_v - 0.5 * L * a_v) * c
                                    - (nu * a_v + 0.5 * L * b_v) * s)
    return u_acc + L * st.v_hat + 0.25 * (L * L + PI_SQ) * st.u_hat


# h ||A||_inf per step: the bound 4^k/k! on the Taylor terms peaks near 11 at
# k = 4, so a step loses at most about one digit to rounding.
_STEP_NORM = 4.0
# remainder of each Taylor step relative to the state
_STEP_TOL = 1e-11
# a run whose step count bound exceeds this is refused before its first step
_MAX_STEPS = 1_000_000


def _taylor_matrix(h, L, c, norm):
    """The four real entries (m00, m01, m10, m11) of M = exp(hA), A = [[0, 1],
    [-c, -L]], one set per trajectory, so that y(t+h) = M y(t).

    The Taylor series is summed on the unit columns e1 = (1, 0) and e2 = (0, 1):
    term k of a column is (u_k, v_k) = (h v_{k-1}, h (-c u_{k-1} - L v_{k-1}))
    / k.  With norm >= ||A||_inf for every trajectory and q = h norm / (K+1)
    < 1, term K+j of a column is at most |term_K| q^j, so the terms left out
    sum to at most |term_K| q/(1-q).  Terms are added until the two columns'
    bounds sum to at most _STEP_TOL, so the remainder R of M has |R y|_inf <=
    _STEP_TOL max(|u|, |v|) for every state y = (u, v).
    """
    a, b = -h * c, -h * L
    # the columns e1, e2 stacked on a leading axis: (du[j], dv[j]) is column j's term
    zero, one = np.zeros_like(L), np.ones_like(L)
    su = du = np.stack([one, zero])
    sv = dv = np.stack([zero, one])
    for k in itertools.count(1):
        du, dv = dv * (h / k), (a * du + b * dv) / k
        su, sv = su + du, sv + dv
        q = h * norm / (k + 1)
        if q < 1.0:
            rem = np.maximum(np.abs(du), np.abs(dv))
            if np.all((rem[0] + rem[1]) * (q / (1.0 - q)) <= _STEP_TOL):
                return su[0], su[1], sv[0], sv[1]


def oracle_grid(u0, u1, r, t_values):
    """Integrate many trajectories at once, reporting at each requested time.

    u0, u1, r are broadcast to a common shape (the trajectory batch) and must
    be finite; t_values must be nondecreasing and nonnegative.  Returns (u, v)
    arrays of shape (len(t_values),) + batch.  Every step has the fixed length
    h = 4 / max(1, c + L), with c + L at its largest over the batch, except the
    step that lands on each output time; each is one product with the
    :func:`_taylor_matrix` of its length, whose remainder is at most 1e-11
    relative to each trajectory's state.  That matrix is built once for h and
    once per landing step, so at most len(t_values) + 1 times.  A run takes at
    most t_max / h + len(t_values) steps; one whose bound exceeds a million
    steps is refused with ValueError before the first.  A state that is not
    finite at an output time raises OverflowError.
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

    full = _taylor_matrix(h, L, c, norm)
    now = 0.0
    for k, t_out in enumerate(t_values):
        while now < t_out:
            step = min(h, t_out - now)
            m00, m01, m10, m11 = full if step == h else _taylor_matrix(step, L, c, norm)
            u, v = m00 * u + m01 * v, m10 * u + m11 * v
            now = t_out if step == t_out - now else now + step
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise OverflowError(f"oracle state overflows a float by t={t_out:g}")
        out_u[k], out_v[k] = u, v
    return out_u, out_v
