"""Workload generator: a workload name and a seed give the CLI configs to run.

The program only ever sees these configs; the workload seed never reaches it.

Each command carries a stable id that does not depend on the seed, so the
expected verdicts and the stored reference traces can be looked up by it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Why each workload exists, and which layer it isolates.  The one-line forms
# are repeated in BENCHMARK.json.
WHY = {
    "pipeline-default": (
        "the canonical `all` run: ~90% of it is the RK4 oracle, so oracle batching "
        "and step control show here and nowhere else; also nested quadrature "
        "(energy identity)"
    ),
    "comparison-large-t": (
        "few calls, heavy quadrature: the sin^2 comparison integral to t ~ 3e4 for "
        "N = 3, 4, 5 (even N too); bulk panel throughput, no propagator work"
    ),
    "traces-mixed-data": (
        "~5.9k small quadrature calls (~2k evals each) over radial, zero-mass and "
        "non-radial data in both modes: per-call overhead and closed-form "
        "broadcasting, no oracle"
    ),
}

NAMES = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `command` plus the keyword values of its flags."""

    id: str
    command: str
    flags: dict = field(default_factory=dict)


def _pipeline_default(rng: random.Random) -> list[Command]:
    # The lab's own --seed stays at its default 0: it draws the random states
    # of the RK4-oracle check, and at this commit some of them (e.g. lab seeds
    # 2 and 8) stall the oracle's step control until it gives up after 1e6
    # steps (StepLimitExceeded, ~165 s).  That defect is recorded, not timed.
    flags = dict(n=3, mode="ode", u0="zero", u1="gaussian:a=1",
                 t_lo=100.0, t_hi=10_000.0, t_count=40, seed=0)
    return [Command("all", "all", flags)]


def _comparison_large_t(rng: random.Random) -> list[Command]:
    # The cost grows about linearly with t_hi, so t_hi only jitters by 3% and
    # the seed moves the whole log grid through t_lo instead.  t_hi stays below
    # ~3.7e4, where the r-domain route's seed panels exceed the integrator's
    # panel budget at this commit; every command succeeds here.
    t_lo = round(100.0 * rng.uniform(0.9, 1.1), 3)
    t_hi = round(rng.uniform(2.9e4, 3.0e4), 1)
    return [
        Command(f"optimality.n{n}", "optimality",
                dict(n=n, t_lo=t_lo, t_hi=t_hi, t_count=40))
        for n in (3, 4, 5)
    ]


def _traces_mixed_data(rng: random.Random) -> list[Command]:
    a = round(rng.uniform(0.5, 2.0), 3)
    offset = round(rng.uniform(0.25, 1.0), 3)
    data = {
        "gaussian": f"gaussian:a={a}",
        "zero_mean_pair": "zero_mean_pair",
        "shifted_gaussian": f"shifted_gaussian:offset={offset}",
    }
    grid = dict(t_lo=100.0, t_hi=10_000.0, t_count=200)
    out = []
    for n in (3, 5):
        for mode in ("ode", "paper"):
            for kind, desc in data.items():
                out.append(Command(f"decay.n{n}.{mode}.{kind}", "decay",
                                   dict(n=n, mode=mode, u0="zero", u1=desc, **grid)))
        for kind in ("gaussian", "zero_mean_pair"):  # the radial data
            out.append(Command(f"profile.n{n}.{kind}", "profile",
                               dict(n=n, u1=data[kind], **grid)))
        out.append(Command(f"lemmas.n{n}", "lemmas", dict(n=n, mode="ode")))
    return out


_GENERATORS = {
    "pipeline-default": _pipeline_default,
    "comparison-large-t": _comparison_large_t,
    "traces-mixed-data": _traces_mixed_data,
}


def generate(name: str, seed: int) -> list[Command]:
    """The commands of workload `name` for `seed`; same seed, same commands."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")
    return _GENERATORS[name](random.Random(seed))
