"""Summary statistics and the per-layer metrics computed from recorded spans.

Which end-to-end metric each per-layer metric should move, and on which
workload, is tabulated in README.md next to this file.

Stage times a workload may skip entirely (the oracle on `comparison-large-t`,
the comparison integral on `traces-mixed-data`, ...) are given as a share of
the traced pass, so an absent stage reads 0 % rather than a 0 s timing; the
per-function times in seconds go to the trace summary file instead.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import Spans


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    vals = sorted(values)
    if len(vals) > 1:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = med = q3 = vals[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


ANCHORS = ("quadrature.integral_Ip", "quadrature.integral_Jp",
           "quadrature.a_const", "quadrature.f_osc")
EXPERIMENTS = ("run_simulate", "run_decay", "run_profile", "run_optimality", "run_lemmas")

# name -> unit; counts repeat exactly from run to run, the rest are timings
UNITS = {
    "propagator.oracle_grid.calls": "count",
    "propagator.oracle_grid.trajectories": "count",
    "propagator.oracle_grid.share": "%",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.evals": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.integrate.evals_per_s": "1/s",
    "quadrature.optimality_integral.calls": "count",
    "quadrature.optimality_integral.evals": "count",
    "quadrature.optimality_integral.evals_p50": "count",
    "quadrature.optimality_integral.evals_p90": "count",
    "quadrature.optimality_integral.share": "%",
    "quadrature.substitution_oracle.share": "%",
    "quadrature.anchors.s": "s",
    "propagator.propagate_closed.calls": "count",
    "propagator.propagate_closed.points": "count",
    "propagator.propagate_closed.self_share": "%",
    "symbols.points": "count",
    "symbols.self_share": "%",
    "experiments.energy_identity_residual.share": "%",
    **{f"experiments.{e}.share": "%" for e in EXPERIMENTS},
    "experiments.self_s": "s",
    "experiments.write_report.s": "s",
    "data_catalog.parse_profile.s": "s",
    "data_catalog.parse_profile.evals": "count",
    "data_catalog.profile_terms.share": "%",
    "cli.build_config.s": "s",
    "cli.run.self_s": "s",
    "trace_overhead_s": "s",
}


def _evals_under(sp: Spans, mask: np.ndarray) -> np.ndarray:
    """Integrate evals below each span of `mask`, in span order."""
    integ = sp.select(names={"quadrature.integrate"})
    out = []
    for i in np.flatnonzero(mask):
        # descendants of span i are the contiguous run of later spans that
        # start before it ends
        j = i + 1 + int(np.searchsorted(sp.start[i + 1:], sp.end[i], side="left"))
        out.append(int(sp.count[i + 1:j][integ[i + 1:j]].sum()))
    return np.array(out, dtype=np.int64)


def setup_metrics(sp: Spans, ops) -> dict:
    """Layer costs of building the configs (the traced set-up)."""
    parse = sp.select(names={"data_catalog.parse_profile"}, ops=ops)
    return {
        "cli.build_config.s": sp.inclusive_s(sp.select(names={"cli.build_config"}, ops=ops)),
        "data_catalog.parse_profile.s": sp.inclusive_s(parse),
        "data_catalog.parse_profile.evals": int(_evals_under(sp, sp.outermost(parse)).sum()),
    }


def pass_metrics(sp: Spans, ops, pass_s: float) -> dict:
    """Layer costs of one traced pass over the workload's commands."""

    def sel(*names, prefix=None):
        return sp.select(names=set(names) or None, prefix=prefix, ops=ops)

    def share(mask, self_time=False):
        spent = sp.self_time[mask].sum() if self_time else sp.inclusive_s(mask)
        return 100.0 * float(spent) / pass_s

    integ = sel("quadrature.integrate")
    oracle = sel("propagator.oracle_grid")
    opt = sel("quadrature.optimality_integral")
    closed = sel("propagator.propagate_closed")
    symbols = sel(prefix="symbols.")
    opt_evals = _evals_under(sp, opt)
    integ_s = sp.inclusive_s(integ)
    evals = int(sp.count[integ].sum())
    out = {
        "propagator.oracle_grid.calls": int(oracle.sum()),
        "propagator.oracle_grid.trajectories": int(sp.count[oracle].sum()),
        "propagator.oracle_grid.share": share(oracle),
        "quadrature.integrate.calls": int(integ.sum()),
        "quadrature.integrate.evals": evals,
        "quadrature.integrate.self_s": float(sp.self_time[integ].sum()),
        "quadrature.integrate.evals_per_s": evals / integ_s if integ_s > 0 else 0.0,
        "quadrature.optimality_integral.calls": int(opt.sum()),
        "quadrature.optimality_integral.evals": int(opt_evals.sum()),
        "quadrature.optimality_integral.evals_p50":
            int(np.percentile(opt_evals, 50, method="nearest")) if len(opt_evals) else 0,
        "quadrature.optimality_integral.evals_p90":
            int(np.percentile(opt_evals, 90, method="nearest")) if len(opt_evals) else 0,
        "quadrature.optimality_integral.share": share(opt),
        "quadrature.substitution_oracle.share": share(sel("quadrature.substitution_oracle")),
        "quadrature.anchors.s": sp.inclusive_s(sel(*ANCHORS)),
        "propagator.propagate_closed.calls": int(closed.sum()),
        "propagator.propagate_closed.points": int(sp.count[closed].sum()),
        "propagator.propagate_closed.self_share": share(closed, self_time=True),
        "symbols.points": int(sp.count[symbols].sum()),
        "symbols.self_share": share(symbols, self_time=True),
        "experiments.energy_identity_residual.share":
            share(sel("experiments.energy_identity_residual")),
        "experiments.self_s": float(sp.self_time[sel(prefix="experiments.")].sum()),
        "experiments.write_report.s": sp.inclusive_s(sel("experiments.write_report")),
        "data_catalog.profile_terms.share": share(sel("data_catalog.profile_terms")),
        "cli.run.self_s": float(sp.self_time[sel("cli.run")].sum()),
    }
    for e in EXPERIMENTS:
        out[f"experiments.{e}.share"] = share(sel(f"experiments.{e}"))
    return out


def function_table(sp: Spans) -> dict:
    """Per wrapped function: calls, inclusive and self seconds, summed count."""
    table = {}
    for nid, name in enumerate(sp.names):
        mask = sp.name == nid
        if mask.any():
            table[name] = {"calls": int(mask.sum()), "s": sp.inclusive_s(mask),
                           "self_s": float(sp.self_time[mask].sum()),
                           "count": int(sp.count[mask].sum())}
    return table
