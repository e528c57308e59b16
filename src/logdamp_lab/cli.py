"""Command-line front end: parse a run configuration, dispatch experiments,
write reports, CSV traces and plot scripts.

Exit status: 0 when every check passes, 2 when a check fails, 1 on a
configuration or usage error.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from .data_catalog import DataProfile, parse_profile
from .experiments import (
    ExperimentReport, InsufficientData, NonPositiveValues, TimeGrid, _slug, run_all,
    run_decay, run_lemmas, run_optimality, run_profile, run_simulate, write_report,
)
from .propagator import PropagatorMode
from .quadrature import NonConvergence, TailNotBounded


class ConfigInvalid(Exception):
    """A run configuration failed validation; the message names the field."""


_DEFAULTS = {
    "n": 3,
    "mode": "ode",
    "u0": "zero",
    "u1": "gaussian:a=1",
    "t_lo": 100.0,
    "t_hi": 10_000.0,
    "t_count": 40,
    "tol": 1e-9,
    "out": "out",
    "seed": 0,
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    N: int
    mode: PropagatorMode
    profile_u0: DataProfile
    profile_u1: DataProfile
    tgrid: TimeGrid
    tol: float
    out_dir: Path
    seed: int


def _merge_settings(kwargs: dict) -> dict:
    """Defaults, then config-file values, then explicit flags."""
    merged = dict(_DEFAULTS)
    cfg_path = kwargs.get("config")
    if cfg_path is not None:
        try:
            loaded = json.loads(Path(cfg_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"config file {cfg_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigInvalid(f"config file {cfg_path}: expected a JSON object")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ConfigInvalid(f"config file {cfg_path}: unknown keys {sorted(unknown)}")
        merged.update(loaded)
    for key in _DEFAULTS:
        if kwargs.get(key) is not None:
            merged[key] = kwargs[key]
    return merged


def _integer(value) -> int:
    # an int, an integral float or a decimal string; never a bool
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _real(value) -> float:
    # a finite number or numeric string; never a bool
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        out = float(value)
        if math.isfinite(out):
            return out
    raise ValueError(f"{value!r} is not a finite number")


def _text(value) -> str:
    if isinstance(value, str):
        return value
    raise ValueError(f"{value!r} is not a string")


def _field(settings: dict, key: str, convert):
    """convert(settings[key]); a rejection becomes a ConfigInvalid naming key."""
    try:
        return convert(settings[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"{key}: {exc}") from exc


def build_config(command: str, kwargs: dict) -> RunConfig:
    s = _merge_settings(kwargs)
    n = _field(s, "n", _integer)
    if n < 3:
        raise ConfigInvalid(f"n: {n} is below the supported range (need N >= 3)")
    mode = _field(s, "mode", PropagatorMode)
    if command in ("lemmas", "all") and mode is not PropagatorMode.ODE:
        raise ConfigInvalid(f"mode: {command} runs the inequality sweeps, "
                            f"which are defined for mode ode only")
    try:
        tgrid = TimeGrid(_field(s, "t_lo", _real), _field(s, "t_hi", _real),
                         _field(s, "t_count", _integer))
    except ValueError as exc:
        raise ConfigInvalid(f"time grid: {exc}") from exc
    tol = _field(s, "tol", _real)
    if tol <= 0:
        raise ConfigInvalid(f"tol: {tol} must be positive")
    seed = _field(s, "seed", _integer)
    if seed < 0:
        raise ConfigInvalid(f"seed: {seed} must be a non-negative integer")
    profile_u0 = _field(s, "u0", lambda d: parse_profile(_text(d), N=n))
    profile_u1 = _field(s, "u1", lambda d: parse_profile(_text(d), N=n))
    if command in ("profile", "all") and not profile_u1.is_radial:
        raise ConfigInvalid(f"u1: {command} runs the profile experiment, which needs "
                            f"a radial datum, not {profile_u1.label}")
    return RunConfig(
        command=command, N=n, mode=mode, profile_u0=profile_u0, profile_u1=profile_u1,
        tgrid=tgrid, tol=tol, out_dir=Path(_field(s, "out", _text)), seed=seed,
    )


def emit_plot_script(report: ExperimentReport) -> str:
    """Deterministic matplotlib script plotting every trace CSV of a report.

    Power-law traces get log-log axes, exponential ones log-linear; traces
    carrying a normalized window also draw their min/max as horizontal lines.
    """
    if not report.traces:
        raise ValueError("report has no traces to plot")

    model_by_label = {f.trace_label: f.model for f in report.fits}
    lines = [
        "#!/usr/bin/env python3",
        f'"""Plots for the {report.name} report (reads the CSVs next to it)."""',
        "import csv",
        "from pathlib import Path",
        "",
        "import matplotlib",
        'matplotlib.use("Agg")',
        "import matplotlib.pyplot as plt",
        "",
        "HERE = Path(__file__).resolve().parent",
        "",
        "",
        "def load(name):",
        "    with open(HERE / name, newline='') as fh:",
        "        rows = list(csv.reader(fh))[1:]",
        "    return [float(r[0]) for r in rows], [float(r[1]) for r in rows]",
        "",
    ]
    for tr in report.traces:
        slug = _slug(tr.label)  # same slugs as write_report
        model = model_by_label.get(tr.label, "power")
        plot_fn = "loglog" if model == "power" else "semilogy"
        lines += [
            "",
            f"ts, vs = load({slug + '.csv'!r})",
            "plt.figure(figsize=(6, 4))",
            f"plt.{plot_fn}(ts, vs, marker='o', markersize=3, lw=1)",
        ]
        if tr.label.endswith("-normalized"):
            lines += [
                "plt.axhline(min(vs), color='gray', lw=0.8, ls='--')",
                "plt.axhline(max(vs), color='gray', lw=0.8, ls='--')",
            ]
        lines += [
            "plt.xlabel('t')",
            f"plt.ylabel({tr.label!r})",
            f"plt.title({report.name + ': ' + tr.label!r})",
            "plt.tight_layout()",
            f"plt.savefig(HERE / {slug + '.png'!r}, dpi=150)",
            "plt.close()",
        ]
    return "\n".join(lines) + "\n"


def _dispatch(cfg: RunConfig) -> list[ExperimentReport]:
    if cfg.command == "simulate":
        return [run_simulate(cfg.profile_u0, cfg.profile_u1, cfg.N, cfg.mode,
                             cfg.tgrid, cfg.seed, cfg.tol)]
    if cfg.command == "decay":
        return [run_decay(cfg.profile_u0, cfg.profile_u1, cfg.N, cfg.mode,
                          cfg.tgrid, cfg.tol)]
    if cfg.command == "profile":
        return [run_profile(cfg.profile_u1, cfg.N, cfg.tgrid, cfg.tol)]
    if cfg.command == "optimality":
        return [run_optimality(cfg.N, cfg.tgrid)]
    if cfg.command == "lemmas":
        return [run_lemmas(cfg.N, cfg.seed)]
    if cfg.command == "all":
        return run_all(cfg.profile_u0, cfg.profile_u1, cfg.N, cfg.mode,
                       cfg.tgrid, cfg.seed, cfg.tol)
    raise ConfigInvalid(f"unknown command {cfg.command!r}")


def run(config: RunConfig) -> int:
    """Execute one command, write its artifacts, return the exit status."""
    try:
        reports = _dispatch(config)
    except ConfigInvalid:
        raise
    except (ValueError, InsufficientData, NonPositiveValues) as exc:
        raise ConfigInvalid(str(exc)) from exc
    except (NonConvergence, TailNotBounded) as exc:
        raise ConfigInvalid(f"quadrature could not certify this configuration: {exc}") \
            from exc

    ok = True
    for rep in reports:
        rep.parameters.setdefault("seed", config.seed)
        rep.parameters["tol"] = config.tol
        base = write_report(rep, config.out_dir)
        if rep.traces:
            (base / "plot.py").write_text(emit_plot_script(rep), encoding="utf-8")
        # file=sys.stdout: by default click caches a wrapper per stdout that
        # holds the stream, so each stdout a caller swaps in would live on
        for chk in rep.checks:
            status = "PASS" if chk.passed else "FAIL"
            click.echo(f"[{status}] {rep.name}: {chk.description} "
                       f"(margin={chk.margin:.3e})", file=sys.stdout)
            ok = ok and chk.passed
        click.echo(f"report written to {base}", file=sys.stdout)
    return 0 if ok else 2


def _common_options(fn):
    opts = [
        click.option("--n", type=int, default=None, help="space dimension (>= 3)"),
        click.option("--mode", type=str, default=None, help="propagator mode: ode|paper"),
        click.option("--u0", type=str, default=None, help="displacement datum descriptor"),
        click.option("--u1", type=str, default=None, help="velocity datum descriptor"),
        click.option("--t-lo", type=float, default=None, help="first trace time"),
        click.option("--t-hi", type=float, default=None, help="last trace time"),
        click.option("--t-count", type=int, default=None, help="trace sample count"),
        click.option("--tol", type=float, default=None, help="trace quadrature tolerance"),
        click.option("--out", type=str, default=None, help="output directory"),
        click.option("--seed", type=int, default=None, help="seed for random sweeps"),
        click.option("--config", type=str, default=None, help="JSON config file"),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Numerical laboratory for the logarithmically damped evolution model."""


def _command(name: str, help_text: str):
    @main.command(name=name, help=help_text)
    @_common_options
    def _cmd(**kwargs):
        try:
            cfg = build_config(name, kwargs)
            code = run(cfg)
        except ConfigInvalid as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(1)
        sys.exit(code)

    return _cmd


_command("simulate", "Solution traces, oracle cross-check and the energy identity.")
_command("decay", "Energy and squared-norm decay traces with exponent fits.")
_command("profile", "Leading-term error traces in the low and high bands.")
_command("optimality", "Two-sided window for the sin^2 comparison integral.")
_command("lemmas", "Frequency-side inequality sweeps and model-integral anchors.")
_command("all", "Run every experiment with the shared configuration.")


if __name__ == "__main__":
    main()
