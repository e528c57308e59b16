import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp_lab import cli, data_catalog, experiments, propagator, quadrature, symbols
from logdamp_lab.experiments import TimeGrid, run_lemmas
from logdamp_lab.propagator import PropagatorMode


def _invoke(args):
    return CliRunner().invoke(cli.main, args)


def test_n_below_range_is_config_error(tmp_path):
    res = _invoke(["decay", "--n", "2", "--u1", "gaussian:a=1",
                   "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "config error" in res.output


def test_bad_mode_and_bad_profile(tmp_path):
    assert _invoke(["lemmas", "--mode", "heat", "--out", str(tmp_path)]).exit_code == 1
    assert _invoke(["decay", "--u1", "soliton", "--out", str(tmp_path)]).exit_code == 1
    assert _invoke(["decay", "--t-lo", "50", "--t-hi", "10",
                    "--out", str(tmp_path)]).exit_code == 1
    assert _invoke(["decay", "--tol", "-1", "--out", str(tmp_path)]).exit_code == 1


@pytest.mark.parametrize("n, cause, command", [
    (700, "u1: gaussian:a=1 at N=700: a closed form overflows a float (math range error)",
     "decay"),
    (1500, "u1: gaussian:a=1 at N=1500: a closed form overflows a float "
           "(Numerical result out of range)", "decay"),
    (200, "power fit of trace 'energy' needs positive values: "
          "17 of 40 samples in its window are <= 0", "decay"),
    # t^100 overflows above 1.8e308^(1/100) = 1209.34; 1266.38 is the first
    # grid point past it, refused before any quadrature runs
    (200, "normalized comparison integral at N=200, t=1266.38: t^(N/2) overflows a float",
     "optimality --t-lo 1e3 --t-hi 1e4"),
    # the low band's mass term is the comparison integral, refused by name
    # where it underflows; so is a failed real-axis check whose sample does
    (200, "comparison integral at N=200, t=3888.16 underflows a float "
          "(1.02e-309 < 2.23e-308)", "profile"),
    (200, "low-band profile error at N=200, t=2000 underflows a float (0 < 2.23e-308)",
     "profile --t-hi 2000"),
    # the L^{1,1} norm's r^N overflows at r = 14 from N = 269: refused before
    # any quadrature, with no RuntimeWarning
    (300, "u1: zero_mean_pair at N=300: the quadrature of its L^{1,1} norm forms r^N, "
          "which overflows a float at r = 14", "decay --u1 zero_mean_pair"),
])
def test_large_n_refusal_names_its_cause(tmp_path, n, cause, command):
    out = tmp_path / "out"
    res = _invoke([*command.split(), "--n", str(n), "--out", str(out)])
    assert res.exit_code == 1
    assert f"config error: {cause}\n" in res.output
    assert not out.exists()


@pytest.mark.parametrize("datum", ["gaussian:a=nan", "gaussian:a=inf",
                                   "shifted_gaussian:offset=nan"])
def test_non_finite_datum_parameter_is_config_error(tmp_path, datum):
    # unrefused, they run into a non-finite integrand, a zero datum's power
    # fit, or a report labelled offset=nan with exit 0
    out = tmp_path / "out"
    res = _invoke(["decay", "--u1", datum, "--out", str(out)])
    kind, _, param = datum.partition(":")
    assert res.exit_code == 1
    assert res.output == f"config error: u1: {kind} parameter {param} is not a finite number\n"
    assert not out.exists()


def test_t_spacing_is_unknown_and_t_lo_zero_is_a_time_grid_error(tmp_path):
    # the time grid is log-spaced only, so no grid reaches a t <= 0 power fit
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"t_spacing": "linear"}))
    out = tmp_path / "out"
    res = _invoke(["decay", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 1
    assert res.output == f"config error: config file {cfg}: unknown keys ['t_spacing']\n"
    res = _invoke(["decay", "--t-lo", "0", "--out", str(out)])
    assert res.exit_code == 1
    assert res.output == "config error: time grid: need 0 < t_lo < t_hi\n"
    assert not out.exists()


def test_too_few_samples_for_a_fit_is_config_error(tmp_path):
    res = _invoke(["decay", "--t-count", "4", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "config error" in res.output


def test_run_turns_every_lab_exception_into_config_invalid(tmp_path, monkeypatch):
    # a run never ends in a traceback, whichever lab layer raises
    lab_errors = [obj for mod in (quadrature, experiments, propagator, data_catalog, symbols)
                  for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == mod.__name__]
    assert lab_errors
    cfg = cli.build_config("lemmas", {"out": str(tmp_path / "out")})
    for exc_type in lab_errors:
        def raising(_cfg, exc_type=exc_type):
            raise exc_type("raised by the experiment")

        monkeypatch.setattr(cli, "_dispatch", raising)
        with pytest.raises(cli.ConfigInvalid, match="raised by the experiment"):
            cli.run(cfg)
    assert not (tmp_path / "out").exists()


def test_run_keeps_no_redirected_stdout_alive(tmp_path):
    # run() called in-process with stdout redirected, pass after pass, must
    # let each redirected stream go once the caller drops it
    import contextlib
    import gc
    import io
    import weakref

    cfg = cli.build_config("optimality", {"out": str(tmp_path / "out"), "t_count": 8})
    streams = []
    for _ in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.run(cfg) == 0
        assert "report written to" in buf.getvalue()
        streams.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert all(ref() is None for ref in streams)


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 4, "u1": "gaussian:a=2", "seed": 7}))
    built = cli.build_config("decay", {"config": str(cfg), "n": 5})
    assert built.N == 5          # flag wins
    assert built.seed == 7       # file fills the rest
    assert built.profile_u1.kind == "gaussian"
    assert built.profile_u1.N == 5


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"omega": 1}))
    with pytest.raises(cli.ConfigInvalid):
        cli.build_config("decay", {"config": str(cfg)})
    cfg.write_text("[1, 2]")
    with pytest.raises(cli.ConfigInvalid):
        cli.build_config("decay", {"config": str(cfg)})


@pytest.mark.parametrize("field, value", [
    ("tol", "abc"), ("seed", "x"), ("tol", None), ("tol", math.inf),
    ("n", 3.7), ("n", True), ("t_count", 40.9), ("out", None),
])
def test_config_file_values_are_checked_per_field(tmp_path, field, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "out"), field: value}))
    with pytest.raises(cli.ConfigInvalid, match=f"^{field}: "):
        cli.build_config("decay", {"config": str(cfg)})
    res = _invoke(["decay", "--config", str(cfg)])
    assert res.exit_code == 1
    assert f"config error: {field}: " in res.output
    assert not (tmp_path / "out").exists()


def test_integral_float_config_values_are_accepted(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 4.0, "t_count": 12.0, "mode": "PAPER"}))
    built = cli.build_config("decay", {"config": str(cfg)})
    assert (built.N, built.tgrid.count, built.mode) == (4, 12, PropagatorMode.PAPER)


_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                          st.text(max_size=30))


@given(key=st.sampled_from(sorted(cli._DEFAULTS)), value=_json_scalars)
@settings(max_examples=300, deadline=None)
def test_any_json_scalar_gives_config_or_config_error(tmp_path_factory, key, value):
    cfg = tmp_path_factory.getbasetemp() / "fuzz.json"
    cfg.write_text(json.dumps({key: value}))  # NaN and inf as JSON's NaN/Infinity
    try:
        built = cli.build_config("decay", {"config": str(cfg)})
    except cli.ConfigInvalid as exc:
        # the message names a field (a profile may fail at a legal but huge n)
        assert str(exc).split(":")[0] in {*cli._DEFAULTS, "time grid"}
    else:
        assert isinstance(built, cli.RunConfig)


_plausible = st.sampled_from([
    "3", "4.0", "2", "-1", "1e4", "nan", "ode", "paper", "PAPER", "fourier", "log",
    "linear", "zero", "gaussian:a=1", "gaussian:a=-1", "gaussian:a", "zero_mean_pair",
    "shifted_gaussian:offset=0.5", "shifted_gaussian:offset=x", "bogus", "", "out",
])


@given(settings_=st.dictionaries(st.sampled_from(sorted(cli._DEFAULTS)),
                                 st.one_of(_json_scalars, _plausible),
                                 min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_key_combinations_give_config_or_config_error(tmp_path_factory, settings_):
    cfg = tmp_path_factory.getbasetemp() / "fuzz-combination.json"
    cfg.write_text(json.dumps(settings_))
    for command in cli.main.commands:
        try:
            built = cli.build_config(command, {"config": str(cfg)})
        except cli.ConfigInvalid as exc:
            assert str(exc).split(":")[0] in {*cli._DEFAULTS, "time grid"}
        else:
            assert isinstance(built, cli.RunConfig)


@pytest.mark.parametrize("command", ["lemmas", "all"])
def test_paper_mode_rejected_up_front_for_sweeps(tmp_path, command):
    out = tmp_path / "out"
    res = _invoke([command, "--mode", "paper", "--out", str(out)])
    assert res.exit_code == 1
    assert "config error: mode: " in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["profile", "all"])
def test_non_radial_u1_rejected_up_front_for_profile(tmp_path, monkeypatch, command):
    def no_experiment(*args, **kwargs):
        raise AssertionError("an experiment ran")

    for name in ("run_simulate", "run_decay", "run_profile"):
        monkeypatch.setattr(experiments, name, no_experiment)
        monkeypatch.setattr(cli, name, no_experiment)
    out = tmp_path / "out"
    res = _invoke([command, "--u1", "shifted_gaussian:offset=0.5", "--out", str(out)])
    assert res.exit_code == 1
    assert res.output == (f"config error: u1: {command} runs the profile experiment, "
                          f"which needs a radial datum, not shifted_gaussian:offset=0.5\n")
    assert not out.exists()


@pytest.mark.parametrize("n", [10, 12, 20])
def test_profile_runs_at_n_of_ten_and_above(tmp_path, n):
    # the additivity times move by whole carrier periods past N/2 + 1, where
    # the high band is defined; the one red check is the low-band exponent
    # window of a mass-carrying datum (C6).  At N = 20 |u_hat| reaches ~1e5,
    # so the exact-split check holds only because its bound is relative there
    res = _invoke(["profile", "--n", str(n), "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    report = json.loads((tmp_path / "profile" / "report.json").read_text())
    failed = [c["description"] for c in report["checks"] if not c["passed"]]
    assert failed == ["low-band error exponent within [-0.6, -0.4]"]


@pytest.mark.parametrize("n", [118, 120, 150])
@pytest.mark.parametrize("u1, failed", [
    ("gaussian:a=1", ["low-band error exponent within [-0.6, -0.4]"]),
    ("zero_mean_pair", []),
])
def test_profile_high_band_window_moves_with_n(tmp_path, n, u1, failed):
    # the high band's window starts at N/2 + 1.5 and ends by whole carrier
    # periods past t = 60, as the additivity times do; a fixed end 60 fell
    # below the start from N = 118 on
    res = _invoke(["profile", "--n", str(n), "--u1", u1, "--out", str(tmp_path)])
    assert res.exit_code == (2 if failed else 0), res.output
    report = json.loads((tmp_path / "profile" / "report.json").read_text())
    assert [c["description"] for c in report["checks"] if not c["passed"]] == failed


def test_zero_mass_profile_runs_to_ten_billion(tmp_path):
    # one vector integral per band has no phase panels, so no seed-panel wall
    res = _invoke(["profile", "--u1", "zero_mean_pair", "--t-hi", "1e10",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "profile" / "profile-error-low.csv").read_text().split()[1:]
    t, v = zip(*(map(float, row.split(",")) for row in rows))
    assert max(t) > 1e9
    assert all(math.isfinite(x) and x > 0 for x in v)


def test_mass_profile_runs_to_ten_billion(tmp_path):
    # the low band's contour has no phase panels, so no seed-panel wall; the
    # one red check is the low-band exponent window (C6)
    res = _invoke(["profile", "--u1", "gaussian:a=1", "--t-hi", "1e10",
                   "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    report = json.loads((tmp_path / "profile" / "report.json").read_text())
    failed = [c["description"] for c in report["checks"] if not c["passed"]]
    assert failed == ["low-band error exponent within [-0.6, -0.4]"]
    rows = (tmp_path / "profile" / "profile-error-low.csv").read_text().split()[1:]
    t, v = zip(*(map(float, row.split(",")) for row in rows))
    assert max(t) > 1e9
    assert all(math.isfinite(x) and x > 0 for x in v)


@pytest.mark.parametrize("mode", ["ode", "paper"])
def test_decay_runs_to_a_quadrillion(tmp_path, mode):
    # the density peaks near r = sqrt((N-1)/(2t)), 3e-8 at t = 1e15; the trace
    # seeds start at a fraction of that radius, so no panel budget is spent
    # bisecting down to it
    res = _invoke(["decay", "--mode", mode, "--t-hi", "1e15", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "decay" / "energy.csv").read_text().split()[1:]
    t, energy = map(float, rows[-1].split(","))
    assert t == 1e15
    if mode == "ode":
        # u1 = gaussian:a=1 leads with E t^{3/2} -> pi^{3/2}/8
        assert abs(energy * t ** 1.5 / (math.pi ** 1.5 / 8.0) - 1.0) <= 1e-12


def test_lemmas_command_passes(tmp_path):
    res = _invoke(["lemmas", "--out", str(tmp_path), "--seed", "0"])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "lemmas" / "report.json").read_text())
    assert report["all_passed"] is True
    assert (tmp_path / "lemmas" / "plot.py").exists()


def test_optimality_certifies_up_to_a_million(tmp_path):
    # the comparison integral's panels grow like sqrt(t), so t = 1e6 stays
    # within the panel budget
    res = _invoke(["optimality", "--t-hi", "1e6", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "optimality" / "report.json").read_text())
    assert report["all_passed"] is True


def test_decay_command_passes_and_writes_artifacts(tmp_path):
    res = _invoke(["decay", "--n", "3", "--u1", "gaussian:a=1", "--out", str(tmp_path),
                   "--t-count", "12", "--t-hi", "2000"])
    assert res.exit_code == 0, res.output
    base = tmp_path / "decay"
    assert (base / "report.json").exists()
    assert (base / "energy.csv").exists()
    assert (base / "l2-squared.csv").exists()
    script = (base / "plot.py").read_text()
    assert "loglog" in script


def test_two_nonzero_data_one_non_radial_is_config_error(tmp_path):
    out = tmp_path / "out"
    res = _invoke(["decay", "--u0", "gaussian:a=1", "--u1", "shifted_gaussian:offset=0.5",
                   "--out", str(out)])
    assert res.exit_code == 1
    assert res.output.startswith("config error: ")
    assert "need radial data" in res.output
    assert not out.exists()


def test_check_failure_exit_code(tmp_path):
    # the low-band exponent check measures a steeper decay than the stated
    # window, so the profile command reports the failure via exit status 2
    res = _invoke(["profile", "--out", str(tmp_path), "--t-count", "12"])
    assert res.exit_code == 2
    assert "[FAIL]" in res.output


def test_determinism_same_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = _invoke(["lemmas", "--seed", "0", "--out", str(out)])
        assert res.exit_code == 0
    for name in ("i0-normalized.csv", "j2-normalized.csv"):
        assert (a / "lemmas" / name).read_bytes() == (b / "lemmas" / name).read_bytes()
    assert (a / "lemmas" / "report.json").read_bytes() \
        == (b / "lemmas" / "report.json").read_bytes()


# ---------------------------------------------------------------------------
# plot script emission


def test_emit_plot_script_deterministic():
    rep = run_lemmas(3, 0)
    s1 = cli.emit_plot_script(rep)
    s2 = cli.emit_plot_script(rep)
    assert s1 == s2
    assert s1.count("plt.figure") == len(rep.traces)


def test_emit_plot_script_normalized_window_lines():
    from logdamp_lab.experiments import run_optimality
    rep = run_optimality(3, TimeGrid(100.0, 1000.0, 10))
    script = cli.emit_plot_script(rep)
    assert "axhline" in script


def test_emit_plot_script_requires_traces():
    from logdamp_lab.experiments import ExperimentReport
    with pytest.raises(ValueError):
        cli.emit_plot_script(ExperimentReport(name="empty", parameters={}))


def test_run_config_fields(tmp_path):
    built = cli.build_config("simulate", {"out": str(tmp_path)})
    assert built.command == "simulate"
    assert built.mode is PropagatorMode.ODE
    assert built.tgrid.lo == 100.0 and built.tgrid.hi == 10_000.0
    assert built.profile_u0.is_zero
