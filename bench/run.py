"""Benchmark runner for logdamp-lab.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout, in one process: the lab is imported
from `src/`, each command of the workload goes through
`logdamp_lab.cli.build_config` + `logdamp_lab.cli.run`, and the outputs land
in a scratch directory under `.bench_out/`.

Set-up (import of the lab plus `build_config` for every command) is timed
several times and reported as its median.  Then whole passes over the
workload's commands repeat while they fit in `--seconds`; every pass is
checked against the stored reference (see check.py).  With `--trace 0` the
end-to-end metrics are printed; with `--trace 1` untraced and traced passes
alternate and the per-layer metrics are printed, while the spans and a
per-function table are written to `.bench_out/`.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# single-threaded numerics, pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import check  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_MIN_REPS = 7
SETUP_BUDGET_S = 1.0


def import_lab():
    """Import the lab afresh from this checkout's src/ and return its cli module."""
    for name in [n for n in sys.modules if n == "logdamp_lab" or n.startswith("logdamp_lab.")]:
        del sys.modules[name]
    cli = importlib.import_module("logdamp_lab.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"logdamp_lab imported from {cli.__file__}, not from {SRC}")
    return cli


def build_all(cli, commands, out_dir: Path):
    return [cli.build_config(c.command, dict(c.flags, out=str(out_dir / c.id)))
            for c in commands]


def setup(commands, out_dir: Path):
    """Time (import + build_config for every command); return samples, cli, configs."""
    import_lab()  # warm-up: byte-code caches and first-touch costs
    samples = []
    spent = time.perf_counter()
    while len(samples) < SETUP_MIN_REPS or time.perf_counter() - spent < SETUP_BUDGET_S:
        t0 = time.perf_counter()
        cli = import_lab()
        configs = build_all(cli, commands, out_dir)
        samples.append(time.perf_counter() - t0)
    gc.collect()
    return samples, cli, configs


def run_pass(cli, commands, configs, out_dir: Path, ref, tracer=None):
    """One timed pass over the commands, then its check.

    Returns (seconds, {command id: reasons}) with an entry per failed command.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    codes = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for cmd, cfg in zip(commands, configs):
            if tracer is not None:
                tracer.begin_op(cmd.id)
            try:
                codes.append(cli.run(cfg))
            except Exception as exc:  # a command that raises is counted failed
                codes.append(exc)
    elapsed = time.perf_counter() - t0
    failed = {}
    for cmd, code in zip(commands, codes):
        if isinstance(code, Exception):
            reasons = [f"{cmd.id}: raised {type(code).__name__}: {code}"]
        else:
            reasons = check.check_command(cmd, code, out_dir / cmd.id, ref)
        if reasons:
            failed[cmd.id] = reasons
    return elapsed, failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "logdamp_lab" / "__init__.py").is_file():
        print(f"error: no lab sources at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import click  # noqa: F401  loads outside the timed set-up, like numpy above

    commands = workloads.generate(args.workload, args.seed)
    ref = check.Reference.load(args.workload)
    scratch_root = ROOT / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        return _run(args, commands, ref, scratch, scratch_root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, commands, ref, scratch: Path, scratch_root: Path) -> int:
    out_dir = scratch / "pass"
    try:
        setup_s, cli, configs = setup(commands, out_dir)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tracer = Tracer() if args.trace else None
    if tracer is not None:  # one traced set-up for the layer costs of build_config
        tracer.install()
        tracer.begin_op("setup")
        build_all(cli, commands, out_dir)
        tracer.uninstall()

    plain, traced, traced_ops = [], [], []
    attempted = failed = 0
    last = 0.0
    t_start = time.perf_counter()
    while True:
        # stop before a pass that would end past the budget, once every kind
        # of pass has at least one sample
        enough = plain and (tracer is None or traced)
        if enough and time.perf_counter() - t_start + last > args.seconds:
            break
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            first_op = len(tracer.ops)
            tracer.install()
        elapsed, failures = run_pass(cli, commands, configs, out_dir, ref,
                                     tracer if use_trace else None)
        if use_trace:
            tracer.uninstall()
            traced.append(elapsed)
            traced_ops.append(range(first_op, len(tracer.ops)))
        else:
            plain.append(elapsed)
        last = elapsed
        attempted += len(commands)
        failed += len(failures)
        for reasons in failures.values():
            print("\n".join(f"FAILED {r}" for r in reasons), file=sys.stderr)

    correct = failed == 0
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = {"run_s": (plain, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": ([peak_rss_mb], "MB")}
        out = {}
        for name, (vals, unit) in samples.items():
            st = metrics.summary(vals)
            print(f"{name}: median {st['median']:.6g} {unit}, quartiles "
                  f"[{st['q1']:.6g}, {st['q3']:.6g}], n={st['n']}")
            out[name] = _metric(st["median"], unit)
    else:
        out, repeat = _layer_metrics(args, tracer, traced, traced_ops, plain, scratch_root)
        correct = correct and repeat
        for name, m in out.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} commands failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def _layer_metrics(args, tracer, traced, traced_ops, plain, scratch_root: Path):
    """Per-layer metrics (medians over traced passes) and whether counts repeat."""
    sp = tracer.spans()
    passes = [metrics.pass_metrics(sp, ops, s) for ops, s in zip(traced_ops, traced)]
    out = metrics.setup_metrics(sp, [tracer.ops.index("setup")])
    repeat = True
    for name in passes[0]:
        vals = [p[name] for p in passes]
        if metrics.UNITS[name] == "count":
            if len(set(vals)) > 1:
                print(f"counts differ between traced passes: {name} {vals}", file=sys.stderr)
                repeat = False
            out[name] = vals[0]
        else:
            out[name] = metrics.summary(vals)["median"]
    out["trace_overhead_s"] = (metrics.summary(traced)["median"]
                               - metrics.summary(plain)["median"])

    stem = scratch_root / f"trace-{args.workload}-seed{args.seed}"
    sp.to_npz(f"{stem}-spans.npz")
    table = {"passes": {"plain_s": plain, "traced_s": traced},
             "functions": metrics.function_table(sp)}
    Path(f"{stem}-functions.json").write_text(json.dumps(table, indent=1) + "\n")
    return {k: _metric(out[k], metrics.UNITS[k]) for k in metrics.UNITS}, repeat


if __name__ == "__main__":
    sys.exit(main())
