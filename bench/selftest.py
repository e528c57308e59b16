"""Self-test of the benchmark itself (about 5 s).

    python3 bench/selftest.py

* BENCHMARK.json names the same workloads, reasons and per-layer metrics as
  the code that produces them.
* The workload generator is deterministic in its seed.
* The correctness check accepts one real pass of `traces-mixed-data` at seed
  0 and rejects it once the reference is perturbed: a trace value moved by
  ten times the tolerance, a flipped verdict, a wrong exit status.  The Beta
  anchor accepts the stored comparison integrals for odd N and rejects a
  perturbed copy.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, build_all, import_lab, run_pass  # also pins the thread counts

import check
import metrics
import workloads


def _spec_matches_code() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = []
    if {w["name"]: w["why"] for w in spec["workloads"]} != workloads.WHY:
        bad.append("BENCHMARK.json workloads differ from workloads.WHY")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != metrics.UNITS:
        bad.append("BENCHMARK.json per_layer differs from metrics.UNITS")
    return bad


def _generator_is_seeded() -> list[str]:
    bad = []
    for name in workloads.NAMES:
        if workloads.generate(name, 5) != workloads.generate(name, 5):
            bad.append(f"{name}: same seed gave different commands")
    for name in ("comparison-large-t", "traces-mixed-data"):
        if workloads.generate(name, 1) == workloads.generate(name, 2):
            bad.append(f"{name}: seed does not reach the inputs")
    return bad


def _check_catches_perturbations(cli) -> list[str]:
    name = "traces-mixed-data"
    commands = workloads.generate(name, 0)
    ref = check.Reference.load(name)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "pass"
        _, failed = run_pass(cli, commands, build_all(cli, commands, out), out, ref)
        bad = [f"true reference rejected: {failed}"] if failed else []
        # the true pass matched every expected exit status, so these are its own
        codes = {c.id: ref.expected[c.id]["exit"] for c in commands}

        def failures(r):
            return sum(bool(check.check_command(c, codes[c.id], out / c.id, r))
                       for c in commands)

        victim = "decay.n5.paper.shifted_gaussian"
        moved = copy.deepcopy(ref)
        t, v = moved.traces[victim]["decay/energy.csv"]
        v[len(v) // 2] *= 1.0 + 10.0 * check.RTOL
        flipped = copy.deepcopy(ref)
        desc = next(iter(flipped.expected[victim]["verdicts"]["decay"]))
        flipped.expected[victim]["verdicts"]["decay"][desc] ^= True
        wrong_exit = copy.deepcopy(ref)
        wrong_exit.expected[victim]["exit"] = 2
        for label, r in (("trace value", moved), ("verdict", flipped),
                         ("exit status", wrong_exit)):
            if failures(r) != 1:
                bad.append(f"perturbed {label}: {failures(r)} failures, expected 1")

        # Beta anchor against the stored comparison integrals
        opt_ref = check.Reference.load("comparison-large-t")
        for cid in ("optimality.n3", "optimality.n5"):
            t, v = opt_ref.traces[cid]["optimality/comparison-integral.csv"]
            anchor = check.beta_anchor(int(cid[-1]), t)
            if not check.close(v, anchor, check.RTOL):
                bad.append(f"{cid}: stored values leave the Beta anchor")
            if check.close(v * (1.0 + 10.0 * check.RTOL), anchor, check.RTOL):
                bad.append(f"{cid}: Beta anchor accepts perturbed values")
        shutil.rmtree(out, ignore_errors=True)
    return bad


def main() -> int:
    sys.path.insert(0, str(SRC))
    bad = _spec_matches_code() + _generator_is_seeded()
    bad += _check_catches_perturbations(import_lab())
    for line in bad:
        print(f"SELFTEST FAIL {line}")
    print("selftest:", "ok" if not bad else f"{len(bad)} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
