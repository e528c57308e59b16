"""Correctness check behind the benchmark's `failed` count.

A command fails when it raises or exits 1, when its exit status or any check
verdict differs from the expected one, or when a trace value leaves the
stored reference's tolerance.  The expected verdicts are all PASS except one
deliberate FAIL: the low-band error exponent window ("C6") on mass-carrying
radial data, which the lab documents as measured outside [-0.6, -0.4].

Reference traces are the CSVs the lab wrote for the default seed (0), stored
under `reference/<workload>/<command id>/<experiment>/`.  A command's traces
are compared whenever its flags, apart from `seed`, equal the stored ones:
the lab's seed only draws the random states of its checks, never a trace.
So `pipeline-default`, the zero-mean and `lemmas` commands are compared on
every seed and the seeded data on seed 0.  On every seed, the comparison
integral for odd N is also held against its closed form
omega_N B(N/2, t - N/2) / 4 (the cos half is below 1e-10 relative there).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance on trace values: ten times the lab's own quadrature
# tolerance and orders of magnitude tighter than any exponent window.
RTOL = 1e-8

EXPECTED_FAIL = ("profile", "low-band error exponent within [-0.6, -0.4]")


def read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return (np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows]))


def verdicts(out_dir: Path) -> dict:
    """{experiment: {check description: passed}} from the reports in out_dir."""
    found = {}
    for report in sorted(out_dir.glob("*/report.json")):
        payload = json.loads(report.read_text(encoding="utf-8"))
        found[payload["name"]] = {c["description"]: c["passed"] for c in payload["checks"]}
    return found


def expected_verdicts(found: dict) -> dict:
    """The verdict table a correct lab gives for the checks in `found`."""
    return {exp: {desc: (exp, desc) != EXPECTED_FAIL for desc in checks}
            for exp, checks in found.items()}


def _key(flags: dict) -> dict:
    return {k: v for k, v in flags.items() if k != "seed"}


@dataclass
class Reference:
    """Expected exit status, verdicts and traces per command id of a workload."""

    expected: dict  # id -> {"flags", "exit", "verdicts"}
    traces: dict  # id -> {"<experiment>/<trace>.csv": (times, values)}

    @classmethod
    def load(cls, workload: str) -> "Reference":
        base = REFERENCE_DIR / workload
        expected = json.loads((base / "expected.json").read_text(encoding="utf-8"))
        traces = {
            cid: {p.relative_to(base / cid).as_posix(): read_csv(p)
                  for p in sorted((base / cid).glob("*/*.csv"))}
            for cid in expected
        }
        return cls(expected, traces)


def beta_anchor(N: int, t: np.ndarray) -> np.ndarray:
    """omega_N B(N/2, t - N/2) / 4, the sin^2 comparison integral's mean half."""
    omega = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    lg = np.array([math.lgamma(N / 2.0) + math.lgamma(x - N / 2.0) - math.lgamma(x)
                   for x in t])
    return omega * np.exp(lg) / 4.0


def close(got: np.ndarray, want: np.ndarray, rtol: float) -> bool:
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


def check_command(cmd, exit_code: int, out_dir: Path, ref: Reference) -> list[str]:
    """Reasons the command's outputs are wrong; empty when they are correct."""
    exp = ref.expected.get(cmd.id)
    if exp is None:
        return [f"{cmd.id}: no stored expectation"]
    problems = []
    if exit_code != exp["exit"]:
        problems.append(f"{cmd.id}: exit {exit_code}, expected {exp['exit']}")
    got = verdicts(out_dir)
    if got != exp["verdicts"]:
        problems.append(f"{cmd.id}: verdicts differ from the expected table")
    if _key(cmd.flags) == _key(exp["flags"]):
        for rel, (t_ref, v_ref) in ref.traces[cmd.id].items():
            path = out_dir / rel
            if not path.exists():
                problems.append(f"{cmd.id}: {rel} missing")
                continue
            t, v = read_csv(path)
            if not (close(t, t_ref, 1e-12) and close(v, v_ref, RTOL)):
                problems.append(f"{cmd.id}: {rel} leaves the reference tolerance")
    anchor_csv = out_dir / "optimality" / "comparison-integral.csv"
    if cmd.command == "optimality" and cmd.flags["n"] % 2 == 1 and anchor_csv.exists():
        t, v = read_csv(anchor_csv)
        if not close(v, beta_anchor(cmd.flags["n"], t), RTOL):
            problems.append(f"{cmd.id}: comparison integral leaves the Beta anchor")
    return problems
