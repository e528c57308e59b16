"""Regenerate the stored reference for one or all workloads at seed 0.

    python3 bench/make_reference.py [workload ...]

Runs each command once, requires its verdicts to match the expected table
(all PASS but the documented low-band window FAIL) and its exit status to
follow from them, then stores the verdicts, the flags and every trace CSV
under bench/reference/<workload>/.  Only rerun it when the lab's outputs are
meant to change, and say so in the change that does.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, build_all, import_lab  # also pins the thread counts

import check
import workloads


def make(name: str, cli) -> None:
    commands = workloads.generate(name, 0)
    dest = check.REFERENCE_DIR / name
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp)
        expected = {}
        for cmd, cfg in zip(commands, build_all(cli, commands, out)):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(cfg)
            found = check.verdicts(out / cmd.id)
            want = check.expected_verdicts(found)
            if found != want:
                raise SystemExit(f"{name}/{cmd.id}: verdicts {found} differ from {want}")
            want_exit = 0 if all(all(v.values()) for v in want.values()) else 2
            if code != want_exit:
                raise SystemExit(f"{name}/{cmd.id}: exit {code}, expected {want_exit}")
            expected[cmd.id] = {"flags": cmd.flags, "exit": code, "verdicts": found}
        shutil.rmtree(dest, ignore_errors=True)
        for cmd in commands:
            for csv in sorted((out / cmd.id).glob("*/*.csv")):
                target = dest / cmd.id / csv.relative_to(out / cmd.id)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(csv, target)
        dest.mkdir(parents=True, exist_ok=True)
        (dest / "expected.json").write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{name}: {len(commands)} commands stored under {dest.relative_to(ROOT)}")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    cli = import_lab()
    for name in argv or workloads.NAMES:
        make(name, cli)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
