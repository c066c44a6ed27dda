"""Regenerate reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

Runs each workload once and stores every report row's lhs and rhs. Neither
depends on the seed (it only drives the Monte Carlo c_cov, which enters the
constant and the ratio), so one run per workload covers every seed. Only
regenerate from a commit whose numbers are trusted: the checks compare later
commits against this file.
"""

from __future__ import annotations

import json
import sys

import checks
import run


def main() -> int:
    reference = {}
    for name, wl in run.workloads().items():
        runner = run.Runner(wl, seed=0, reference={})
        it = runner.iteration(trace=False)
        reference[name] = {}
        for proc in it.processes:
            if proc.rc != 0:
                print(f"{name}: {proc.subcommand} exited with {proc.rc}", file=sys.stderr)
                return 1
            if proc.subcommand != "constants":
                rows = checks.read_rows(str(runner.out / proc.subcommand), proc.subcommand)
                reference[name][proc.subcommand] = checks.row_values(rows)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
