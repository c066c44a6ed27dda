"""Correctness checks on the reports of one CLI process.

Every check counts once in ``attempted``; a failed one also in ``failed``:

* each report row's ``lhs`` and ``rhs`` against the stored reference, to
  1e-10 relative (a reference row that is missing fails both checks, a row
  with no reference fails one);
* each row's factorization and Deift residual columns, at most 1e-10;
* each ``constants`` row's ``c_cov`` against the polyharmonic closed form
  (2 pi)^-N (N/2m) omega_N, within five of the Monte Carlo standard errors
  the row reports (plus 1e-12 relative for rounding);
* each assertion in the summary JSON;
* the process exit code.

``reference.json`` maps workload -> subcommand -> "experiment@p" ->
[lhs, rhs]; ``make_reference.py`` regenerates it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
RELATIVE_TOL = 1e-10
RESIDUAL_TOL = 1e-10
MC_SIGMAS = 5.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages += other.messages


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def read_rows(out_dir: str, subcommand: str) -> list[dict]:
    with open(os.path.join(out_dir, f"{subcommand}_report.csv"), encoding="utf-8") as f:
        return list(csv.DictReader(f))


def row_values(rows: list[dict]) -> dict[str, list[float]]:
    """"experiment@p" -> [lhs, rhs] for the rows of a study report."""
    return {f"{r['experiment']}@{r['p']}": [float(r["lhs"]), float(r["rhs"])] for r in rows}


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= RELATIVE_TOL * abs(ref)


def polyharmonic_c_cov(N: int, m: int) -> float:
    """(2 pi)^-N (N/2m) omega_N: A(xi) = |xi|^2m makes {A < 1} the unit ball."""
    ball = math.pi ** (N / 2) / math.gamma(N / 2 + 1)
    return (2 * math.pi) ** (-N) * N / (2 * m) * ball


def check_study(rows: list[dict], reference: dict[str, list[float]]) -> Tally:
    tally = Tally()
    seen = row_values(rows)
    for key, (lhs_ref, rhs_ref) in reference.items():
        lhs, rhs = seen.get(key, (math.nan, math.nan))
        tally.check(_close(lhs, lhs_ref), f"{key}: lhs {lhs!r} != reference {lhs_ref!r}")
        tally.check(_close(rhs, rhs_ref), f"{key}: rhs {rhs!r} != reference {rhs_ref!r}")
    for key in seen.keys() - reference.keys():
        tally.check(False, f"{key}: row has no reference")
    for r in rows:
        for col in ("factorization_residual", "deift_residual"):
            value = float(r[col])
            tally.check(value <= RESIDUAL_TOL, f"{r['experiment']}@{r['p']}: {col} {value!r}")
    return tally


def check_constants(rows: list[dict], config: dict) -> Tally:
    tally = Tally()
    experiments = {e["id"]: e for e in config["experiments"]}
    for r in rows:
        exp = experiments[r["experiment"]]
        if exp["base"] != "polyharmonic":
            continue
        exact = polyharmonic_c_cov(exp["N"], exp["m"])
        c_cov, stderr = float(r["c_cov"]), float(r["c_cov_stderr"])
        tol = MC_SIGMAS * stderr + 1e-12 * exact
        tally.check(
            abs(c_cov - exact) <= tol,
            f"{r['experiment']}@{r['p']}: c_cov {c_cov!r} vs closed form {exact!r} (+-{tol:.3g})",
        )
    return tally


def check_process(out_dir: str, subcommand: str, rc: int, reference: dict) -> Tally:
    """All checks on one finished CLI process; ``reference`` is its subcommand's."""
    tally = Tally()
    tally.check(rc == 0, f"{subcommand}: exit code {rc}")
    try:
        with open(os.path.join(out_dir, f"{subcommand}_summary.json"), encoding="utf-8") as f:
            summary = json.load(f)
        rows = read_rows(out_dir, subcommand)
    except (OSError, ValueError) as exc:
        tally.check(False, f"{subcommand}: unreadable report: {exc}")
        return tally
    for a in summary["assertions"]:
        tally.check(bool(a["passed"]), f"{subcommand}: assertion {a['name']} failed: {a['detail']}")
    if subcommand == "constants":
        tally.add(check_constants(rows, summary["config"]))
    else:
        tally.add(check_study(rows, reference))
    return tally
