"""Benchmark of the schatten-verify CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload battery [grid2d studies] --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository: the program is taken
from its ``src/`` and started the way a user starts it, one CLI process per
subcommand, with the workload's thread settings pinned. Reports and launcher
records go to ``.perfbench_out/`` at the checkout root.

A run repeats the workload's processes until ``--seconds`` have passed (at
least once) and reports medians over those iterations. Every process's
output is checked (see checks.py); the failed checks and their base are the
``failed`` and ``attempted`` fields of the result.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``wall_s``: launch-to-exit wall time of the iteration's processes, summed;
* ``setup_s``: spawn until the CLI has loaded its config, summed over the
  processes (median over the iterations, topped up by set-up-only processes
  to at least ``MIN_SETUP_SAMPLES`` samples);
* ``cpu_s``: user + system CPU time of the processes, summed;
* ``peak_rss_mb``: the largest max-RSS among the processes.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of tracer.py from the traced ones, plus
``bench.trace_overhead_frac`` (traced over untraced median wall time, minus 1).

The last line of standard output is one JSON object per workload:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it, starting with '#', give provenance and breakdowns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_CONFIG = SRC / "schatten_verify" / "configs" / "default.json"
OUT_ROOT = ROOT / ".perfbench_out"
PREDICTIONS = HERE / "predictions.json"

MIN_SETUP_SAMPLES = 5
# A process still running this long after the run started is killed, so the
# run ends within 180 s even when the machine stalls; its iteration is
# reported on a '#' line and left out of the result.
RUN_DEADLINE_S = 165.0

GRID2D_EXPERIMENT = "n2m1_bump_a05"
GRID2D_LADDER = (8, 16, 32)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    """Subcommands run in order, one process each, with pinned thread counts.

    pool * blas never exceeds nproc: a pool of 2 threads on top of 2 BLAS
    threads on 2 cores measures the scheduler rather than the program.
    """

    name: str
    subcommands: tuple[str, ...]
    pool: int  # SCHATTEN_THREADS
    blas: int  # OPENBLAS_NUM_THREADS and OMP_NUM_THREADS
    generated_config: bool = False


def workloads() -> dict[str, Workload]:
    cores = nproc()
    return {
        # the shipped battery: 28 small dense problems, N2m1 dominant
        "battery": Workload("battery", ("verify",), pool=cores, blas=1),
        # a few large matrices: BLAS and memory bound, the pool idle
        "grid2d": Workload("grid2d", ("refine",), pool=1, blas=cores, generated_config=True),
        # small N=1 problems: process set-up and the Monte Carlo c_cov dominate
        "studies": Workload("studies", ("scale", "clip", "refine", "constants"), pool=1, blas=1),
    }


def grid2d_config(seed: int) -> dict:
    """The n2m1 bump experiment alone, refined over GRID2D_LADDER."""
    with open(DEFAULT_CONFIG, encoding="utf-8") as f:
        default = json.load(f)
    exp = next(e for e in default["experiments"] if e["id"] == GRID2D_EXPERIMENT)
    config = {k: default[k] for k in ("mc_samples", "max_dim", "tolerances")}
    config["seed"] = seed
    config["experiments"] = [exp]
    config["refinement_study"] = {"experiment": exp["id"], "n_values": list(GRID2D_LADDER)}
    return config


def max_dense_dims(config: dict, subcommands: tuple[str, ...]) -> dict[str, int]:
    """Largest scalar (n^N) and channel (nu n^N) dense dimension the workload builds."""
    exps = {e["id"]: e for e in config["experiments"]}
    grids = []
    for sub in subcommands:
        if sub == "verify":
            grids += [(e, e["grid"]["n"]) for e in exps.values()]
        elif sub == "refine":
            study = config["refinement_study"]
            grids += [(exps[study["experiment"]], n) for n in study["n_values"]]
        elif sub in ("scale", "clip"):
            e = exps[config[f"{sub}_study"]["experiment"]]
            grids.append((e, e["grid"]["n"]))
    scalar = max((n ** e["N"] for e, n in grids), default=0)
    channel = max((math.comb(e["N"] + e["m"] - 1, e["m"]) * n ** e["N"] for e, n in grids), default=0)
    return {"scalar": scalar, "channel": channel}


# ---------------------------------------------------------------------------
# running processes
# ---------------------------------------------------------------------------


@dataclass
class Process:
    subcommand: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    report: dict
    expired: bool = False


@dataclass
class Iteration:
    processes: list[Process]
    tally: checks.Tally = field(default_factory=checks.Tally)

    @property
    def aborted(self) -> bool:
        return any(p.expired for p in self.processes)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.processes)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.processes)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_mb for p in self.processes)

    @property
    def setup_s(self) -> float | None:
        samples = [p.report.get("setup_s") for p in self.processes]
        return None if None in samples else sum(samples)


def launch(wl: Workload, sub: str, cli_args: list[str], out_dir: Path, trace: bool,
           setup_only: bool, deadline: float) -> Process:
    """One CLI process through launch.py, timed and reaped with its own rusage.

    The process is killed if it is still running at ``deadline``.
    """
    report_path = out_dir / f"{sub}.launch.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "launch.py"), str(report_path), str(int(trace)),
           str(int(setup_only)), "--", sub, "--out", str(out_dir), *cli_args]
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])),
        SCHATTEN_THREADS=str(wl.pool),
        OPENBLAS_NUM_THREADS=str(wl.blas),
        OMP_NUM_THREADS=str(wl.blas),
    )
    start = _now()
    env["PERFBENCH_SPAWN"] = repr(start)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(max(0.0, deadline - start), expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = _now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError):
        report = {}
    return Process(sub, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, report, expired.is_set())


class Runner:
    """Runs iterations of one workload at one seed and checks their output."""

    def __init__(self, wl: Workload, seed: int, reference: dict):
        self.wl = wl
        self.deadline = _now() + RUN_DEADLINE_S
        self.out = OUT_ROOT / wl.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.reference = reference
        self.cli_args = ["--seed", str(seed)]
        if wl.generated_config:
            config = grid2d_config(seed)
            path = self.out / "config.json"
            path.write_text(json.dumps(config, indent=1), encoding="utf-8")
            self.cli_args += ["--config", str(path)]
        else:
            with open(DEFAULT_CONFIG, encoding="utf-8") as f:
                config = json.load(f)
        self.dense_dims = max_dense_dims(config, wl.subcommands)

    def iteration(self, trace: bool) -> Iteration:
        it = Iteration([])
        for sub in self.wl.subcommands:
            out_dir = self.out / sub
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir()
            proc = launch(self.wl, sub, self.cli_args, out_dir, trace, False, self.deadline)
            it.processes.append(proc)
            if proc.expired:
                print(f"# {sub} killed at the run deadline; its iteration is not counted")
                break
            it.tally.add(checks.check_process(str(out_dir), sub, proc.rc,
                                              self.reference.get(sub, {})))
        return it

    def setup_round(self) -> float | None:
        """Set-up time of one round of set-up-only processes."""
        out_dir = self.out / "setup"
        out_dir.mkdir(exist_ok=True)
        procs = [launch(self.wl, sub, self.cli_args, out_dir, False, True, self.deadline)
                 for sub in self.wl.subcommands]
        return Iteration(procs).setup_s


# ---------------------------------------------------------------------------
# metrics and output
# ---------------------------------------------------------------------------


class RunAborted(Exception):
    """No iteration finished before the run deadline."""


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


def end_to_end(runner: Runner, seconds: float) -> tuple[list[Iteration], dict]:
    start = _now()
    its: list[Iteration] = []
    while not its or _now() - start < seconds:
        it = runner.iteration(trace=False)
        if it.aborted:
            break
        its.append(it)
    if not its:
        raise RunAborted
    setups = [it.setup_s for it in its]
    while len(setups) < MIN_SETUP_SAMPLES and _now() < runner.deadline:
        setups.append(runner.setup_round())
    metrics = {
        "wall_s": (_median(it.wall_s for it in its), "s"),
        "setup_s": (_median(setups), "s"),
        "cpu_s": (_median(it.cpu_s for it in its), "s"),
        "peak_rss_mb": (_median(it.peak_rss_mb for it in its), "MB"),
    }
    return its, metrics


LAYER_UNITS = {
    "cli.run_s": "s",
    "harness.experiment_s": "s",
    "harness.pool_wait_s": "s",
    "harness.cov_cache_hit_ratio": "ratio",
    "torus_operator.dense_columns": "count",
    "torus_operator.apply_calls": "count",
    "torus_operator.dense_cache_hit_ratio": "ratio",
    "schatten_analysis.factorization_calls": "count",
    "schatten_analysis.resolvent_calls": "count",
    "schatten_analysis.resolvent_dim_max": "rows",
    "schatten_analysis.kernel_gflop": "GFLOP",
    "coeff_algebra.coarea_calls": "count",
    "coeff_algebra.mc_samples": "count",
}


def per_layer(runner: Runner, seconds: float) -> tuple[list[Iteration], dict, list[str]]:
    start = _now()
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    while not traced or _now() - start < seconds:
        pair = runner.iteration(trace=False), runner.iteration(trace=True)
        if any(it.aborted for it in pair):
            break
        plain.append(pair[0])
        traced.append(pair[1])
    if not traced:
        raise RunAborted
    layers = [tracer.layer_metrics([p.report for p in it.processes]) for it in traced]
    metrics = {}
    for name in layers[0][0]:
        unit = LAYER_UNITS.get(name, "s")
        metrics[name] = (_median(m[name] for m, _ in layers), unit)
    wall_plain = _median(it.wall_s for it in plain)
    wall_traced = _median(it.wall_s for it in traced)
    metrics["bench.trace_overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")

    notes = []
    for name in sorted({k for _, b in layers for k in b}):
        notes.append(f"breakdown {name} = {_median(b.get(name, 0.0) for _, b in layers):.4f} s")
    # self times of parallel pool threads add up, so shares can exceed 100 % in total
    ranked = [(metrics[name][0], name) for name in tracer.SELF_TIME_METRICS]
    ranked = sorted(ranked + [(_median(it.setup_s for it in plain), "setup_s")], reverse=True)
    for value, name in ranked[:6]:
        notes.append(f"self time {name} = {value:.4f} s ({value / wall_traced:.1%} of traced wall)")
    predicted = json.loads(PREDICTIONS.read_text(encoding="utf-8"))["dominant"][runner.wl.name]
    top = [name for _, name in ranked[: len(predicted)]]
    verdict = "agrees" if set(top) == set(predicted) else "DISAGREES"
    notes.append(f"dominant layers {top}; predicted {predicted}: {verdict}")
    return traced + plain, metrics, notes


def provenance(runner: Runner, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "schatten_verify").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": runner.wl.name,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "threads": {"SCHATTEN_THREADS": runner.wl.pool, "BLAS": runner.wl.blas},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "seed": seed,
        "max_dense_dim": runner.dense_dims,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(wl, seed, checks.load_reference()[wl.name])
    print("# provenance " + json.dumps(provenance(runner, seed), sort_keys=True), flush=True)
    if trace:
        its, metrics, notes = per_layer(runner, seconds)
    else:
        its, metrics = end_to_end(runner, seconds)
        notes = []
    tally = checks.Tally()
    for i, it in enumerate(its):
        tally.add(it.tally)
        print(f"# iteration {i}: wall_s={it.wall_s:.4f} setup_s={it.setup_s} cpu_s={it.cpu_s:.4f} "
              f"peak_rss_mb={it.peak_rss_mb:.1f}")
    for note in notes:
        print(f"# {note}")
    for message in tally.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    frac = tally.failed / tally.attempted
    print(f"# failed_frac {frac} ({tally.failed} failed of {tally.attempted} checks)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schatten_verify" / "cli.py").is_file():
        print(f"perfbench: no schatten_verify sources under {SRC}", file=sys.stderr)
        return 2
    for name in args.workload:
        try:
            result = run_workload(workloads()[name], args.seed, args.seconds, bool(args.trace))
        except RunAborted:
            print(f"perfbench: {name}: no iteration finished within {RUN_DEADLINE_S:g} s",
                  file=sys.stderr)
            return 3
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
