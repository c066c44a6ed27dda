"""Tests of the benchmark itself: checker, span arithmetic, output contract.

    python3 -m pytest -q perfbench/selftest.py

test_every_benchmark_metric_printed_with_its_unit runs the benchmark twice
(about half a minute on two cores); the rest take a few seconds together.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
HEADER = "experiment,p,lhs,rhs,constant,ratio,factorization_residual,deift_residual,n,L,seconds"


def _write_study(out_dir: Path, subcommand: str, rows: dict, assertions=None, lhs_scale=None):
    lines = [HEADER]
    for key, (lhs, rhs) in rows.items():
        experiment, p = key.rsplit("@", 1)
        if lhs_scale and key == lhs_scale[0]:
            lhs *= lhs_scale[1]
        lines.append(f"{experiment},{p},{lhs!r},{rhs!r},0.5,0.1,1e-13,2e-14,64,6.28,0.1")
    (out_dir / f"{subcommand}_report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {"assertions": assertions or [{"name": "a", "passed": True, "detail": ""}],
               "config": {}}
    (out_dir / f"{subcommand}_summary.json").write_text(json.dumps(summary), encoding="utf-8")


@pytest.fixture
def scale_reference():
    return checks.load_reference()["studies"]["scale"]


def test_checker_accepts_reference_rows(tmp_path, scale_reference):
    _write_study(tmp_path, "scale", scale_reference)
    tally = checks.check_process(str(tmp_path), "scale", 0, scale_reference)
    assert tally.failed == 0
    # exit code + one assertion + lhs, rhs and two residuals per row
    assert tally.attempted == 2 + 4 * len(scale_reference)


def test_checker_rejects_tampered_lhs(tmp_path, scale_reference):
    key = next(iter(scale_reference))
    _write_study(tmp_path, "scale", scale_reference, lhs_scale=(key, 1 + 1e-9))
    tally = checks.check_process(str(tmp_path), "scale", 0, scale_reference)
    assert tally.failed == 1
    assert key in tally.messages[0]


def test_checker_rejects_failed_assertion_exit_code_and_missing_row(tmp_path, scale_reference):
    failing = [{"name": "scale_slope", "passed": False, "detail": "slope off"}]
    _write_study(tmp_path, "scale", scale_reference, assertions=failing)
    assert checks.check_process(str(tmp_path), "scale", 1, scale_reference).failed == 2
    rows = dict(scale_reference)
    rows.pop(next(iter(rows)))
    _write_study(tmp_path, "scale", rows)
    assert checks.check_process(str(tmp_path), "scale", 0, scale_reference).failed == 2


def test_constants_checked_against_closed_form():
    config = {"experiments": [{"id": "e", "N": 2, "m": 1, "base": "polyharmonic"}]}
    exact = checks.polyharmonic_c_cov(2, 1)
    assert exact == pytest.approx(1.0 / (4.0 * math.pi))
    good = [{"experiment": "e", "p": "4", "c_cov": repr(exact + 3e-4), "c_cov_stderr": "1e-4"}]
    bad = [{"experiment": "e", "p": "4", "c_cov": repr(exact + 6e-4), "c_cov_stderr": "1e-4"}]
    assert checks.check_constants(good, config).failed == 0
    assert checks.check_constants(bad, config).failed == 1


def _span(sid, start, end, parent=None, name="x", **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, **attrs}


def test_self_time_on_synthetic_tree():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),  # overlaps its sibling, as pool threads do
        _span(3, 3.0, 6.0, parent=1),
        _span(4, 2.0, 3.0, parent=2),
        _span(5, 8.0, 12.0, parent=1),  # runs past its parent's end
    ]
    own = tracer.self_times(spans)
    # root: 10 minus the union [1, 6] + [8, 10]
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0})


def test_layer_metrics_on_synthetic_process():
    spans = [
        _span(1, 0.0, 10.0, name="harness.run_verify"),
        _span(2, 0.5, 4.0, parent=1, name="harness.impurity_experiment", family="n1m1"),
        _span(3, 4.0, 9.0, parent=1, name="harness.impurity_experiment", family="n2m1"),
        _span(4, 1.0, 3.0, parent=2, name="schatten_analysis.resolvent", dim=64, flop=1e9),
        _span(5, 1.5, 2.5, parent=4, name="torus_operator.dense", hit=False, columns=64),
        _span(6, 3.0, 3.5, parent=2, name="harness.trace_norm_constant", divergent=False),
        _span(7, 3.1, 3.4, parent=6, name="coeff_algebra.coarea_constant"),
        _span(8, 5.0, 5.1, parent=3, name="harness.trace_norm_constant", divergent=False),
        _span(9, 6.0, 6.2, parent=3, name="torus_operator.dense", hit=True, columns=0),
    ]
    report = {"subcommand": "verify", "run_s": 10.0, "spans": spans,
              "counters": {"torus_operator.apply_calls": 64}}
    m, breakdown = tracer.layer_metrics([report])
    assert m["schatten_analysis.resolvent_s"] == pytest.approx(1.0)
    assert m["torus_operator.dense_s"] == pytest.approx(1.2)
    assert m["harness.pool_wait_s"] == pytest.approx(0.5 + 4.0)
    assert m["harness.experiment_s"] == pytest.approx(8.5)
    assert m["harness.cov_cache_hit_ratio"] == pytest.approx(0.5)
    assert m["torus_operator.dense_cache_hit_ratio"] == pytest.approx(0.5)
    assert m["torus_operator.dense_columns"] == 64
    assert m["schatten_analysis.kernel_gflop"] == pytest.approx(1.0)
    assert breakdown == pytest.approx({"cli.verify_s": 10.0, "harness.n1m1_s": 3.5,
                                       "harness.n2m1_s": 5.0})


def test_tracer_parents_pool_threads_to_the_open_study():
    t = tracer.Tracer()
    inner = t.wrap(lambda x: x + 1, "schatten_analysis.resolvent")

    def study():
        worker = threading.Thread(target=inner, args=(1,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return inner(2)

    assert t.wrap(study, "harness.run_verify")() == 3
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s["name"], []).append(s)
    (root,) = by_name["harness.run_verify"]
    assert [s["parent"] for s in by_name["schatten_analysis.resolvent"]] == [root["id"]] * 2
    assert root["parent"] is None


def _result(args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True,
                         text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_benchmark_metric_printed_with_its_unit():
    common = ["--workload", "studies", "--seed", "7", "--seconds", "1"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = _result(common + ["--trace", trace])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        for metric in BENCHMARK[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))
        assert len(result["metrics"]) == len(BENCHMARK[key])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([*BENCHMARK["command"], "--workload", "battery", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                         cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert not re.search(r'"correct"', out.stdout)


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    assert all(os.path.isdir(ROOT / p) for p in BENCHMARK["paths"])


def test_stalled_iteration_is_abandoned_at_the_deadline(monkeypatch):
    import run

    monkeypatch.setattr(run, "RUN_DEADLINE_S", 0.3)
    wl = run.workloads()["studies"]
    runner = run.Runner(wl, seed=1, reference=checks.load_reference()["studies"])
    it = runner.iteration(trace=False)
    assert it.aborted and len(it.processes) == 1 and it.tally.attempted == 0
    with pytest.raises(run.RunAborted):
        run.end_to_end(runner, seconds=1)
