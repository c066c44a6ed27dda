"""OpenBLAS's idle threads: the package sets OPENBLAS_THREAD_TIMEOUT before numpy loads.

Each test starts a fresh interpreter, since OpenBLAS reads the variable once, when numpy
loads it, and this suite has loaded numpy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_harness import small_config

ROOT = Path(__file__).resolve().parents[1]


def _child(code: str, **env_vars: str | None) -> str:
    """Run ``code`` in a fresh interpreter that imports the package from src; a None value unsets."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# records the variable at the moment numpy is first looked up, then lets the import go on
_AT_NUMPY = """
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Probe())
import schatten_verify
print(seen[0], os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


class TestDefault:
    def test_set_before_numpy_loads(self):
        assert _child(_AT_NUMPY, OPENBLAS_THREAD_TIMEOUT=None).split() == ["4", "4"]

    def test_user_value_kept(self):
        assert _child(_AT_NUMPY, OPENBLAS_THREAD_TIMEOUT="28").split() == ["28", "28"]


def _openblas_pthreads() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration") or ""
    return "openblas" in blas.get("name", "").lower() and "USE_OPENMP" not in config


# CPU seconds of every thread but the main one, after the package's import and 0.5 s idle; the
# main thread's own import work, which varies by a few hundredths of a second from process to
# process, is left out, so what remains is OpenBLAS's workers
_IDLE_CPU = (
    "import resource, time, schatten_verify; time.sleep(0.5); r = resource.getrusage(resource.RUSAGE_SELF); "
    "print(r.ru_utime + r.ru_stime - time.thread_time())"
)


@pytest.mark.skipif(not _openblas_pthreads(), reason="numpy's BLAS is not a pthreads OpenBLAS")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="fewer than 2 CPUs")
def test_idle_worker_sleeps():
    # with OpenBLAS's default timeout of 2^28 cycles the second thread busy-waits after its start
    # (0.134 s of CPU on a 2 GHz time-stamp counter); with the package's 2^4 it sleeps at once
    # (0.000 s); the margin holds half the spin of a 4 GHz counter
    idle = {
        threads: float(_child(_IDLE_CPU, OPENBLAS_NUM_THREADS=threads, OPENBLAS_THREAD_TIMEOUT=None))
        for threads in ("1", "2")
    }
    assert idle["2"] - idle["1"] < 0.03, idle


def test_payload_identical_across_timeouts(tmp_path):
    # the timeout decides only how an idle thread waits: the rows and the summary are the same
    # at the package's 2^4 cycles and at OpenBLAS's default 2^28, at two threads
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    runs = {}
    for timeout in ("4", "28"):
        out = tmp_path / timeout
        args = ["verify", "--config", str(cfg), "--out", str(out)]
        code = f"from schatten_verify.cli import run_cli; assert run_cli({args!r}) == 0"
        _child(code, OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=timeout)
        rows = (out / "verify_report.csv").read_text().splitlines()
        runs[timeout] = ([row.rsplit(",", 1)[0] for row in rows], (out / "verify_summary.json").read_text())
    assert runs["4"] == runs["28"]
