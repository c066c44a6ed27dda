"""Run one schatten-verify CLI process for the benchmark and report on it.

    python3 perfbench/launch.py REPORT TRACE SETUP_ONLY -- CLI-ARGS...

Set-up time runs from the moment the parent spawned this process (the
CLOCK_MONOTONIC stamp it passes in PERFBENCH_SPAWN) until the CLI's config
load returns: interpreter start, imports and config parsing. With
SETUP_ONLY=1 the process stops there. With TRACE=1 the layer functions are
wrapped by the tracer and the spans go into REPORT, a JSON file written when
the CLI returns. The exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _SetupDone(Exception):
    """Raised from the config loader to stop a set-up-only process."""


def main() -> int:
    report_path, trace, setup_only = sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1 :]
    spawned = float(os.environ["PERFBENCH_SPAWN"])

    from schatten_verify import cli

    report: dict = {"subcommand": cli_args[0]}
    load_config = cli.load_config

    def timed_load_config(path):
        config = load_config(path)
        report["ready"] = _now()
        report["setup_s"] = report["ready"] - spawned
        if setup_only:
            raise _SetupDone
        return config

    cli.load_config = timed_load_config
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    try:
        rc = cli.run_cli(cli_args)
    except _SetupDone:
        rc = 0
    if "ready" in report:
        report["run_s"] = _now() - report["ready"]
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counters"] = dict(tracer.counters)
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
