"""Command-line entry point.

    schatten-verify SUBCOMMAND [--config PATH] [--out DIR] [--seed INT]

Subcommands: verify (impurity battery), scale (volume sweep), clip
(coefficient clipping sequence), refine (grid ladder), constants (print the
bound constants). Exit codes: 0 all assertions pass, 1 an assertion failed,
2 a bad input or an I/O error. Every input is refused at load, before any
grid is sampled: a config error names the entry, including an experiment or
refinement rung whose nu * n^N exceeds max_dim, a jump for which a + jump
is not positive definite, a p in p_values at or below N/m or below 2 (the
scale and clip studies run at their experiment's smallest p) or printed as
another entry is, a clip study with fewer than two levels at or above
spectral_max = max A (where its Cauchy flag compares gaps), an impurity
profile that overflows on its grid (loading runs under the subcommands'
np.errstate), and a tolerances.ratio key, a study's p key or clip_study's
floor key (no such setting exists). Three refusals come later: a base
whose coarea constant the sphere quadrature cannot resolve (constants
only), a coefficient that rounding leaves not positive definite at some
grid point, and a run whose floating point overflows, divides by zero,
forms a NaN (np.errstate) or underflows an l^p sum; each prints
``error: experiment '<row label>': ...``, naming the row it stopped at. No
output depends on --seed: it is validated.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .errors import ConfigError
from .harness import (
    CSV_HEADER,
    RAISE_FLOAT_ERRORS,
    RUN_TIME_REFUSALS,
    HarnessConfig,
    StudyResult,
    check_seed,
    load_config,
    run_clip,
    run_constants,
    run_refine,
    run_scale,
    run_verify,
    write_report,
)

SUBCOMMANDS = ("verify", "scale", "clip", "refine", "constants")


def default_config_path() -> str:
    return str(resources.files("schatten_verify").joinpath("configs/default.json"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schatten-verify",
        description="Verify resolvent-difference trace-norm bounds on desk-scale grids.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="JSON config path (default: bundled)")
    parser.add_argument("--out", default="out", help="output directory for CSV/JSON reports")
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config seed (>= 0; no output depends on it)"
    )
    return parser


_RUNNERS = {
    "verify": run_verify,
    "scale": run_scale,
    "clip": run_clip,
    "refine": run_refine,
}


def run_cli(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config or default_config_path())
        if args.seed is not None:
            check_seed(args.seed)
        return _execute(args.subcommand, config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except RUN_TIME_REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@RAISE_FLOAT_ERRORS()
def _execute(subcommand: str, config: HarnessConfig, out_dir: str) -> int:
    if subcommand == "constants":
        lines, extras = run_constants(config)
        write_report(out_dir, subcommand, lines, [], config, extras)
        for line in lines:
            print(line)
        return 0

    result: StudyResult = _RUNNERS[subcommand](config)
    lines = [CSV_HEADER] + [row.csv_line() for row in result.rows]
    csv_path, json_path = write_report(
        out_dir, subcommand, lines, result.assertions, config, result.extras
    )
    failed = [a for a in result.assertions if not a.passed]
    print(f"{subcommand}: {len(result.rows)} rows -> {csv_path}")
    print(f"{subcommand}: {len(result.assertions) - len(failed)}/{len(result.assertions)} assertions passed -> {json_path}")
    for a in failed:
        print(f"FAILED {a.name}: {a.detail}", file=sys.stderr)
    return 0 if not failed else 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
