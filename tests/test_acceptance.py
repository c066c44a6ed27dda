"""Acceptance battery: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. Uses the bundled default config for the battery-level
criteria, so this module is also an end-to-end exercise of the CLI.
"""

import json
import math
import shutil
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from schatten_verify import (
    TorusGrid,
    assemble_derivative_factor,
    coarea_constant,
    enumerate_basis,
    matrix_sqrt,
    polyharmonic_coefficients,
    sqrt_field,
    sublevel_volume,
)
from schatten_verify.cli import default_config_path, run_cli
from schatten_verify.harness import load_config, run_clip, run_refine, run_scale, run_verify
from schatten_verify.norms import resolvent_profile_norm

from helpers import (
    box_perturbed_field,
    bump_perturbed_field,
    deift_of,
    direct_difference,
    factorization_of,
    polyharmonic_setup,
    within_lattice_bound,
)
from oracles import (
    lattice_symbol_integral,
    polar_decomposition_check,
    resolvent_profile,
    weighted_profile_norm,
)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def default_config():
    return load_config(default_config_path())


@pytest.fixture(scope="module")
def battery(default_config):
    start = time.perf_counter()
    result = run_verify(default_config)
    result.extras["wall_seconds"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="module")
def scale(default_config):
    return run_scale(default_config)


@pytest.fixture(scope="module")
def clip(default_config):
    return run_clip(default_config)


@pytest.fixture(scope="module")
def refine(default_config):
    start = time.perf_counter()
    result = run_refine(default_config)
    result.extras["wall_seconds"] = time.perf_counter() - start
    return result


def test_criterion_01_deift_identity():
    rng = np.random.default_rng(20260810)
    shapes = [(20, 20), (20, 6), (6, 20), (15, 15), (1, 12), (12, 1), (9, 17)]
    worst_random = 0.0
    for i in range(20):
        rows, cols = shapes[i % len(shapes)]
        s = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        worst_random = max(worst_random, deift_of(s))

    grid = TorusGrid(N=1, n=32, L=2 * np.pi)
    basis, a = polyharmonic_setup(1, 1)
    t = assemble_derivative_factor(sqrt_field(a), grid).dense()
    discrete = deift_of(t)

    report(
        1,
        "deift identity",
        worst_random < 1e-12 and discrete < 1e-10,
        f"random worst {worst_random:.2e}, discretized factor {discrete:.2e}",
    )


def test_criterion_02_factorization():
    cases = [
        (1, 1, 64, 2 * np.pi, 1e-10),
        (1, 2, 64, 8 * np.pi, 1e-10),
        (2, 1, 16, 2 * np.pi, 1e-9),
    ]
    details = []
    ok = True
    for N, m, n, L, tol in cases:
        grid = TorusGrid(N=N, n=n, L=L)
        basis, a = polyharmonic_setup(N, m)
        for kind, field in (
            ("box", box_perturbed_field(grid, basis, a, amplitude=0.5, rel_width=0.125)),
            ("bump", bump_perturbed_field(grid, basis, a, amplitude=0.5, rel_radius=0.2)),
        ):
            res = factorization_of(a, field, grid, direct_difference(a, field, grid))
            ok = ok and res < tol
            details.append(f"N={N},m={m},{kind}: {res:.2e}")
    report(2, "factorization identity", ok, "; ".join(details))


def test_criterion_03_polar_decomposition():
    grid = TorusGrid(N=1, n=32, L=2 * np.pi)
    basis, a = polyharmonic_setup(1, 1)
    check = polar_decomposition_check(a, grid)
    report(
        3,
        "polar decomposition",
        check.factor_residual < 1e-9 and check.isometry_residual < 1e-9,
        f"factor {check.factor_residual:.2e}, isometry {check.isometry_residual:.2e}",
    )


def test_criterion_04_weighted_norm_oracle():
    worst = 0.0
    divergence_ok = True
    checked = 0
    for N in (1, 2, 3):
        for m in (1, 2, 3):
            for p in (2, 3, 4, 6, 8):
                closed = resolvent_profile_norm(p, N, m)
                quad = weighted_profile_norm(resolvent_profile, p, N, m)
                if p > N / m:
                    rel = abs(quad - closed) / closed
                    worst = max(worst, rel)
                    checked += 1
                else:
                    divergence_ok = divergence_ok and closed is None and quad is None
    # p exactly at the threshold, where representable with p >= 1
    for N, m in ((1, 1), (2, 1), (3, 1), (2, 2), (3, 3)):
        divergence_ok = divergence_ok and resolvent_profile_norm(N / m, N, m) is None
        divergence_ok = divergence_ok and weighted_profile_norm(resolvent_profile, N / m, N, m) is None
    report(
        4,
        "weighted norm oracle",
        worst < 1e-8 and divergence_ok and checked >= 30,
        f"{checked} convergent cases, worst rel err {worst:.2e}, divergence flags ok={divergence_ok}",
    )


def test_criterion_05_coarea_constant():
    # the sphere rule against the closed form 1/(4 pi) and the independent Monte Carlo volume
    basis = enumerate_basis(2, 1)
    a = polyharmonic_coefficients(basis).constant_matrix()
    c_cov, error = coarea_constant(a, basis)
    rule_ok = abs(c_cov * 4.0 * np.pi - 1.0) <= 1e-13 and error <= 1e-13 * c_cov
    est = sublevel_volume(a, basis, samples=1_000_000, seed=20260810)
    z = abs(est.value - 4.0 * np.pi**2 * c_cov) / est.stderr
    mc_ok = z <= 3.0

    # lattice identity at a truncation radius where g^2(A) < 1e-6
    lattice_ok = True
    details = [f"rule c_cov {c_cov:.15g} (error {error:.1e})", f"MC vol {est.value:.5f} (z={z:.2f})"]
    for N, m, radius, spacing in ((1, 1, 1100.0, 0.01), (2, 2, 32.0, 0.05)):
        bas = enumerate_basis(N, m)
        aa = polyharmonic_coefficients(bas).constant_matrix()
        edge = resolvent_profile(radius ** (2 * m)) ** 2
        assert edge < 1e-6
        # the oracle sums |a^{1/2} xi^(m)|^2, the square-root form of the symbol that coarea_constant takes from a
        lhs = lattice_symbol_integral(matrix_sqrt(aa), bas, resolvent_profile, spacing=spacing, radius=radius)
        c_cov = coarea_constant(aa, bas)[0]
        gstar = resolvent_profile_norm(2, N, m)
        rhs = c_cov * gstar**2
        rel = abs(lhs - rhs) / rhs
        lattice_ok = lattice_ok and rel < 0.02
        details.append(f"lattice N={N},m={m}: rel {rel:.4f}")
    report(5, "coarea constant", rule_ok and mc_ok and lattice_ok, "; ".join(details))


def test_criterion_06_trace_norm_battery(battery, refine):
    trace_rows = [r for r in battery.rows if not math.isinf(r.p)]
    ratios_ok = all(within_lattice_bound(r) for r in trace_rows)
    worst = max(r.ratio for r in trace_rows)

    drift_ok = all(
        a.passed for a in refine.assertions if a.name.startswith("refine_ratio_drift")
    )
    elapsed = battery.extras["wall_seconds"] + refine.extras["wall_seconds"]
    report(
        6,
        "trace-norm bound battery",
        ratios_ok and drift_ok and len(trace_rows) >= 81 and elapsed < 300.0,
        f"{len(trace_rows)} rows, worst ratio {worst:.3f}, refinement drift ok={drift_ok}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_07_operator_norm_bound(battery):
    op_rows = [r for r in battery.rows if math.isinf(r.p)]
    nonzero = [r for r in op_rows if r.ratio > 0]
    ok = all(within_lattice_bound(r) for r in op_rows)
    worst = max(r.ratio for r in nonzero)
    report(
        7,
        "operator-norm bound",
        ok and len(op_rows) >= 27,
        f"{len(op_rows)} rows, worst ratio {worst:.3f}",
    )


def test_criterion_08_impurity_scaling_law(default_config, scale):
    slope = scale.extras["slope"]
    p = default_config.scale.p
    slope_ok = abs(slope - 1.0 / p) <= 1e-6
    bound_ok = all(r.lhs <= r.constant * r.rhs for r in scale.rows)
    report(
        8,
        "impurity scaling law",
        slope_ok and bound_ok and len(scale.rows) == 6,
        f"slope {slope:.9f} vs 1/p {1.0/p:.9f}; bound holds at all {len(scale.rows)} volumes",
    )


def test_criterion_09_clipping(clip):
    level_rows = [r for r in clip.rows if "|clip=" in r.experiment]
    ratios_ok = all(within_lattice_bound(r) for r in level_rows)
    cauchy = clip.extras["cauchy"]
    gate = clip.extras["spectral_max"]
    gated = [c["difference"] for c in cauchy if c["level"] >= gate]
    monotone_ok = len(gated) >= 2 and all(
        d1 > d2 for d1, d2 in zip(gated, gated[1:])
    )
    levels = [c["level"] for c in cauchy]
    report(
        9,
        "coefficient clipping",
        ratios_ok and monotone_ok and levels == [1, 4, 16, 64],
        f"levels {levels}, gate {gate:.1f}, gated diffs {['%.3g' % d for d in gated]}",
    )


def test_criterion_10_end_to_end(tmp_path):
    exe = shutil.which("schatten-verify")
    if exe:
        cmd_a = [exe, "verify", "--out", str(tmp_path / "a")]
        cmd_b = [exe, "verify", "--out", str(tmp_path / "b")]
        code_a = subprocess.run(cmd_a, capture_output=True).returncode
        code_b = subprocess.run(cmd_b, capture_output=True).returncode
    else:
        code_a = run_cli(["verify", "--out", str(tmp_path / "a")])
        code_b = run_cli(["verify", "--out", str(tmp_path / "b")])

    def payload(path):
        # wall-time column (trailing) is excluded from the bit-identity contract
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    csv_a = payload(tmp_path / "a" / "verify_report.csv")
    csv_b = payload(tmp_path / "b" / "verify_report.csv")
    summary_a = json.loads((tmp_path / "a" / "verify_summary.json").read_text())
    identical = csv_a == csv_b and len(csv_a) > 100
    report(
        10,
        "end-to-end determinism",
        code_a == 0 and code_b == 0 and identical and summary_a["all_passed"],
        f"exit codes ({code_a}, {code_b}), {len(csv_a) - 1} payload rows bit-identical",
    )


def test_criterion_11_frozen_reference(battery, scale, clip, refine):
    # the seed's numbers, frozen in perfbench/reference.json, with the rule of
    # perfbench/checks.py: every reference key present, no row without a
    # reference, lhs and rhs to 1e-10 relative; every residual <= 1e-10
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    frozen = json.loads(path.read_text(encoding="utf-8"))
    studies = {
        "verify": (battery, frozen["battery"]["verify"]),
        "scale": (scale, frozen["studies"]["scale"]),
        "clip": (clip, frozen["studies"]["clip"]),
        "refine": (refine, frozen["studies"]["refine"]),
    }
    failures = []
    worst_residual = 0.0
    for name, (result, reference) in studies.items():
        seen = {f"{r.experiment}@{r.p:g}": r for r in result.rows}
        failures += [f"{name} {key}: no row" for key in reference.keys() - seen.keys()]
        failures += [f"{name} {key}: no reference" for key in seen.keys() - reference.keys()]
        for key in reference.keys() & seen.keys():
            row = seen[key]
            for column, value, ref in zip(("lhs", "rhs"), (row.lhs, row.rhs), reference[key]):
                if not abs(value - ref) <= 1e-10 * abs(ref):
                    failures.append(f"{name} {key}: {column} {value!r} != {ref!r}")
        for row in result.rows:
            worst_residual = max(worst_residual, row.factorization_residual, row.deift_residual)
    rows = sum(len(reference) for _, reference in studies.values())
    report(
        11,
        "frozen reference",
        not failures and worst_residual <= 1e-10,
        f"{rows} rows; worst residual {worst_residual:.2e}; " + ("; ".join(failures[:5]) or "all match"),
    )
