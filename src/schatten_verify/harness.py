"""Experiment driver: impurity, volume-scaling, clipping, and refinement studies.

Each study builds the reference operator (constant coefficients) and a
perturbed operator on a periodic grid, computes the trace-norm or
operator-norm resolvent-difference inequality instance per exponent p, and
emits one ReportRow per instance. Rows go to a CSV with the fixed header

    experiment,p,lhs,rhs,constant,ratio,factorization_residual,deift_residual,n,L,seconds

and a JSON summary records the config echo plus one pass/fail flag per
assertion. Identical config and seed give identical numerical payloads;
the trailing seconds column is the wall time since the start of the
experiment (or sweep step) that produced the row, not a per-row cost, and
is excluded from the bit-identity contract.

The trace-norm constant per p is (1/2) * c_cov^(1/p) * ||g||_p^* with the
coarea constant estimated by seeded Monte Carlo, once per distinct reference
coefficient in a run; the operator-norm rows (p = inf) use the constant 1/4.
Ratios are lhs / (constant * rhs) and the acceptance envelope of 1.05
absorbs periodization and sampling error of the discrete model; an exact
<= 1 assertion at coarse grids would encode discretization noise, not the
underlying inequality.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .coeff_algebra import (
    HermitianMatrixField,
    MonteCarloEstimate,
    clip_coefficients,
    coarea_constant,
    constant_field,
    polyharmonic_coefficients,
    sampled_field,
    sqrt_field,
)
from .errors import ConfigError, NonPositiveDefiniteError
from .multiindex import MultiIndexBasis, enumerate_basis
from .norms import (
    DIVERGENT,
    WeightedNormSpec,
    matrix_field_lp_norm,
    relative_perturbation,
    resolvent_profile_norm,
)
from .schatten_analysis import (
    channel_solve,
    deift_residual,
    factorization_residual,
    operator_norm,
    resolvent,
    schatten_norm_from_values,
    singular_spectrum,
)
from .torus_operator import (
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    constant_resolvent,
)

CSV_HEADER = "experiment,p,lhs,rhs,constant,ratio,factorization_residual,deift_residual,n,L,seconds"

RATIO_ZERO_LHS_TOL = 1e-12


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    n: int
    L: float


@dataclass(frozen=True)
class PerturbationSpec:
    """Impurity set plus amplitude: ``shape`` is box, ball, or bump.

    box uses per-axis ``width``; ball and bump use scalar ``radius``.
    ``amplitude`` scales the base coefficient matrix inside the support,
    i.e. the coefficient jump is amplitude * a (an explicit matrix jump can
    be given instead via ``amplitude_matrix``).
    """

    shape: str
    center: tuple[float, ...]
    width: tuple[float, ...] | None = None
    radius: float | None = None
    amplitude: float | None = None
    amplitude_matrix: tuple | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    id: str
    N: int
    m: int
    grid: GridSpec
    base: str  # "polyharmonic" or explicit matrix via base_matrix
    perturbation: PerturbationSpec
    p_values: tuple[float, ...]
    base_matrix: tuple | None = None


@dataclass(frozen=True)
class Tolerances:
    ratio: float = 1.05
    slope: float = 1e-6
    refine_drift: float = 0.02
    shrink_factor: float = 4.0
    shrink_floor: float = 1e-9


@dataclass(frozen=True)
class StudySettings:
    scale_experiment: str = ""
    scale_relative_widths: tuple[float, ...] = ()
    scale_p: float = 4.0
    clip_experiment: str = ""
    clip_levels: tuple[int, ...] = ()
    clip_p: float = 4.0
    clip_floor: float = 1e-6
    refine_experiment: str = ""
    refine_n_values: tuple[int, ...] = ()


@dataclass(frozen=True)
class HarnessConfig:
    experiments: tuple[ExperimentSpec, ...]
    seed: int = 0
    mc_samples: int = 400_000
    max_dim: int = 8192
    tolerances: Tolerances = field(default_factory=Tolerances)
    studies: StudySettings = field(default_factory=StudySettings)
    raw: dict = field(default_factory=dict)


def _check_keys(d: dict, allowed: set[str], context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ConfigError(f"missing key '{key}' in {context}")
    return d[key]


def _parse_perturbation(d: dict, context: str) -> PerturbationSpec:
    _check_keys(
        d,
        {"shape", "center", "width", "radius", "amplitude", "amplitude_matrix"},
        context,
    )
    shape = _require(d, "shape", context)
    if shape not in ("box", "ball", "bump"):
        raise ConfigError(f"{context}: shape must be box, ball, or bump, got {shape!r}")
    center = tuple(float(c) for c in _require(d, "center", context))
    width = d.get("width")
    radius = d.get("radius")
    if shape == "box":
        if width is None:
            raise ConfigError(f"{context}: box perturbation needs 'width'")
        width = tuple(float(w) for w in width)
    else:
        if radius is None:
            raise ConfigError(f"{context}: {shape} perturbation needs 'radius'")
        radius = float(radius)
    amp = d.get("amplitude")
    amp_mat = d.get("amplitude_matrix")
    if amp is None and amp_mat is None:
        raise ConfigError(f"{context}: need 'amplitude' or 'amplitude_matrix'")
    return PerturbationSpec(
        shape=shape,
        center=center,
        width=width,
        radius=radius,
        amplitude=None if amp is None else float(amp),
        amplitude_matrix=None if amp_mat is None else tuple(map(tuple, amp_mat)),
    )


def _parse_experiment(d: dict, context: str) -> ExperimentSpec:
    _check_keys(
        d, {"id", "N", "m", "grid", "base", "base_matrix", "perturbation", "p_values"}, context
    )
    grid_d = _require(d, "grid", context)
    _check_keys(grid_d, {"n", "L"}, f"{context}.grid")
    base = _require(d, "base", context)
    if base not in ("polyharmonic", "matrix"):
        raise ConfigError(f"{context}: base must be 'polyharmonic' or 'matrix'")
    if base == "matrix" and "base_matrix" not in d:
        raise ConfigError(f"{context}: base 'matrix' needs 'base_matrix'")
    p_values = tuple(float(p) for p in _require(d, "p_values", context))
    if any(p < 1 for p in p_values):
        raise ConfigError(f"{context}: every p must be >= 1")
    return ExperimentSpec(
        id=str(_require(d, "id", context)),
        N=int(_require(d, "N", context)),
        m=int(_require(d, "m", context)),
        grid=GridSpec(n=int(_require(grid_d, "n", f"{context}.grid")),
                      L=float(_require(grid_d, "L", f"{context}.grid"))),
        base=base,
        base_matrix=None if "base_matrix" not in d else tuple(map(tuple, d["base_matrix"])),
        perturbation=_parse_perturbation(_require(d, "perturbation", context), f"{context}.perturbation"),
        p_values=p_values,
    )


def parse_config(data: dict) -> HarnessConfig:
    _check_keys(
        data,
        {
            "experiments",
            "seed",
            "mc_samples",
            "max_dim",
            "tolerances",
            "scale_study",
            "clip_study",
            "refinement_study",
        },
        "config",
    )
    exps = tuple(
        _parse_experiment(e, f"experiments[{i}]")
        for i, e in enumerate(_require(data, "experiments", "config"))
    )
    if not exps:
        raise ConfigError("config needs at least one experiment")
    ids = [e.id for e in exps]
    if len(set(ids)) != len(ids):
        raise ConfigError("experiment ids must be unique")

    tol_d = data.get("tolerances", {})
    _check_keys(
        tol_d, {"ratio", "slope", "refine_drift", "shrink_factor", "shrink_floor"}, "tolerances"
    )
    tol = Tolerances(
        ratio=float(tol_d.get("ratio", 1.05)),
        slope=float(tol_d.get("slope", 1e-6)),
        refine_drift=float(tol_d.get("refine_drift", 0.02)),
        shrink_factor=float(tol_d.get("shrink_factor", 4.0)),
        shrink_floor=float(tol_d.get("shrink_floor", 1e-9)),
    )

    def _lookup(exp_id: str, context: str) -> str:
        if exp_id not in ids:
            raise ConfigError(f"{context}: unknown experiment id {exp_id!r}")
        return exp_id

    studies = StudySettings()
    if "scale_study" in data:
        sd = data["scale_study"]
        _check_keys(sd, {"experiment", "relative_widths", "p"}, "scale_study")
        widths = tuple(float(w) for w in _require(sd, "relative_widths", "scale_study"))
        if any(w2 <= w1 for w1, w2 in zip(widths, widths[1:])) or not widths:
            raise ConfigError("scale_study: relative_widths must be strictly increasing")
        studies = replace(
            studies,
            scale_experiment=_lookup(_require(sd, "experiment", "scale_study"), "scale_study"),
            scale_relative_widths=widths,
            scale_p=float(sd.get("p", 4.0)),
        )
    if "clip_study" in data:
        cd = data["clip_study"]
        _check_keys(cd, {"experiment", "levels", "p", "floor"}, "clip_study")
        levels = tuple(int(v) for v in _require(cd, "levels", "clip_study"))
        if any(v < 1 for v in levels):
            raise ConfigError("clip_study: levels must be positive integers")
        studies = replace(
            studies,
            clip_experiment=_lookup(_require(cd, "experiment", "clip_study"), "clip_study"),
            clip_levels=levels,
            clip_p=float(cd.get("p", 4.0)),
            clip_floor=float(cd.get("floor", 1e-6)),
        )
    if "refinement_study" in data:
        rd = data["refinement_study"]
        _check_keys(rd, {"experiment", "n_values"}, "refinement_study")
        n_values = tuple(int(v) for v in _require(rd, "n_values", "refinement_study"))
        if any(n2 <= n1 for n1, n2 in zip(n_values, n_values[1:])) or len(n_values) < 2:
            raise ConfigError("refinement_study: n_values must be strictly increasing, >= 2 entries")
        studies = replace(
            studies,
            refine_experiment=_lookup(_require(rd, "experiment", "refinement_study"), "refinement_study"),
            refine_n_values=n_values,
        )

    return HarnessConfig(
        experiments=exps,
        seed=int(data.get("seed", 0)),
        mc_samples=int(data.get("mc_samples", 400_000)),
        max_dim=int(data.get("max_dim", 8192)),
        tolerances=tol,
        studies=studies,
        raw=data,
    )


def load_config(path: str) -> HarnessConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return parse_config(data)


def worker_count() -> int:
    env = os.environ.get("SCHATTEN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"SCHATTEN_THREADS must be an integer, got {env!r}") from exc
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# geometry and field construction
# ---------------------------------------------------------------------------


def _min_image(points: np.ndarray, center: np.ndarray, L: float) -> np.ndarray:
    d = points - center
    return (d + L / 2.0) % L - L / 2.0


def indicator_profile(spec: PerturbationSpec, grid: TorusGrid) -> np.ndarray:
    """0/1 (box, ball) or smooth (bump) profile sampled on the grid.

    Box membership is half-open per axis with a tiny inward nudge so a
    boundary landing exactly on a grid point resolves deterministically.
    """
    pts = grid.points()
    center = np.asarray(spec.center, dtype=float)
    if center.shape != (grid.N,):
        raise ConfigError(f"perturbation center must have {grid.N} entries")
    d = _min_image(pts, center, grid.L)
    nudge = 1e-9 * grid.h
    if spec.shape == "box":
        width = np.asarray(spec.width, dtype=float)
        if width.shape != (grid.N,):
            raise ConfigError(f"box width must have {grid.N} entries")
        inside = np.all((d >= -width / 2.0 - nudge) & (d < width / 2.0 - nudge), axis=-1)
        return inside.astype(float)
    r2 = np.sum(d**2, axis=-1)
    if spec.shape == "ball":
        return (r2 < spec.radius**2).astype(float)
    # bump: exp(1 - 1/(1 - s^2)) on s < 1, zero outside; smooth and compactly
    # supported, so refinement converges spectrally
    s2 = r2 / spec.radius**2
    out = np.zeros_like(s2)
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def measured_support_volume(profile: np.ndarray, grid: TorusGrid) -> float:
    """Grid measure h^N * (number of cells in the support)."""
    return grid.cell_volume * float(np.count_nonzero(profile))


def base_coefficient(exp: ExperimentSpec, basis: MultiIndexBasis) -> HermitianMatrixField:
    if exp.base == "polyharmonic":
        return polyharmonic_coefficients(basis)
    return constant_field(basis, np.asarray(exp.base_matrix, dtype=complex))


def amplitude_matrix(exp: ExperimentSpec, a: HermitianMatrixField) -> np.ndarray:
    if exp.perturbation.amplitude_matrix is not None:
        return np.asarray(exp.perturbation.amplitude_matrix, dtype=complex)
    return exp.perturbation.amplitude * a.constant_matrix()


def perturbed_coefficient(
    exp: ExperimentSpec,
    a: HermitianMatrixField,
    grid: TorusGrid,
    profile: np.ndarray | None = None,
) -> HermitianMatrixField:
    """a + profile(x) * jump, sampled on the grid."""
    if profile is None:
        profile = indicator_profile(exp.perturbation, grid)
    jump = amplitude_matrix(exp, a)
    vals = a.constant_matrix()[(None,) * grid.N] + profile[..., None, None] * jump
    return sampled_field(a.basis, np.ascontiguousarray(vals))


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    """One verified inequality instance, one CSV line."""

    experiment: str
    p: float  # math.inf marks operator-norm rows
    lhs: float
    rhs: float
    constant: float | None  # None marks a divergent weighted norm
    ratio: float | None
    factorization_residual: float
    deift_residual: float
    n: int
    L: float
    seconds: float

    def csv_line(self) -> str:
        def num(x) -> str:
            return f"{x:.17g}"

        p_str = "inf" if math.isinf(self.p) else f"{self.p:g}"
        const_str = "divergent" if self.constant is None else num(self.constant)
        ratio_str = "" if self.ratio is None else num(self.ratio)
        return ",".join(
            [
                self.experiment,
                p_str,
                num(self.lhs),
                num(self.rhs),
                const_str,
                ratio_str,
                num(self.factorization_residual),
                num(self.deift_residual),
                str(self.n),
                num(self.L),
                f"{self.seconds:.3f}",
            ]
        )


def parse_csv_rows(text: str) -> list[ReportRow]:
    """Inverse of csv_line, for recomputing assertions from a written report."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if ",".join(header) != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        rows.append(
            ReportRow(
                experiment=rec[0],
                p=float("inf") if rec[1] == "inf" else float(rec[1]),
                lhs=float(rec[2]),
                rhs=float(rec[3]),
                constant=None if rec[4] == "divergent" else float(rec[4]),
                ratio=None if rec[5] == "" else float(rec[5]),
                factorization_residual=float(rec[6]),
                deift_residual=float(rec[7]),
                n=int(rec[8]),
                L=float(rec[9]),
                seconds=float(rec[10]),
            )
        )
    return rows


def _ratio(lhs: float, rhs: float, constant: float | None) -> float | None:
    if constant is None:
        return None
    denom = constant * rhs
    if denom > 0:
        return lhs / denom
    return 0.0 if lhs <= RATIO_ZERO_LHS_TOL else float("inf")


def _report_row(
    experiment: str,
    p: float,
    lhs: float,
    rhs: float,
    constant: float | None,
    residuals: tuple[float, float],
    grid: TorusGrid,
    start: float,
) -> ReportRow:
    """The row of lhs <= constant * rhs; seconds count from ``start``."""
    return ReportRow(
        experiment=experiment,
        p=p,
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        ratio=_ratio(lhs, rhs, constant),
        factorization_residual=residuals[0],
        deift_residual=residuals[1],
        n=grid.n,
        L=grid.L,
        seconds=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass
class StudyResult:
    rows: list[ReportRow]
    assertions: list[Assertion]
    extras: dict


# ---------------------------------------------------------------------------
# the trace-norm constant
# ---------------------------------------------------------------------------

def trace_norm_constant(p: float, basis: MultiIndexBasis, c_cov: float) -> float | None:
    """(1/2) c_cov^(1/p) ||g||_p^*, or None when the weighted norm diverges."""
    gstar = resolvent_profile_norm(WeightedNormSpec(p=p, N=basis.N, m=basis.m))
    if gstar is DIVERGENT:
        return None
    return 0.5 * c_cov ** (1.0 / p) * gstar


def coarea_constants(
    config: HarnessConfig, experiments: tuple[ExperimentSpec, ...]
) -> dict[str, MonteCarloEstimate]:
    """c_cov with its Monte Carlo error per experiment id.

    The estimate is computed once per distinct reference coefficient, with
    the run's sample budget and seed.
    """
    by_coefficient: dict = {}
    out = {}
    for exp in experiments:
        basis = enumerate_basis(exp.N, exp.m)
        b_sqrt = sqrt_field(base_coefficient(exp, basis)).constant_matrix()
        key = (exp.N, exp.m, b_sqrt.tobytes())
        if key not in by_coefficient:
            by_coefficient[key] = coarea_constant(
                b_sqrt, basis, samples=config.mc_samples, seed=config.seed
            )
        out[exp.id] = by_coefficient[key]
    return out


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentArtifacts:
    """Dense objects shared by the per-p rows of one experiment."""

    grid: TorusGrid
    basis: MultiIndexBasis
    perturbed_resolvent: np.ndarray
    delta_singular_values: np.ndarray
    v_field: object
    fact_residual: float
    deift_res: float

    def row(self, experiment: str, p: float, constant: float | None, start: float) -> ReportRow:
        """Schatten-p norm of the resolvent difference against ||V||_p."""
        lhs = schatten_norm_from_values(self.delta_singular_values, p)
        rhs = matrix_field_lp_norm(self.v_field, p)
        residuals = (self.fact_residual, self.deift_res)
        return _report_row(experiment, p, lhs, rhs, constant, residuals, self.grid, start)


def build_artifacts(
    exp: ExperimentSpec,
    config: HarnessConfig,
    grid: TorusGrid | None = None,
    a_tilde: HermitianMatrixField | None = None,
) -> ExperimentArtifacts:
    grid = grid or TorusGrid(N=exp.N, n=exp.grid.n, L=exp.grid.L)
    basis = enumerate_basis(exp.N, exp.m)
    a = base_coefficient(exp, basis)
    if a_tilde is None:
        a_tilde = perturbed_coefficient(exp, a, grid)
    cap = config.max_dim

    try:
        h_var = assemble_variable_coefficient(a_tilde, grid)
    except NonPositiveDefiniteError as exc:
        raise NonPositiveDefiniteError(
            exc.min_eigenvalue,
            exc.points,
            hint=f"experiment {exp.id!r}: clip the coefficient first (clip study) "
            f"or reduce the amplitude",
        ) from exc
    r_tilde = resolvent(h_var, cap=cap)
    delta = r_tilde - constant_resolvent(a, grid, cap=cap)
    svals = singular_spectrum(delta, hermitian=True)

    v_field = relative_perturbation(a, a_tilde, grid.cell_volume)
    # one T~ and one channel solve (G~+1)^{-1} T~, shared by both identity checks
    t_tilde = assemble_derivative_factor(sqrt_field(a_tilde), grid).dense(cap=cap)
    left = channel_solve(t_tilde)
    fact = factorization_residual(a, a_tilde, grid, delta, left, svals[0], cap=cap)
    return ExperimentArtifacts(
        grid=grid,
        basis=basis,
        perturbed_resolvent=r_tilde,
        delta_singular_values=svals,
        v_field=v_field,
        fact_residual=fact,
        deift_res=deift_residual(t_tilde, left),
    )


def impurity_experiment(
    exp: ExperimentSpec, config: HarnessConfig, c_cov: float
) -> list[ReportRow]:
    """Trace-norm rows per p plus the operator-norm (p = inf) row."""
    start = time.perf_counter()
    art = build_artifacts(exp, config)
    rows = [
        art.row(exp.id, p, trace_norm_constant(p, art.basis, c_cov), start)
        for p in exp.p_values
    ]
    # operator-norm row: constant 1/4, sup-norm of the perturbation
    rows.append(art.row(exp.id, np.inf, 0.25, start))
    return rows


def _ratio_assertions(rows: list[ReportRow], tol: Tolerances) -> list[Assertion]:
    out = []
    for row in rows:
        if row.ratio is None:
            continue
        p_str = "inf" if math.isinf(row.p) else f"{row.p:g}"
        out.append(
            Assertion(
                name=f"ratio:{row.experiment}:p={p_str}",
                passed=bool(row.ratio <= tol.ratio),
                detail=f"ratio={row.ratio:.6g} <= {tol.ratio:g}",
            )
        )
    return out


def _monotonicity_assertions(rows: list[ReportRow]) -> list[Assertion]:
    by_exp: dict[str, list[ReportRow]] = {}
    for row in rows:
        if not math.isinf(row.p):
            by_exp.setdefault(row.experiment, []).append(row)
    out = []
    for exp_id, group in by_exp.items():
        group = sorted(group, key=lambda r: r.p)
        ok = all(
            g1.lhs >= g2.lhs - 1e-12 * max(1.0, g1.lhs)
            for g1, g2 in zip(group, group[1:])
        )
        seq = ", ".join(f"p={g.p:g}: {g.lhs:.6g}" for g in group)
        out.append(
            Assertion(
                name=f"schatten_monotone:{exp_id}",
                passed=ok,
                detail=f"lhs non-increasing in p ({seq})",
            )
        )
    return out


def run_verify(config: HarnessConfig) -> StudyResult:
    """The impurity battery over every configured experiment."""
    c_cov = coarea_constants(config, config.experiments)
    rows: list[ReportRow] = []
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        runs = pool.map(
            lambda e: impurity_experiment(e, config, c_cov[e.id].value), config.experiments
        )
        for result in runs:
            rows.extend(result)
    assertions = _ratio_assertions(rows, config.tolerances)
    assertions += _monotonicity_assertions(rows)
    return StudyResult(rows=rows, assertions=assertions, extras={})


# ---------------------------------------------------------------------------
# volume-scaling study
# ---------------------------------------------------------------------------


def run_scale(config: HarnessConfig) -> StudyResult:
    """Sweep the impurity volume; the rhs must follow the exact indicator law.

    The sweep uses centered boxes (widths = relative_widths * L) with the
    target experiment's amplitude so the support measure is an exact cell
    count at every size.
    """
    st = config.studies
    if not st.scale_experiment:
        raise ConfigError("config has no scale_study section")
    exp = next(e for e in config.experiments if e.id == st.scale_experiment)
    if exp.perturbation.shape == "bump":
        raise ConfigError("scale_study needs an indicator (box/ball) perturbation")
    grid = TorusGrid(N=exp.N, n=exp.grid.n, L=exp.grid.L)
    rows: list[ReportRow] = []
    volumes: list[float] = []
    p = st.scale_p
    c_cov = coarea_constants(config, (exp,))[exp.id].value

    for rel_w in st.scale_relative_widths:
        start = time.perf_counter()
        width = tuple(rel_w * grid.L for _ in range(exp.N))
        pert = replace(exp.perturbation, shape="box", width=width, radius=None)
        sub_exp = replace(exp, perturbation=pert, p_values=(p,))
        profile = indicator_profile(pert, grid)
        vol = measured_support_volume(profile, grid)
        volumes.append(vol)
        art = build_artifacts(sub_exp, config, grid=grid)
        constant = trace_norm_constant(p, art.basis, c_cov)
        rows.append(art.row(f"{exp.id}|U={vol:.12g}", p, constant, start))

    assertions = scale_assertions(rows, config)
    slope = _fit_slope(volumes, [r.rhs for r in rows])
    return StudyResult(rows=rows, assertions=assertions, extras={"volumes": volumes, "slope": slope})


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    lx, ly = np.log(np.asarray(xs)), np.log(np.asarray(ys))
    return float(np.polyfit(lx, ly, 1)[0])


def _scale_volume_of(row: ReportRow) -> float:
    tag = row.experiment.rsplit("|U=", 1)
    if len(tag) != 2:
        raise ConfigError(f"not a scale-study row: {row.experiment}")
    return float(tag[1])


def scale_assertions(rows: list[ReportRow], config: HarnessConfig) -> list[Assertion]:
    tol = config.tolerances
    vols = [_scale_volume_of(r) for r in rows]
    p = rows[0].p
    slope = _fit_slope(vols, [r.rhs for r in rows])
    out = [
        Assertion(
            name="scale_slope",
            passed=bool(abs(slope - 1.0 / p) <= tol.slope),
            detail=f"log-log slope {slope:.12g} vs 1/p = {1.0/p:.12g}",
        )
    ]
    for row in rows:
        out.append(
            Assertion(
                name=f"scale_bound:{row.experiment}",
                passed=bool(row.ratio is not None and row.ratio <= 1.0),
                detail=f"lhs <= constant*rhs (ratio={row.ratio})",
            )
        )
    return out


# ---------------------------------------------------------------------------
# clipping study
# ---------------------------------------------------------------------------


def _clip_target_field(
    exp: ExperimentSpec, a: HermitianMatrixField, grid: TorusGrid, floor: float
) -> HermitianMatrixField:
    """Degenerate coefficient: base scaled to the floor inside the support."""
    profile = indicator_profile(exp.perturbation, grid)
    support = (profile > 0).astype(float)
    scale = 1.0 + (floor - 1.0) * support
    vals = a.constant_matrix()[(None,) * grid.N] * scale[..., None, None]
    return sampled_field(a.basis, np.ascontiguousarray(vals))


def run_clip(config: HarnessConfig) -> StudyResult:
    """Clipping sequence on a degenerate coefficient, one bound row per level.

    A level's lhs is the *operator* norm of the resolvent difference, set against
    the trace-norm constant * ||V||_p: weaker than the Schatten-p bound, as
    ||.||_op <= ||.||_p. A ``clip_pair`` row holds the Cauchy gap of levels n, 2n.
    """
    st = config.studies
    if not st.clip_experiment:
        raise ConfigError("config has no clip_study section")
    exp = next(e for e in config.experiments if e.id == st.clip_experiment)
    grid = TorusGrid(N=exp.N, n=exp.grid.n, L=exp.grid.L)
    basis = enumerate_basis(exp.N, exp.m)
    a = base_coefficient(exp, basis)
    degenerate = _clip_target_field(exp, a, grid, st.clip_floor)
    p = st.clip_p
    cap = config.max_dim
    c_cov = coarea_constants(config, (exp,))[exp.id].value
    constant = trace_norm_constant(p, basis, c_cov)

    rows: list[ReportRow] = []
    cauchy: list[dict] = []
    # gaps shrink only once the clip level exceeds the spectral range of the
    # true (unclipped) operator: below that, halving 1/n still moves
    # grid-resolved modes through the sensitive part of the resolvent
    degenerate_op = assemble_variable_coefficient(degenerate, grid).dense(cap=cap)
    spectral_max = float(singular_spectrum(degenerate_op, hermitian=True)[0])
    # a level's lhs is the SVD norm of its difference to the reference resolvent
    # by dense solve: at level 1 the clipped coefficient is the reference, the
    # difference is roundoff (~1e-15), and this arithmetic keeps the value that
    # perfbench/reference.json checks to 1e-10 relative
    reference = resolvent(assemble_constant_coefficient(a, grid), cap=cap)
    for level in st.clip_levels:
        start = time.perf_counter()
        clipped = clip_coefficients(degenerate, level)
        art = build_artifacts(exp, config, grid=grid, a_tilde=clipped)
        lhs = operator_norm(art.perturbed_resolvent - reference)
        rhs = matrix_field_lp_norm(art.v_field, p)
        residuals = (art.fact_residual, art.deift_res)
        label = f"{exp.id}|clip={level}"
        rows.append(_report_row(label, p, lhs, rhs, constant, residuals, grid, start))
        doubled = assemble_variable_coefficient(clip_coefficients(degenerate, 2 * level), grid)
        diff = operator_norm(resolvent(doubled, cap=cap) - art.perturbed_resolvent)
        cauchy.append({"level": level, "next": 2 * level, "difference": diff})
        # the Cauchy gap is no inequality instance: its row carries ratio 0
        label = f"{exp.id}|clip_pair={level}:{2*level}"
        pair = _report_row(label, p, diff, 0.0, 0.0, (0.0, 0.0), grid, start)
        rows.append(replace(pair, ratio=0.0))

    assertions = clip_assertions(rows, config, spectral_max)
    return StudyResult(
        rows=rows,
        assertions=assertions,
        extras={"cauchy": cauchy, "spectral_max": spectral_max},
    )


def clip_assertions(
    rows: list[ReportRow], config: HarnessConfig, spectral_max: float
) -> list[Assertion]:
    tol = config.tolerances
    out = []
    level_rows = [r for r in rows if "|clip=" in r.experiment]
    pair_rows = [r for r in rows if "|clip_pair=" in r.experiment]
    for row in level_rows:
        out.append(
            Assertion(
                name=f"clip_bound:{row.experiment}",
                passed=bool(row.ratio is not None and row.ratio <= tol.ratio),
                detail=f"ratio={row.ratio} <= {tol.ratio:g}",
            )
        )
    # Cauchy monotonicity once the clip level dominates the true spectrum
    diffs = []
    for row in pair_rows:
        level = int(row.experiment.rsplit("|clip_pair=", 1)[1].split(":")[0])
        if level >= spectral_max:
            diffs.append((level, row.lhs))
    diffs.sort()
    monotone = all(d1 > d2 for (_, d1), (_, d2) in zip(diffs, diffs[1:]))
    seq = ", ".join(f"{lv}->{2*lv}: {d:.6g}" for lv, d in diffs)
    out.append(
        Assertion(
            name="clip_cauchy_monotone",
            passed=bool(monotone),
            detail=f"successive resolvent gaps decrease ({seq})",
        )
    )
    return out


# ---------------------------------------------------------------------------
# refinement study
# ---------------------------------------------------------------------------


def run_refine(config: HarnessConfig) -> StudyResult:
    """Repeat the impurity experiment over a grid ladder to expose truncation error."""
    st = config.studies
    if not st.refine_experiment:
        raise ConfigError("config has no refinement_study section")
    exp = next(e for e in config.experiments if e.id == st.refine_experiment)
    c_cov = coarea_constants(config, (exp,))[exp.id].value
    rows: list[ReportRow] = []
    for n in st.refine_n_values:
        sub = replace(exp, grid=GridSpec(n=n, L=exp.grid.L), id=exp.id)
        for row in impurity_experiment(sub, config, c_cov):
            rows.append(replace(row, experiment=f"{exp.id}|n={n}"))
    assertions = refine_assertions(rows, config, smooth=exp.perturbation.shape == "bump")
    return StudyResult(rows=rows, assertions=assertions, extras={})


def refine_assertions(
    rows: list[ReportRow], config: HarnessConfig, smooth: bool
) -> list[Assertion]:
    tol = config.tolerances
    by_p: dict[float, list[ReportRow]] = {}
    for row in rows:
        by_p.setdefault(row.p, []).append(row)
    out = []
    for p, group in sorted(by_p.items()):
        group = sorted(group, key=lambda r: r.n)
        p_str = "inf" if math.isinf(p) else f"{p:g}"
        fine, finest = group[-2], group[-1]
        if finest.ratio is not None and fine.ratio is not None and finest.ratio > 0:
            drift = abs(fine.ratio - finest.ratio) / finest.ratio
            out.append(
                Assertion(
                    name=f"refine_ratio_drift:p={p_str}",
                    passed=bool(drift <= tol.refine_drift),
                    detail=f"top-two ratio drift {drift:.4%} <= {tol.refine_drift:.0%}",
                )
            )
        if smooth and len(group) >= 3:
            changes = [abs(g2.lhs - g1.lhs) for g1, g2 in zip(group, group[1:])]
            ok = all(
                c2 <= c1 / tol.shrink_factor or c2 <= tol.shrink_floor * max(1.0, group[-1].lhs)
                for c1, c2 in zip(changes, changes[1:])
            )
            seq = ", ".join(f"{c:.3g}" for c in changes)
            out.append(
                Assertion(
                    name=f"refine_lhs_shrink:p={p_str}",
                    passed=bool(ok),
                    detail=f"successive lhs changes [{seq}] shrink {tol.shrink_factor:g}x per doubling",
                )
            )
    return out


# ---------------------------------------------------------------------------
# constants study
# ---------------------------------------------------------------------------

CONSTANTS_CSV_HEADER = "experiment,p,c_cov,c_cov_stderr,weighted_profile_norm,trace_norm_constant"


def run_constants(config: HarnessConfig) -> tuple[list[str], dict]:
    """Per-experiment c_cov (with MC stderr), ||g||_p^*, and the bound constant."""
    c_cov = coarea_constants(config, config.experiments)
    lines = [CONSTANTS_CSV_HEADER]
    table = []
    for exp in config.experiments:
        basis = enumerate_basis(exp.N, exp.m)
        est = c_cov[exp.id]
        for p in exp.p_values:
            gstar = resolvent_profile_norm(WeightedNormSpec(p=p, N=exp.N, m=exp.m))
            const = trace_norm_constant(p, basis, est.value)
            if const is None:
                gstar, g_str, const_str = None, "divergent", "divergent"
            else:
                g_str, const_str = f"{gstar:.17g}", f"{const:.17g}"
            lines.append(
                f"{exp.id},{p:g},{est.value:.17g},{est.stderr:.17g},{g_str},{const_str}"
            )
            table.append(
                {
                    "experiment": exp.id,
                    "p": p,
                    "c_cov": est.value,
                    "c_cov_stderr": est.stderr,
                    "weighted_profile_norm": gstar,
                    "trace_norm_constant": const,
                }
            )
    return lines, {"constants": table}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def write_report(
    out_dir: str,
    study: str,
    csv_lines: list[str],
    assertions: list[Assertion],
    config: HarnessConfig,
    extras: dict,
) -> tuple[str, str]:
    """Write <study>_report.csv (csv_lines, header first) and <study>_summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{study}_report.csv")
    json_path = os.path.join(out_dir, f"{study}_summary.json")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        for line in csv_lines:
            f.write(line + "\n")
    summary = {
        "study": study,
        "config": config.raw,
        "csv": os.path.basename(csv_path),
        "assertions": [
            {"name": a.name, "passed": a.passed, "detail": a.detail} for a in assertions
        ],
        "all_passed": all(a.passed for a in assertions),
        "extras": extras,
    }
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return csv_path, json_path


def recompute_assertions_from_csv(
    csv_text: str, config: HarnessConfig, study: str, extras: dict | None = None
) -> list[Assertion]:
    """Re-derive the pass/fail flags from a written CSV report."""
    rows = parse_csv_rows(csv_text)
    if study == "verify":
        return _ratio_assertions(rows, config.tolerances) + _monotonicity_assertions(rows)
    if study == "scale":
        return scale_assertions(rows, config)
    if study == "clip":
        if "spectral_max" not in (extras or {}):
            raise ConfigError("clip assertions need 'spectral_max' from the clip summary extras")
        return clip_assertions(rows, config, float(extras["spectral_max"]))
    if study == "refine":
        exp = next(e for e in config.experiments if e.id == config.studies.refine_experiment)
        return refine_assertions(rows, config, smooth=exp.perturbation.shape == "bump")
    raise ConfigError(f"unknown study {study!r}")
