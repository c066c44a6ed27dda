"""Experiment driver: impurity, volume-scaling, clipping, and refinement studies.

Each study builds the reference operator (constant coefficients) and a
perturbed operator on a periodic grid, computes the trace-norm or
operator-norm resolvent-difference inequality instance per exponent p, and
emits one ReportRow per instance. Rows go to a CSV with the fixed header

    experiment,p,lhs,rhs,constant,ratio,factorization_residual,deift_residual,n,L,seconds

and a JSON summary records the config echo plus one pass/fail flag per
assertion. An identical config gives identical numerical payloads, whatever
the seed; the trailing seconds column is the wall time since the start of the
experiment (or sweep step) that produced the row, not a per-row cost, and
is excluded from the bit-identity contract.

The trace-norm constant per p is (1/2) * c_cov^(1/p) * ||g||_p^* with the
coarea constant from a deterministic quadrature on the unit sphere, once per
experiment; the operator-norm rows (p = inf) use the constant 1/4.
Ratios are lhs / (constant * rhs) and the acceptance envelope of 1.05
absorbs the periodization error of the discrete model; an exact
<= 1 assertion at coarse grids would encode discretization noise, not the
underlying inequality.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .coeff_algebra import (
    HermitianMatrixField,
    check_positive_definite,
    clip_coefficients,
    coarea_constant,
    constant_field,
    polyharmonic_coefficients,
    sampled_field,
    sqrt_field,
)
from .errors import ConfigError, DimensionCapError, NonPositiveDefiniteError, QuadratureError
from .multiindex import MultiIndexBasis, enumerate_basis
from .norms import matrix_field_lp_norm, relative_perturbation, resolvent_profile_norm
# perfbench/tracer.py patches names of the next two imports here; deift_residual,
# factorization_residual and assemble_derivative_factor have no caller in this module
from .schatten_analysis import (
    chain_gap,
    deift_residual,
    factorization_residual,
    impurity_support,
    moments_gap,
    operator_norm,
    resolvent,
    resolvent_certificate,
    schatten_norm_from_values,
    singular_spectrum,
    support_core,
    support_spectrum,
)
from .torus_operator import (
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
)

CSV_HEADER = "experiment,p,lhs,rhs,constant,ratio,factorization_residual,deift_residual,n,L,seconds"

RATIO_ZERO_LHS_TOL = 1e-12


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationSpec:
    """Impurity set: ``shape`` is box, ball, or bump.

    box uses per-axis ``width``; ball and bump use scalar ``radius``.
    """

    shape: str
    center: tuple[float, ...]
    width: tuple[float, ...] | None = None
    radius: float | None = None


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One validated experiment, ready to run.

    ``reference`` is the constant coefficient a; inside the impurity the
    coefficient is a + profile(x) * ``jump``, where the (nu, nu) jump is
    amplitude * a or the config's explicit ``amplitude_matrix``.
    """

    id: str
    grid: TorusGrid
    basis: MultiIndexBasis
    reference: HermitianMatrixField
    jump: np.ndarray
    perturbation: PerturbationSpec
    p_values: tuple[float, ...]

    @property
    def N(self) -> int:
        return self.basis.N

    @property
    def m(self) -> int:
        return self.basis.m


@dataclass(frozen=True)
class Tolerances:
    ratio: float = 1.05
    slope: float = 1e-6
    refine_drift: float = 0.02
    shrink_factor: float = 4.0
    shrink_floor: float = 1e-9

    def __post_init__(self):
        # a tolerance no row can meet would exit 1, which must mean a failed estimate
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0 or (value == 0 and f.name != "shrink_floor"):
                bound = ">= 0" if f.name == "shrink_floor" else "> 0"
                raise ValueError(f"{f.name} must be {bound}, got {value:g}")


@dataclass(frozen=True)
class ScaleStudy:
    experiment: ExperimentSpec
    relative_widths: tuple[float, ...]
    p: float = 4.0


@dataclass(frozen=True)
class ClipStudy:
    experiment: ExperimentSpec
    levels: tuple[int, ...]
    p: float = 4.0
    floor: float = 1e-6


@dataclass(frozen=True)
class RefineStudy:
    experiment: ExperimentSpec
    grids: tuple[TorusGrid, ...]


@dataclass(frozen=True)
class HarnessConfig:
    experiments: tuple[ExperimentSpec, ...]
    max_dim: int = 8192
    tolerances: Tolerances = field(default_factory=Tolerances)
    scale: ScaleStudy | None = None
    clip: ClipStudy | None = None
    refine: RefineStudy | None = None
    raw: dict = field(default_factory=dict)


def check_seed(seed: int) -> None:
    """A config ``seed`` or a ``--seed`` override: accepted and checked, but no output depends on it."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@contextmanager
def _entry(context: str):
    """Re-raise a constructor's ValueError or TypeError as a ConfigError naming ``context``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _check_keys(d: dict, allowed: set[str], context: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ConfigError(f"missing key '{key}' in {context}")
    return d[key]


def _int(value, name: str) -> int:
    """A JSON integer; a bool, a float such as 32.7 or 1.0, or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _float(value, name: str) -> float:
    """A JSON number; a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _floats(values, name: str) -> tuple[float, ...]:
    return tuple(_float(v, f"{name}[{i}]") for i, v in enumerate(values))


def _matrix(rows) -> list[tuple[float, ...]]:
    return [_floats(row, f"entry [{i}]") for i, row in enumerate(rows)]


def _present(d: dict, **casts) -> dict:
    """The keys of ``d`` that are set, as ``cast(value, key)``; an absent key keeps its dataclass default."""
    return {key: cast(d[key], key) for key, cast in casts.items() if key in d}


def _distinct(values: tuple, name: str) -> None:
    """Refuse a list that repeats an entry: a repeat writes duplicate rows."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} repeats an entry: {list(values)}")


def _require_grid_point(spec: PerturbationSpec, grid: TorusGrid, message: str) -> None:
    """Refuse, with ``message``, an impurity set whose profile vanishes at every point of ``grid``."""
    if not indicator_profile(spec, grid).any():
        raise ConfigError(message)


def _parse_perturbation(d: dict, context: str, reference: HermitianMatrixField):
    """The impurity set and the (nu, nu) coefficient jump inside it."""
    N = reference.basis.N
    _check_keys(
        d,
        {"shape", "center", "width", "radius", "amplitude", "amplitude_matrix"},
        context,
    )
    shape = _require(d, "shape", context)
    if shape not in ("box", "ball", "bump"):
        raise ConfigError(f"{context}: shape must be box, ball, or bump, got {shape!r}")
    center = _floats(_require(d, "center", context), "perturbation.center")
    if len(center) != N:
        raise ConfigError(f"{context}: center must have {N} entries")
    width = radius = None
    if shape == "box":
        width = _floats(_require(d, "width", f"{context} (box)"), "perturbation.width")
        if len(width) != N:
            raise ConfigError(f"{context}: box width must have {N} entries")
        if any(w <= 0 for w in width):
            raise ConfigError(f"{context}: box width must be > 0, got {list(width)}")
    else:
        radius = _float(_require(d, "radius", f"{context} ({shape})"), "perturbation.radius")
        if radius <= 0:
            raise ConfigError(f"{context}: {shape} radius must be > 0, got {radius:g}")
    if d.get("amplitude_matrix") is not None:
        with _entry(f"{context}.amplitude_matrix"):
            jump = constant_field(reference.basis, _matrix(d["amplitude_matrix"])).values
    elif d.get("amplitude") is not None:
        jump = _float(d["amplitude"], "perturbation.amplitude") * reference.constant_matrix()
    else:
        raise ConfigError(f"{context}: need 'amplitude' or 'amplitude_matrix'")
    if not np.any(jump):
        raise ConfigError(f"{context}: the coefficient jump is zero, so nothing is perturbed")
    return PerturbationSpec(shape, center, width, radius), jump


def _parse_experiment(d: dict, context: str) -> ExperimentSpec:
    _check_keys(
        d, {"id", "N", "m", "grid", "base", "base_matrix", "perturbation", "p_values"}, context
    )
    exp_id = str(_require(d, "id", context))
    context = f"{context} ({exp_id!r})"
    with _entry(context):
        grid_d = _require(d, "grid", context)
        _check_keys(grid_d, {"n", "L"}, f"{context}.grid")
        base = _require(d, "base", context)
        if base not in ("polyharmonic", "matrix"):
            raise ConfigError(f"{context}: base must be 'polyharmonic' or 'matrix'")
        p_values = _floats(_require(d, "p_values", context), "p_values")
        _distinct(p_values, f"{context}: p_values")
        if any(p < 1 for p in p_values):
            raise ConfigError(f"{context}: every p must be >= 1")
        grid = TorusGrid(
            N=_int(_require(d, "N", context), "N"),
            n=_int(_require(grid_d, "n", f"{context}.grid"), "grid.n"),
            L=_float(_require(grid_d, "L", f"{context}.grid"), "grid.L"),
        )
        basis = enumerate_basis(grid.N, _int(_require(d, "m", context), "m"))
        if base == "polyharmonic":
            reference = polyharmonic_coefficients(basis)
        else:
            with _entry(f"{context}.base_matrix"):
                reference = constant_field(basis, _matrix(_require(d, "base_matrix", context)))
                check_positive_definite(np.linalg.eigvalsh(reference.values))
        perturbation, jump = _parse_perturbation(
            _require(d, "perturbation", context), f"{context}.perturbation", reference
        )
        _require_grid_point(
            perturbation, grid, f"{context}.perturbation: the {perturbation.shape} holds no grid point"
        )
    return ExperimentSpec(exp_id, grid, basis, reference, jump, perturbation, p_values)


def _check_p(study, context: str):
    if study.p < 1:
        raise ConfigError(f"{context}: p must be >= 1")
    return study


def _study_experiment(d: dict, keys: set[str], by_id: dict, context: str) -> ExperimentSpec:
    _check_keys(d, keys | {"experiment"}, context)
    exp_id = _require(d, "experiment", context)
    if exp_id not in by_id:
        raise ConfigError(f"{context}: unknown experiment id {exp_id!r}")
    return by_id[exp_id]


def _parse_scale(d: dict, by_id: dict) -> ScaleStudy:
    exp = _study_experiment(d, {"relative_widths", "p"}, by_id, "scale_study")
    if exp.perturbation.shape == "bump":
        raise ConfigError("scale_study needs an indicator (box/ball) perturbation")
    widths = _floats(_require(d, "relative_widths", "scale_study"), "relative_widths")
    if any(w2 <= w1 for w1, w2 in zip(widths, widths[1:])) or not widths:
        raise ConfigError("scale_study: relative_widths must be strictly increasing")
    for i, rel_w in enumerate(widths):
        message = f"scale_study: relative_widths[{i}] = {rel_w:g} gives a box with no grid point"
        _require_grid_point(_scale_box(exp, rel_w), exp.grid, message)
    return _check_p(ScaleStudy(exp, widths, **_present(d, p=_float)), "scale_study")


def _parse_clip(d: dict, by_id: dict) -> ClipStudy:
    exp = _study_experiment(d, {"levels", "p", "floor"}, by_id, "clip_study")
    levels = tuple(_int(v, f"levels[{i}]") for i, v in enumerate(_require(d, "levels", "clip_study")))
    if not levels:
        raise ConfigError("clip_study: levels must not be empty")
    if any(v < 1 for v in levels):
        raise ConfigError("clip_study: levels must be positive integers")
    _distinct(levels, "clip_study: levels")
    study = ClipStudy(exp, levels, **_present(d, p=_float, floor=_float))
    # floor <= 0 degenerates past positive definiteness; floor >= 1 leaves nothing to clip
    if not 0 < study.floor < 1:
        raise ConfigError(f"clip_study.floor must be in (0, 1), got {study.floor:g}")
    return _check_p(study, "clip_study")


def _parse_refine(d: dict, by_id: dict) -> RefineStudy:
    exp = _study_experiment(d, {"n_values"}, by_id, "refinement_study")
    n_values = tuple(
        _int(v, f"n_values[{i}]") for i, v in enumerate(_require(d, "n_values", "refinement_study"))
    )
    if any(n2 <= n1 for n1, n2 in zip(n_values, n_values[1:])) or len(n_values) < 2:
        raise ConfigError("refinement_study: n_values must be strictly increasing, >= 2 entries")
    grids = tuple(TorusGrid(N=exp.N, n=n, L=exp.grid.L) for n in n_values)
    for i, grid in enumerate(grids):
        message = f"refinement_study: n_values[{i}] = {grid.n} gives a {exp.perturbation.shape} with no grid point"
        _require_grid_point(exp.perturbation, grid, message)
    return RefineStudy(exp, grids)


_STUDY_SECTIONS = {
    "scale_study": ("scale", _parse_scale),
    "clip_study": ("clip", _parse_clip),
    "refinement_study": ("refine", _parse_refine),
}


def parse_config(data: dict) -> HarnessConfig:
    """Validate a config object into ready experiments and studies.

    Every malformed entry raises a ConfigError naming it; an absent optional
    key keeps the default of its dataclass.
    """
    _check_keys(
        data, {"experiments", "seed", "mc_samples", "max_dim", "tolerances", *_STUDY_SECTIONS}, "config"
    )
    with _entry("experiments"):
        exps = tuple(
            _parse_experiment(e, f"experiments[{i}]")
            for i, e in enumerate(_require(data, "experiments", "config"))
        )
    if not exps:
        raise ConfigError("config needs at least one experiment")
    by_id = {e.id: e for e in exps}
    if len(by_id) != len(exps):
        raise ConfigError("experiment ids must be unique")
    tol_d = data.get("tolerances", {})
    _check_keys(tol_d, {f.name for f in fields(Tolerances)}, "tolerances")
    with _entry("tolerances"):
        tolerances = Tolerances(**{key: _float(value, key) for key, value in tol_d.items()})
    studies = {}
    for section, (name, parse) in _STUDY_SECTIONS.items():
        if section in data:
            with _entry(section):
                studies[name] = parse(data[section], by_id)
    with _entry("config"):
        settings = {key: _int(data[key], key) for key in ("seed", "mc_samples", "max_dim") if key in data}
    # seed and mc_samples are accepted and checked, but no output depends on them
    check_seed(settings.pop("seed", 0))
    mc_samples = settings.pop("mc_samples", 1)
    if mc_samples < 1:
        raise ConfigError(f"mc_samples must be >= 1, got {mc_samples}")
    return HarnessConfig(experiments=exps, tolerances=tolerances, raw=data, **studies, **settings)


def _finite(token: str) -> float:
    """A JSON number as a float; NaN, Infinity and an overflow such as 1e400 are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token} in the config")
    return value


def load_config(path: str) -> HarnessConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f, parse_constant=_finite, parse_float=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return parse_config(data)


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
    d = _min_image(grid.points(), np.asarray(spec.center, dtype=float), grid.L)
    nudge = 1e-9 * grid.h
    if spec.shape == "box":
        width = np.asarray(spec.width, dtype=float)
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


def perturbed_coefficient(
    exp: ExperimentSpec, profile: np.ndarray | None = None
) -> HermitianMatrixField:
    """a + profile(x) * jump, sampled on the experiment's grid."""
    if profile is None:
        profile = indicator_profile(exp.perturbation, exp.grid)
    vals = exp.reference.constant_matrix()[(None,) * exp.N] + profile[..., None, None] * exp.jump
    return sampled_field(exp.basis, np.ascontiguousarray(vals))


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------


def _p_label(p: float) -> str:
    """The exponent as the CSV and the assertion names print it; math.inf is "inf"."""
    return "inf" if math.isinf(p) else f"{p:g}"


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

        const_str = "divergent" if self.constant is None else num(self.constant)
        ratio_str = "" if self.ratio is None else num(self.ratio)
        return ",".join(
            [
                self.experiment,
                _p_label(self.p),
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

def _bound_constant(p: float, c_cov: float, gstar: float | None) -> float | None:
    return None if gstar is None else 0.5 * c_cov ** (1.0 / p) * gstar


def trace_norm_constant(p: float, basis: MultiIndexBasis, c_cov: float) -> float | None:
    """(1/2) c_cov^(1/p) ||g||_p^*, or None when the weighted norm diverges."""
    gstar = resolvent_profile_norm(p, basis.N, basis.m)
    return _bound_constant(p, c_cov, gstar)


def experiment_coarea(exp: ExperimentSpec) -> tuple[float, float]:
    """c_cov of the experiment's reference coefficient and the quadrature's error estimate."""
    try:
        return coarea_constant(sqrt_field(exp.reference).constant_matrix(), exp.basis)
    except QuadratureError as exc:
        raise QuadratureError(f"experiment {exp.id!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _check_dense_size(exp: ExperimentSpec, config: HarnessConfig) -> None:
    """Refuse an experiment whose channel dimension nu * n^N exceeds ``max_dim``.

    nu * n^N bounds the size nu K of the support core's solves and lookups
    (K <= n^N), and n^N is the side of the clip study's dense matrices. The
    runners check every experiment (every refinement rung) first, before any
    quadrature or support object.
    """
    dim = exp.basis.nu * exp.grid.total_points
    if dim > config.max_dim:
        raise DimensionCapError(dim, config.max_dim)


@dataclass
class ExperimentArtifacts:
    """Objects shared by the per-p rows of one experiment."""

    grid: TorusGrid
    delta_singular_values: np.ndarray
    v: np.ndarray  # the relative perturbation V, (n^N, nu, nu)
    fact_residual: float
    deift_res: float

    def row(self, experiment: str, p: float, constant: float | None, start: float) -> ReportRow:
        """Schatten-p norm of the resolvent difference against ||V||_p."""
        lhs = schatten_norm_from_values(self.delta_singular_values, p)
        rhs = matrix_field_lp_norm(self.v, self.grid.cell_volume, p)
        residuals = (self.fact_residual, self.deift_res)
        return _report_row(experiment, p, lhs, rhs, constant, residuals, self.grid, start)


def build_artifacts(
    exp: ExperimentSpec,
    config: HarnessConfig,
    a_tilde: HermitianMatrixField | None = None,
) -> ExperimentArtifacts:
    """The support-sized pass of one experiment; ``a_tilde`` defaults to its impurity.

    The resolvent difference is U Xi U* on the impurity's support. The
    factorization column is the larger of the chain gap and the moments gap,
    the Deift column the resolvent certificate (``schatten_analysis``).
    """
    _check_dense_size(exp, config)
    grid, a = exp.grid, exp.reference
    if a_tilde is None:
        a_tilde = perturbed_coefficient(exp)

    try:
        # a~'s one decomposition and the reference's one symbol pass serve every step below
        imp = impurity_support(a, a_tilde, grid)
    except NonPositiveDefiniteError as exc:
        raise NonPositiveDefiniteError(
            exc.min_eigenvalue,
            exc.points,
            hint=f"experiment {exp.id!r}: clip the coefficient first (clip study) "
            f"or reduce the amplitude",
        ) from exc
    svals = support_spectrum(imp)
    v = relative_perturbation(imp.at, imp.at_inv_sqrt, imp.a, imp.a_inv_sqrt)
    xi = support_core(imp)
    chain = chain_gap(imp, xi, v, svals[0] if svals.size else 0.0)
    return ExperimentArtifacts(
        grid=grid,
        delta_singular_values=svals,
        v=v,
        fact_residual=max(chain, moments_gap(imp, xi, svals)),
        deift_res=resolvent_certificate(imp, xi),
    )


def impurity_experiment(
    exp: ExperimentSpec, config: HarnessConfig, c_cov: float
) -> list[ReportRow]:
    """Trace-norm rows per p plus the operator-norm (p = inf) row."""
    start = time.perf_counter()
    art = build_artifacts(exp, config)
    rows = [
        art.row(exp.id, p, trace_norm_constant(p, exp.basis, c_cov), start)
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
        out.append(
            Assertion(
                name=f"ratio:{row.experiment}:p={_p_label(row.p)}",
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
    for exp in config.experiments:
        _check_dense_size(exp, config)
    rows: list[ReportRow] = []
    for exp in config.experiments:
        rows.extend(impurity_experiment(exp, config, experiment_coarea(exp)[0]))
    return StudyResult(rows=rows, assertions=study_assertions("verify", rows, config, {}), extras={})


def _study(study, section: str):
    if study is None:
        raise ConfigError(f"config has no {section} section")
    return study


# ---------------------------------------------------------------------------
# volume-scaling study
# ---------------------------------------------------------------------------


def run_scale(config: HarnessConfig) -> StudyResult:
    """Sweep the impurity volume; the rhs must follow the exact indicator law.

    The sweep uses centered boxes (widths = relative_widths * L) with the
    target experiment's jump so the support measure is an exact cell count
    at every size.
    """
    study = _study(config.scale, "scale_study")
    exp, p, grid = study.experiment, study.p, study.experiment.grid
    _check_dense_size(exp, config)
    constant = trace_norm_constant(p, exp.basis, experiment_coarea(exp)[0])
    rows: list[ReportRow] = []
    volumes: list[float] = []
    for rel_w in study.relative_widths:
        start = time.perf_counter()
        profile = indicator_profile(_scale_box(exp, rel_w), grid)
        volumes.append(measured_support_volume(profile, grid))
        art = build_artifacts(exp, config, a_tilde=perturbed_coefficient(exp, profile))
        rows.append(art.row(f"{exp.id}|U={volumes[-1]:.12g}", p, constant, start))
    extras = {"volumes": volumes, "slope": _fit_slope(volumes, [r.rhs for r in rows])}
    return StudyResult(rows=rows, assertions=study_assertions("scale", rows, config, extras), extras=extras)


def _scale_box(exp: ExperimentSpec, rel_w: float) -> PerturbationSpec:
    """The scale study's box: centered on the impurity, each side rel_w * L."""
    return PerturbationSpec("box", exp.perturbation.center, width=(rel_w * exp.grid.L,) * exp.N)


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    lx, ly = np.log(np.asarray(xs)), np.log(np.asarray(ys))
    return float(np.polyfit(lx, ly, 1)[0])


def _scale_assertions(rows: list[ReportRow], tol: Tolerances, slope: float) -> list[Assertion]:
    p = rows[0].p
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


def _clip_target_field(exp: ExperimentSpec, floor: float) -> HermitianMatrixField:
    """Degenerate coefficient: base scaled to the floor inside the support."""
    profile = indicator_profile(exp.perturbation, exp.grid)
    support = (profile > 0).astype(float)
    scale = 1.0 + (floor - 1.0) * support
    vals = exp.reference.constant_matrix()[(None,) * exp.N] * scale[..., None, None]
    return sampled_field(exp.basis, np.ascontiguousarray(vals))


def run_clip(config: HarnessConfig) -> StudyResult:
    """Clipping sequence on a degenerate coefficient, one bound row per level.

    A level's lhs is the *operator* norm of the resolvent difference, set against
    the trace-norm constant * ||V||_p: weaker than the Schatten-p bound, as
    ||.||_op <= ||.||_p. A ``clip_pair`` row holds the Cauchy gap of levels n, 2n.
    """
    study = _study(config.clip, "clip_study")
    exp, p, grid = study.experiment, study.p, study.experiment.grid
    _check_dense_size(exp, config)
    degenerate = _clip_target_field(exp, study.floor)
    constant = trace_norm_constant(p, exp.basis, experiment_coarea(exp)[0])

    rows: list[ReportRow] = []
    cauchy: list[dict] = []
    # gaps shrink only once the clip level exceeds the spectral range of the
    # true (unclipped) operator: below that, halving 1/n still moves
    # grid-resolved modes through the sensitive part of the resolvent
    degenerate_op = assemble_variable_coefficient(degenerate, grid).dense()
    spectral_max = float(singular_spectrum(degenerate_op, hermitian=True)[0])
    # a level's lhs is the SVD norm of its difference to the reference resolvent,
    # both by dense solve: at level 1 the clipped coefficient is the reference, the
    # difference is roundoff (~1e-15), and this arithmetic keeps the value that
    # perfbench/reference.json checks to 1e-10 relative
    reference = resolvent(assemble_constant_coefficient(exp.reference, grid).dense())
    for level in study.levels:
        start = time.perf_counter()
        clipped = clip_coefficients(degenerate, level)
        art = build_artifacts(exp, config, a_tilde=clipped)
        r_tilde = resolvent(assemble_variable_coefficient(clipped, grid).dense())
        lhs = operator_norm(r_tilde - reference)
        rhs = matrix_field_lp_norm(art.v, grid.cell_volume, p)
        residuals = (art.fact_residual, art.deift_res)
        label = f"{exp.id}|clip={level}"
        rows.append(_report_row(label, p, lhs, rhs, constant, residuals, grid, start))
        doubled = assemble_variable_coefficient(clip_coefficients(degenerate, 2 * level), grid)
        diff = operator_norm(resolvent(doubled.dense()) - r_tilde)
        cauchy.append({"level": level, "next": 2 * level, "difference": diff})
        # the Cauchy gap is no inequality instance: its row carries ratio 0
        label = f"{exp.id}|clip_pair={level}:{2*level}"
        pair = _report_row(label, p, diff, 0.0, 0.0, (0.0, 0.0), grid, start)
        rows.append(replace(pair, ratio=0.0))

    extras = {"cauchy": cauchy, "spectral_max": spectral_max}
    return StudyResult(rows=rows, assertions=study_assertions("clip", rows, config, extras), extras=extras)


def _clip_assertions(rows: list[ReportRow], tol: Tolerances, spectral_max: float) -> list[Assertion]:
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
    study = _study(config.refine, "refinement_study")
    rungs = [replace(study.experiment, grid=grid) for grid in study.grids]
    for rung in rungs:
        _check_dense_size(rung, config)
    exp = study.experiment
    c_cov = experiment_coarea(exp)[0]
    rows: list[ReportRow] = []
    for rung in rungs:
        for row in impurity_experiment(rung, config, c_cov):
            rows.append(replace(row, experiment=f"{exp.id}|n={rung.grid.n}"))
    return StudyResult(rows=rows, assertions=study_assertions("refine", rows, config, {}), extras={})


def _refine_assertions(rows: list[ReportRow], tol: Tolerances, smooth: bool) -> list[Assertion]:
    by_p: dict[float, list[ReportRow]] = {}
    for row in rows:
        by_p.setdefault(row.p, []).append(row)
    out = []
    for p, group in sorted(by_p.items()):
        group = sorted(group, key=lambda r: r.n)
        p_str = _p_label(p)
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
# the assertions of a study
# ---------------------------------------------------------------------------


def _extra(extras: dict, key: str, study: str) -> float:
    if key not in extras:
        raise ConfigError(f"{study} assertions need {key!r} from the {study} summary extras")
    return float(extras[key])


def study_assertions(
    study: str, rows: list[ReportRow], config: HarnessConfig, extras: dict
) -> list[Assertion]:
    """The pass/fail flags of a study's rows.

    ``extras`` is the study's summary extras: the scale study's fitted
    ``slope`` and the clip study's ``spectral_max`` are not in its rows.
    """
    tol = config.tolerances
    if study == "verify":
        return _ratio_assertions(rows, tol) + _monotonicity_assertions(rows)
    if study == "scale":
        return _scale_assertions(rows, tol, _extra(extras, "slope", study))
    if study == "clip":
        return _clip_assertions(rows, tol, _extra(extras, "spectral_max", study))
    if study == "refine":
        shape = _study(config.refine, "refinement_study").experiment.perturbation.shape
        return _refine_assertions(rows, tol, smooth=shape == "bump")
    raise ConfigError(f"unknown study {study!r}")


# ---------------------------------------------------------------------------
# constants study
# ---------------------------------------------------------------------------

CONSTANTS_CSV_HEADER = "experiment,p,c_cov,c_cov_stderr,weighted_profile_norm,trace_norm_constant"


def run_constants(config: HarnessConfig) -> tuple[list[str], dict]:
    """Per-experiment c_cov, ||g||_p^*, and the bound constant.

    The ``c_cov_stderr`` column holds the quadrature's error estimate: the
    difference of its last two rules.
    """
    lines = [CONSTANTS_CSV_HEADER]
    table = []
    for exp in config.experiments:
        c_cov, error = experiment_coarea(exp)
        for p in exp.p_values:
            gstar = resolvent_profile_norm(p, exp.N, exp.m)
            const = _bound_constant(p, c_cov, gstar)
            if gstar is None:
                g_str = const_str = "divergent"
            else:
                g_str, const_str = f"{gstar:.17g}", f"{const:.17g}"
            lines.append(
                f"{exp.id},{p:g},{c_cov:.17g},{error:.17g},{g_str},{const_str}"
            )
            table.append(
                {
                    "experiment": exp.id,
                    "p": p,
                    "c_cov": c_cov,
                    "c_cov_stderr": error,
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
