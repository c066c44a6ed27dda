"""Experiment driver: impurity, volume-scaling, clipping, and refinement studies.

Each study pairs the constant reference coefficient with a perturbed one on
a periodic grid, computes the trace-norm or operator-norm resolvent-difference
inequality instance per exponent p, and emits one ReportRow per instance.
``build_artifacts`` hands the impurity's support and V to
``schatten_analysis.support_pass``, which computes the resolvent difference's
spectrum and both residual columns. Rows go to a CSV with the fixed header

    experiment,p,lhs,rhs,constant,ratio,factorization_residual,deift_residual,n,L,seconds

and a JSON summary records the config echo plus one pass/fail flag per
assertion. Each runner calls its own flag builder (``verify_flags``,
``scale_flags``, ``clip_flags``, ``refine_flags``) on its rows, the config's
tolerances and what its summary extras record. An identical config gives
identical numerical payloads, whatever the seed; the trailing seconds column
is the wall time since the start of the experiment (or sweep step) that
produced the row, not a per-row cost, and is excluded from the bit-identity
contract.

Every row's constant is the lattice constant C_lat(p) of its reference and
grid (``lattice_constant``), for which lhs <= C_lat(p) * rhs holds exactly on
the discrete torus (README, "The bound on the lattice"); p = inf rows included.
Ratios are lhs / (constant * rhs), and a bound flag allows only roundoff and
the row's certified error of lhs. The paper's continuum constant
(1/2) c_cov^(1/p) ||g||_p^* is what the ``constants`` subcommand prints.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

# perfbench/tracer.py patches names of the coeff_algebra, norms, schatten_analysis and torus_operator imports
# here; sqrt_field, matrix_field_lp_norm, singular_spectrum, deift_residual, factorization_residual and
# assemble_derivative_factor have no caller in this module
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
from .errors import ConfigError, NonPositiveDefiniteError, QuadratureError
from .multiindex import MultiIndexBasis, basis_size, enumerate_basis
from .norms import (
    lp_norm_of_pointwise,
    matrix_field_lp_norm,
    pointwise_operator_norms,
    relative_perturbation,
    resolvent_profile_norm,
)
from .schatten_analysis import (
    deift_residual,
    factorization_residual,
    impurity_support,
    operator_norm,
    resolvent,
    singular_spectrum,
    support_pass,
)
from .torus_operator import (
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    constant_multiplier,
)

CSV_HEADER = "experiment,p,lhs,rhs,constant,ratio,factorization_residual,deift_residual,n,L,seconds"

RATIO_ZERO_LHS_TOL = 1e-12
# the relative roundoff that a bound flag allows on C_lat * rhs
BOUND_ROUNDOFF = 1e-12
# the largest residual column with which a bound flag can pass: past it the certificate vouches for no lhs
RESIDUAL_GATE = 1e-10

# a refinement study's successive lhs changes must shrink by this factor per doubling,
# or sit below the floor relative to the finest lhs
REFINE_SHRINK_FACTOR = 4.0
REFINE_SHRINK_FLOOR = 1e-9

# the default cap on nu * n^N per experiment and per refinement rung (config key max_dim)
DEFAULT_MAX_DIM = 8192

# the clip study's degenerate coefficient is CLIP_FLOOR * a inside the impurity
CLIP_FLOOR = 1e-6

# the floating-point state of the loader and of every subcommand: overflow, division by zero and NaN raise;
# each call makes a new np.errstate, which can be entered once
RAISE_FLOAT_ERRORS = partial(np.errstate, over="raise", invalid="raise", divide="raise")


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
    slope: float = 1e-6
    refine_drift: float = 0.02

    def __post_init__(self):
        # a tolerance no row can meet would exit 1, which must mean a failed estimate
        for f in fields(self):
            value = getattr(self, f.name)
            if value <= 0:
                raise ValueError(f"{f.name} must be > 0, got {value:g}")


# the scale and clip studies run at their experiment's smallest p
@dataclass(frozen=True)
class ScaleStudy:
    experiment: ExperimentSpec
    steps: tuple[ExperimentSpec, ...]  # per relative width, the experiment on its centered box, as <id>|U=<volume>
    volumes: tuple[float, ...]


@dataclass(frozen=True)
class ClipStudy:
    experiment: ExperimentSpec
    levels: tuple[int, ...]
    spectral_max: float  # max A(xi) of the reference: the Cauchy gaps shrink from this level on


@dataclass(frozen=True)
class RefineStudy:
    experiment: ExperimentSpec
    rungs: tuple[ExperimentSpec, ...]  # per n, the experiment on that grid, as <id>|n=<n>


@dataclass(frozen=True)
class HarnessConfig:
    experiments: tuple[ExperimentSpec, ...]
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
    """Re-raise a constructor's ValueError, TypeError or arithmetic error as a ConfigError naming ``context``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
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


def _distinct(values: tuple, name: str) -> None:
    """Refuse a list that repeats an entry: a repeat writes duplicate rows."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} repeats an entry: {list(values)}")


def _check_size(nu: int, grid: TorusGrid, max_dim: int, context: str) -> None:
    """Refuse a grid whose channel dimension nu * n^N exceeds ``max_dim``, before anything samples it.

    nu * n^N bounds the size nu K of the support core's solves and lookups
    (K <= n^N), and n^N is the side of the clip study's dense matrices. It is
    formed one axis at a time and stops once past the cap, so a huge N is
    refused without forming n^N: the message then names the axes multiplied.
    """
    dim, axes = nu, 0
    while axes < grid.N and dim <= max_dim:
        dim, axes = dim * grid.n, axes + 1
    if dim > max_dim:
        raise ConfigError(f"{context}: nu * n^{'N' if axes == grid.N else axes} = {dim} exceeds max_dim {max_dim}")


def _require_perturbed(exp: ExperimentSpec, message: str) -> None:
    """Refuse, with ``message``, an experiment whose at (``_perturbed_values``) is a at every grid point, as when
    the set holds none or the jump rounds away: its rows would pass with lhs = rhs = 0."""
    if np.all(_perturbed_values(exp) == exp.reference.constant_matrix()):
        raise ConfigError(f"{message} where the jump changes a")


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
    # a profile takes values in [0, 1] and the smallest eigenvalue is concave along
    # a + t * jump (Weyl), so a + jump positive definite makes a~ so at every point
    with _entry(f"{context}: a + jump"):
        check_positive_definite(np.linalg.eigvalsh(reference.constant_matrix() + jump))
    return PerturbationSpec(shape, center, width, radius), jump


def _parse_experiment(d: dict, context: str, max_dim: int) -> ExperimentSpec:
    _check_keys(
        d, {"id", "N", "m", "grid", "base", "base_matrix", "perturbation", "p_values"}, context
    )
    exp_id = _require(d, "id", context)
    # the id is a CSV field and a label: a comma, a quote or a line break would split its row,
    # and the studies join their row labels with "|" (clip's bound rows are those holding "|clip=")
    if not isinstance(exp_id, str) or not exp_id or any(c in exp_id for c in ',"|\r\n'):
        raise ConfigError(
            f"{context}: id must be a non-empty string with no comma, quote, '|', CR or LF, got {exp_id!r}"
        )
    context = f"{context} ({exp_id!r})"
    with _entry(context):
        grid_d = _require(d, "grid", context)
        _check_keys(grid_d, {"n", "L"}, f"{context}.grid")
        base = _require(d, "base", context)
        if base not in ("polyharmonic", "matrix"):
            raise ConfigError(f"{context}: base must be 'polyharmonic' or 'matrix'")
        p_values = _floats(_require(d, "p_values", context), "p_values")
        if not p_values:
            raise ConfigError(f"{context}: p_values must not be empty")
        # the CSV and the flag names print a p by its label, so two p that print alike are a repeat
        _distinct(tuple(map(_p_label, p_values)), f"{context}: p_values")
        grid = TorusGrid(
            N=_int(_require(d, "N", context), "N"),
            n=_int(_require(grid_d, "n", f"{context}.grid"), "grid.n"),
            L=_float(_require(grid_d, "L", f"{context}.grid"), "grid.L"),
        )
        m = _int(_require(d, "m", context), "m")
        _check_size(basis_size(grid.N, m), grid, max_dim, context)
        # the one rule on every p, the studies' included: p > N/m, where ||g||_p^* and so the bound's
        # constant are finite, and p >= 2, where the KSS bound behind the ratio flags holds
        for i, p in enumerate(p_values):
            if p <= grid.N / m or p < 2:
                raise ConfigError(
                    f"{context}: p_values[{i}] = {p:g} must be > N/m = {grid.N / m:g} and >= 2, the bound's hypotheses"
                )
        basis = enumerate_basis(grid.N, m)
        if base == "polyharmonic":
            reference = polyharmonic_coefficients(basis)
        else:
            with _entry(f"{context}.base_matrix"):
                reference = constant_field(basis, _matrix(_require(d, "base_matrix", context)))
                check_positive_definite(np.linalg.eigvalsh(reference.values))
        perturbation, jump = _parse_perturbation(
            _require(d, "perturbation", context), f"{context}.perturbation", reference
        )
        exp = ExperimentSpec(exp_id, grid, basis, reference, jump, perturbation, p_values)
        _require_perturbed(exp, f"{context}.perturbation: the {perturbation.shape} holds no grid point")
    return exp


def _study_experiment(d: dict, keys: set[str], by_id: dict, context: str) -> ExperimentSpec:
    _check_keys(d, keys | {"experiment"}, context)
    exp_id = _require(d, "experiment", context)
    if exp_id not in by_id:
        raise ConfigError(f"{context}: unknown experiment id {exp_id!r}")
    return by_id[exp_id]


def _parse_scale(d: dict, by_id: dict) -> ScaleStudy:
    exp = _study_experiment(d, {"relative_widths"}, by_id, "scale_study")
    if exp.perturbation.shape == "bump":
        raise ConfigError("scale_study needs an indicator (box/ball) perturbation")
    widths = _floats(_require(d, "relative_widths", "scale_study"), "relative_widths")
    # the slope needs two sizes; a box wider than L wraps around and repeats the width-1 row
    if any(w2 <= w1 for w1, w2 in zip(widths, widths[1:])) or len(widths) < 2:
        raise ConfigError("scale_study: relative_widths must be strictly increasing, >= 2 entries")
    steps, volumes, previous = [], [], 0
    for i, rel_w in enumerate(widths):
        if not 0 < rel_w <= 1:
            raise ConfigError(f"scale_study: relative_widths[{i}] = {rel_w:g} must be in (0, 1]")
        # centered on the impurity, each side rel_w * L: the boxes nest, so two hold the same cells
        # exactly when their counts agree, and the second would repeat the first's row and label
        box = PerturbationSpec("box", exp.perturbation.center, width=(rel_w * exp.grid.L,) * exp.N)
        cells = np.count_nonzero(indicator_profile(box, exp.grid))
        if cells in (0, previous):
            held = f"the cells of relative_widths[{i - 1}]" if cells else "no grid point"
            raise ConfigError(f"scale_study: relative_widths[{i}] = {rel_w:g} gives a box with {held}")
        previous = cells
        volumes.append(exp.grid.cell_volume * cells)
        steps.append(replace(exp, id=f"{exp.id}|U={volumes[-1]:.12g}", perturbation=box))
    return ScaleStudy(exp, tuple(steps), tuple(volumes))


def _parse_clip(d: dict, by_id: dict) -> ClipStudy:
    exp = _study_experiment(d, {"levels"}, by_id, "clip_study")
    levels = tuple(_int(v, f"levels[{i}]") for i, v in enumerate(_require(d, "levels", "clip_study")))
    if not levels:
        raise ConfigError("clip_study: levels must not be empty")
    if any(v < 1 for v in levels):
        raise ConfigError("clip_study: levels must be positive integers")
    _distinct(levels, "clip_study: levels")
    # gaps shrink only once the clip level exceeds the spectral range of the true (unclipped) operator:
    # below it, halving 1/n still moves grid-resolved modes through the sensitive part of the resolvent.
    # The degenerate field is at most a, so its operator is at most H, whose top eigenvalue is max A
    with _entry(f"clip_study: the symbol of {exp.id!r}"):
        spectral_max = float(constant_multiplier(exp.reference, exp.grid).max())
    if sum(level >= spectral_max for level in levels) < 2:
        raise ConfigError(f"clip_study: levels needs two entries >= spectral_max = {spectral_max:g}, got {list(levels)}")
    return ClipStudy(exp, levels, spectral_max)


def _parse_refine(d: dict, by_id: dict, max_dim: int) -> RefineStudy:
    exp = _study_experiment(d, {"n_values"}, by_id, "refinement_study")
    n_values = tuple(
        _int(v, f"n_values[{i}]") for i, v in enumerate(_require(d, "n_values", "refinement_study"))
    )
    if any(n2 <= n1 for n1, n2 in zip(n_values, n_values[1:])) or len(n_values) < 2:
        raise ConfigError("refinement_study: n_values must be strictly increasing, >= 2 entries")
    rungs = tuple(replace(exp, id=f"{exp.id}|n={n}", grid=replace(exp.grid, n=n)) for n in n_values)
    shape = exp.perturbation.shape
    for i, rung in enumerate(rungs):
        _check_size(exp.basis.nu, rung.grid, max_dim, f"refinement_study: n_values[{i}]")
        _require_perturbed(rung, f"refinement_study: n_values[{i}] = {rung.grid.n} gives a {shape} with no grid point")
    return RefineStudy(exp, rungs)


@RAISE_FLOAT_ERRORS()
def parse_config(data: dict) -> HarnessConfig:
    """Validate a config object into ready experiments and studies.

    Every malformed entry raises a ConfigError naming it; an absent optional
    key keeps the default of its dataclass. The size cap ``max_dim`` is read
    first: every grid is checked against it before any is sampled. Loading
    runs under the subcommands' floating-point state, so a profile that
    overflows on its grid is refused here.
    """
    _check_keys(
        data,
        {"experiments", "seed", "mc_samples", "max_dim", "tolerances", "scale_study", "clip_study", "refinement_study"},
        "config",
    )
    with _entry("config"):
        settings = {key: _int(data[key], key) for key in ("seed", "mc_samples", "max_dim") if key in data}
    # seed and mc_samples are accepted and checked, but no output depends on them
    check_seed(settings.get("seed", 0))
    if settings.get("mc_samples", 1) < 1:
        raise ConfigError(f"mc_samples must be >= 1, got {settings['mc_samples']}")
    max_dim = settings.get("max_dim", DEFAULT_MAX_DIM)
    with _entry("experiments"):
        exps = tuple(
            _parse_experiment(e, f"experiments[{i}]", max_dim)
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
    sections = {
        "scale_study": ("scale", _parse_scale),
        "clip_study": ("clip", _parse_clip),
        # the one study with grids of its own, each checked against the cap
        "refinement_study": ("refine", partial(_parse_refine, max_dim=max_dim)),
    }
    studies = {}
    for section, (name, parse) in sections.items():
        if section in data:
            with _entry(section):
                studies[name] = parse(data[section], by_id)
    return HarnessConfig(experiments=exps, tolerances=tolerances, raw=data, **studies)


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
    """The periodic offset from ``center``, odd in points - center bit for bit (round halves to even)."""
    d = points - center
    return d - L * np.round(d / L)


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


def _perturbed_values(exp: ExperimentSpec, profile: np.ndarray | None = None) -> np.ndarray:
    """a + profile(x) * jump, (*spatial, nu, nu), on the experiment's grid; by default the impurity's profile."""
    if profile is None:
        profile = indicator_profile(exp.perturbation, exp.grid)
    return exp.reference.constant_matrix()[(None,) * exp.N] + profile[..., None, None] * exp.jump


def perturbed_coefficient(exp: ExperimentSpec, profile: np.ndarray | None = None) -> HermitianMatrixField:
    """``_perturbed_values`` as a field. Its Hermiticity norm overflows for a huge jump, which a run names by its
    experiment; the loader reads the values alone."""
    return sampled_field(exp.basis, np.ascontiguousarray(_perturbed_values(exp, profile)))


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
    constant: float
    ratio: float
    factorization_residual: float
    deift_residual: float
    n: int
    L: float
    seconds: float

    def csv_line(self) -> str:
        values = (self.lhs, self.rhs, self.constant, self.ratio, self.factorization_residual, self.deift_residual)
        head = [self.experiment, _p_label(self.p)] + [f"{x:.17g}" for x in values]
        return ",".join([*head, str(self.n), f"{self.L:.17g}", f"{self.seconds:.3f}"])


def _ratio(lhs: float, rhs: float, constant: float) -> float:
    denom = constant * rhs
    if denom > 0:
        return lhs / denom
    return 0.0 if lhs <= RATIO_ZERO_LHS_TOL else float("inf")


def _report_row(
    experiment: str,
    p: float,
    lhs: float,
    rhs: float,
    constant: float,
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
# the bound constants
# ---------------------------------------------------------------------------

def lattice_constant(p: float, profile: np.ndarray, grid: TorusGrid) -> float:
    """C_lat(p) = (1/2) (2 pi)^(-N/p) ((2 pi / L)^N sum_xi G(xi)^p)^(1/p), (1/2) max G at p = inf, of the
    ``profile`` G = sqrt(A) / (1 + A) on the lattice; lhs <= C_lat(p) rhs holds exactly on the grid."""
    return 0.5 * (2.0 * np.pi) ** (-grid.N / p) * lp_norm_of_pointwise(profile, (2.0 * np.pi / grid.L) ** grid.N, p)


def trace_norm_constant(p: float, basis: MultiIndexBasis, c_cov: float) -> float:
    """The paper's (1/2) c_cov^(1/p) ||g||_p^*; finite, as the loader refuses every p <= N/m."""
    return 0.5 * c_cov ** (1.0 / p) * resolvent_profile_norm(p, basis.N, basis.m)


# what a run can refuse after load, each with exit 2; every step of a runner sits in one _named, never nested
RUN_TIME_REFUSALS = (NonPositiveDefiniteError, QuadratureError, FloatingPointError, OverflowError)


@contextmanager
def _named(label: str):
    """Prefix ``experiment '<label>': `` to a run-time refusal raised inside; its type and attributes stay."""
    try:
        yield
    except RUN_TIME_REFUSALS as exc:
        exc.args = (f"experiment {label!r}: {exc}",)
        raise


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentArtifacts:
    """Objects shared by the per-p rows of one experiment."""

    grid: TorusGrid
    delta_singular_values: np.ndarray
    v_norms: np.ndarray  # ||V(x)||_op at every point, one SVD pass for every p
    profile: np.ndarray  # G(xi) = sqrt(A) / (1 + A) of the reference, for every p's lattice constant
    fact_residual: float
    deift_res: float

    def row(self, experiment: str, p: float, lhs: float, start: float) -> ReportRow:
        """The row of ``lhs``, a norm of the resolvent difference, against C_lat(p) ||V||_p."""
        rhs = lp_norm_of_pointwise(self.v_norms, self.grid.cell_volume, p)
        constant = lattice_constant(p, self.profile, self.grid)
        residuals = (self.fact_residual, self.deift_res)
        return _report_row(experiment, p, lhs, rhs, constant, residuals, self.grid, start)


def build_artifacts(exp: ExperimentSpec, a_tilde: HermitianMatrixField | None = None) -> ExperimentArtifacts:
    """One experiment's ``support_pass``; ``a_tilde`` defaults to its impurity (clip passes its own)."""
    grid, a = exp.grid, exp.reference
    if a_tilde is None:
        a_tilde = perturbed_coefficient(exp)
    # a~'s one decomposition and the reference's one symbol pass, A included, serve every step of the pass
    imp = impurity_support(a, a_tilde, grid)
    v = relative_perturbation(imp.at, imp.at_inv_sqrt, imp.a, imp.a_inv_sqrt)
    svals, fact_residual, deift_res = support_pass(imp, v)
    profile = np.sqrt(imp.symbol) / (1.0 + imp.symbol)
    return ExperimentArtifacts(grid, svals, pointwise_operator_norms(v), profile, fact_residual, deift_res)


def impurity_experiment(exp: ExperimentSpec) -> list[ReportRow]:
    """Trace-norm rows per p plus the operator-norm (p = inf) row; a run-time refusal names ``exp.id``."""
    start = time.perf_counter()
    with _named(exp.id):
        art = build_artifacts(exp)
        svals = art.delta_singular_values
        return [art.row(exp.id, p, lp_norm_of_pointwise(svals, 1.0, p), start) for p in (*exp.p_values, math.inf)]


def _bound_flags(rows: list[ReportRow], name: Callable[[ReportRow], str]) -> list[Assertion]:
    """One flag per bound row, named ``name(row)``: lhs <= C_lat * rhs * (1 + BOUND_ROUNDOFF) plus the
    row's Deift column, which bounds lhs's own error, and neither residual column over RESIDUAL_GATE, so
    that a broken certificate cannot widen the bound; a row with C_lat * rhs = 0 holds when its ratio is 0."""
    out = []
    for row in rows:
        bound = row.constant * row.rhs * (1.0 + BOUND_ROUNDOFF) + row.deift_residual
        detail = f"ratio={row.ratio:.6g}; lhs={row.lhs:.6g}, bound C_lat*rhs*(1+{BOUND_ROUNDOFF:g}) + deift = {bound:.6g}"
        certified = row.factorization_residual <= RESIDUAL_GATE and row.deift_residual <= RESIDUAL_GATE
        if not certified:
            detail += f"; residuals {row.factorization_residual:.3g}, {row.deift_residual:.3g} over {RESIDUAL_GATE:g}"
        out.append(Assertion(name(row), bool(certified and (row.lhs <= bound or row.ratio == 0.0)), detail))
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


def verify_flags(rows: list[ReportRow]) -> list[Assertion]:
    """One ``ratio:`` flag per row, then one ``schatten_monotone:`` flag per experiment."""
    ratio_flags = _bound_flags(rows, lambda row: f"ratio:{row.experiment}:p={_p_label(row.p)}")
    return ratio_flags + _monotonicity_assertions(rows)


def run_verify(config: HarnessConfig) -> StudyResult:
    """The impurity battery over every configured experiment."""
    rows = [row for exp in config.experiments for row in impurity_experiment(exp)]
    return StudyResult(rows=rows, assertions=verify_flags(rows), extras={})


def _study(study, section: str):
    if study is None:
        raise ConfigError(f"config has no {section} section")
    return study


# ---------------------------------------------------------------------------
# volume-scaling study
# ---------------------------------------------------------------------------


def run_scale(config: HarnessConfig) -> StudyResult:
    """Sweep the impurity volume; the rhs must follow the exact indicator law.

    The sweep's steps are centered boxes (widths = relative_widths * L) with
    the target experiment's jump, so the support measure is an exact cell
    count at every size; each step keeps its row at the experiment's smallest p.
    """
    study = _study(config.scale, "scale_study")
    p = min(study.experiment.p_values)
    rows = [row for step in study.steps for row in impurity_experiment(step) if row.p == p]
    slope = _fit_slope(study.volumes, [r.rhs for r in rows])
    extras = {"volumes": study.volumes, "slope": slope}
    return StudyResult(rows=rows, assertions=scale_flags(rows, config.tolerances, slope), extras=extras)


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    lx, ly = np.log(np.asarray(xs)), np.log(np.asarray(ys))
    return float(np.polyfit(lx, ly, 1)[0])


def scale_flags(rows: list[ReportRow], tol: Tolerances, slope: float) -> list[Assertion]:
    p = rows[0].p
    slope_flag = Assertion(
        name="scale_slope",
        passed=bool(abs(slope - 1.0 / p) <= tol.slope),
        detail=f"log-log slope {slope:.12g} vs 1/p = {1.0/p:.12g}",
    )
    return [slope_flag] + _bound_flags(rows, lambda row: f"scale_bound:{row.experiment}")


# ---------------------------------------------------------------------------
# clipping study
# ---------------------------------------------------------------------------


def _clip_target_field(exp: ExperimentSpec) -> HermitianMatrixField:
    """Degenerate coefficient: base scaled to CLIP_FLOOR inside the support, by the jump (CLIP_FLOOR - 1) a."""
    support = (indicator_profile(exp.perturbation, exp.grid) > 0).astype(float)
    return perturbed_coefficient(replace(exp, jump=(CLIP_FLOOR - 1.0) * exp.reference.constant_matrix()), support)


def run_clip(config: HarnessConfig) -> StudyResult:
    """Clipping sequence on a degenerate coefficient, one bound row per level.

    A level's lhs is the *operator* norm of the resolvent difference, set against
    the trace-norm constant * ||V||_p: weaker than the Schatten-p bound, as
    ||.||_op <= ||.||_p. The Cauchy gap of levels n, 2n goes to the extras, which
    the flags read, and to a ``clip_pair`` row, which is output only.
    """
    study = _study(config.clip, "clip_study")
    exp, grid = study.experiment, study.experiment.grid
    p = min(exp.p_values)
    with _named(exp.id):
        degenerate = _clip_target_field(exp)
        # a level's lhs is the SVD norm of its difference to the reference resolvent,
        # both by dense solve: at level 1 the clipped coefficient is the reference, the
        # difference is roundoff (~1e-15), and this arithmetic keeps the value that
        # perfbench/reference.json checks to 1e-10 relative
        reference = resolvent(assemble_constant_coefficient(exp.reference, grid).dense())
    rows: list[ReportRow] = []
    cauchy: list[dict] = []
    for level in study.levels:
        start = time.perf_counter()
        label = f"{exp.id}|clip={level}"
        with _named(label):
            clipped = clip_coefficients(degenerate, level)
            art = build_artifacts(exp, a_tilde=clipped)
            r_tilde = resolvent(assemble_variable_coefficient(clipped, grid).dense())
            rows.append(art.row(label, p, operator_norm(r_tilde - reference), start))
            doubled = assemble_variable_coefficient(clip_coefficients(degenerate, 2 * level), grid)
            diff = operator_norm(resolvent(doubled.dense()) - r_tilde)
            cauchy.append({"level": level, "next": 2 * level, "difference": diff})
            # the Cauchy gap is no inequality instance: its row carries ratio 0
            pair = _report_row(f"{exp.id}|clip_pair={level}:{2*level}", p, diff, 0.0, 0.0, (0.0, 0.0), grid, start)
            rows.append(replace(pair, ratio=0.0))

    extras = {"cauchy": cauchy, "spectral_max": study.spectral_max}
    return StudyResult(rows=rows, assertions=clip_flags(rows, study.spectral_max, cauchy), extras=extras)


def clip_flags(rows: list[ReportRow], spectral_max: float, cauchy: list[dict]) -> list[Assertion]:
    out = _bound_flags([r for r in rows if "|clip=" in r.experiment], lambda r: f"clip_bound:{r.experiment}")
    # Cauchy monotonicity once the clip level dominates the true spectrum
    diffs = sorted((c["level"], c["difference"]) for c in cauchy if c["level"] >= spectral_max)
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
    rows = [row for rung in study.rungs for row in impurity_experiment(rung)]
    smooth = study.experiment.perturbation.shape == "bump"
    return StudyResult(rows=rows, assertions=refine_flags(rows, config.tolerances, smooth), extras={})


def refine_flags(rows: list[ReportRow], tol: Tolerances, smooth: bool) -> list[Assertion]:
    by_p: dict[float, list[ReportRow]] = {}
    for row in rows:
        by_p.setdefault(row.p, []).append(row)
    out = []
    for p, group in sorted(by_p.items()):
        group = sorted(group, key=lambda r: r.n)
        p_str = _p_label(p)
        fine, finest = group[-2], group[-1]
        if finest.ratio > 0:
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
                c2 <= c1 / REFINE_SHRINK_FACTOR or c2 <= REFINE_SHRINK_FLOOR * max(1.0, group[-1].lhs)
                for c1, c2 in zip(changes, changes[1:])
            )
            seq = ", ".join(f"{c:.3g}" for c in changes)
            out.append(
                Assertion(
                    name=f"refine_lhs_shrink:p={p_str}",
                    passed=bool(ok),
                    detail=f"successive lhs changes [{seq}] shrink {REFINE_SHRINK_FACTOR:g}x per doubling",
                )
            )
    return out


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
        with _named(exp.id):
            c_cov, error = coarea_constant(exp.reference.constant_matrix(), exp.basis)
            for p in exp.p_values:
                gstar = resolvent_profile_norm(p, exp.N, exp.m)
                const = trace_norm_constant(p, exp.basis, c_cov)
                lines.append(f"{exp.id},{p:g},{c_cov:.17g},{error:.17g},{gstar:.17g},{const:.17g}")
                # the summary's table is keyed by the CSV's columns
                table.append(dict(zip(CONSTANTS_CSV_HEADER.split(","), (exp.id, p, c_cov, error, gstar, const))))
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
