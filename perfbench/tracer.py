"""Outside-in span tracer for the schatten_verify layers.

The program's source stays untouched: the tracer replaces public functions
with timing wrappers, in memory, at the module attributes their callers look
up at call time (for example ``harness.resolvent``,
``schatten_analysis.block_multiplication_matrix`` and
``LinearOperatorRep.dense``). Each call becomes a span
``{id, name, start, end, parent, ...attrs}`` kept in memory; the launcher
writes the list out when the CLI process ends. ``layer_metrics`` turns the
spans of one workload iteration into the per-layer metrics of the benchmark.

Flop counts are computed from matrix sizes, not measured: every kernel works
in complex arithmetic, counted as 8 real flops per complex multiply-add.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
import weakref
from collections import defaultdict

# Span names whose entry starts a study; spans opened on pool threads (which
# have no open span of their own) are parented to the open study span, and
# harness.pool_wait_s is measured from its entry.
RUNNERS = (
    "harness.run_verify",
    "harness.run_scale",
    "harness.run_clip",
    "harness.run_refine",
    "harness.run_constants",
)


def _solve_flop(d: int) -> float:
    # LU of a complex d x d matrix plus two triangular solves with d right-hand sides
    return 8.0 / 3.0 * d**3 + 8.0 * d**3


def _svd_flop(rows: int, cols: int) -> float:
    # bidiagonal reduction of a complex matrix, singular values only
    m, n = max(rows, cols), min(rows, cols)
    return 4.0 * (4.0 * m * n**2 - 4.0 / 3.0 * n**3)


def _deift_flop(rows: int, cols: int) -> float:
    products = 8.0 * (2 * rows * cols**2 + 2 * rows**2 * cols)
    return products + _solve_flop(rows) + _solve_flop(cols)


def _factorization_flop(nu: int, points: int) -> float:
    # gram = D D*, four block products for the two channel Grams, two solves,
    # seven (P x nuP)(nuP x nuP) chain products and the closing (P x nuP)(nuP x P)
    c = nu * points
    return (
        8.0 * c * points * c
        + 4 * 8.0 * c**3
        + 2 * _solve_flop(c)
        + 7 * 8.0 * points * c * c
        + 8.0 * points * c * points
    )


class Tracer:
    """Collects spans and counters from wrapped functions, thread-safely."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._runner: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        with self._lock:
            self.counters[name] += 1

    def wrap(self, fn, name: str, attrs=None):
        """A wrapper recording one span per call; ``attrs(bound, result)`` adds fields."""
        signature = inspect.signature(fn)
        runner = name in RUNNERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._runner
            sid = next(self._ids)
            stack.append(sid)
            if runner:
                self._runner = sid
            span = {"id": sid, "name": name, "parent": parent}
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(attrs(bound.arguments, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if runner:
                    self._runner = None
                self.spans.append(span)

        return traced


def _family(args, result):
    exp = args["exp"]
    return {"family": f"n{exp.N}m{exp.m}"}


def _resolvent_attrs(args, result):
    d = result.shape[0]
    return {"dim": d, "flop": _solve_flop(d)}


def _spectrum_attrs(args, result):
    rows, cols = args["matrix"].shape
    return {"flop": _svd_flop(rows, cols)}


def _deift_attrs(args, result):
    rows, cols = args["s_matrix"].shape
    return {"flop": _deift_flop(rows, cols)}


def _factorization_attrs(args, result):
    return {"flop": _factorization_flop(args["a"].basis.nu, args["grid"].total_points)}


def _samples(args, result):
    return {"samples": int(args["samples"])}


def _divergent(args, result):
    return {"divergent": result is None}


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the schatten_verify layers in place."""
    from schatten_verify import cli, coeff_algebra, harness, schatten_analysis, torus_operator

    def patch(module, attr, name, attrs=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, attrs))

    for sub, runner in list(cli._RUNNERS.items()):
        cli._RUNNERS[sub] = tracer.wrap(runner, f"harness.run_{sub}")
    patch(cli, "run_constants", "harness.run_constants")
    patch(cli, "write_report", "harness.write_report")

    patch(harness, "impurity_experiment", "harness.impurity_experiment", _family)
    patch(harness, "build_artifacts", "harness.build_artifacts")
    patch(harness, "trace_norm_constant", "harness.trace_norm_constant", _divergent)
    patch(harness, "coarea_constant", "coeff_algebra.coarea_constant")
    patch(harness, "sqrt_field", "coeff_algebra.sqrt_field")
    patch(harness, "clip_coefficients", "coeff_algebra.clip_coefficients")
    patch(harness, "relative_perturbation", "norms.relative_perturbation")
    patch(harness, "matrix_field_lp_norm", "norms.matrix_field_lp_norm")
    patch(harness, "resolvent_profile_norm", "norms.resolvent_profile_norm")
    for module in (harness, schatten_analysis):
        patch(module, "resolvent", "schatten_analysis.resolvent", _resolvent_attrs)
        patch(module, "singular_spectrum", "schatten_analysis.singular_spectrum", _spectrum_attrs)
        for attr in (
            "assemble_constant_coefficient",
            "assemble_variable_coefficient",
            "assemble_derivative_factor",
        ):
            patch(module, attr, f"torus_operator.{attr}")
    patch(harness, "factorization_residual", "schatten_analysis.factorization_residual",
          _factorization_attrs)
    patch(harness, "deift_residual", "schatten_analysis.deift_residual", _deift_attrs)
    patch(schatten_analysis, "block_multiplication_matrix",
          "torus_operator.block_multiplication_matrix")
    patch(schatten_analysis, "matrix_sqrt", "coeff_algebra.matrix_sqrt")
    patch(schatten_analysis, "matrix_inv_sqrt", "coeff_algebra.matrix_inv_sqrt")
    patch(coeff_algebra, "sublevel_volume", "coeff_algebra.sublevel_volume", _samples)
    patch(coeff_algebra, "monomial_matrix", "multiindex.monomial_matrix")
    patch(torus_operator, "monomial_matrix", "multiindex.monomial_matrix")

    rep = torus_operator.LinearOperatorRep
    materialized = weakref.WeakSet()

    def dense_attrs(args, result):
        op = args["self"]
        hit = op in materialized
        materialized.add(op)
        return {"hit": hit, "columns": 0 if hit else op.in_dim}

    rep.dense = tracer.wrap(rep.dense, "torus_operator.dense", dense_attrs)
    apply = rep.apply

    @functools.wraps(apply)
    def counted_apply(self, values):
        tracer.count("torus_operator.apply_calls")
        return apply(self, values)

    rep.apply = counted_apply


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children may overlap each other (pool threads under one study span), so
    the covered part is the length of the union of their clipped intervals.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# Layer time metric -> the span names whose self time it sums.
SELF_TIME_METRICS = {
    "torus_operator.dense_s": ("torus_operator.dense",),
    "torus_operator.block_mult_s": ("torus_operator.block_multiplication_matrix",),
    "torus_operator.assemble_s": (
        "torus_operator.assemble_constant_coefficient",
        "torus_operator.assemble_variable_coefficient",
        "torus_operator.assemble_derivative_factor",
    ),
    "schatten_analysis.factorization_s": ("schatten_analysis.factorization_residual",),
    "schatten_analysis.resolvent_s": ("schatten_analysis.resolvent",),
    "schatten_analysis.spectrum_s": ("schatten_analysis.singular_spectrum",),
    "schatten_analysis.deift_s": ("schatten_analysis.deift_residual",),
    "coeff_algebra.coarea_s": ("coeff_algebra.sublevel_volume", "coeff_algebra.coarea_constant"),
    "coeff_algebra.sqrt_clip_s": (
        "coeff_algebra.sqrt_field",
        "coeff_algebra.clip_coefficients",
        "coeff_algebra.matrix_sqrt",
        "coeff_algebra.matrix_inv_sqrt",
    ),
    "multiindex.monomial_s": ("multiindex.monomial_matrix",),
    "norms.perturbation_s": ("norms.relative_perturbation",),
    "norms.field_lp_s": ("norms.matrix_field_lp_norm",),
    "norms.profile_norm_s": ("norms.resolvent_profile_norm",),
    "harness.write_report_s": ("harness.write_report",),
}


def _ratio(hits: int, base: int) -> float:
    return hits / base if base else 0.0


def layer_metrics(processes: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one iteration from its processes' launcher reports.

    Returns the metrics and a breakdown (per-subcommand run time and
    per-family experiment time) that only some workloads exercise.
    """
    m = {name: 0.0 for name in SELF_TIME_METRICS}
    m.update(
        {
            "cli.run_s": 0.0,
            "harness.experiment_s": 0.0,
            "harness.pool_wait_s": 0.0,
            "schatten_analysis.factorization_calls": 0,
            "schatten_analysis.resolvent_calls": 0,
            "schatten_analysis.resolvent_dim_max": 0,
            "schatten_analysis.kernel_gflop": 0.0,
            "torus_operator.dense_columns": 0,
            "torus_operator.apply_calls": 0,
            "coeff_algebra.coarea_calls": 0,
            "coeff_algebra.mc_samples": 0,
        }
    )
    breakdown: dict[str, float] = defaultdict(float)
    dense_calls = dense_hits = constant_calls = constant_computed = 0
    metric_of = {span: metric for metric, spans in SELF_TIME_METRICS.items() for span in spans}
    for proc in processes:
        spans = proc.get("spans", [])
        run_s = proc.get("run_s", 0.0)
        m["cli.run_s"] += run_s
        breakdown[f"cli.{proc['subcommand']}_s"] += run_s
        m["torus_operator.apply_calls"] += proc.get("counters", {}).get(
            "torus_operator.apply_calls", 0
        )
        own = self_times(spans)
        runner_start = {s["id"]: s["start"] for s in spans if s["name"] in RUNNERS}
        for s in spans:
            name = s["name"]
            if name in metric_of:
                m[metric_of[name]] += own[s["id"]]
            m["schatten_analysis.kernel_gflop"] += s.get("flop", 0.0) / 1e9
            if name == "torus_operator.dense":
                dense_calls += 1
                dense_hits += s.get("hit", False)
                m["torus_operator.dense_columns"] += s.get("columns", 0)
            elif name == "schatten_analysis.resolvent":
                m["schatten_analysis.resolvent_calls"] += 1
                m["schatten_analysis.resolvent_dim_max"] = max(
                    m["schatten_analysis.resolvent_dim_max"], s.get("dim", 0)
                )
            elif name == "schatten_analysis.factorization_residual":
                m["schatten_analysis.factorization_calls"] += 1
            elif name == "coeff_algebra.sublevel_volume":
                m["coeff_algebra.coarea_calls"] += 1
                m["coeff_algebra.mc_samples"] += s.get("samples", 0)
            elif name == "coeff_algebra.coarea_constant":
                constant_computed += 1
            elif name == "harness.trace_norm_constant":
                constant_calls += 1
                constant_computed += s.get("divergent", False)
            elif name == "harness.impurity_experiment":
                duration = s["end"] - s["start"]
                m["harness.experiment_s"] += duration
                breakdown[f"harness.{s.get('family', 'unknown')}_s"] += duration
                if s["parent"] in runner_start:
                    m["harness.pool_wait_s"] += s["start"] - runner_start[s["parent"]]
    m["torus_operator.dense_cache_hit_ratio"] = _ratio(dense_hits, dense_calls)
    # a trace_norm_constant call that neither diverged nor computed c_cov was a cache hit
    m["harness.cov_cache_hit_ratio"] = _ratio(constant_calls - constant_computed, constant_calls)
    return m, dict(breakdown)
