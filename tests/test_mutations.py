"""Mutation suite: named defects on the CLI path, each of which a check must catch.

Every defect runs the ``verify`` rows of one bundled experiment with one
object or one function made wrong. Most hand the experiment a defective copy
of its ``ImpuritySupport`` (``harness.impurity_support`` patched), of the
core's 1 + Z W (``schatten_analysis.one_plus_zw`` patched) or of one of the
checks' kernels (``support_kernel`` patched where the pass and the
certificate look them up); the rest patch one function that the CLI path
calls. A defect is caught when the run would exit 1 (an assertion fails) or
a residual column is over 1e-10, the bound that the frozen-reference test
and perfbench/checks.py hold every row to. README.md tabulates which column
fires for each.

A conjugate is tried on a variant of the experiment whose reference has
imaginary off-diagonal entries: on the bundled one, whose config matrices
are real, the conjugates of W, C^{-1} D, a~ and a~^{-1/2} change nothing.
So are the spectrum's factor taken without a^{-1} and a applied to the rows of
the core's inverse: on the bundled one a = 1.

The bundled experiment's G is positive definite to working precision at its
n = 16, so LAPACK's Cholesky factors it; the defects of the pivoted factor,
which LAPACK's refusal selects from n = 32 on, run with that refusal forced.

The defects of the lattice constant run on the near-sharp row, where the
bound is nearly attained: a constant too small fails its upper flag, and one
too large fails the two-sided check, which no upper flag can do.
"""

import dataclasses

import numpy as np
import pytest

from schatten_verify import constant_field, harness, sampled_field, schatten_analysis
from schatten_verify.cli import default_config_path
from schatten_verify.torus_operator import circulant_lookup, pointwise_rows

from helpers import NEAR_SHARP, near_sharp_holds

RESIDUAL_GATE = 1e-10
EXPERIMENT = "n2m1_bump_a05"
SCALE = 1 + 1e-9
_ORIGINAL = schatten_analysis.impurity_support
_KERNEL = schatten_analysis.support_kernel
_ONE_ZW = schatten_analysis.one_plus_zw
_FACTOR = schatten_analysis.spectrum_factor
_PIVOTED = schatten_analysis.pivoted_cholesky


def _middle(imp):
    """The support point the one-point defects act on: the middle of the support."""
    return imp.points.size // 2


def _scaled(name):
    def defect(imp, a, a_tilde):
        return dataclasses.replace(imp, **{name: getattr(imp, name) * SCALE})

    return defect


def _w_sign_one_point(imp, a, a_tilde):
    w = imp.w.copy()
    w[_middle(imp)] *= -1.0
    return dataclasses.replace(imp, w=w)


def _one_zw_diagonal(imp):
    one_zw = _ONE_ZW(imp)
    return one_zw + 1e-9 * np.eye(one_zw.shape[0])


def _dropped_support_point(imp, a, a_tilde):
    # the support objects built as if a~ = a at one support point; a~ and its root keep it
    values = a_tilde.values.reshape(imp.at.shape).copy()
    values[imp.points[_middle(imp)]] = a.constant_matrix()
    reduced = sampled_field(a.basis, values.reshape(a_tilde.values.shape))
    drop = _ORIGINAL(a, reduced, imp.grid)
    assert drop.points.size == imp.points.size - 1
    return dataclasses.replace(drop, at=imp.at, at_inv_sqrt=imp.at_inv_sqrt)


def _z_lookup_shifted(imp):
    # Z = E C^{-1} E* read one point off: rows x + 1 instead of x
    grid, points, w = imp.grid, imp.points, imp.w
    nu, k = imp.a.shape[0], points.size
    shifted = (points + 1) % grid.total_points
    z = circulant_lookup(imp.c_inv, grid, rows=shifted, cols=points).reshape(nu * k, nu, k)
    zw = np.matmul(z.transpose(2, 0, 1), w).transpose(1, 2, 0).reshape(nu * k, nu * k)
    zw[np.diag_indices_from(zw)] += 1.0
    return zw


def _channels_swapped(imp, a, a_tilde):
    return dataclasses.replace(imp, c_inv_d=imp.c_inv_d[::-1])


def _kernel_scaled(scaled):
    def defect(imp, name):
        kernel = _KERNEL(imp, name)
        return kernel * SCALE if name == scaled else kernel

    return defect


def _g1_g2_swapped(imp, name):
    return _KERNEL(imp, {"g1": "g2", "g2": "g1"}.get(name, name))


def _conjugated(name):
    def defect(imp, a, a_tilde):
        return dataclasses.replace(imp, **{name: np.conj(getattr(imp, name))})

    return defect


SUPPORT_DEFECTS = {
    "w_sign_one_point": _w_sign_one_point,
    "c_inv_d_scaled": _scaled("c_inv_d"),
    "at_inv_sqrt_scaled": _scaled("at_inv_sqrt"),
    "w_scaled": _scaled("w"),
    "at_scaled": _scaled("at"),
    "dropped_support_point": _dropped_support_point,
    "channels_swapped": _channels_swapped,
}

# defects of the core's 1 + Z W, each a function of the ImpuritySupport in place of one_plus_zw;
# the spectrum reads the core's Xi, so these reach the printed values too
CORE_DEFECTS = {
    "one_zw_diagonal": _one_zw_diagonal,
    "z_lookup_shifted": _z_lookup_shifted,
}

# defects of the kernels G1, G2, N, each a function of the ImpuritySupport and the kernel's name
KERNEL_DEFECTS = {
    # the moments check reads G2; the spectrum takes its own lookup of a G2 a from C^{-1} D,
    # so the two stay independent, and a wrong G2 shows in their gap
    "g2_scaled": _kernel_scaled("g2"),
    # G1 enters the certificate's norm tr(Y* G1 Y G2), where Y is roundoff on a correct core;
    # the certificate also ties tr(G1) to its symbol
    "g1_scaled": _kernel_scaled("g1"),
    "g1_g2_swapped": _g1_g2_swapped,
}

CONJUGATED = ("w", "one_zw", "c_inv_d", "kernels", "at", "at_inv_sqrt")


def _lookups_shifted(monkeypatch):
    # every kernel lookup of the support core reads its rows one point off
    def shifted(symbols, grid, rows=None, cols=None):
        rows = np.arange(grid.total_points) if rows is None else np.asarray(rows)
        return circulant_lookup(symbols, grid, rows=(rows + 1) % grid.total_points, cols=cols)

    monkeypatch.setattr(schatten_analysis, "circulant_lookup", shifted)


def _spectrum_scaled(monkeypatch):
    spectrum = schatten_analysis.singular_spectrum
    monkeypatch.setattr(schatten_analysis, "singular_spectrum", lambda *args, **kw: spectrum(*args, **kw) * SCALE)


def _v_scaled(monkeypatch):
    perturbation = harness.relative_perturbation
    monkeypatch.setattr(harness, "relative_perturbation", lambda *args: perturbation(*args) * SCALE)


def _factor_unconjugated(monkeypatch):
    # the printed values from R'^T Xi R' in place of R'* Xi R'
    def spectrum(factor, xi):
        return schatten_analysis.singular_spectrum(factor.T @ (xi @ factor), hermitian=True)

    monkeypatch.setattr(harness, "support_spectrum", spectrum)


FUNCTION_DEFECTS = {
    "lookups_shifted": _lookups_shifted,
    "spectrum_scaled": _spectrum_scaled,
    "v_scaled": _v_scaled,
    "factor_unconjugated": _factor_unconjugated,
}


def _force_pivoted(monkeypatch):
    # LAPACK refuses G, as it does from n = 32 on, so that spectrum_factor takes pivoted_cholesky
    def not_definite(g):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_definite)


def _pivoted_defect(defect):
    def patch(monkeypatch):
        monkeypatch.setattr(schatten_analysis, "pivoted_cholesky", lambda g: defect(*_PIVOTED(g)))

    return patch


# defects run on the pivoted factor; the spectrum reads the factor, so the moments gap sees them
PIVOTED_DEFECTS = {
    # R = L, its rows left in pivot order, in place of P L
    "pivot_order_kept": _pivoted_defect(lambda factor, order: (factor, np.arange(order.size))),
    # the factor's first r / 2 columns: R R* misses half of G
    "half_rank": _pivoted_defect(lambda factor, order: (factor[:, : factor.shape[1] // 2], order)),
    "factor_unconjugated": _factor_unconjugated,
}


@pytest.fixture(scope="module")
def experiment():
    config = harness.load_config(default_config_path())
    exp = next(e for e in config.experiments if e.id == EXPERIMENT)
    return config, exp


@pytest.fixture(scope="module")
def complex_experiment(experiment):
    """The bundled bump over the reference [[1, 0.3i], [-0.3i, 1]], with jump 0.5 times it."""
    config, exp = experiment
    reference = np.array([[1.0, 0.3j], [-0.3j, 1.0]])
    exp = dataclasses.replace(exp, reference=constant_field(exp.basis, reference), jump=0.5 * reference)
    return config, exp


def _patch_support(monkeypatch, defect):
    def defective(a, a_tilde, grid):
        return defect(_ORIGINAL(a, a_tilde, grid), a, a_tilde)

    monkeypatch.setattr(harness, "impurity_support", defective)


def _patch_kernels(monkeypatch, defect):
    # G2 is looked up by the pass, N and G1 by the certificate
    for module in (harness, schatten_analysis):
        monkeypatch.setattr(module, "support_kernel", defect)


def _patch_core(monkeypatch, defect):
    monkeypatch.setattr(schatten_analysis, "one_plus_zw", defect)


def _verdict(experiment):
    """(largest residual, every assertion passed) of the experiment's verify rows."""
    config, exp = experiment
    rows = harness.impurity_experiment(exp)
    residual = max(max(r.factorization_residual, r.deift_residual) for r in rows)
    passed = all(a.passed for a in harness.study_assertions("verify", rows, config, {}))
    return residual, passed


def test_the_experiment_passes_as_built(experiment):
    residual, passed = _verdict(experiment)
    assert residual <= RESIDUAL_GATE and passed


@pytest.mark.parametrize("name", sorted(SUPPORT_DEFECTS.keys() | KERNEL_DEFECTS.keys() | CORE_DEFECTS.keys()))
def test_support_defect_is_caught(name, experiment, monkeypatch):
    if name in KERNEL_DEFECTS:
        _patch_kernels(monkeypatch, KERNEL_DEFECTS[name])
    elif name in CORE_DEFECTS:
        _patch_core(monkeypatch, CORE_DEFECTS[name])
    else:
        _patch_support(monkeypatch, SUPPORT_DEFECTS[name])
    residual, passed = _verdict(experiment)
    assert residual > RESIDUAL_GATE or not passed, f"{name}: residual {residual:.3g}"


def test_the_complex_experiment_passes_as_built(complex_experiment):
    residual, passed = _verdict(complex_experiment)
    assert residual <= RESIDUAL_GATE and passed


@pytest.mark.parametrize("name", CONJUGATED)
def test_conjugate_defect_is_caught(name, complex_experiment, monkeypatch):
    if name == "kernels":
        _patch_kernels(monkeypatch, lambda imp, name: np.conj(_KERNEL(imp, name)))
    elif name == "one_zw":
        _patch_core(monkeypatch, lambda imp: np.conj(_ONE_ZW(imp)))
    else:
        _patch_support(monkeypatch, _conjugated(name))
    residual, passed = _verdict(complex_experiment)
    assert residual > RESIDUAL_GATE or not passed, f"{name}: residual {residual:.3g}"


@pytest.mark.parametrize("name", sorted(FUNCTION_DEFECTS))
def test_function_defect_is_caught(name, experiment, monkeypatch):
    FUNCTION_DEFECTS[name](monkeypatch)
    residual, passed = _verdict(experiment)
    assert residual > RESIDUAL_GATE or not passed, f"{name}: residual {residual:.3g}"


@pytest.mark.parametrize("name", sorted(PIVOTED_DEFECTS))
def test_pivoted_factor_defect_is_caught(name, experiment, monkeypatch):
    _force_pivoted(monkeypatch)
    PIVOTED_DEFECTS[name](monkeypatch)
    residual, passed = _verdict(experiment)
    assert residual > RESIDUAL_GATE or not passed, f"{name}: residual {residual:.3g}"


@pytest.mark.parametrize("variant", ["experiment", "complex_experiment"])
def test_the_pivoted_path_passes_as_built(variant, request, monkeypatch):
    _force_pivoted(monkeypatch)
    residual, passed = _verdict(request.getfixturevalue(variant))
    assert residual <= RESIDUAL_GATE and passed


def test_spectrum_without_a_inverse_is_caught(complex_experiment, monkeypatch):
    # the spectrum's factor R of G = a G2 a in place of R' = (a^{-1} x 1) R: R R* = a G2 a,
    # not G2, so the printed values are those of U (a Xi a) U*; by LAPACK, then pivoted
    def without_a_inverse(imp):
        return np.kron(imp.a, np.eye(imp.points.size)) @ _FACTOR(imp)

    monkeypatch.setattr(harness, "spectrum_factor", without_a_inverse)
    residual, passed = _verdict(complex_experiment)
    assert residual > RESIDUAL_GATE or not passed, f"residual {residual:.3g}"
    _force_pivoted(monkeypatch)
    residual, passed = _verdict(complex_experiment)
    assert residual > RESIDUAL_GATE or not passed, f"pivoted: residual {residual:.3g}"


def test_a_on_the_inverse_rows_is_caught(complex_experiment, monkeypatch):
    # S = (a x 1)(1 + Z W)^{-1} in place of (1 + Z W)^{-1}(a x 1): a acts on the inverse's rows
    def core(imp):
        inverse = np.linalg.inv(schatten_analysis.one_plus_zw(imp))
        solved = pointwise_rows(np.broadcast_to(imp.a, imp.w.shape), inverse)
        return pointwise_rows(imp.a @ imp.w, solved), solved

    monkeypatch.setattr(harness, "support_core", core)
    residual, passed = _verdict(complex_experiment)
    assert residual > RESIDUAL_GATE or not passed, f"residual {residual:.3g}"


@pytest.fixture(scope="module")
def near_sharp():
    config = harness.parse_config({"experiments": [NEAR_SHARP]})
    return config, config.experiments[0]


def _upper_flags_pass(config, rows):
    return all(a.passed for a in harness.study_assertions("verify", rows, config, {}))


def _two_sided_holds(config, rows):
    return near_sharp_holds(rows)


# defects of the lattice constant: a factor on C_lat and the check on the near-sharp row that must fail
LATTICE_DEFECTS = {
    "lattice_constant_low": (0.98, _upper_flags_pass),
    "lattice_constant_high": (1.02, _two_sided_holds),
}


def test_the_near_sharp_row_passes_as_built(near_sharp):
    config, exp = near_sharp
    rows = harness.impurity_experiment(exp)
    assert _upper_flags_pass(config, rows) and _two_sided_holds(config, rows)


@pytest.mark.parametrize("name", sorted(LATTICE_DEFECTS))
def test_lattice_constant_defect_is_caught(name, near_sharp, monkeypatch):
    factor, check = LATTICE_DEFECTS[name]
    constant = harness.lattice_constant
    monkeypatch.setattr(harness, "lattice_constant", lambda *args: constant(*args) * factor)
    config, exp = near_sharp
    rows = harness.impurity_experiment(exp)
    assert not check(config, rows), [row.ratio for row in rows]


def test_a_broken_certificate_fails_the_ratio_flags(experiment, monkeypatch):
    # with every lookup one point off, lhs prints about three times too large and the Deift column
    # reads about 1.3: added to the bound, that column would pass all four ratio flags, while over
    # the residual gate it fails them
    _lookups_shifted(monkeypatch)
    config, exp = experiment
    rows = harness.impurity_experiment(exp)
    flags = [a for a in harness.study_assertions("verify", rows, config, {}) if a.name.startswith("ratio:")]
    assert min(row.deift_residual for row in rows) > 1.0
    assert len(flags) == 4 and not any(a.passed for a in flags), [a.detail for a in flags]
    assert all(a.detail.endswith(" over 1e-10") for a in flags)
