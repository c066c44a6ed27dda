"""Mutation suite: named defects on the CLI path, each of which a check must catch.

Every defect runs the ``verify`` rows of one bundled experiment with one
object or one function made wrong. Most hand the experiment a defective copy
of its ``ImpuritySupport`` (``harness.impurity_support`` patched); the rest
patch one function that the CLI path calls. A defect is caught when the run
would exit 1 (an assertion fails) or a residual column is over 1e-10, the
bound that the frozen-reference test and perfbench/checks.py hold every row
to. README.md tabulates which column fires for each.
"""

import dataclasses

import numpy as np
import pytest

from schatten_verify import harness, sampled_field, schatten_analysis
from schatten_verify.cli import default_config_path
from schatten_verify.torus_operator import channel_resolvent_symbols, circulant_lookup

RESIDUAL_GATE = 1e-10
EXPERIMENT = "n2m1_bump_a05"
SCALE = 1 + 1e-9
_ORIGINAL = schatten_analysis.impurity_support


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


def _one_zw_diagonal(imp, a, a_tilde):
    return dataclasses.replace(imp, one_zw=imp.one_zw + 1e-9 * np.eye(imp.one_zw.shape[0]))


def _dropped_support_point(imp, a, a_tilde):
    # the support objects built as if a~ = a at one support point; a~ and its root keep it
    values = a_tilde.values.reshape(imp.at.shape).copy()
    values[imp.points[_middle(imp)]] = a.constant_matrix()
    reduced = sampled_field(a.basis, values.reshape(a_tilde.values.shape))
    drop = _ORIGINAL(a, reduced, imp.grid)
    assert drop.points.size == imp.points.size - 1
    return dataclasses.replace(drop, at=imp.at, at_inv_sqrt=imp.at_inv_sqrt)


def _z_lookup_shifted(imp, a, a_tilde):
    # Z = E C^{-1} E* read one point off: rows x + 1 instead of x
    grid, points, w = imp.grid, imp.points, imp.w
    nu, k = a.basis.nu, points.size
    c_inv = channel_resolvent_symbols(a, grid)[0]
    shifted = (points + 1) % grid.total_points
    z = circulant_lookup(c_inv, grid, rows=shifted, cols=points).reshape(nu * k, nu, k)
    zw = np.matmul(z.transpose(2, 0, 1), w).transpose(1, 2, 0).reshape(nu * k, nu * k)
    zw[np.diag_indices_from(zw)] += 1.0
    return dataclasses.replace(imp, one_zw=zw)


def _channels_swapped(imp, a, a_tilde):
    return dataclasses.replace(imp, c_inv_d=imp.c_inv_d[::-1])


SUPPORT_DEFECTS = {
    "w_sign_one_point": _w_sign_one_point,
    "one_zw_diagonal": _one_zw_diagonal,
    "c_inv_d_scaled": _scaled("c_inv_d"),
    "at_inv_sqrt_scaled": _scaled("at_inv_sqrt"),
    "w_scaled": _scaled("w"),
    "at_scaled": _scaled("at"),
    "dropped_support_point": _dropped_support_point,
    "z_lookup_shifted": _z_lookup_shifted,
    "channels_swapped": _channels_swapped,
}


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


FUNCTION_DEFECTS = {
    "lookups_shifted": _lookups_shifted,
    "spectrum_scaled": _spectrum_scaled,
    "v_scaled": _v_scaled,
}


@pytest.fixture(scope="module")
def experiment():
    config = harness.load_config(default_config_path())
    exp = next(e for e in config.experiments if e.id == EXPERIMENT)
    return config, exp, harness.experiment_coarea(exp)[0]


def _verdict(experiment):
    """(largest residual, every assertion passed) of the experiment's verify rows."""
    config, exp, c_cov = experiment
    rows = harness.impurity_experiment(exp, config, c_cov)
    residual = max(max(r.factorization_residual, r.deift_residual) for r in rows)
    passed = all(a.passed for a in harness.study_assertions("verify", rows, config, {}))
    return residual, passed


def test_the_experiment_passes_as_built(experiment):
    residual, passed = _verdict(experiment)
    assert residual <= RESIDUAL_GATE and passed


@pytest.mark.parametrize("name", sorted(SUPPORT_DEFECTS))
def test_support_defect_is_caught(name, experiment, monkeypatch):
    defect = SUPPORT_DEFECTS[name]

    def defective(a, a_tilde, grid):
        return defect(_ORIGINAL(a, a_tilde, grid), a, a_tilde)

    monkeypatch.setattr(harness, "impurity_support", defective)
    residual, passed = _verdict(experiment)
    assert residual > RESIDUAL_GATE or not passed, f"{name}: residual {residual:.3g}"


@pytest.mark.parametrize("name", sorted(FUNCTION_DEFECTS))
def test_function_defect_is_caught(name, experiment, monkeypatch):
    FUNCTION_DEFECTS[name](monkeypatch)
    residual, passed = _verdict(experiment)
    assert residual > RESIDUAL_GATE or not passed, f"{name}: residual {residual:.3g}"
