import dataclasses
import inspect
import json
import math
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from schatten_verify import ConfigError, constant_field, harness
from schatten_verify.cli import default_config_path, run_cli
from schatten_verify.harness import (
    CSV_HEADER,
    HarnessConfig,
    Tolerances,
    build_artifacts,
    impurity_experiment,
    load_config,
    parse_config,
    run_clip,
    run_refine,
    run_scale,
    run_verify,
)
from schatten_verify.torus_operator import constant_multiplier

from helpers import NEAR_SHARP, SHORT_TORUS, global_box, near_sharp_holds, recentered, within_lattice_bound
from oracles import parse_csv_rows, recompute_assertions_from_csv


def small_config(**overrides):
    L = 2 * math.pi
    data = {
        "seed": 7,
        "mc_samples": 20000,
        "experiments": [
            {
                "id": "quick_box",
                "N": 1,
                "m": 1,
                "grid": {"n": 32, "L": L},
                "base": "polyharmonic",
                "perturbation": {
                    "shape": "box",
                    "center": [0.0],
                    "width": [L / 8],
                    "amplitude": 0.5,
                },
                "p_values": [4, 8],
            },
            {
                "id": "quick_bump",
                "N": 1,
                "m": 1,
                "grid": {"n": 32, "L": L},
                "base": "polyharmonic",
                "perturbation": {
                    "shape": "bump",
                    "center": [0.0],
                    "radius": L / 4,
                    "amplitude": 0.5,
                },
                "p_values": [4],
            },
            {
                # off-diagonal reference: its eigenvectors are not the
                # coordinate axes, so every pointwise power rotates
                "id": "quick_matrix_ball",
                "N": 2,
                "m": 1,
                "grid": {"n": 8, "L": L},
                "base": "matrix",
                "base_matrix": [[2.0, 0.5], [0.5, 1.0]],
                "perturbation": {
                    "shape": "ball",
                    "center": [0.0, 0.0],
                    "radius": 1.0,
                    "amplitude": 0.5,
                },
                "p_values": [4],
            },
            {
                "id": "quick_n3_ball",
                "N": 3,
                "m": 1,
                "grid": {"n": 4, "L": 4.0},
                "base": "polyharmonic",
                "perturbation": {
                    "shape": "ball",
                    "center": [0.0, 0.0, 0.0],
                    "radius": 1.5,
                    "amplitude": 0.5,
                },
                "p_values": [4],
            },
        ],
        "scale_study": {
            "experiment": "quick_box",
            "relative_widths": [0.125, 0.25, 0.375, 0.5],
        },
        # quick_box's spectral_max is 256: two levels at or above it give the Cauchy flag two gaps
        "clip_study": {"experiment": "quick_box", "levels": [1, 4, 256, 1024]},
        "refinement_study": {"experiment": "quick_bump", "n_values": [32, 64, 128]},
    }
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_bundled_default_parses(self):
        config = load_config(default_config_path())
        assert len(config.experiments) >= 27
        assert config.clip.levels == (1, 4, 16, 64)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(small_config(mystery_knob=3))

    def test_unknown_nested_key_rejected(self):
        data = small_config()
        data["experiments"][0]["perturbation"]["wobble"] = 1
        with pytest.raises(ConfigError, match="wobble"):
            parse_config(data)

    def test_missing_required_key(self):
        data = small_config()
        del data["experiments"][0]["grid"]
        with pytest.raises(ConfigError, match="grid"):
            parse_config(data)

    def test_duplicate_ids_rejected(self):
        data = small_config()
        data["experiments"][1]["id"] = "quick_box"
        with pytest.raises(ConfigError, match="unique"):
            parse_config(data)

    def test_malformed_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json }")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(bad))

    def test_p_below_one_rejected(self):
        data = small_config()
        data["experiments"][0]["p_values"] = [0.5]
        with pytest.raises(ConfigError, match=r"\('quick_box'\): p_values\[0\] = 0.5 must be > N/m = 1 and >= 2"):
            parse_config(data)

    def test_absent_keys_keep_dataclass_defaults(self):
        config = parse_config({"experiments": small_config()["experiments"]})
        defaults = {f.name: f.default for f in dataclasses.fields(HarnessConfig)}
        assert config.tolerances == Tolerances()
        for key in ("scale", "clip", "refine"):
            assert getattr(config, key) == defaults[key], key
        config = parse_config(small_config())
        assert config.scale.experiment is config.clip.experiment is config.experiments[0]


class TestVerifyStudy:
    def test_zero_amplitude_rows(self):
        # a config refuses a zero jump; an unperturbed experiment built here still gives lhs 0, ratio 0
        data = small_config()
        data["experiments"] = data["experiments"][:1]
        for key in ("scale_study", "clip_study", "refinement_study"):
            del data[key]
        config = parse_config(data)
        exp = dataclasses.replace(config.experiments[0], jump=np.zeros_like(config.experiments[0].jump))
        result = run_verify(dataclasses.replace(config, experiments=(exp,)))
        for row in result.rows:
            assert row.lhs < 1e-12
            assert row.ratio == 0.0

    def test_ratios_and_monotonicity(self):
        result = run_verify(parse_config(small_config()))
        assert all(a.passed for a in result.assertions)
        finite = [r for r in result.rows if not math.isinf(r.p)]
        assert finite and all(0 < r.ratio and within_lattice_bound(r) for r in finite)
        by_p = {r.p: r.lhs for r in result.rows if r.experiment == "quick_box" and not math.isinf(r.p)}
        assert by_p[4.0] >= by_p[8.0]

    def test_starts_no_thread(self, monkeypatch):
        # experiments run one after another; BLAS is the only parallelism
        def refuse(self):
            raise AssertionError(f"verify started thread {self.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = run_verify(parse_config(small_config()))
        assert result.rows and all(a.passed for a in result.assertions)


# (lhs, rhs) per (experiment, p) of the matrix-base and N=3 experiments,
# pinned to 1e-12 relative: neither depends on c_cov
PINNED_ROWS = {
    ("quick_matrix_ball", 4.0): (0.04187013895927889, 0.5410181270469258),
    ("quick_matrix_ball", math.inf): (0.034474973743537876, 0.40824829046386296),
    ("quick_n3_ball", 4.0): (0.0681104766550624, 0.8523398132533638),
    ("quick_n3_ball", math.inf): (0.052037100108993574, 0.4082482904638631),
}


def test_matrix_base_and_three_dimensional_rows():
    config = parse_config(small_config())
    assert [e.id for e in config.experiments[2:]] == ["quick_matrix_ball", "quick_n3_ball"]
    experiments = config.experiments[2:]
    rows = [r for e in experiments for r in impurity_experiment(e)]
    assert {(r.experiment, r.p) for r in rows} == set(PINNED_ROWS)
    for row in rows:
        lhs, rhs = PINNED_ROWS[(row.experiment, row.p)]
        assert row.lhs == pytest.approx(lhs, rel=1e-12)
        assert row.rhs == pytest.approx(rhs, rel=1e-12)
        assert row.factorization_residual <= 1e-10 and row.deift_residual <= 1e-10
        assert 0.0 < row.ratio and within_lattice_bound(row)


def test_residual_budget_on_a_short_torus():
    # a weak impurity on a fine grid (N = m = 1, n = 8, L = 0.39): a residual formed from
    # the dense H~ carries its roundoff, eps (pi / h)^2, and read 2.4e-10 here; the support
    # checks never apply H~ and stay at roundoff
    L = 0.39
    exp = {
        "id": "short_torus",
        "N": 1,
        "m": 1,
        "grid": {"n": 8, "L": L},
        "base": "matrix",
        "base_matrix": [[0.602]],
        "perturbation": {"shape": "box", "center": [0.0], "width": [L / 4], "amplitude_matrix": [[0.0753]]},
        "p_values": [4],
    }
    art = build_artifacts(parse_config({"experiments": [exp]}).experiments[0])
    assert art.delta_singular_values.size == 2
    assert art.fact_residual <= 1e-10 and art.deift_res <= 1e-10


class TestLatticeBound:
    def test_short_torus_passes(self, tmp_path):
        # certified numbers (residuals 5.8e-15 and 1.3e-15) that the continuum constant's
        # 1.05 envelope failed, and scale's limit of 1 too
        scale = {"experiment": "short_torus", "relative_widths": [0.5, 1.0]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [SHORT_TORUS], "scale_study": scale}))
        for study in ("verify", "scale"):
            out = tmp_path / study
            assert run_cli([study, "--config", str(cfg), "--out", str(out)]) == 0, study
            rows = parse_csv_rows((out / f"{study}_report.csv").read_text())
            assert max(row.ratio for row in rows) <= 0.97, study

    def test_near_sharp_row(self):
        rows = impurity_experiment(parse_config({"experiments": [NEAR_SHARP]}).experiments[0])
        assert [row.p for row in rows] == [16.0, math.inf]
        assert near_sharp_holds(rows), [row.ratio for row in rows]

    @pytest.mark.parametrize(
        "experiment",
        [
            SHORT_TORUS,
            global_box("n2m1_global", 2, 1, 16, 5.0, [4, 8], amplitude_matrix=[[0.5, 0.2], [0.2, -0.3]])
            | {"base": "matrix", "base_matrix": [[2.0, 0.5], [0.5, 1.0]]},
            NEAR_SHARP | {"p_values": [4, 8]},
        ],
        ids=["n1m2", "n2m1_matrix", "near_sharp"],
    )
    def test_global_box_matches_closed_form(self, experiment):
        # a box over the whole torus makes a~ constant: Delta is the Fourier multiplier
        # 1 / (1 + A~) - 1 / (1 + A), whose singular values are its moduli over the lattice
        exp = parse_config({"experiments": [experiment]}).experiments[0]
        a_tilde = constant_field(exp.basis, exp.reference.constant_matrix() + exp.jump)
        symbol, symbol_tilde = (constant_multiplier(a, exp.grid) for a in (exp.reference, a_tilde))
        moduli = np.abs(1.0 / (1.0 + symbol_tilde) - 1.0 / (1.0 + symbol)).ravel()
        rows = impurity_experiment(exp)
        assert [row.p for row in rows] == [4.0, 8.0, math.inf]
        for row in rows:
            assert row.lhs == pytest.approx(np.linalg.norm(moduli, ord=row.p), rel=1e-13, abs=0), row.p


class TestScaleStudy:
    def test_slope_and_doubling(self):
        result = run_scale(parse_config(small_config()))
        assert all(a.passed for a in result.assertions)
        slope = result.extras["slope"]
        assert abs(slope - 0.25) <= 1e-6
        # doubling |U| multiplies rhs by 2^(1/p) exactly
        rows = {v: r for v, r in zip(result.extras["volumes"], result.rows)}
        vols = sorted(rows)
        r1, r2 = rows[vols[0]], rows[vols[1]]  # widths 0.125 and 0.25
        assert r2.rhs / r1.rhs == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_bound_holds_at_every_volume(self):
        result = run_scale(parse_config(small_config()))
        for row in result.rows:
            assert row.lhs <= row.constant * row.rhs

    def test_rejects_bump_target(self):
        data = small_config()
        data["scale_study"]["experiment"] = "quick_bump"
        with pytest.raises(ConfigError, match="indicator"):
            run_scale(parse_config(data))


class TestClipStudy:
    def test_in_band_coefficient_matches_unclipped(self):
        # clip is the identity when the spectrum already sits in [1/n, n]
        from schatten_verify import clip_coefficients
        from helpers import box_perturbed_field, polyharmonic_setup
        from schatten_verify import TorusGrid

        grid = TorusGrid(N=1, n=16, L=1.0)
        basis, a = polyharmonic_setup(1, 1)
        at = box_perturbed_field(grid, basis, a, amplitude=0.5)  # spectrum in [1, 1.5]
        clipped = clip_coefficients(at, 2)
        assert np.abs(clipped.values - at.values).max() < 1e-12

    def test_clipped_support_is_the_impurity(self):
        # a non-diagonal reference: at each level whose [1/n, n] holds a's spectrum, the points off the box
        # keep a bit for bit, so the support is the box's cells and the pass is real; level 1 clips a too
        from schatten_verify import clip_coefficients
        from schatten_verify.harness import _clip_target_field, indicator_profile
        from schatten_verify.schatten_analysis import impurity_support

        entry = {
            "id": "n2m1_offdiag_box", "N": 2, "m": 1, "grid": {"n": 16, "L": 2 * np.pi}, "base": "matrix",
            "base_matrix": [[2.0, 0.5], [0.5, 1.0]], "p_values": [4],
            "perturbation": {"shape": "box", "center": [0.0, 0.0], "width": [np.pi / 2] * 2, "amplitude": 0.5},
        }
        exp = parse_config({"experiments": [entry]}).experiments[0]
        cells = np.flatnonzero(indicator_profile(exp.perturbation, exp.grid))
        degenerate = _clip_target_field(exp)
        for level in (4, 256, 1024):
            imp = impurity_support(exp.reference, clip_coefficients(degenerate, level), exp.grid)
            assert np.array_equal(np.sort(imp.points), cells) and imp.fixed is not None, level
        assert impurity_support(exp.reference, clip_coefficients(degenerate, 1), exp.grid).points.size == 256

    def test_default_levels_pass(self):
        config = load_config(default_config_path())
        result = run_clip(config)
        assert all(a.passed for a in result.assertions), [
            a for a in result.assertions if not a.passed
        ]
        diffs = [c["difference"] for c in result.extras["cauchy"]]
        gated = [
            c["difference"]
            for c in result.extras["cauchy"]
            if c["level"] >= result.extras["spectral_max"]
        ]
        assert gated == sorted(gated, reverse=True)
        assert len(gated) >= 2

    def test_dense_lhs_is_the_support_top_value(self):
        # a level's residual columns certify the support pass of its clipped coefficient, whose top
        # singular value is the dense operator-norm lhs; level 1 clips nothing, so its support is empty
        from schatten_verify import clip_coefficients
        from schatten_verify.harness import _clip_target_field

        config = load_config(default_config_path())
        exp = config.clip.experiment
        degenerate = _clip_target_field(exp)
        lhs = {row.experiment: row.lhs for row in run_clip(config).rows}
        for level in config.clip.levels:
            art = build_artifacts(exp, a_tilde=clip_coefficients(degenerate, level))
            dense = lhs[f"{exp.id}|clip={level}"]
            if level == 1:
                assert art.delta_singular_values.size == 0
                assert art.fact_residual == art.deift_res == 0.0
                assert dense <= 1e-14
            else:
                assert abs(dense - art.delta_singular_values[0]) <= 1e-12 * dense

    def test_spectral_max_bounds_the_dense_spectrum(self):
        # the degenerate field is at most a, so its operator's top eigenvalue is at most the symbol's maximum
        from schatten_verify import assemble_variable_coefficient
        from schatten_verify.harness import _clip_target_field
        from schatten_verify.torus_operator import constant_multiplier

        config = parse_config(small_config())
        exp = config.clip.experiment
        degenerate = _clip_target_field(exp)
        top = np.linalg.eigvalsh(assemble_variable_coefficient(degenerate, exp.grid).dense())[-1]
        spectral_max = run_clip(config).extras["spectral_max"]
        assert spectral_max == float(constant_multiplier(exp.reference, exp.grid).max())
        assert 0 < top <= spectral_max


class TestRefineStudy:
    def test_bump_refinement(self):
        result = run_refine(parse_config(small_config()))
        assert all(a.passed for a in result.assertions), [
            a for a in result.assertions if not a.passed
        ]
        names = {a.name for a in result.assertions}
        assert any(name.startswith("refine_ratio_drift") for name in names)
        assert any(name.startswith("refine_lhs_shrink") for name in names)

    def test_constant_field_has_zero_lhs_at_every_n(self):
        data = small_config()
        data["refinement_study"]["n_values"] = [16, 32]
        config = parse_config(data)
        study = config.refine
        # each rung is built at load: the jump is zeroed on every rung, not on the study's experiment
        rungs = tuple(dataclasses.replace(rung, jump=np.zeros_like(rung.jump)) for rung in study.rungs)
        result = run_refine(dataclasses.replace(config, refine=dataclasses.replace(study, rungs=rungs)))
        assert len(result.rows) == 2 * 2 and all(r.lhs < 1e-12 for r in result.rows)


def _no_grid(*args, **kwargs):
    raise AssertionError("a grid was sampled before the refusal")


class TestPositivityGuard:
    def test_experiment_with_indefinite_coefficient_names_itself(self, monkeypatch):
        # a + jump = -0.5 a is refused at load, by one nu x nu eigvalsh, before any grid is sampled
        data = small_config()
        data["experiments"][0]["perturbation"]["amplitude"] = -1.5
        monkeypatch.setattr(harness, "indicator_profile", _no_grid)
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert str(err.value) == (
            "experiments[0] ('quick_box').perturbation: a + jump: "
            "matrix not positive definite: smallest eigenvalue -0.5"
        )

    def test_bump_whose_grid_misses_its_peak_is_refused(self):
        # the bump's center sits between two points of the n = 32 grid, where its profile
        # peaks at 0.996: a~ >= 0.002 there, although a + jump = -0.002 is refused
        data = small_config()
        data["experiments"][1]["perturbation"]["center"] = [math.pi / 32]
        data["experiments"][1]["perturbation"]["amplitude"] = -1.002
        with pytest.raises(ConfigError, match=r"experiments\[1\] \('quick_bump'\)\.perturbation: a \+ jump"):
            parse_config(data)


class TestDenseCap:
    @staticmethod
    def _n2_config(max_dim):
        # N = 2, m = 1, n = 4: P = 16 grid points, nu * P = 32 channel rows
        exp = {
            "id": "n2_small",
            "N": 2,
            "m": 1,
            "grid": {"n": 4, "L": 4.0},
            "base": "polyharmonic",
            "perturbation": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0, "amplitude": 0.5},
            "p_values": [4],
        }
        return parse_config({"experiments": [exp], "max_dim": max_dim})

    def test_one_dense_operator_per_experiment(self, monkeypatch):
        # verify, scale and refine form no dense operator and no P x P solve: every kernel
        # lookup is support by support, and no eigen-solve, inverse or SVD is P x P
        from schatten_verify import schatten_analysis
        from schatten_verify.torus_operator import LinearOperatorRep

        shapes, lookups, supports, solves = [], [], [], []

        def counted(op):
            shapes.append((op.out_dim, op.in_dim))
            raise AssertionError(f"an operator of shape {shapes[-1]} materialized")

        def no_resolvent(*args, **kwargs):
            raise AssertionError("a dense resolvent ran")

        lookup, reflected, support = (
            schatten_analysis.circulant_lookup, schatten_analysis.reflected_lookup, harness.impurity_support
        )

        def sized_lookup(symbols, grid, rows=None, cols=None):
            lookups.append(tuple(None if x is None else len(x) for x in (rows, cols)))
            return lookup(symbols, grid, rows=rows, cols=cols)

        def sized_reflected(symbols, grid, rows, cols, fixed):
            lookups.append((len(rows), len(cols)))
            return reflected(symbols, grid, rows, cols, fixed)

        def recorded_support(a, a_tilde, grid):
            imp = support(a, a_tilde, grid)
            supports.append(imp.points.size)
            return imp

        def sized(solver):
            def wrapped(a, *args, **kwargs):
                solves.append((solver.__name__, np.shape(a)[-2]))
                return solver(a, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(LinearOperatorRep, "dense", counted)
        monkeypatch.setattr(harness, "resolvent", no_resolvent)
        monkeypatch.setattr(schatten_analysis, "resolvent", no_resolvent)
        monkeypatch.setattr(schatten_analysis, "circulant_lookup", sized_lookup)
        monkeypatch.setattr(schatten_analysis, "reflected_lookup", sized_reflected)
        monkeypatch.setattr(harness, "impurity_support", recorded_support)
        for name in ("eigvalsh", "eigh", "inv", "svd"):
            monkeypatch.setattr(np.linalg, name, sized(getattr(np.linalg, name)))
        build_artifacts(self._n2_config(32).experiments[0])
        assert shapes == [] and solves and max(size for _, size in solves) < 16
        config = parse_config(small_config())
        for runner in (run_verify, run_scale, run_refine):
            lookups.clear()
            supports.clear()
            runner(config)
            assert supports and lookups and set(lookups) <= {(k, k) for k in supports}, runner.__name__
        assert shapes == []

    def test_one_coefficient_pass_per_experiment(self, monkeypatch):
        # a~ is decomposed once over its P points and the reference's symbols, A included, are built
        # once: constant_multiplier is counted under harness's name too, which a second pass would
        # take; the spectrum's G is factored by one Cholesky call of size nu K, and no eigh is nu K x nu K.
        # Every nu K x nu K lookup is support_kernel's, of one name in the table, each looked up once: Z, G,
        # G2, N, G1, each in the real basis of the experiment's reflection; the chain gap's bound reads none
        from schatten_verify import schatten_analysis, torus_operator

        exp = next(e for e in load_config(default_config_path()).experiments if e.id == "n2m1_bump_a05")
        calls = []

        def counted(module, name, size=lambda *args: None):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append((name, size(*args)))
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        counted(np.linalg, "eigh", lambda values: (int(np.prod(np.shape(values)[:-2])), np.shape(values)[-1]))
        counted(np.linalg, "cholesky", np.shape)
        counted(schatten_analysis, "channel_resolvent_symbols")
        counted(torus_operator, "constant_multiplier")
        counted(harness, "constant_multiplier")
        counted(schatten_analysis, "circulant_lookup")
        counted(schatten_analysis, "reflected_lookup")
        counted(schatten_analysis, "support_kernel", lambda imp, name: name)
        art = build_artifacts(exp)
        nu, nu_k = 2, 2 * np.count_nonzero(art.v_norms)
        pinned = [
            ("eigh", (exp.grid.total_points, nu)),
            ("cholesky", (nu_k, nu_k)),
            ("channel_resolvent_symbols", None),
            ("constant_multiplier", None),
        ]
        assert nu_k == 90 and [calls.count(call) for call in pinned] == [1, 1, 1, 1]
        assert all(shape[1] == nu for name, shape in calls if name == "eigh")
        assert sum(name == "cholesky" for name, _ in calls) == 1
        lookups = [call for call in calls if call[0] in ("support_kernel", "circulant_lookup", "reflected_lookup")]
        names = ("z", "g", "g2", "n", "g1")
        assert lookups == [call for name in names for call in (("support_kernel", name), ("reflected_lookup", None))]

    def test_one_solve_per_experiment(self, monkeypatch):
        # the core inverts 1 + Z W once and solves nothing; the spectrum reads its Xi and the chain gap its S
        inv, sizes = np.linalg.inv, []

        def counted(a):
            sizes.append(np.shape(a))
            return inv(a)

        def no_solve(*args):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(np.linalg, "inv", counted)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        art = build_artifacts(self._n2_config(32).experiments[0])
        k = np.count_nonzero(art.v_norms)
        assert k > 0 and sizes == [(2 * k, 2 * k)]

    @staticmethod
    def _support_pass_peak(center=None):
        """(traced peak inside build_artifacts in units of one nu K x nu K complex matrix, 16 (nu K)^2 bytes,
        and nu K) on n2m1_bump_a05 at n = 32, its bump moved to ``center`` if one is given."""
        from schatten_verify import TorusGrid

        config = load_config(default_config_path())
        exp = next(e for e in config.experiments if e.id == "n2m1_bump_a05")
        exp = recentered(dataclasses.replace(exp, grid=TorusGrid(N=2, n=32, L=exp.grid.L)), center)
        tracemalloc.start()
        try:
            art = build_artifacts(exp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nu_k = 2 * np.count_nonzero(art.v_norms)
        return peak / (16 * nu_k**2), nu_k

    def test_support_pass_peak_memory(self):
        # the real pass, about a lattice point: 2.46 units, 4.9 real nu K x nu K matrices; 3.24 with
        # _trace_form's row blocks undone, which the complex pass's bound of 5.1 would let through
        peak, nu_k = self._support_pass_peak()
        assert nu_k == 386
        assert peak <= 2.8

    def test_complex_pass_peak_memory(self):
        # the bump off the lattice, at (0.1, 0): 4.64 units, in the certificate's lookup of G1 beside
        # Xi, G2 and Y, with the spectrum's G factored by Cholesky after the core, G2 first looked up
        # after the spectrum, so never beside its factor, and every per-point field applied by one
        # matmul into its output; 6.25 with _trace_form's row blocks undone, 5.2 with the spectrum's
        # eigh before the core, and 6.7 with a Kronecker right-hand side, R'* formed out of place and
        # the three kernels stacked
        peak, nu_k = self._support_pass_peak(center=(0.1, 0.0))
        assert nu_k == 392
        assert peak <= 5.1

    def test_counts_channels_before_any_dense_object(self, monkeypatch):
        # P = 16 fits a cap of 20, the channel side nu * P = 32 does not; the grid is never sampled
        assert build_artifacts(self._n2_config(32).experiments[0]).v_norms.shape == (16,)
        monkeypatch.setattr(harness, "indicator_profile", _no_grid)
        with pytest.raises(ConfigError) as err:
            self._n2_config(20)
        assert str(err.value) == "experiments[0] ('n2_small'): nu * n^N = 32 exceeds max_dim 20"

    def test_clip_checks_before_its_own_dense_objects(self, monkeypatch):
        # the clip study's experiment is over the cap: the config is refused before any
        # operator is assembled or any grid is sampled
        def no_assembly(*args, **kwargs):
            raise AssertionError("an operator was assembled before the cap check")

        monkeypatch.setattr(harness, "assemble_variable_coefficient", no_assembly)
        monkeypatch.setattr(harness, "indicator_profile", _no_grid)
        with pytest.raises(ConfigError) as err:
            parse_config(small_config(max_dim=16))
        assert str(err.value) == "experiments[0] ('quick_box'): nu * n^N = 32 exceeds max_dim 16"

    @pytest.mark.parametrize("subcommand,cap,dim", [("verify", 300, 512), ("refine", 200, 256)])
    def test_runner_checks_every_experiment_first(
        self, subcommand, cap, dim, tmp_path, capsys, monkeypatch
    ):
        # the default battery's first N=2 experiment, or (with the N=1 experiments alone)
        # refine's last rung, is over the cap: the config is refused at load, before the
        # coarea quadrature and before any experiment or rung is built
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the cap check")

        data = json.loads(Path(default_config_path()).read_text())
        data["max_dim"] = cap
        entry = "experiments[18] ('n2m1_box_a05')"
        if subcommand == "refine":
            data["experiments"] = [e for e in data["experiments"] if e["N"] == 1]
            entry = "refinement_study: n_values[3]"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        monkeypatch.setattr(harness, "coarea_constant", no_work)
        monkeypatch.setattr(harness, "build_artifacts", no_work)
        assert run_cli([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {entry}: nu * n^N = {dim} exceeds max_dim {cap}\n"

    def test_huge_grid_is_refused_before_any_grid_is_sampled(self, monkeypatch):
        # n = 2^50: sampling the grid would allocate petabytes
        data = small_config()
        data["experiments"][0]["grid"]["n"] = 2**50
        monkeypatch.setattr(harness, "indicator_profile", _no_grid)
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert str(err.value) == "experiments[0] ('quick_box'): nu * n^N = 1125899906842624 exceeds max_dim 8192"

    def test_refinement_rung_over_the_cap_is_named(self):
        # every experiment fits a cap of 200 (the largest is nu * n^N = 192); the rung n = 256 does not
        data = small_config(max_dim=200)
        data["refinement_study"]["n_values"] = [32, 64, 256]
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert str(err.value) == "refinement_study: n_values[2]: nu * n^N = 256 exceeds max_dim 200"


def _set(path, value):
    """A config edit: set the entry at ``path`` (keys and indices) of small_config()."""

    def apply(data):
        *head, last = path
        target = data
        for key in head:
            target = target[key]
        target[last] = value

    return apply


def _both(*edits):
    """Several config edits applied in turn."""

    def apply(data):
        for edit in edits:
            edit(data)

    return apply


_CLIP_ON_BUMP = _set(["clip_study", "experiment"], "quick_bump")

_BAD_ID = "experiments[0]: id must be a non-empty string with no comma, quote, '|', CR or LF,"

# one malformed entry each; (subcommand, edit, the entry the message must name)
MALFORMED = {
    "odd_n": ("verify", _set(["experiments", 0, "grid", "n"], 31), "experiments[0] ('quick_box')"),
    "zero_L": ("verify", _set(["experiments", 0, "grid", "L"], 0), "experiments[0] ('quick_box')"),
    "zero_m": ("verify", _set(["experiments", 1, "m"], 0), "experiments[1] ('quick_bump')"),
    "base_matrix_shape": (
        "verify",
        _set(["experiments", 2, "base_matrix"], [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0]]),
        "experiments[2] ('quick_matrix_ball').base_matrix",
    ),
    "amplitude_matrix_shape": (
        "verify",
        _set(["experiments", 2, "perturbation", "amplitude_matrix"], [[1.0]]),
        "experiments[2] ('quick_matrix_ball').perturbation.amplitude_matrix",
    ),
    "odd_refine_n": ("refine", _set(["refinement_study", "n_values"], [32, 63, 128]), "refinement_study"),
    "experiment_not_object": ("verify", _set(["experiments", 1], 5), "experiments[1] must be a JSON object"),
    "tolerances_not_object": ("verify", _set(["tolerances"], 5), "tolerances must be a JSON object"),
    "zero_mc_samples": ("verify", _set(["mc_samples"], 0), "mc_samples must be >= 1"),
    "negative_seed": ("verify", _set(["seed"], -1), "seed must be >= 0"),
    "fractional_seed": ("verify", _set(["seed"], 1.9), "config: seed must be an integer, got 1.9"),
    "string_mc_samples": ("verify", _set(["mc_samples"], "400000"), "config: mc_samples must be an integer"),
    "fractional_n": (
        "verify",
        _set(["experiments", 0, "grid", "n"], 32.7),
        "experiments[0] ('quick_box'): grid.n must be an integer, got 32.7",
    ),
    "bool_N": ("verify", _set(["experiments", 0, "N"], True), "experiments[0] ('quick_box'): N must be an integer"),
    # an id is a CSV field and a row label: it must be a non-empty string that cannot split its row
    "id_with_comma": ("verify", _set(["experiments", 0, "id"], "a,b"), f"{_BAD_ID} got 'a,b'"),
    "id_with_quote": ("verify", _set(["experiments", 0, "id"], 'a"b'), f"{_BAD_ID} got 'a\"b'"),
    "id_with_line_feed": ("verify", _set(["experiments", 0, "id"], "x\ny"), f"{_BAD_ID} got 'x\\ny'"),
    "id_with_carriage_return": ("verify", _set(["experiments", 0, "id"], "x\ry"), f"{_BAD_ID} got 'x\\ry'"),
    # the studies label their rows id|U=, id|n=, id|clip= and id|clip_pair=; clip picks its bound
    # rows by "|clip=", so such an id would turn its Cauchy pair rows into vacuous bound flags
    "id_with_bar": ("verify", _set(["experiments", 0, "id"], "a|b"), f"{_BAD_ID} got 'a|b'"),
    "id_with_clip_label": ("clip", _set(["experiments", 0, "id"], "x|clip=1"), f"{_BAD_ID} got 'x|clip=1'"),
    "empty_id": ("verify", _set(["experiments", 0, "id"], ""), f"{_BAD_ID} got ''"),
    "null_id": ("verify", _set(["experiments", 0, "id"], None), f"{_BAD_ID} got None"),
    "bool_id": ("verify", _set(["experiments", 0, "id"], True), f"{_BAD_ID} got True"),
    "integer_id": ("verify", _set(["experiments", 0, "id"], 3), f"{_BAD_ID} got 3"),
    "float_level": ("clip", _set(["clip_study", "levels"], [1, 4.0]), "clip_study: levels[1] must be an integer"),
    "fractional_refine_n": (
        "refine",
        _set(["refinement_study", "n_values"], [32, 64.5]),
        "refinement_study: n_values[1] must be an integer",
    ),
    "nan_p": ("verify", _set(["experiments", 0, "p_values"], [float("nan")]), "non-finite number NaN"),
    "nan_tolerance": ("scale", _set(["tolerances"], {"slope": float("nan")}), "non-finite number NaN"),
    "nan_amplitude": (
        "verify",
        _set(["experiments", 0, "perturbation", "amplitude"], float("nan")),
        "non-finite number NaN",
    ),
    "infinite_width": (
        "scale",
        _set(["experiments", 0, "perturbation", "width"], [float("inf")]),
        "non-finite number Infinity",
    ),
    "zero_scale_width": (
        "scale",
        _set(["scale_study", "relative_widths"], [0.0, 0.125, 0.25]),
        "scale_study: relative_widths[0] = 0",
    ),
    # scale and clip studies whose rows cannot hold: one width fits no slope, a width above 1
    # wraps around the torus and repeats the width-1 row
    "single_scale_width": (
        "scale",
        _set(["scale_study", "relative_widths"], [0.25]),
        "scale_study: relative_widths must be strictly increasing, >= 2 entries",
    ),
    "scale_width_above_one": (
        "scale",
        _set(["scale_study", "relative_widths"], [0.5, 1.0, 1.5]),
        "scale_study: relative_widths[2] = 1.5 must be in (0, 1]",
    ),
    # on quick_box's 32 points the boxes of widths 0.125, 0.13 and 0.14 hold 4, 5 and 5 cells:
    # the third would repeat the second's row and its U= label
    "scale_widths_with_the_same_cells": (
        "scale",
        _set(["scale_study", "relative_widths"], [0.125, 0.13, 0.14]),
        "scale_study: relative_widths[2] = 0.14 gives a box with the cells of relative_widths[1]",
    ),
    # one rule for every p: the bound's constant is finite only for p > N/m, and the KSS bound
    # behind every ratio flag needs p >= 2
    "p_below_two": (
        "verify",
        _set(["experiments", 0, "p_values"], [1.5, 4]),
        "experiments[0] ('quick_box'): p_values[0] = 1.5 must be > N/m = 1 and >= 2",
    ),
    # the scale and clip studies run at their experiment's smallest p, which the same rule refuses
    "clip_p_below_two": (
        "clip",
        _set(["experiments", 0, "p_values"], [1.5, 4]),
        "experiments[0] ('quick_box'): p_values[0] = 1.5 must be > N/m = 1 and >= 2",
    ),
    # p = 2 = N/m sits on the divergence threshold: refused by every subcommand, constants too
    "p_at_n_over_m": (
        "verify",
        _set(["experiments", 2, "p_values"], [2, 4]),
        "experiments[2] ('quick_matrix_ball'): p_values[0] = 2 must be > N/m = 2 and >= 2",
    ),
    "constants_p_at_n_over_m": (
        "constants",
        _set(["experiments", 2, "p_values"], [2, 4]),
        "experiments[2] ('quick_matrix_ball'): p_values[0] = 2 must be > N/m = 2 and >= 2",
    ),
    # the bump's profile squares distances of order L at load, under the subcommands' errstate
    "overflowing_profile": (
        "refine",
        _set(["experiments", 1, "grid", "L"], 1e300),
        "experiments[1] ('quick_bump'): overflow encountered in square",
    ),
    # nu * n^N is checked before the basis is listed, one axis at a time: N = 2000 is refused
    # at nu * n = 2000 * 32, with no n^N formed and no recursion through 2000 variables
    "huge_N": ("verify", _set(["experiments", 0, "N"], 2000), "experiments[0] ('quick_box'): nu * n^1 = 64000 exceeds"),
    "scale_p_at_n_over_m": (
        "scale",
        _set(["experiments", 0, "p_values"], [1, 4]),
        "experiments[0] ('quick_box'): p_values[0] = 1 must be > N/m = 1 and >= 2",
    ),
    "clip_p_at_n_over_m": (
        "clip",
        _set(["experiments", 0, "p_values"], [4, 1]),
        "experiments[0] ('quick_box'): p_values[1] = 1 must be > N/m = 1 and >= 2",
    ),
    # impurities that perturb nothing: lhs = rhs = 0 would pass vacuously
    "zero_box_width": (
        "verify",
        _set(["experiments", 0, "perturbation", "width"], [0.0]),
        "experiments[0] ('quick_box').perturbation: box width must be > 0",
    ),
    "zero_ball_radius": (
        "verify",
        _set(["experiments", 2, "perturbation", "radius"], 0.0),
        "experiments[2] ('quick_matrix_ball').perturbation: ball radius must be > 0",
    ),
    "negative_ball_radius": (
        "verify",
        _set(["experiments", 2, "perturbation", "radius"], -1.0),
        "experiments[2] ('quick_matrix_ball').perturbation: ball radius must be > 0, got -1",
    ),
    "zero_bump_radius": (
        "refine",
        _set(["experiments", 1, "perturbation", "radius"], 0.0),
        "experiments[1] ('quick_bump').perturbation: bump radius must be > 0",
    ),
    "zero_amplitude": (
        "verify",
        _set(["experiments", 0, "perturbation", "amplitude"], 0.0),
        "experiments[0] ('quick_box').perturbation: the coefficient jump is zero",
    ),
    "zero_amplitude_matrix": (
        "verify",
        _set(["experiments", 2, "perturbation", "amplitude_matrix"], [[0.0, 0.0], [0.0, 0.0]]),
        "experiments[2] ('quick_matrix_ball').perturbation: the coefficient jump is zero",
    ),
    "ball_between_grid_points": (
        # n = 8, L = 2 pi: (h/2, h/2) is 0.56 from every grid point
        "verify",
        _both(
            _set(["experiments", 2, "perturbation", "center"], [math.pi / 8, math.pi / 8]),
            _set(["experiments", 2, "perturbation", "radius"], 0.1),
        ),
        "experiments[2] ('quick_matrix_ball').perturbation: the ball holds no grid point",
    ),
    "refine_rung_without_grid_point": (
        # pi/4 is a point of the n = 32 grid but sits between those of n = 4
        "refine",
        _both(
            _set(["experiments", 1, "perturbation", "center"], [math.pi / 4]),
            _set(["experiments", 1, "perturbation", "radius"], 0.15),
            _set(["refinement_study", "n_values"], [4, 32, 64]),
        ),
        "refinement_study: n_values[0] = 4 gives a bump with no grid point",
    ),
    # a jump that rounds away: a + 1e-20 a = a at every cell, so every row read lhs = rhs = 0 and
    # passed, and scale's slope fit stopped at log(0) with an error that named no row
    "jump_rounds_away": (
        "verify",
        _set(["experiments", 0, "perturbation", "amplitude"], 1e-20),
        "experiments[0] ('quick_box').perturbation: the box holds no grid point where the jump changes a",
    ),
    "scale_jump_rounds_away": (
        "scale",
        _set(["experiments", 0, "perturbation", "amplitude"], 1e-20),
        "experiments[0] ('quick_box').perturbation: the box holds no grid point where the jump changes a",
    ),
    # the n = 4 grid has the point 0, 0.3 from the center, where the bump is exp(-99.75) = 4.8e-44:
    # a point of the set, but a + 4.8e-44 * jump = a there, and the rung printed lhs = rhs = 0
    "refine_rung_whose_bump_rounds_away": (
        "refine",
        _both(
            _set(["experiments", 1, "perturbation", "center"], [0.3]),
            _set(["experiments", 1, "perturbation", "radius"], 0.3015),
            _set(["refinement_study", "n_values"], [4, 32, 64]),
        ),
        "refinement_study: n_values[0] = 4 gives a bump with no grid point where the jump changes a",
    ),
    "repeated_p": (
        "verify",
        _set(["experiments", 0, "p_values"], [4, 8, 4]),
        "experiments[0] ('quick_box'): p_values repeats an entry",
    ),
    # the CSV and the flag names print p as %g: 4.000001 would repeat the rows and the flag of p = 4
    "p_values_print_alike": (
        "verify",
        _set(["experiments", 0, "p_values"], [4, 4.000001]),
        "experiments[0] ('quick_box'): p_values repeats an entry: ['4', '4']",
    ),
    # an empty list would leave only the p = inf row and no schatten_monotone flag
    "empty_p_values": (
        "verify",
        _set(["experiments", 0, "p_values"], []),
        "experiments[0] ('quick_box'): p_values must not be empty",
    ),
    "repeated_level": ("clip", _set(["clip_study", "levels"], [1, 4, 4]), "clip_study: levels repeats an entry"),
    "empty_levels": ("clip", _set(["clip_study", "levels"], []), "clip_study: levels must not be empty"),
    # the Cauchy flag compares the gaps at levels >= spectral_max (256 for quick_box): with fewer
    # than two it compared nothing and passed
    "clip_levels_below_spectral_max": (
        "clip",
        _set(["clip_study", "levels"], [1, 4, 256]),
        "clip_study: levels needs two entries >= spectral_max = 256, got [1, 4, 256]",
    ),
    # spectral_max is read at load, so a clip study whose reference symbol overflows (xi^800) is refused
    # there, by every subcommand
    "clip_symbol_overflows": (
        "verify",
        _set(["experiments", 0, "m"], 400),
        "clip_study: the symbol of 'quick_box': overflow encountered",
    ),
    # a tolerance that no row can meet would exit 1, which means a failed estimate
    "negative_slope_tolerance": (
        "scale",
        _set(["tolerances"], {"slope": -1}),
        "tolerances: slope must be > 0, got -1",
    ),
    # every bound flag reads the lattice constant, which holds exactly on the grid: no envelope to set
    "ratio_key_refused": ("verify", _set(["tolerances"], {"ratio": 1.05}), "unknown key(s) ['ratio'] in tolerances"),
    "zero_drift_tolerance": (
        "refine",
        _set(["tolerances"], {"refine_drift": 0}),
        "tolerances: refine_drift must be > 0",
    ),
    # the refinement study's shrink factor and floor are constants, not tolerances
    "negative_shrink_floor": (
        "refine",
        _set(["tolerances"], {"shrink_floor": -1e-9}),
        "unknown key(s) ['shrink_floor'] in tolerances",
    ),
    "shrink_factor_key": (
        "refine",
        _set(["tolerances"], {"shrink_factor": 4.0}),
        "unknown key(s) ['shrink_factor'] in tolerances",
    ),
    # a bool or a string where a number belongs
    "string_L": (
        "verify",
        _set(["experiments", 0, "grid", "L"], "6.283185307179586"),
        "experiments[0] ('quick_box'): grid.L must be a number, got '6.283185307179586'",
    ),
    "bool_center": (
        "verify",
        _set(["experiments", 0, "perturbation", "center"], [True]),
        "experiments[0] ('quick_box'): perturbation.center[0] must be a number, got True",
    ),
    "string_width": (
        "verify",
        _set(["experiments", 0, "perturbation", "width"], ["0.785"]),
        "experiments[0] ('quick_box'): perturbation.width[0] must be a number",
    ),
    "bool_radius": (
        "verify",
        _set(["experiments", 2, "perturbation", "radius"], True),
        "experiments[2] ('quick_matrix_ball'): perturbation.radius must be a number, got True",
    ),
    "bool_amplitude": (
        "verify",
        _set(["experiments", 0, "perturbation", "amplitude"], True),
        "experiments[0] ('quick_box'): perturbation.amplitude must be a number, got True",
    ),
    "string_p": (
        "verify",
        _set(["experiments", 0, "p_values"], ["4", 8]),
        "experiments[0] ('quick_box'): p_values[0] must be a number, got '4'",
    ),
    "string_relative_width": (
        "scale",
        _set(["scale_study", "relative_widths"], ["0.0625", 0.125, 0.25]),
        "scale_study: relative_widths[0] must be a number, got '0.0625'",
    ),
    "string_slope_tolerance": (
        "scale",
        _set(["tolerances"], {"slope": "1e-6"}),
        "tolerances: slope must be a number, got '1e-6'",
    ),
    "bool_slope_tolerance": ("scale", _set(["tolerances"], {"slope": True}), "tolerances: slope must be a number"),
    # a study's p is its experiment's smallest and the clip floor is a constant: neither is a key
    "bool_scale_p": ("scale", _set(["scale_study", "p"], True), "unknown key(s) ['p'] in scale_study"),
    "bool_clip_p": ("clip", _set(["clip_study", "p"], True), "unknown key(s) ['p'] in clip_study"),
    "string_floor": ("clip", _set(["clip_study", "floor"], "1e-6"), "unknown key(s) ['floor'] in clip_study"),
    "string_base_matrix_entry": (
        "verify",
        _set(["experiments", 2, "base_matrix"], [["2.0", 0.5], [0.5, 1.0]]),
        "experiments[2] ('quick_matrix_ball').base_matrix: entry [0][0] must be a number, got '2.0'",
    ),
    "bool_base_matrix_entry": (
        "verify",
        _set(["experiments", 2, "base_matrix"], [[2.0, 0.5], [0.5, True]]),
        "experiments[2] ('quick_matrix_ball').base_matrix: entry [1][1] must be a number, got True",
    ),
    "string_amplitude_matrix_entry": (
        "verify",
        _set(["experiments", 2, "perturbation", "amplitude_matrix"], [[1.0, "0"], [0.0, 1.0]]),
        "experiments[2] ('quick_matrix_ball').perturbation.amplitude_matrix: entry [0][1] must be a number",
    ),
    "bool_amplitude_matrix_entry": (
        "verify",
        _set(["experiments", 2, "perturbation", "amplitude_matrix"], [[True, 0.0], [0.0, 1.0]]),
        "experiments[2] ('quick_matrix_ball').perturbation.amplitude_matrix: entry [0][0] must be a number",
    ),
    "indefinite_base_matrix": (
        "clip",
        _set(["experiments", 2, "base_matrix"], [[-1.0, 0.0], [0.0, 1.0]]),
        "experiments[2] ('quick_matrix_ball').base_matrix: matrix not positive definite",
    ),
    "unknown_shape": (
        "verify",
        _set(["experiments", 0, "perturbation", "shape"], "disc"),
        "experiments[0] ('quick_box').perturbation: shape must be box, ball, or bump, got 'disc'",
    ),
    "short_center": (
        "verify",
        _set(["experiments", 2, "perturbation", "center"], [0.0]),
        "experiments[2] ('quick_matrix_ball').perturbation: center must have 2 entries",
    ),
    "long_box_width": (
        "scale",
        _set(["experiments", 0, "perturbation", "width"], [1.0, 1.0]),
        "experiments[0] ('quick_box').perturbation: box width must have 1 entries",
    ),
    "no_amplitude": (
        "verify",
        _set(["experiments", 1, "perturbation", "amplitude"], None),
        "experiments[1] ('quick_bump').perturbation: need 'amplitude' or 'amplitude_matrix'",
    ),
    "unknown_base": (
        "verify",
        _set(["experiments", 3, "base"], "laplace"),
        "experiments[3] ('quick_n3_ball'): base must be 'polyharmonic' or 'matrix'",
    ),
    "study_of_unknown_experiment": (
        "refine",
        _set(["refinement_study", "experiment"], "quick_disc"),
        "refinement_study: unknown experiment id 'quick_disc'",
    ),
    "zero_level": (
        "clip",
        _set(["clip_study", "levels"], [0, 256, 1024]),
        "clip_study: levels must be positive integers",
    ),
    "decreasing_refine_n": (
        "refine",
        _set(["refinement_study", "n_values"], [64, 32, 128]),
        "refinement_study: n_values must be strictly increasing, >= 2 entries",
    ),
    "no_experiments": ("constants", _set(["experiments"], []), "config needs at least one experiment"),
}


def test_package_exports():
    # the top-level API: what the CLI path and the tests use, and the names perfbench patches
    import schatten_verify

    exported = {
        name
        for name, value in vars(schatten_verify).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == {
        "ConfigError",
        "LinearOperatorRep",
        "NonPositiveDefiniteError",
        "QuadratureError",
        "TorusGrid",
        "assemble_constant_coefficient",
        "assemble_derivative_factor",
        "assemble_variable_coefficient",
        "block_multiplication_matrix",
        "clip_coefficients",
        "coarea_constant",
        "constant_field",
        "deift_residual",
        "enumerate_basis",
        "factorization_residual",
        "matrix_field_lp_norm",
        "matrix_sqrt",
        "monomial_matrix",
        "operator_norm",
        "polyharmonic_coefficients",
        "principal_symbol",
        "relative_perturbation",
        "resolvent",
        "sampled_field",
        "schatten_norm",
        "sqrt_field",
        "sublevel_volume",
    }


class TestCli:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_exit_two_on_malformed_entry(self, case, tmp_path, capsys):
        subcommand, edit, entry = MALFORMED[case]
        data = small_config()
        edit(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert run_cli([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {entry}") and "Traceback" not in err, err

    def test_verify_small_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        assert run_cli(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "verify_report.csv").read_text()
        assert text.splitlines()[0] == CSV_HEADER
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["all_passed"] is True

    @pytest.mark.parametrize("subcommand", ["verify", "scale", "clip", "refine", "constants"])
    def test_subcommand_imports_no_scipy(self, subcommand, tmp_path):
        # the dense path is numpy-only, and scipy serves the quadrature cross-check alone; numpy 2 loads
        # numpy.random (6 MB of RSS) and numpy.ma only on first use, and no subcommand uses either
        args, lazy = [subcommand, "--out", str(tmp_path / "out")], ("scipy", "numpy.random", "numpy.ma")
        script = (
            "import sys; sys.path[:0] = ['src']; from schatten_verify.cli import run_cli; "
            f"code = run_cli({args!r}); print(code, *[name for name in {lazy!r} if name in sys.modules])"
        )
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True, text=True)
        assert proc.stdout.splitlines()[-1].split() == ["0"], proc.stderr

    def test_exit_two_on_negative_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config()))
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be >= 0, got -1") and "Traceback" not in err

    def test_exit_two_on_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{]")
        assert run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_float_error_state_enters_again(self):
        # the loader and every subcommand enter it; a second entry in one process raises as the first did
        for _ in range(2):
            with harness.RAISE_FLOAT_ERRORS():
                with pytest.raises(FloatingPointError):
                    np.divide(1.0, np.zeros(1))
        assert np.geterr()["divide"] != "raise"

    def test_exit_two_on_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text(json.dumps([small_config()]))
        assert run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: config {cfg} must be a JSON object\n"

    def test_exit_two_on_missing_config(self, tmp_path):
        assert run_cli(["verify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "subcommand,section", [("scale", "scale_study"), ("clip", "clip_study"), ("refine", "refinement_study")]
    )
    def test_exit_two_on_missing_study_section(self, subcommand, section, tmp_path, capsys):
        # the config loads, as verify and constants need no study; the study's subcommand refuses it
        data = small_config()
        del data[section]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert run_cli([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: config has no {section} section\n"
        assert not out.exists()

    def test_exit_two_on_indefinite_coefficient(self, tmp_path, capsys, monkeypatch):
        # a + jump = 0 is a config error; a coefficient that loses positivity after load
        # (here by a patch, in practice by rounding) is caught by the support pass and named
        data = small_config()
        data["experiments"][0]["perturbation"]["amplitude"] = -1.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: experiments[0] ('quick_box').perturbation: a + jump: ")
        assert "not positive definite: smallest eigenvalue 0" in err and "Traceback" not in err
        perturbed = harness.perturbed_coefficient

        def indefinite(exp):
            return perturbed(dataclasses.replace(exp, jump=-2.0 * exp.jump))

        monkeypatch.setattr(harness, "perturbed_coefficient", indefinite)
        cfg.write_text(json.dumps(small_config()))
        assert run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: experiment 'quick_box': matrix not positive definite")
        assert "at grid points" in err and "Traceback" not in err

    def test_exit_two_on_dense_cap(self, tmp_path, capsys):
        # an entry over the cap refuses the config for every subcommand, the ones that never run it too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(max_dim=16)))
        for subcommand in ("verify", "scale", "clip", "refine", "constants"):
            assert run_cli([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err == "config error: experiments[0] ('quick_box'): nu * n^N = 32 exceeds max_dim 16\n"

    @pytest.mark.parametrize(
        "subcommand,edit,label",
        [
            # lhs 0 and NaN residuals, every flag passing; the clip study moves to quick_bump, as the
            # loader refuses a clip study whose reference symbol overflows (clip_symbol_overflows)
            ("verify", _both(_set(["experiments", 0, "grid", "L"], 1e-300), _CLIP_ON_BUMP), "quick_box"),
            # a + jump ~ 1e308 passes the Hermiticity check and the support pass; the Deift column's
            # certificate stops it, adding inf and -inf in its trace form
            ("verify", _set(["experiments", 0, "perturbation", "amplitude"], 1e308), "quick_box"),
            # these three stopped with a traceback and exit 1, which means a failed estimate
            ("verify", _both(_set(["experiments", 0, "m"], 400), _CLIP_ON_BUMP), "quick_box"),
            ("verify", _set(["experiments", 0, "p_values"], [4, 1e308]), "quick_box"),
            ("scale", _set(["experiments", 0, "p_values"], [1e308]), "quick_box"),
            # the level fails in clip_coefficients, inside its own row
            ("clip", _set(["clip_study", "levels"], [1, 256, 10**400]), "quick_box|clip=1000"),
        ],
        ids=["tiny_L", "huge_amplitude", "m_400", "huge_p", "huge_scale_p", "huge_level"],
    )
    def test_exit_two_on_overflow(self, subcommand, edit, label, tmp_path, capsys):
        # the subcommand runs with floating-point overflow, division by zero and NaN raising;
        # the refusal names the row it stopped at
        data = small_config()
        edit(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert run_cli([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: experiment '{label}") and "Traceback" not in err, err

    def test_exit_one_names_failing_row(self, tmp_path, capsys):
        # the fitted slope's roundoff (5.6e-16 here) is over a slope tolerance of 1e-300
        data = small_config(tolerances={"slope": 1e-300})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code = run_cli(["scale", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("FAILED scale_slope: log-log slope"), err

    def test_constants_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        assert run_cli(["constants", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "c_cov" in printed
        lines = (out / "constants_report.csv").read_text().splitlines()
        # c_cov for N=1, m=1 is exactly 1/(2 pi); the quadrature column is finite
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)

    def test_outputs_do_not_depend_on_seed(self, tmp_path):
        # the bundled battery's N=2 c_cov was once a seeded Monte Carlo estimate
        for seed in ("1", "2"):
            assert run_cli(["constants", "--out", str(tmp_path / seed), "--seed", seed]) == 0
        for name in ("constants_report.csv", "constants_summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    @pytest.mark.parametrize("subcommand", ["verify", "constants"])
    def test_draws_no_random_number(self, subcommand, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a random generator was created")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config()))
        assert run_cli([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_exit_two_on_unresolved_coarea_constant(self, tmp_path, capsys):
        # diag(1, 1e-12) puts A's reciprocal on a 1e-6 wide arc: the sphere rule cannot converge.
        # Only constants takes c_cov; verify's lattice constant is a sum over the grid
        data = small_config()
        data["experiments"][2]["base_matrix"] = [[1.0, 0.0], [0.0, 1e-12]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert run_cli(["constants", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: experiment 'quick_matrix_ball': the coarea constant's sphere rule")
        assert "Traceback" not in err
        assert run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


_STUDIES = ("verify", "scale", "clip", "refine")


def _flag_row(experiment, p, lhs=0.0):
    """A row whose lhs is ``lhs``, with C_lat * rhs = 1 and zero residuals."""
    return harness.ReportRow(experiment, p, lhs, 1.0, 1.0, lhs, 0.0, 0.0, 16, 2 * math.pi, 0.0)


class TestReportRoundTrip:
    def test_csv_parse_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        run_cli(["verify", "--config", str(cfg), "--out", str(out)])
        text = (out / "verify_report.csv").read_text()
        rows = parse_csv_rows(text)
        assert [r.csv_line() for r in rows] == text.splitlines()[1:]

    @pytest.mark.parametrize(
        "study, bundled",
        [pytest.param(study, False, id=study) for study in _STUDIES]
        + [pytest.param(study, True, id=f"bundled-{study}") for study in _STUDIES],
    )
    def test_json_flags_agree_with_csv_recompute(self, study, bundled, tmp_path):
        # a summary's flags are a function of its CSV rows, the config's tolerances and its extras
        if bundled:
            cfg = Path(default_config_path())
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        assert run_cli([study, "--config", str(cfg), "--out", str(out)]) == 0
        config = load_config(str(cfg))
        summary = json.loads((out / f"{study}_summary.json").read_text())
        csv_text = (out / f"{study}_report.csv").read_text()
        recomputed = recompute_assertions_from_csv(
            csv_text, config, study, extras=summary["extras"]
        )
        flags = {a["name"]: a["passed"] for a in summary["assertions"]}
        assert {a.name: a.passed for a in recomputed} == flags

    def test_scale_recompute_needs_slope(self):
        # scale_slope reads the slope it is given: it passes at 1/p and fails 2 tolerances off
        tol = Tolerances()
        rows = [_flag_row("box|U=1", 4.0)]
        for slope, passed in ((0.25, True), (0.25 + 2 * tol.slope, False), (0.25 - 2 * tol.slope, False)):
            flag = harness.scale_flags(rows, tol, slope)[0]
            assert (flag.name, flag.passed) == ("scale_slope", passed), flag.detail

    def test_clip_recompute_needs_spectral_max(self):
        # the gap rises from level 1 to 4 and falls after: the rise counts only once spectral_max <= 1
        gaps = ((1, 1e-3), (4, 2e-3), (16, 1e-4), (64, 1e-5))
        cauchy = [{"level": level, "next": 2 * level, "difference": d} for level, d in gaps]
        for spectral_max, passed in ((3.9, True), (4.0, True), (1.0, False), (0.5, False)):
            flag = harness.clip_flags([], spectral_max, cauchy)[-1]
            assert (flag.name, flag.passed) == ("clip_cauchy_monotone", passed), flag.detail

    def test_clip_flags_need_cauchy(self):
        # the Cauchy flag reads the gaps from its cauchy argument, not from the clip_pair rows
        pairs = [_flag_row(f"box|clip_pair={level}:{2 * level}", 2.0, lhs=d) for level, d in ((256, 1e-3), (512, 1e-4))]
        for differences, passed in (((1e-4, 1e-3), False), ((1e-3, 1e-4), True)):
            cauchy = [{"level": level, "next": 2 * level, "difference": d} for level, d in zip((256, 512), differences)]
            flags = harness.clip_flags(pairs, 16.0, cauchy)
            assert [(a.name, a.passed) for a in flags] == [("clip_cauchy_monotone", passed)]


def test_perfbench_tracer_installs():
    # perfbench/tracer.py wraps functions by module attribute and reads these
    # parameters by name; a rename or a dropped import breaks ``--trace 1``
    from schatten_verify import coeff_algebra, harness, schatten_analysis

    script = (
        "import sys; sys.path[:0]=['perfbench','src']; "
        "import tracer; tracer.install(tracer.Tracer())"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for fn, names in (
        (harness.impurity_experiment, {"exp"}),
        (schatten_analysis.singular_spectrum, {"matrix"}),
        (schatten_analysis.deift_residual, {"s_matrix"}),
        (schatten_analysis.factorization_residual, {"a", "grid"}),
        (coeff_algebra.sublevel_volume, {"samples"}),
    ):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__


def test_perfbench_traced_run_of_every_subcommand(tmp_path):
    # each subcommand as perfbench runs it with --trace 1: one CLI process under
    # perfbench/launch.py with the tracer installed; a process that dies under the
    # tracer writes no report, and layer_metrics must read every report written
    import importlib.util
    import os
    import time

    from schatten_verify.cli import SUBCOMMANDS

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    reports = []
    for sub in SUBCOMMANDS:
        report = tmp_path / f"{sub}.json"
        env["PERFBENCH_SPAWN"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        args = [sub, "--config", str(cfg), "--out", str(tmp_path / "out")]
        launch = [sys.executable, str(root / "perfbench" / "launch.py"), str(report), "1", "0", "--", *args]
        proc = subprocess.run(launch, cwd=root, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{sub}: {proc.stderr}"
        reports.append(json.loads(report.read_text()))
        assert reports[-1]["subcommand"] == sub and reports[-1]["spans"], sub
    metrics, breakdown = tracer.layer_metrics(reports)
    assert metrics["cli.run_s"] > 0.0
    assert {f"cli.{sub}_s" for sub in SUBCOMMANDS} <= set(breakdown)
