import dataclasses
import functools

import numpy as np
import pytest

from schatten_verify import (
    ConfigError,
    NonPositiveDefiniteError,
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    block_multiplication_matrix,
    constant_field,
    deift_residual,
    enumerate_basis,
    matrix_field_lp_norm,
    operator_norm,
    resolvent,
    sampled_field,
    schatten_norm,
    sqrt_field,
)
from schatten_verify import schatten_analysis
from schatten_verify.cli import default_config_path
from schatten_verify.coeff_algebra import clip_coefficients, matrix_inv_sqrt
from schatten_verify.harness import (
    PerturbationSpec,
    _clip_target_field,
    _ratio,
    build_artifacts,
    impurity_experiment,
    indicator_profile,
    load_config,
    parse_config,
    perturbed_coefficient,
)
from schatten_verify.norms import lp_norm_of_pointwise
from schatten_verify.schatten_analysis import (
    chain_gap,
    factorization_residual,
    impurity_support,
    moments_gap,
    one_plus_zw,
    pivoted_cholesky,
    resolvent_certificate,
    singular_spectrum,
    support_core,
    support_kernel,
)
from schatten_verify.torus_operator import (
    channel_resolvent_symbols,
    circulant_lookup,
    constant_multiplier,
    pointwise_rows,
)

from helpers import (
    box_perturbed_field,
    bump_perturbed_field,
    deift_of,
    direct_difference,
    factorization_of,
    polyharmonic_setup,
    random_hermitian,
    random_hermitian_pd,
    recentered,
    relative_perturbation_of,
    support_values,
)
from oracles import (
    assemble_channel_gram,
    channel_solve,
    convolution_kernel,
    derivative_operator,
    in_point_basis,
    matrix_function,
    plane_wave,
    polar_decomposition_check,
    resolvent_difference,
    resolvent_profile,
    spectral_profile_operator,
    stripe_spectrum,
    woodbury_left_end,
)


class TestSchattenNorm:
    def test_identity(self):
        for k in (3, 7, 12):
            assert schatten_norm(np.eye(k), 2) == pytest.approx(np.sqrt(k))

    def test_rank_one(self):
        rng = np.random.default_rng(40)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        outer = np.outer(v, np.conj(w))
        expected = np.linalg.norm(v) * np.linalg.norm(w)
        for p in (1, 2, 4, np.inf):
            assert schatten_norm(outer, p) == pytest.approx(expected, rel=1e-12)

    def test_p2_is_frobenius(self):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
        assert schatten_norm(m, 2) == pytest.approx(np.linalg.norm(m), rel=1e-10)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m = rng.normal(size=(12, 9))
            vals = [schatten_norm(m, p) for p in (1, 2, 4, np.inf)]
            assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)

    def test_hermitian_spectrum_matches_svd(self):
        # the resolvent difference of an N=2 experiment, as the harness takes its spectrum
        grid = TorusGrid(N=2, n=8, L=2 * np.pi)
        basis, a = polyharmonic_setup(2, 1)
        at = box_perturbed_field(grid, basis, a, amplitude=0.5, rel_width=0.25)
        delta = direct_difference(a, at, grid)
        svd = singular_spectrum(delta)
        eig = singular_spectrum(delta, hermitian=True)
        assert eig.shape == svd.shape and np.all(np.diff(eig) <= 0.0)
        assert np.abs(eig - svd).max() <= 1e-12 * svd[0]

    def test_holder_with_operator_norm_factor(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
            b = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
            for p in (1, 2, 4):
                assert schatten_norm(a @ b, p) <= operator_norm(a) * schatten_norm(b, p) * (
                    1 + 1e-12
                )


class TestResolvent:
    def test_zero_operator(self):
        assert np.allclose(resolvent(np.zeros((5, 5))), np.eye(5))

    def test_matches_dense_solve_bitwise(self):
        # the in-place Hermitian part and shift, then inv: the arithmetic of solve(sym + 1, 1)
        grid = TorusGrid(N=2, n=4, L=4.0)
        basis, a = polyharmonic_setup(2, 1)
        at = bump_perturbed_field(grid, basis, a, amplitude=0.5, rel_radius=0.4)
        m = assemble_variable_coefficient(at, grid).dense()
        m = m + 1e-3 * np.triu(m, 1)  # a non-Hermitian input: only its Hermitian part counts
        sym = 0.5 * (m + np.conj(m.T))
        eye = np.eye(m.shape[0])
        assert np.array_equal(resolvent(m), np.linalg.solve(sym + eye, eye.astype(complex)))

    def test_multiplier_resolvent_on_plane_waves(self):
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        op = assemble_constant_coefficient(a, grid)
        res = resolvent(op.dense())
        for k in (0, 1, 5, -7):
            u = plane_wave(grid, (k,))
            expected = u / (1.0 + float(k) ** 2)
            assert np.abs(res @ u - expected).max() < 1e-12

    def test_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(44)
        m = random_hermitian_pd(rng, 12, spread=(0.0001, 50.0))
        w = np.linalg.eigvalsh(resolvent(m))
        assert w.min() > 0.0 and w.max() <= 1.0 + 1e-12

    def test_solve_residual(self):
        # (op + 1) R = 1 up to 1e-10 at desk-scale conditioning
        for N, m, n, L in [(1, 1, 64, 2 * np.pi), (1, 2, 64, 8 * np.pi), (2, 1, 12, 2 * np.pi)]:
            grid = TorusGrid(N=N, n=n, L=L)
            basis, a = polyharmonic_setup(N, m)
            op = assemble_constant_coefficient(a, grid)
            dense = op.dense()
            res = resolvent(dense)
            eye = np.eye(dense.shape[0])
            assert operator_norm((dense + eye) @ res - eye) < 1e-10


class TestConstantResolvent:
    @pytest.mark.parametrize("N,n", [(1, 16), (2, 8), (3, 4)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_matches_dense_solve(self, N, n, m):
        grid = TorusGrid(N=N, n=n, L=2 * np.pi)
        basis = enumerate_basis(N, m)
        rng = np.random.default_rng(10 * N + m)
        # polyharmonic, and a matrix base with off-diagonal entries (nu > 1)
        matrix_base = constant_field(basis, random_hermitian_pd(rng, basis.nu))
        for a in (polyharmonic_setup(N, m)[1], matrix_base):
            symbols = channel_resolvent_symbols(a, grid)
            closed = circulant_lookup(symbols[2], grid)
            dense = resolvent(assemble_constant_coefficient(a, grid).dense())
            assert np.abs(closed - dense).max() <= 1e-12
            # the symbol A that the resolvent's symbol is formed from, returned as the lattice's one A
            assert np.array_equal(symbols[4], constant_multiplier(a, grid))
            assert np.array_equal(symbols[2][0, 0], 1.0 / (1.0 + symbols[4]))

    def test_dimension_cap(self):
        # the size rule refuses P = 64 > 32 at load, so no closed form can run
        with pytest.raises(ConfigError, match=r"nu \* n\^N = 64 exceeds max_dim 32"):
            _capped_config(N=1, n=64, max_dim=32)


class TestConstantFactorResolvent:
    @pytest.mark.parametrize("N,n", [(1, 16), (2, 8), (3, 4)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_matches_channel_solve(self, N, n, m):
        # the lookup on all rows: a^{-1/2} C^{-1} D = T (op+1)^{-1} against (TT*+1)^{-1} T
        grid = TorusGrid(N=N, n=n, L=2 * np.pi)
        basis = enumerate_basis(N, m)
        rng = np.random.default_rng(10 * N + m)
        matrix_base = constant_field(basis, random_hermitian_pd(rng, basis.nu))
        for a in (polyharmonic_setup(N, m)[1], matrix_base):
            symbol = np.einsum(
                "ab,bc...->ac...",
                matrix_inv_sqrt(a.constant_matrix()),
                channel_resolvent_symbols(a, grid)[1],
            )
            closed = circulant_lookup(symbol, grid)
            dense = channel_solve(assemble_derivative_factor(sqrt_field(a), grid).dense())
            assert closed.shape == dense.shape == (basis.nu * grid.total_points, grid.total_points)
            assert np.abs(closed - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("N,n,m", [(1, 16, 2), (2, 8, 1), (3, 4, 1)])
    def test_channel_inverse_matches_dense(self, N, n, m):
        # C^{-1} for C = D D* + a^{-1}, on all rows and columns, against a dense inverse
        grid = TorusGrid(N=N, n=n, L=2 * np.pi)
        basis = enumerate_basis(N, m)
        a = constant_field(basis, random_hermitian_pd(np.random.default_rng(N + m), basis.nu))
        d = derivative_operator(grid, basis).dense()
        a_inv = np.kron(np.linalg.inv(a.constant_matrix()), np.eye(grid.total_points))
        dense = np.linalg.inv(d @ np.conj(d.T) + a_inv)
        closed = circulant_lookup(channel_resolvent_symbols(a, grid)[0], grid)
        assert np.abs(closed - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_point_subsets_are_blocks_of_the_full_lookup(self):
        grid = TorusGrid(N=2, n=8, L=2 * np.pi)
        basis = enumerate_basis(2, 1)
        a = constant_field(basis, random_hermitian_pd(np.random.default_rng(3), basis.nu))
        c_inv = channel_resolvent_symbols(a, grid)[0]
        full = circulant_lookup(c_inv, grid).reshape(2, 64, 2, 64)
        rows, cols = np.array([5, 0, 63, 17]), np.array([9, 40])
        block = circulant_lookup(c_inv, grid, rows=rows, cols=cols)
        assert np.array_equal(block, full[:, rows][:, :, :, cols].reshape(8, 4))
        assert circulant_lookup(c_inv, grid, cols=np.array([], dtype=int)).shape == (128, 0)

    def test_dimension_cap_counts_channels(self):
        # P = 16 fits the cap, the channel side nu * P = 32 does not
        assert _capped_config(N=2, n=4, max_dim=32).experiments[0].grid.total_points == 16
        with pytest.raises(ConfigError, match=r"nu \* n\^N = 32 exceeds max_dim 20"):
            _capped_config(N=2, n=4, max_dim=20)


def _support_size(a, at):
    return int(np.count_nonzero(np.any(at.values != a.constant_matrix(), axis=(-1, -2))))


def _assert_left_end_matches_dense(a, at, grid):
    dense = channel_solve(assemble_derivative_factor(sqrt_field(at), grid).dense())
    left = woodbury_left_end(a, impurity_support(a, at, grid))
    assert left.shape == dense.shape
    assert np.abs(left - dense).max() <= 1e-12 * np.abs(dense).max()


class TestImpuritySupport:
    def test_reports_failing_points(self):
        # the one decomposition of at checks positivity and names the failing samples
        grid = TorusGrid(N=2, n=8, L=1.0)
        basis, a = polyharmonic_setup(2, 1)
        at = box_perturbed_field(grid, basis, a, amplitude=-1.5)  # negative inside the box
        with pytest.raises(NonPositiveDefiniteError) as err:
            impurity_support(a, at, grid)
        assert err.value.points == [(4, 4)]

    def test_roots(self):
        grid = TorusGrid(N=2, n=8, L=2 * np.pi)
        basis = enumerate_basis(2, 1)
        rng = np.random.default_rng(5)
        a = constant_field(basis, random_hermitian_pd(rng, basis.nu))
        at = _off_diagonal_jump(grid, basis, a, 2.0, rng)
        imp = impurity_support(a, at, grid)
        values = at.values.reshape(grid.total_points, basis.nu, basis.nu)
        assert np.array_equal(imp.at, values)
        assert np.abs(imp.at_inv_sqrt @ values @ imp.at_inv_sqrt - np.eye(basis.nu)).max() <= 1e-12
        assert np.array_equal(imp.a, a.constant_matrix())
        assert np.abs(imp.a_sqrt @ imp.a_sqrt - imp.a).max() <= 1e-12
        assert np.abs(imp.a_inv_sqrt @ imp.a_sqrt - np.eye(basis.nu)).max() <= 1e-12
        a_inv = np.linalg.inv(a.constant_matrix())
        w = np.linalg.inv(values[imp.points]) - a_inv
        assert np.abs(imp.w - w).max() <= 1e-12


def _reflection_sums(imp):
    """s per axis of the reflection j -> s - j (mod n) that the order of ``imp.points``, fixed points, A,
    sigma A, names; each fixed point and each pair must give the same s."""
    grid, f = imp.grid, imp.fixed
    pairs = (imp.points.size - f) // 2
    coords = np.stack(np.unravel_index(imp.points, grid.spatial_shape))
    sums = np.concatenate([2 * coords[:, :f], coords[:, f : f + pairs] + coords[:, f + pairs :]], axis=1) % grid.n
    assert imp.points.size == f + 2 * pairs == np.unique(imp.points).size
    assert np.all(sums == sums[:, :1])
    return sums[:, 0]


def _assert_real_pass(exp):
    """The experiment's pass runs in float64, and its sampled a~ is unchanged bit for bit, at every grid
    point, by the reflection that the support's order names."""
    grid, field = exp.grid, perturbed_coefficient(exp)
    at = field.values.reshape(grid.total_points, exp.basis.nu, exp.basis.nu)
    imp = impurity_support(exp.reference, field, grid)
    assert imp.fixed is not None and imp.points.size > 0, exp.id
    s = _reflection_sums(imp)
    index = np.indices(grid.spatial_shape)
    mirror = np.ravel_multi_index(tuple((s_i - j) % grid.n for s_i, j in zip(s, index)), grid.spatial_shape)
    assert np.array_equal(at, at[mirror.ravel()]), exp.id
    assert imp.at.dtype == imp.w.dtype == support_kernel(imp, "z").dtype == np.float64, exp.id
    return imp


def _bundled(exp_id):
    return next(e for e in load_config(default_config_path()).experiments if e.id == exp_id)


class TestReflection:
    def test_every_bundled_experiment_runs_real(self):
        # the battery, the scale steps, the refine rungs and the grid2d benchmark's n = 32 rung: a sampling
        # edit that breaks the symmetry by one bit would send them back to complex128
        config = load_config(default_config_path())
        for exp in (*config.experiments, *config.scale.steps, *config.refine.rungs):
            _assert_real_pass(exp)
        # about a lattice point (one fixed point, the center) and about a half-cell (none)
        bump = _bundled("n2m1_bump_a05")
        grid = TorusGrid(N=2, n=32, L=bump.grid.L)
        assert _assert_real_pass(dataclasses.replace(bump, grid=grid)).fixed == 1
        assert _assert_real_pass(dataclasses.replace(_bundled("n2m1_box_a8"), grid=grid)).fixed == 0

    def test_off_lattice_center_runs_complex(self):
        exp = recentered(_bundled("n2m1_bump_a05"), (0.1, 0.0))
        imp = impurity_support(exp.reference, perturbed_coefficient(exp), exp.grid)
        assert imp.fixed is None and imp.w.dtype == support_kernel(imp, "z").dtype == np.complex128

    def test_complex_reference_runs_complex(self):
        # the mutation suite's complex variant: the reference [[1, 0.3i], [-0.3i, 1]], jump 0.5 times it
        bump = _bundled("n2m1_bump_a05")
        reference = np.array([[1.0, 0.3j], [-0.3j, 1.0]])
        exp = dataclasses.replace(bump, reference=constant_field(bump.basis, reference), jump=0.5 * reference)
        imp = impurity_support(exp.reference, perturbed_coefficient(exp), exp.grid)
        assert imp.fixed is None and imp.w.dtype == support_kernel(imp, "z").dtype == np.complex128

    @pytest.mark.parametrize("exp_id", ["n2m1_bump_a05", "n2m1_box_a8", "n1m2_ball_a2"])
    def test_real_lookups_are_the_point_lookups(self, exp_id):
        # Q X Q* of every real lookup X is the point basis lookup, to roundoff
        exp = _bundled(exp_id)
        imp = _assert_real_pass(exp)
        for name, symbols in imp.kernels.items():
            point = circulant_lookup(symbols, exp.grid, rows=imp.points, cols=imp.points)
            real = in_point_basis(imp, support_kernel(imp, name))
            assert np.abs(real - point).max() <= 1e-14 * np.abs(point).max(), name


class TestWoodburyLeftEnd:
    @pytest.mark.parametrize("N,n", [(1, 16), (2, 8), (3, 4)])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("amplitude", [0.5, 8.0])
    def test_matches_channel_solve(self, N, n, m, amplitude):
        grid = TorusGrid(N=N, n=n, L=2 * np.pi)
        basis = enumerate_basis(N, m)
        rng = np.random.default_rng(100 * N + 10 * m)
        matrix_base = constant_field(basis, random_hermitian_pd(rng, basis.nu))
        for a in (polyharmonic_setup(N, m)[1], matrix_base):
            at = box_perturbed_field(grid, basis, a, amplitude, rel_width=0.5)
            assert 0 < _support_size(a, at) < grid.total_points
            _assert_left_end_matches_dense(a, at, grid)

    def test_off_diagonal_jump(self):
        # a jump that is not a multiple of a: W is not a multiple of a^{-1}
        grid = TorusGrid(N=2, n=8, L=2 * np.pi)
        basis = enumerate_basis(2, 2)
        rng = np.random.default_rng(7)
        a = constant_field(basis, random_hermitian_pd(rng, basis.nu))
        jump = 0.3 * random_hermitian(rng, basis.nu)
        inside = np.all(np.abs(grid.points()) < grid.L / 4, axis=-1)
        vals = a.constant_matrix() + inside[..., None, None] * jump
        _assert_left_end_matches_dense(a, sampled_field(basis, vals), grid)

    @pytest.fixture(scope="class")
    def clip_experiment(self):
        exp = load_config(default_config_path()).clip.experiment
        return exp, _clip_target_field(exp)

    def test_clip_top_level(self, clip_experiment):
        # the degenerate coefficient clipped at 64: W = 63 a^{-1} on the support
        exp, degenerate = clip_experiment
        at = clip_coefficients(degenerate, 64)
        assert _support_size(exp.reference, at) > 0
        _assert_left_end_matches_dense(exp.reference, at, exp.grid)

    def test_empty_support(self, clip_experiment):
        # clip level 1 gives back a bit for bit: K = 0, the left end is the closed form alone
        exp, degenerate = clip_experiment
        at = clip_coefficients(degenerate, 1)
        assert _support_size(exp.reference, at) == 0
        _assert_left_end_matches_dense(exp.reference, at, exp.grid)

    @pytest.mark.parametrize("N,n,m", [(1, 16, 1), (2, 8, 1), (2, 8, 2)])
    def test_support_covering_every_point(self, N, n, m):
        grid = TorusGrid(N=N, n=n, L=2 * np.pi)
        basis, a = polyharmonic_setup(N, m)
        at = box_perturbed_field(grid, basis, a, 2.0, rel_width=1.5)
        assert _support_size(a, at) == grid.total_points
        _assert_left_end_matches_dense(a, at, grid)


def _assert_norms_match(values, expected_values):
    """Schatten norms p = 4, 6, 8, inf of non-increasing ``values`` within 1e-12 of those of ``expected_values``."""
    assert np.all(np.diff(values) <= 0.0)
    for p in (4, 6, 8, np.inf):
        expected = lp_norm_of_pointwise(expected_values, 1.0, p)
        assert abs(lp_norm_of_pointwise(values, 1.0, p) - expected) <= 1e-12 * expected


def _assert_spectrum_matches_dense(a, at, grid):
    """The support spectrum's Schatten norms against eigvalsh of the dense difference."""
    support = support_values(a, at, grid)
    assert support.size == a.basis.nu * _support_size(a, at)
    _assert_norms_match(support, singular_spectrum(direct_difference(a, at, grid), hermitian=True))


def _off_diagonal_jump(grid, basis, a, amplitude, rng):
    """a + (amplitude a + H) on a centered box, H Hermitian with ||H|| = lambda_min(a) / 4."""
    h = random_hermitian(rng, basis.nu)
    h *= 0.25 * np.linalg.eigvalsh(a.constant_matrix())[0] / np.abs(np.linalg.eigvalsh(h)).max()
    inside = np.all(np.abs(grid.points()) < grid.L / 4, axis=-1)
    return sampled_field(basis, a.constant_matrix() + inside[..., None, None] * (amplitude * a.constant_matrix() + h))


class TestSupportSpectrum:
    @pytest.mark.parametrize("N,n", [(1, 16), (2, 8), (3, 4)])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("amplitude", [0.5, 8.0])
    def test_matches_dense_eigvalsh(self, N, n, m, amplitude):
        grid = TorusGrid(N=N, n=n, L=2 * np.pi)
        basis, poly = polyharmonic_setup(N, m)
        rng = np.random.default_rng(100 * N + 10 * m + int(amplitude))
        matrix_base = constant_field(basis, random_hermitian_pd(rng, basis.nu))
        _assert_spectrum_matches_dense(poly, box_perturbed_field(grid, basis, poly, amplitude, 0.5), grid)
        _assert_spectrum_matches_dense(
            matrix_base, _off_diagonal_jump(grid, basis, matrix_base, amplitude, rng), grid
        )

    @pytest.fixture(scope="class")
    def clip_experiment(self):
        exp = load_config(default_config_path()).clip.experiment
        return exp, _clip_target_field(exp)

    @pytest.mark.parametrize("level", [4, 64])
    def test_clip_levels(self, clip_experiment, level):
        exp, degenerate = clip_experiment
        _assert_spectrum_matches_dense(exp.reference, clip_coefficients(degenerate, level), exp.grid)

    def test_empty_support(self, clip_experiment):
        # clip level 1: K = 0, no values, scale 0, and every check is exactly 0
        exp, degenerate = clip_experiment
        at = clip_coefficients(degenerate, 1)
        assert support_values(exp.reference, at, exp.grid).size == 0
        # the dense spectrum is roundoff, below the absolute branch's 1e-14 as well
        direct = direct_difference(exp.reference, at, exp.grid)
        assert singular_spectrum(direct, hermitian=True)[0] <= 1e-14
        art = build_artifacts(exp, a_tilde=at)
        assert art.delta_singular_values.size == 0
        assert art.fact_residual == 0.0 and art.deift_res == 0.0

    def test_wrong_spectrum_shows_in_the_residual(self, monkeypatch):
        # the chain does not see the spectrum's own steps; its moments tr((Xi G2)^p) do
        config = load_config(default_config_path())
        exp = next(e for e in config.experiments if e.id == "n2m1_bump_a05")
        assert build_artifacts(exp).fact_residual <= 1e-10
        spectrum = schatten_analysis.support_spectrum
        monkeypatch.setattr(schatten_analysis, "support_spectrum", lambda *args: spectrum(*args) * (1 + 1e-6))
        assert build_artifacts(exp).fact_residual >= 1e-7


def _no_lapack_cholesky(g):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


@functools.cache
def _bundled_at_1024(exp_id, center=None):
    """(a, at, grid) of a bundled N = 2 experiment at n = 32, P = 1024, its impurity moved to ``center``
    if one is given, and the dense oracle's spectrum."""
    exp = next(e for e in load_config(default_config_path()).experiments if e.id == exp_id)
    grid = TorusGrid(N=2, n=32, L=exp.grid.L)
    exp = recentered(dataclasses.replace(exp, grid=grid), center)
    a, at = exp.reference, perturbed_coefficient(exp)
    return a, at, grid, singular_spectrum(direct_difference(a, at, grid), hermitian=True)


class TestSpectrumFactor:
    def test_pivoted_factor_of_a_rank_deficient_matrix(self):
        # G = X X*, complex, 60 x 60 of rank 20: R R* = G for R = P L, r at least the rank
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 20)) + 1j * rng.normal(size=(60, 20))
        g = x @ np.conj(x.T)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(g)
        factor, order = pivoted_cholesky(g.copy())
        r = factor[np.argsort(order)]
        assert 20 <= r.shape[1] <= 60 and np.all(np.triu(factor, 1) == 0.0)
        assert np.linalg.norm(r @ np.conj(r.T) - g) <= 1e-13 * np.linalg.norm(g)

    def test_pivoted_factor_stops_at_once_on_zero(self):
        factor, order = pivoted_cholesky(np.zeros((5, 5), dtype=complex))
        assert factor.shape == (5, 0) and sorted(order) == list(range(5))

    def test_pivoted_path_matches_lapack_and_dense(self, monkeypatch):
        # n2m1_bump_a05 at its bundled n = 16, where LAPACK factors G, with the pivoted path forced
        exp = next(e for e in load_config(default_config_path()).experiments if e.id == "n2m1_bump_a05")
        a, at, grid = exp.reference, perturbed_coefficient(exp), exp.grid
        lapack = support_values(a, at, grid)
        dense = singular_spectrum(direct_difference(a, at, grid), hermitian=True)
        monkeypatch.setattr(np.linalg, "cholesky", _no_lapack_cholesky)
        pivoted = support_values(a, at, grid)
        assert pivoted.size <= lapack.size == a.basis.nu * _support_size(a, at)
        _assert_norms_match(pivoted, lapack)
        _assert_norms_match(pivoted, dense)

    @pytest.mark.parametrize(
        "exp_id,pivoted,center",
        [
            ("n2m1_bump_a05", False, None),
            ("n2m1_bump_a05", True, None),
            ("n2m1_box_a8", False, None),
            ("n2m1_bump_a05", False, (0.1, 0.0)),
        ],
        ids=["n2m1_bump_a05-False", "n2m1_bump_a05-True", "n2m1_box_a8-False", "n2m1_bump_a05-off_lattice"],
    )
    def test_matches_dense_at_p_1024(self, exp_id, pivoted, center, monkeypatch):
        # past the sweep's P <= 64, the bump both as LAPACK selects its factor and with the pivoted one
        # forced: here LAPACK refuses G and the pivoted factor finds r = 381 of nu K = 386, but its
        # verdict on a rank-deficient G may differ on another BLAS. Those run the real pass, the bump
        # about a lattice point and the box about a half-cell; the bump moved off the lattice, to
        # (0.1, 0), runs the complex one, where LAPACK refuses G too and r = 388 of nu K = 392
        a, at, grid, dense = _bundled_at_1024(exp_id, center)
        fixed = None if center else (1 if exp_id == "n2m1_bump_a05" else 0)
        assert impurity_support(a, at, grid).fixed == fixed
        if pivoted:
            monkeypatch.setattr(np.linalg, "cholesky", _no_lapack_cholesky)
        _assert_norms_match(support_values(a, at, grid), dense)

    def test_wide_impurity_matches_dense(self):
        # a box of width L covers the torus: K = P, nu K = 2 P, and G = a G2 a has rank at most P
        exp = next(e for e in load_config(default_config_path()).experiments if e.id == "n2m1_bump_a05")
        grid = TorusGrid(N=2, n=8, L=exp.grid.L)
        exp = dataclasses.replace(exp, grid=grid)
        box = PerturbationSpec("box", exp.perturbation.center, width=(grid.L, grid.L))
        a, at = exp.reference, perturbed_coefficient(exp, indicator_profile(box, grid))
        assert a.basis.nu * _support_size(a, at) == 2 * grid.total_points
        support = support_values(a, at, grid)
        assert support.size < 2 * grid.total_points
        _assert_norms_match(support, singular_spectrum(direct_difference(a, at, grid), hermitian=True))


def _core_case(N, n, m, amplitude, seed):
    """(a, at, grid, imp, U*) for a matrix base with an off-diagonal box jump; U* on every column."""
    grid = TorusGrid(N=N, n=n, L=2 * np.pi)
    basis = enumerate_basis(N, m)
    rng = np.random.default_rng(seed)
    a = constant_field(basis, random_hermitian_pd(rng, basis.nu))
    at = _off_diagonal_jump(grid, basis, a, amplitude, rng)
    imp = impurity_support(a, at, grid)
    _, _, r, d, _ = channel_resolvent_symbols(a, grid)
    return a, at, grid, imp, circulant_lookup((d * r[0])[:, None], grid, rows=imp.points)


def _perturbed_core(imp, seed):
    """Xi plus a random Hermitian 1e-6 ||Xi||: a core the checks must measure, not round."""
    xi = support_core(imp)[0]
    noise = random_hermitian(np.random.default_rng(seed), xi.shape[0])
    return xi + 1e-6 * np.abs(xi).max() * noise


class TestSupportCore:
    @pytest.mark.parametrize("N,n,m", [(1, 16, 1), (1, 16, 2), (2, 8, 1), (2, 8, 2), (3, 4, 1)])
    @pytest.mark.parametrize("amplitude", [0.5, 8.0])
    def test_matches_dense_difference(self, N, n, m, amplitude):
        a, at, grid, imp, u_star = _core_case(N, n, m, amplitude, 10 * N + m)
        core = np.conj(u_star.T) @ in_point_basis(imp, support_core(imp)[0]) @ u_star
        dense = direct_difference(a, at, grid)
        # the dense LU's own roundoff grows with ||Ht||, up to 1e-12 relative here
        assert np.abs(core - dense).max() <= 1e-11 * np.abs(dense).max()

    @pytest.mark.parametrize("center", [None, (0.1, 0.0)], ids=["real", "complex"])
    def test_one_plus_zw_is_the_pointwise_product(self, center):
        # 1 + Z W, formed as (W Z)*, against Z W summed point by point: on the bundled bump's support,
        # in the real pass, and with the bump off the lattice, in the complex one
        exp = recentered(_bundled("n2m1_bump_a05"), center)
        imp = impurity_support(exp.reference, perturbed_coefficient(exp), exp.grid)
        assert (imp.fixed is None) == (center is not None)
        k = imp.points.size
        nu_k = imp.w.shape[1] * k
        z = support_kernel(imp, "z").reshape(nu_k, -1, k)
        expected = np.einsum("rbk,kbc->rck", z, imp.w).reshape(nu_k, nu_k) + np.eye(nu_k)
        assert np.abs(one_plus_zw(imp) - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("N,n,m", [(1, 16, 2), (2, 8, 1), (3, 4, 1)])
    def test_certificate_is_the_dense_residual(self, N, n, m):
        # ||(Ht+1)(r + U Xi U*) - 1||_F with Ht and r dense, for a core off by 1e-6
        a, at, grid, imp, u_star = _core_case(N, n, m, 2.0, N + m)
        xi = _perturbed_core(imp, N)
        h_tilde = assemble_variable_coefficient(at, grid).dense()
        r = resolvent(assemble_constant_coefficient(a, grid).dense())
        x = (h_tilde + np.eye(grid.total_points)) @ (r + np.conj(u_star.T) @ in_point_basis(imp, xi) @ u_star)
        dense = np.linalg.norm(x - np.eye(grid.total_points))
        g2 = support_kernel(imp, "g2")
        assert abs(resolvent_certificate(imp, xi, g2) - dense) <= 1e-6 * dense
        assert resolvent_certificate(imp, support_core(imp)[0], g2) <= 1e-12

    @pytest.mark.parametrize("N,n,m", [(1, 16, 2), (2, 8, 1), (3, 4, 1)])
    def test_chain_gap_bounds_the_dense_gap(self, N, n, m):
        # ||U Xi U* + left* V right||_F with both ends and V dense, for a core off by 1e-6, is at most the
        # chain gap, which is max_xi |u(xi)|^2 ||X||_F for X = Xi + (F* S)*, |u|^2 from the symbols
        a, at, grid, imp, u_star = _core_case(N, n, m, 2.0, N + m)
        xi = _perturbed_core(imp, N)
        left = channel_solve(assemble_derivative_factor(sqrt_field(at), grid).dense())
        right = channel_solve(assemble_derivative_factor(sqrt_field(a), grid).dense())
        v = relative_perturbation_of(a, at)
        chain = np.conj(left.T) @ block_multiplication_matrix(v, grid) @ right
        dense = np.linalg.norm(np.conj(u_star.T) @ in_point_basis(imp, xi) @ u_star + chain)
        v = v.reshape(imp.at.shape)
        # the chain reads the core's solve S = (1 + Z W)^{-1} a, which the perturbation leaves exact
        core, solved = support_core(imp)
        gap = chain_gap(imp, xi, solved, v)
        # X formed point by point as the chain forms it: X is a 1e-6 cancellation, so the same sums in
        # another order (a dense block-diagonal F) move its norm by up to 1.1e-11 here
        field = imp.at_inv_sqrt[imp.points] @ v[imp.points] @ imp.a_sqrt
        x = xi + np.conj(pointwise_rows(np.conj(field.transpose(0, 2, 1)), solved).T)
        _, _, r, d, _ = channel_resolvent_symbols(a, grid)
        u_max = np.max(np.sum(np.abs(d * r[0]) ** 2, axis=0))
        assert dense <= gap <= (1 + 1e-12) * u_max * np.linalg.norm(x)
        assert chain_gap(imp, core, solved, v) <= 1e-12

    def test_certificate_ties_g1_to_its_symbol(self, monkeypatch):
        # Y is roundoff on a correct core, so the norm tr(Y* G1 Y G2) cannot see a wrong G1;
        # tr(G1) against K sum_xi |d(xi)|^2 / P can
        _, _, _, imp, _ = _core_case(2, 8, 1, 2.0, 3)
        xi, g2 = support_core(imp)[0], support_kernel(imp, "g2")
        assert resolvent_certificate(imp, xi, g2) <= 1e-12

        def g1_scaled(imp, name):
            return support_kernel(imp, name) * (1 + 1e-9 if name == "g1" else 1)

        monkeypatch.setattr(schatten_analysis, "support_kernel", g1_scaled)
        assert resolvent_certificate(imp, xi, g2) == pytest.approx(1e-9, rel=1e-3)

    def test_chain_gap_counts_v_off_the_support(self):
        # V is 0 off the support by construction; a value there adds ||V||_F / 4, the bound on its part
        a, at, grid, imp, _ = _core_case(2, 8, 1, 2.0, 3)
        xi, solved = support_core(imp)
        v = relative_perturbation_of(a, at).reshape(imp.at.shape)
        outside = np.setdiff1d(np.arange(grid.total_points), imp.points)[0]
        v[outside] = np.eye(a.basis.nu)
        gap = chain_gap(imp, xi, solved, v)
        assert abs(gap - 0.25 * np.sqrt(a.basis.nu)) <= 1e-12

    @pytest.mark.parametrize("N,n,m", [(1, 16, 2), (2, 8, 1), (3, 4, 1)])
    def test_moments_gap(self, N, n, m):
        a, at, grid, imp, _ = _core_case(N, n, m, 2.0, N + m)
        xi, g2 = support_core(imp)[0], support_kernel(imp, "g2")
        values = singular_spectrum(direct_difference(a, at, grid), hermitian=True)
        assert moments_gap(xi, g2, values) <= 1e-12
        # values 1e-6 too large: the 8th moment is off by 8e-6
        assert moments_gap(xi, g2, values * (1 + 1e-6)) == pytest.approx(8e-6, rel=1e-3)


class TestSupportRowGap:
    @pytest.mark.parametrize("N,n,m", [(1, 32, 1), (2, 8, 1), (2, 8, 2)])
    def test_equals_full_row_gap(self, N, n, m):
        # against direct + left* V right over every row, with the dense left and right ends;
        # a random Hermitian ``direct`` keeps the gap far from roundoff
        grid = TorusGrid(N=N, n=n, L=2 * np.pi)
        basis = enumerate_basis(N, m)
        rng = np.random.default_rng(N + 2 * m)
        a = constant_field(basis, random_hermitian_pd(rng, basis.nu))
        at = box_perturbed_field(grid, basis, a, 2.0, rel_width=0.5)
        left = channel_solve(assemble_derivative_factor(sqrt_field(at), grid).dense())
        right = channel_solve(assemble_derivative_factor(sqrt_field(a), grid).dense())
        v = relative_perturbation_of(a, at)
        full_v = block_multiplication_matrix(v, grid)
        direct = random_hermitian(rng, grid.total_points)
        full = np.linalg.norm(direct + np.conj(left.T) @ full_v @ right)
        support = factorization_residual(a, v, grid, direct, left, 1.0)
        assert abs(support - full) <= 1e-12 * full


def _stripe_experiment(m, n, width, perturbation, base_matrix=None):
    """N = 2 on L = 2 pi with a box of x_1 width ``width`` spanning x_2: the stripe oracle's case."""
    L = 2 * np.pi
    exp = {
        "id": "stripe",
        "N": 2,
        "m": m,
        "grid": {"n": n, "L": L},
        "base": "polyharmonic",
        "perturbation": {"shape": "box", "center": [0.0, 0.0], "width": [width, L], **perturbation},
        "p_values": [4, 8],
    }
    if base_matrix is not None:
        exp.update(base="matrix", base_matrix=base_matrix)
    return parse_config({"experiments": [exp]}).experiments[0]


# (m, x_1 width, jump, base matrix): both jump signs at m = 1 and 2, and a matrix base with a jump
# that is no multiple of it; m = 2 on a stripe half as wide (nu K = 384, not 768) for the suite's time
STRIPES = {
    "m1_softer": (1, np.pi / 2, {"amplitude": -0.5}, None),
    "m1_stiffer": (1, np.pi / 2, {"amplitude": 1.0}, None),
    "m2_softer": (2, np.pi / 4, {"amplitude": -0.5}, None),
    "m2_stiffer": (2, np.pi / 4, {"amplitude": 1.0}, None),
    "matrix_base": (1, np.pi / 2, {"amplitude_matrix": [[0.5, -0.3], [-0.3, 1.0]]}, [[2.0, 0.5], [0.5, 1.0]]),
}


class TestStripeOracle:
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_the_dense_route(self, m):
        # to the dense inverses' own roundoff, 4.8e-13 of the largest value at m = 2 here
        exp = _stripe_experiment(m, 8, np.pi / 2, {"amplitude": 1.0})
        at = perturbed_coefficient(exp)
        dense = singular_spectrum(direct_difference(exp.reference, at, exp.grid), hermitian=True)
        values = stripe_spectrum(exp.reference, at, exp.grid)
        assert values.shape == dense.shape and np.abs(values - dense).max() <= 1e-11 * dense[0]

    @pytest.mark.parametrize("case", STRIPES)
    def test_support_route_matches_at_n_32(self, case):
        # n^(N-1) = 32 blocks of 32 x 32 against a support of 8 or 4 columns of 32 points
        m, width, perturbation, base_matrix = STRIPES[case]
        exp = _stripe_experiment(m, 32, width, perturbation, base_matrix)
        values = stripe_spectrum(exp.reference, perturbed_coefficient(exp), exp.grid)
        rows = impurity_experiment(exp)
        assert [row.p for row in rows] == [4.0, 8.0, np.inf]
        for row in rows:
            assert abs(row.lhs - lp_norm_of_pointwise(values, 1.0, row.p)) <= 1e-12 * row.lhs, row


def _capped_config(N, n, max_dim):
    """One polyharmonic m = 1 experiment on an n^N grid under ``max_dim``."""
    exp = {
        "id": f"capped_{N}d",
        "N": N,
        "m": 1,
        "grid": {"n": n, "L": 4.0},
        "base": "polyharmonic",
        "perturbation": {"shape": "ball", "center": [0.0] * N, "radius": 1.0, "amplitude": 0.5},
        "p_values": [4],
    }
    return parse_config({"experiments": [exp], "max_dim": max_dim})


class TestDeift:
    def test_scalar_one(self):
        assert deift_of(np.array([[1.0]])) < 1e-15

    def test_zero_matrix(self):
        assert deift_of(np.zeros((4, 6))) < 1e-15

    def test_random_rectangular_battery(self):
        rng = np.random.default_rng(45)
        shapes = [(20, 20), (20, 7), (7, 20), (13, 13), (1, 16), (16, 1)]
        for _ in range(20):
            rows, cols = shapes[int(rng.integers(0, len(shapes)))]
            s = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            assert deift_of(s) < 1e-12

    def test_compares_against_the_given_solve(self):
        grid = TorusGrid(N=1, n=32, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        at = bump_perturbed_field(grid, basis, a, amplitude=0.75, rel_radius=0.125)
        t_tilde = assemble_derivative_factor(sqrt_field(at), grid).dense()
        left = channel_solve(t_tilde)
        r_in = resolvent(np.conj(t_tilde.T) @ t_tilde)
        assert deift_residual(t_tilde, left, r_in) < 1e-10
        assert deift_residual(t_tilde, left * (1 + 1e-6), r_in) >= 1e-7

    def test_compares_against_the_given_resolvent(self):
        # r_in is taken as given: the resolvent the harness feeds in, not a fresh solve
        grid = TorusGrid(N=1, n=32, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        at = bump_perturbed_field(grid, basis, a, amplitude=0.75, rel_radius=0.125)
        t_tilde = assemble_derivative_factor(sqrt_field(at), grid).dense()
        left = channel_solve(t_tilde)
        r_in = resolvent(assemble_variable_coefficient(at, grid).dense())
        assert deift_residual(t_tilde, left, r_in) < 1e-10
        assert deift_residual(t_tilde, left, r_in * (1 + 1e-6)) >= 1e-7


def _factor_case(N, m):
    """(dense T~, T~*T~) for a bump on an N-dimensional polyharmonic reference."""
    grid = TorusGrid(N=N, n=32 if N == 1 else 8, L=2 * np.pi)
    basis, a = polyharmonic_setup(N, m)
    at = bump_perturbed_field(grid, basis, a, amplitude=0.75, rel_radius=0.25)
    t_tilde = assemble_derivative_factor(sqrt_field(at), grid).dense()
    return t_tilde, assemble_variable_coefficient(at, grid).dense()


class TestDeiftOperator:
    @pytest.mark.parametrize("N,m", [(1, 1), (2, 1)])
    def test_operator_sensitivity(self, N, m):
        # the checks of TestDeift, on the dense T~ of a derivative factor
        t_tilde, h_tilde = _factor_case(N, m)
        left, r_in = channel_solve(t_tilde), resolvent(h_tilde)
        assert deift_residual(t_tilde, left, r_in) < 1e-10
        assert deift_residual(t_tilde, left * (1 + 1e-6), r_in) >= 1e-7
        assert deift_residual(t_tilde, left, r_in * (1 + 1e-6)) >= 1e-7


def _residual_inputs(x):
    """(residual, X) for both residuals, on inputs whose X is ``x``.

    The factorization gap is direct + left* V right; with V = 0 it is ``direct``
    = x exactly. The Deift X is S* left + r_in - 1; with S = 0 and r_in = x + 1
    it is (x + 1) - 1, x up to the roundoff of the shift, returned as formed.
    """
    n = x.shape[0]
    grid = TorusGrid(N=1, n=n, L=2 * np.pi)
    _, a = polyharmonic_setup(1, 1)
    zero_v, zero_left = np.zeros((n, 1, 1)), np.zeros((n, n), dtype=complex)
    fact = factorization_residual(a, zero_v, grid, x, zero_left, 1.0)
    eye = np.eye(n)
    r_in = x + eye
    zeros = np.zeros((1, n), dtype=complex)
    deift = deift_residual(zeros, zeros, r_in)
    return [(fact, x), (deift, r_in - eye)]


class TestResidualNorm:
    def test_is_frobenius_above_operator_norm(self):
        # both residuals are the l2 norm of X's singular values, never below the largest
        rng = np.random.default_rng(46)
        cases = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in (12, 20, 6, 40)]
        # residuals live at roundoff scale
        cases.append(1e-15 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))))
        # Hermitian plus a small anti-Hermitian part: a Hermitian-part norm would miss it
        h = random_hermitian_pd(rng, 16)
        k = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        skew = 1e-3 * (k - np.conj(k.T))
        cases.append(h + skew)
        cases.append(skew)
        for case in cases:
            for residual, x in _residual_inputs(case):
                values = singular_spectrum(x)
                frobenius = float(np.linalg.norm(values))
                assert abs(residual - frobenius) <= 1e-12 * frobenius
                assert residual >= values[0]
        # the anti-Hermitian part alone shows, and adds to the Hermitian part's norm
        (fact_skew, _), _ = _residual_inputs(skew)
        assert fact_skew >= operator_norm(skew) > 0.0
        (fact_sum, _), _ = _residual_inputs(h + skew)
        hermitian_part = np.linalg.norm(h + 0.5 * (skew + np.conj(skew.T)))
        assert fact_sum - hermitian_part > 1e-9 * hermitian_part


class TestFactorization:
    def test_equal_coefficients_absolute_residual(self):
        grid = TorusGrid(N=1, n=32, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        at = box_perturbed_field(grid, basis, a, amplitude=0.0)
        assert factorization_of(a, at, grid, direct_difference(a, at, grid)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_dimensional_bump(self, m):
        L = 2 * np.pi if m == 1 else 8 * np.pi
        grid = TorusGrid(N=1, n=64, L=L)
        basis, a = polyharmonic_setup(1, m)
        at = bump_perturbed_field(grid, basis, a, amplitude=0.75, rel_radius=0.125)
        assert factorization_of(a, at, grid, direct_difference(a, at, grid)) < 1e-10

    def test_two_dimensional_box(self):
        grid = TorusGrid(N=2, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(2, 1)
        at = box_perturbed_field(grid, basis, a, amplitude=0.5, rel_width=0.25)
        assert factorization_of(a, at, grid, direct_difference(a, at, grid)) < 1e-9

    def test_translation_invariance(self):
        grid = TorusGrid(N=1, n=32, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        at0 = bump_perturbed_field(grid, basis, a, 0.6, 0.2, center=[0.0])
        r0 = factorization_of(a, at0, grid, direct_difference(a, at0, grid))
        shift = 5 * grid.h
        at1 = bump_perturbed_field(grid, basis, a, 0.6, 0.2, center=[shift])
        r1 = factorization_of(a, at1, grid, direct_difference(a, at1, grid))
        assert abs(r0 - r1) < 1e-12

    def test_compares_against_the_given_difference(self):
        grid = TorusGrid(N=1, n=32, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        at = bump_perturbed_field(grid, basis, a, amplitude=0.75, rel_radius=0.125)
        direct = direct_difference(a, at, grid)
        shifted = direct + 1e-6 * operator_norm(direct) * np.eye(direct.shape[0])
        assert factorization_of(a, at, grid, shifted) >= 1e-7


class TestPolar:
    def test_residuals(self):
        grid = TorusGrid(N=1, n=32, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        check = polar_decomposition_check(a, grid)
        assert check.factor_residual < 1e-9
        assert check.isometry_residual < 1e-9

    def test_isometric_off_kernel(self):
        # the factor kills constants; on mean-zero functions U*U acts as identity
        grid = TorusGrid(N=1, n=32, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        check = polar_decomposition_check(a, grid)
        u_iso = check.partial_isometry
        rng = np.random.default_rng(46)
        u = rng.normal(size=32) + 1j * rng.normal(size=32)
        u -= u.mean()
        out = np.conj(u_iso.T) @ (u_iso @ u)
        assert np.linalg.norm(out - u) < 1e-9

    def test_gram_sqrt_psd_hermitian(self):
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        t = assemble_derivative_factor(sqrt_field(a), grid).dense()
        gram_sqrt = matrix_function(t @ np.conj(t.T), np.sqrt, spectrum_floor=0.0)
        assert np.abs(gram_sqrt - np.conj(gram_sqrt.T)).max() < 1e-12
        assert np.linalg.eigvalsh(gram_sqrt).min() >= -1e-12


def _kernel_prediction(kernel, grid, nu):
    n = grid.n
    idx = np.indices(grid.spatial_shape).reshape(grid.N, -1)
    dif = (idx[:, :, None] - idx[:, None, :]) % n
    kmat = kernel[tuple(dif)]  # (P, P, nu, nu)
    pts = grid.total_points
    pred = np.zeros((nu * pts, nu * pts), dtype=complex)
    for al in range(nu):
        for be in range(nu):
            pred[al * pts : (al + 1) * pts, be * pts : (be + 1) * pts] = (
                kmat[..., al, be] * grid.cell_volume
            )
    return pred


class TestConvolutionKernel:
    def test_zero_profile_gives_zero_kernel(self):
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        k = convolution_kernel(sqrt_field(a), grid, lambda t: 0.0 * np.asarray(t))
        assert np.abs(k).max() == 0.0

    @pytest.mark.parametrize("N,m,n", [(1, 1, 32), (2, 1, 8)])
    def test_kernel_matches_dense_spectral_function(self, N, m, n):
        grid = TorusGrid(N=N, n=n, L=2 * np.pi)
        basis, a = polyharmonic_setup(N, m)
        b = sqrt_field(a)
        gram = assemble_channel_gram(b, grid).dense()
        dense = spectral_profile_operator(gram, resolvent_profile)
        pred = _kernel_prediction(convolution_kernel(b, grid, resolvent_profile), grid, basis.nu)
        assert np.abs(pred - dense).max() < 1e-9

    def test_translation_invariance_of_dense_matrix(self):
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        gram = assemble_channel_gram(sqrt_field(a), grid).dense()
        dense = spectral_profile_operator(gram, resolvent_profile)
        for shift in (1, 3, 7):
            rolled = np.roll(np.roll(dense, shift, axis=0), shift, axis=1)
            assert np.abs(rolled - dense).max() < 1e-10

    def test_hilbert_schmidt_norm_against_kernel_double_sum(self):
        grid = TorusGrid(N=1, n=24, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        b = sqrt_field(a)
        rng = np.random.default_rng(47)
        v_vals = rng.normal(size=(*grid.spatial_shape, 1, 1)) + 1j * rng.normal(
            size=(*grid.spatial_shape, 1, 1)
        )
        gram = assemble_channel_gram(b, grid).dense()
        product = block_multiplication_matrix(v_vals, grid) @ spectral_profile_operator(
            gram, resolvent_profile
        )
        hs_from_svd = schatten_norm(product, 2)
        kernel = convolution_kernel(b, grid, resolvent_profile)
        idx = np.arange(grid.n)
        dif = (idx[:, None] - idx[None, :]) % grid.n
        kmat = kernel[dif]  # (P, P, 1, 1)
        combined = np.einsum("xab,xybc->xyac", v_vals, kmat)
        hs_from_kernel = np.sqrt(grid.cell_volume**2 * np.sum(np.abs(combined) ** 2))
        assert hs_from_svd == pytest.approx(hs_from_kernel, rel=1e-8)

    def test_profile_of_gram_has_half_norm_bound(self):
        for N, m, n in [(1, 1, 32), (2, 1, 8)]:
            grid = TorusGrid(N=N, n=n, L=2 * np.pi)
            basis, a = polyharmonic_setup(N, m)
            gram = assemble_channel_gram(sqrt_field(a), grid).dense()
            dense = spectral_profile_operator(gram, resolvent_profile)
            assert operator_norm(dense) <= 0.5 + 1e-10


def operator_norm_ratio(ht, h, v_sup):
    """(lhs, ratio) of ||resolvent difference|| <= (1/4) sup ||V||, as the harness builds it.

    The 1/4 is the product of the two factors of sup g = 1/2 in the
    factorized difference.
    """
    lhs = operator_norm(resolvent_difference(ht.dense(), h.dense()))
    return lhs, _ratio(lhs, v_sup, 0.25)


class TestOperatorNormCheck:
    def test_equal_coefficients(self):
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        at = box_perturbed_field(grid, basis, a, amplitude=0.0)
        h = assemble_constant_coefficient(a, grid)
        ht = assemble_variable_coefficient(at, grid)
        lhs, ratio = operator_norm_ratio(ht, h, v_sup=0.0)
        assert lhs < 1e-12 and ratio == 0.0

    def test_bump_perturbation_bound(self):
        grid = TorusGrid(N=1, n=48, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        at = bump_perturbed_field(grid, basis, a, amplitude=3.0, rel_radius=0.2)
        v_sup = matrix_field_lp_norm(relative_perturbation_of(a, at), grid.cell_volume, np.inf)
        h = assemble_constant_coefficient(a, grid)
        ht = assemble_variable_coefficient(at, grid)
        lhs, ratio = operator_norm_ratio(ht, h, v_sup=v_sup)
        assert 0.0 < ratio <= 1.0

    def test_global_scaling_is_nearly_sharp(self):
        # coefficient 2a: the bound is attained up to ~3%
        grid = TorusGrid(N=1, n=64, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        at = sampled_field(
            basis, np.broadcast_to(2.0 * a.constant_matrix(), (64, 1, 1)).copy()
        )
        v_sup = matrix_field_lp_norm(relative_perturbation_of(a, at), grid.cell_volume, np.inf)
        h = assemble_constant_coefficient(a, grid)
        ht = assemble_variable_coefficient(at, grid)
        lhs, ratio = operator_norm_ratio(ht, h, v_sup=v_sup)
        assert 0.9 < ratio <= 1.0
