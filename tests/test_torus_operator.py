import numpy as np
import pytest

from schatten_verify import (
    NonPositiveDefiniteError,
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    constant_field,
    enumerate_basis,
    matrix_sqrt,
    monomial_matrix,
    polyharmonic_coefficients,
    sampled_field,
    sqrt_field,
)
from schatten_verify.torus_operator import _derivative_multipliers, _derivative_pipelines
from helpers import bump_perturbed_field, polyharmonic_setup, random_hermitian_pd
from oracles import assemble_channel_gram, derivative_operator, inner, plane_wave


def test_grid_requires_even_n():
    with pytest.raises(ValueError):
        TorusGrid(N=1, n=7, L=1.0)


def test_grid_geometry():
    grid = TorusGrid(N=2, n=8, L=4.0)
    assert grid.h == 0.5
    assert grid.axis()[0] == -2.0
    assert grid.total_points == 64
    assert grid.frequency_axis()[1] == pytest.approx(2 * np.pi / 4.0)


class TestDerivativeStack:
    def test_constant_maps_to_zero(self):
        grid = TorusGrid(N=2, n=8, L=2 * np.pi)
        basis = enumerate_basis(2, 1)
        u = np.full(grid.spatial_shape, 3.7, dtype=complex)
        out = derivative_operator(grid, basis).apply(u)
        assert np.abs(out).max() < 1e-14

    def test_plane_wave_eigenfunction_1d(self):
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis = enumerate_basis(1, 1)
        u = plane_wave(grid, (3,))
        out = derivative_operator(grid, basis).apply(u)
        assert np.abs(out - 3j * u).max() < 1e-12

    def test_plane_wave_channels_match_symbols(self):
        grid = TorusGrid(N=2, n=8, L=2 * np.pi)
        basis = enumerate_basis(2, 2)
        k = (2, -1)
        xi = 2 * np.pi / grid.L * np.asarray(k, float)
        u = plane_wave(grid, k)
        out = derivative_operator(grid, basis).apply(u)
        for c, alpha in enumerate(basis.entries):
            factor = np.prod((1j * xi) ** np.asarray(alpha))
            assert np.abs(out[c] - factor * u).max() < 1e-12

    def test_adjoint_consistency(self):
        # <D u, v> = <u, D* v> for the raw adjoint pipeline that H~ = D* a~ D applies
        rng = np.random.default_rng(30)
        for N, m, n in [(1, 1, 16), (1, 2, 16), (2, 1, 8), (2, 2, 6)]:
            grid = TorusGrid(N=N, n=n, L=3.0)
            basis = enumerate_basis(N, m)
            op = derivative_operator(grid, basis)
            apply_adjoint = _derivative_pipelines(grid, basis)[1]
            u = rng.normal(size=grid.spatial_shape) + 1j * rng.normal(size=grid.spatial_shape)
            v_shape = (basis.nu, *grid.spatial_shape)
            v = rng.normal(size=v_shape) + 1j * rng.normal(size=v_shape)
            given = v.copy()
            lhs = inner(grid, op.apply(u), v)
            rhs = inner(grid, u, apply_adjoint(v))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
            # the adjoint is out of place: the caller's array is left alone
            assert np.array_equal(v, given)

    def test_raw_adjoint_leaves_input_unchanged(self):
        grid = TorusGrid(N=2, n=6, L=3.0)
        basis = enumerate_basis(2, 2)
        _, apply_adjoint = _derivative_pipelines(grid, basis)
        v = np.random.default_rng(31).normal(size=(4, basis.nu, *grid.spatial_shape)).astype(complex)
        given = v.copy()
        out = apply_adjoint(v)
        assert out.shape == (4, 1, *grid.spatial_shape)
        assert np.array_equal(v, given)

    @pytest.mark.parametrize("N, m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)])
    def test_multipliers_are_the_channel_symbols(self, N, m):
        grid = TorusGrid(N=N, n=6, L=3.0)
        basis = enumerate_basis(N, m)
        xi = grid.frequency_points()
        for c, alpha in enumerate(basis.entries):
            symbol = np.prod((1j * xi) ** np.asarray(alpha), axis=-1)
            assert np.allclose(_derivative_multipliers(grid, basis)[c], symbol, rtol=1e-13, atol=0)


class TestConstantOperator:
    def test_multiplier_diagonalization(self):
        grid = TorusGrid(N=1, n=32, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 2)
        op = assemble_constant_coefficient(a, grid)
        worst = 0.0
        for k in range(-16, 16):
            u = plane_wave(grid, (k,))
            expected = float(k) ** 4 * u
            err = np.abs(op.apply(u) - expected).max()
            worst = max(worst, err / max(float(k) ** 4, 1.0))
        assert worst < 1e-10

    def test_constant_function_maps_to_zero(self):
        grid = TorusGrid(N=2, n=8, L=2 * np.pi)
        basis, a = polyharmonic_setup(2, 1)
        op = assemble_constant_coefficient(a, grid)
        u = np.ones(grid.spatial_shape, dtype=complex)
        assert np.abs(op.apply(u)).max() < 1e-13

    def test_dense_hermitian_psd(self):
        grid = TorusGrid(N=2, n=6, L=2 * np.pi)
        basis, a = polyharmonic_setup(2, 1)
        dense = assemble_constant_coefficient(a, grid).dense()
        assert np.abs(dense - np.conj(dense.T)).max() < 1e-10
        assert np.linalg.eigvalsh(dense).min() >= -1e-10

    def test_rejects_indefinite_coefficient(self):
        grid = TorusGrid(N=1, n=8, L=1.0)
        basis = enumerate_basis(1, 1)
        with pytest.raises(NonPositiveDefiniteError):
            assemble_constant_coefficient(constant_field(basis, -np.eye(1)), grid)


class TestVariableOperator:
    def test_constant_samples_match_constant_assembly(self):
        grid = TorusGrid(N=2, n=8, L=2 * np.pi)
        basis, a = polyharmonic_setup(2, 1)
        at = sampled_field(
            basis, np.broadcast_to(a.constant_matrix(), (*grid.spatial_shape, 2, 2)).copy()
        )
        d1 = assemble_constant_coefficient(a, grid).dense()
        d2 = assemble_variable_coefficient(at, grid).dense()
        assert np.abs(d1 - d2).max() <= 1e-10 * np.abs(d1).max()

    def test_linear_in_coefficient(self):
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        at = sampled_field(basis, np.broadcast_to(a.constant_matrix(), (16, 1, 1)).copy())
        at2 = sampled_field(basis, 2.0 * at.values)
        rng = np.random.default_rng(31)
        u = rng.normal(size=16) + 1j * rng.normal(size=16)
        h1 = assemble_variable_coefficient(at, grid).apply(u)
        h2 = assemble_variable_coefficient(at2, grid).apply(u)
        assert np.abs(h2 - 2.0 * h1).max() <= 1e-13 * np.abs(h1).max()

    def test_random_pd_field_dense_hermitian_psd(self):
        rng = np.random.default_rng(32)
        grid = TorusGrid(N=1, n=12, L=2.0)
        basis = enumerate_basis(1, 2)
        vals = np.stack([random_hermitian_pd(rng, 1) for _ in range(12)])
        at = sampled_field(basis, vals)
        dense = assemble_variable_coefficient(at, grid).dense()
        assert np.abs(dense - np.conj(dense.T)).max() < 1e-10
        assert np.linalg.eigvalsh(dense).min() >= -1e-8

    def test_reports_failing_points(self):
        grid = TorusGrid(N=1, n=8, L=1.0)
        basis = enumerate_basis(1, 1)
        vals = np.ones((8, 1, 1), dtype=complex)
        vals[5] = -1.0
        at = sampled_field(basis, vals)
        with pytest.raises(NonPositiveDefiniteError) as err:
            assemble_variable_coefficient(at, grid)
        assert (5,) in err.value.points

    def test_refinement_consistency_smooth_coefficient(self):
        # smooth coefficient + smooth test function: applying the operator on
        # grids n and 2n agrees spectrally fast at shared points
        basis = enumerate_basis(1, 1)
        a = polyharmonic_coefficients(basis)

        def residual(n):
            grid = TorusGrid(N=1, n=n, L=2 * np.pi)
            fine = TorusGrid(N=1, n=2 * n, L=2 * np.pi)
            at_c = bump_perturbed_field(grid, basis, a, amplitude=0.8, rel_radius=0.45)
            at_f = bump_perturbed_field(fine, basis, a, amplitude=0.8, rel_radius=0.45)
            u_c = np.exp(np.sin(grid.points()[..., 0])).astype(complex)
            u_f = np.exp(np.sin(fine.points()[..., 0])).astype(complex)
            out_c = assemble_variable_coefficient(at_c, grid).apply(u_c)
            out_f = assemble_variable_coefficient(at_f, fine).apply(u_f)
            restriction = out_f[::2]
            return np.linalg.norm(out_c - restriction) / np.linalg.norm(restriction)

        # resolved regime: by n = 64 the bump's spectrum has decayed enough
        # for the doubling gain to exceed 10x
        r64, r128 = residual(64), residual(128)
        assert r128 <= r64 / 10.0


class TestFactorAndGram:
    def test_factor_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(33)
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        factor = assemble_derivative_factor(sqrt_field(a), grid)
        for _ in range(5):
            u = rng.normal(size=16) + 1j * rng.normal(size=16)
            tu = factor.apply(u)
            val = inner(grid, tu, tu).real
            assert val >= 0.0

    def test_factor_star_factor_equals_operator(self):
        grid = TorusGrid(N=2, n=6, L=2 * np.pi)
        basis, a = polyharmonic_setup(2, 1)
        t = assemble_derivative_factor(sqrt_field(a), grid).dense()
        h = assemble_constant_coefficient(a, grid).dense()
        assert np.abs(np.conj(t.T) @ t - h).max() <= 1e-10 * np.abs(h).max()

    def test_gram_fourier_blocks_are_rank_one_symbols(self):
        grid = TorusGrid(N=2, n=6, L=2 * np.pi)
        basis, a = polyharmonic_setup(2, 1)
        b = matrix_sqrt(a.constant_matrix())
        gram = assemble_channel_gram(sqrt_field(a), grid)
        for k in [(0, 1), (2, -3), (1, 1)]:
            xi = 2 * np.pi / grid.L * np.asarray(k, float)
            vec = b @ monomial_matrix(xi, basis)  # the vector symbol b xi^(m)
            block = np.outer(vec, np.conj(vec))
            pw = plane_wave(grid, k)
            for beta in range(basis.nu):
                v = np.zeros((basis.nu, *grid.spatial_shape), dtype=complex)
                v[beta] = pw
                out = gram.apply(v)
                expected = block[:, beta][:, None, None] * pw[None]
                assert np.abs(out - expected).max() < 1e-10
            s = np.linalg.svd(block, compute_uv=False)
            assert s[1] <= 1e-10 * s[0]

    def test_singular_values_of_factor_match_gram_eigenvalues(self):
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 2)
        t = assemble_derivative_factor(sqrt_field(a), grid).dense()
        s = np.linalg.svd(t, compute_uv=False)
        inner_eigs = np.sort(np.linalg.eigvalsh(np.conj(t.T) @ t))[::-1]
        outer_eigs = np.sort(np.linalg.eigvalsh(t @ np.conj(t.T)))[::-1][: len(s)]
        assert np.allclose(s**2, inner_eigs, atol=1e-8)
        assert np.allclose(s**2, outer_eigs, atol=1e-8)


class TestMaterialize:
    def test_identity_pipeline(self):
        grid = TorusGrid(N=1, n=8, L=1.0)
        from schatten_verify import LinearOperatorRep

        op = LinearOperatorRep(grid, 1, 1, lambda u: u)
        assert np.allclose(op.dense(), np.eye(8))

    def test_block_multiplication_matches_blockwise_loop(self):
        # block (alpha, beta) is the diagonal of the field entry over the points, written one block at a time
        from schatten_verify import block_multiplication_matrix

        grid = TorusGrid(N=2, n=4, L=1.0)
        rng = np.random.default_rng(32)
        pts, nu = grid.total_points, 3
        field = rng.normal(size=(*grid.spatial_shape, nu, nu)) + 1j * rng.normal(size=(*grid.spatial_shape, nu, nu))
        for values in (field, field[0, 0]):  # a (nu, nu) constant is broadcast over the points
            flat = np.broadcast_to(values, (*grid.spatial_shape, nu, nu)).reshape(pts, nu, nu)
            expected = np.zeros((nu * pts, nu * pts), dtype=complex)
            for al in range(nu):
                for be in range(nu):
                    expected[al * pts : (al + 1) * pts, be * pts : (be + 1) * pts] = np.diag(flat[:, al, be])
            assert np.array_equal(block_multiplication_matrix(values, grid), expected)

    def test_constant_coefficient_matrix_is_circulant(self):
        grid = TorusGrid(N=1, n=8, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        dense = assemble_constant_coefficient(a, grid).dense()
        for i in range(8):
            for j in range(8):
                assert dense[i, j] == pytest.approx(dense[(i + 1) % 8, (j + 1) % 8], abs=1e-12)

    @pytest.mark.parametrize("N,m,n", [(1, 1, 16), (1, 2, 16), (2, 1, 8), (3, 1, 4)])
    def test_batched_dense_matches_column_apply(self, N, m, n):
        grid = TorusGrid(N=N, n=n, L=3.0)
        basis = enumerate_basis(N, m)
        rng = np.random.default_rng(31)
        a = constant_field(basis, random_hermitian_pd(rng, basis.nu))
        at = bump_perturbed_field(grid, basis, a, amplitude=0.75, rel_radius=0.3)
        for op in (
            assemble_constant_coefficient(a, grid),
            assemble_variable_coefficient(at, grid),
            assemble_derivative_factor(sqrt_field(at), grid),
            assemble_channel_gram(sqrt_field(at), grid),
        ):
            # reference: one apply per point-basis vector
            columns = []
            for j in range(op.in_dim):
                e = np.zeros(op.in_dim, dtype=complex)
                e[j] = 1.0
                columns.append(op.apply(e).reshape(op.out_dim))
            reference = np.stack(columns, axis=1)
            assert op.dense().shape == reference.shape
            assert np.abs(op.dense() - reference).max() <= 1e-13 * np.abs(reference).max()


class TestPointwiseField:
    @pytest.mark.parametrize("N,m,n", [(1, 1, 16), (1, 2, 16), (2, 1, 8), (2, 2, 8), (3, 1, 4)])
    def test_matches_einsum(self, N, m, n):
        # the per-point product, one matmul: the dense route's on the coefficient fields, and the
        # support pass's on the rows of a channel-major stack, for complex fields and a constant
        # one broadcast over the points. Bit for bit where nu = 1: H~ and its LU solve keep their
        # arithmetic, and with them the roundoff lhs of clip level 1; to roundoff for nu > 1
        from schatten_verify.torus_operator import _pointwise_field, _pointwise_matvec, pointwise_rows

        grid = TorusGrid(N=N, n=n, L=3.0)
        basis = enumerate_basis(N, m)
        nu, k = basis.nu, grid.total_points
        rng = np.random.default_rng(37)

        def complex_normal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        a = constant_field(basis, random_hermitian_pd(rng, nu))
        at = bump_perturbed_field(grid, basis, a, amplitude=0.75, rel_radius=0.3)
        v = complex_normal(3, nu, *grid.spatial_shape)
        flat = v.reshape(3, nu, k)
        pairs = []
        for b in (a, at, sqrt_field(at)):
            field = _pointwise_field(b, grid)
            expected = np.einsum("pab,...bp->...ap", field, flat).reshape(v.shape)
            pairs.append((_pointwise_matvec(field, v, grid), expected))
        rows = complex_normal(nu * k, 5)
        for field in (complex_normal(k, nu, nu), np.broadcast_to(complex_normal(nu, nu), (k, nu, nu))):
            expected = np.einsum("kab,bkj->akj", field, rows.reshape(nu, k, 5)).reshape(rows.shape)
            pairs.append((pointwise_rows(field, rows), expected))
        for got, expected in pairs:
            if nu == 1:
                assert np.array_equal(got, expected)
            else:
                assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
