import numpy as np
import pytest

from schatten_verify import (
    DimensionCapError,
    TorusGrid,
    assemble_channel_gram,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    block_multiplication_matrix,
    channel_solve,
    constant_field,
    constant_resolvent,
    convolution_kernel,
    deift_residual,
    enumerate_basis,
    matrix_field_lp_norm,
    operator_norm,
    polar_decomposition_check,
    relative_perturbation,
    resolvent,
    resolvent_difference,
    sampled_field,
    schatten_norm,
    spectral_profile_operator,
    sqrt_field,
)
from schatten_verify.harness import _ratio
from schatten_verify.norms import resolvent_profile
from schatten_verify.schatten_analysis import _residual_norm, singular_spectrum
from schatten_verify.torus_operator import constant_factor_resolvent

from helpers import (
    box_perturbed_field,
    bump_perturbed_field,
    deift_of,
    direct_difference,
    factorization_of,
    polyharmonic_setup,
    random_hermitian_pd,
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

    def test_multiplier_resolvent_on_plane_waves(self):
        grid = TorusGrid(N=1, n=16, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        op = assemble_constant_coefficient(a, grid)
        res = resolvent(op)
        for k in (0, 1, 5, -7):
            u = grid.plane_wave((k,))
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
            res = resolvent(op)
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
            closed = constant_resolvent(a, grid)
            dense = resolvent(assemble_constant_coefficient(a, grid))
            assert np.abs(closed - dense).max() <= 1e-12

    def test_dimension_cap(self):
        grid = TorusGrid(N=1, n=64, L=2 * np.pi)
        basis, a = polyharmonic_setup(1, 1)
        with pytest.raises(DimensionCapError):
            constant_resolvent(a, grid, cap=32)


class TestConstantFactorResolvent:
    @pytest.mark.parametrize("N,n", [(1, 16), (2, 8), (3, 4)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_matches_channel_solve(self, N, n, m):
        # T (op+1)^{-1} in closed form against the dense solve (TT*+1)^{-1} T
        grid = TorusGrid(N=N, n=n, L=2 * np.pi)
        basis = enumerate_basis(N, m)
        rng = np.random.default_rng(10 * N + m)
        matrix_base = constant_field(basis, random_hermitian_pd(rng, basis.nu))
        for a in (polyharmonic_setup(N, m)[1], matrix_base):
            closed = constant_factor_resolvent(a, grid)
            dense = channel_solve(assemble_derivative_factor(sqrt_field(a), grid).dense())
            assert closed.shape == dense.shape == (basis.nu * grid.total_points, grid.total_points)
            assert np.abs(closed - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_dimension_cap_counts_channels(self):
        # P = 16 fits the cap, the channel side nu * P = 32 does not
        grid = TorusGrid(N=2, n=4, L=2 * np.pi)
        basis, a = polyharmonic_setup(2, 1)
        assert constant_resolvent(a, grid, cap=20).shape == (16, 16)
        with pytest.raises(DimensionCapError) as err:
            constant_factor_resolvent(a, grid, cap=20)
        assert err.value.dim == 32


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
        r_in = resolvent(assemble_variable_coefficient(at, grid))
        assert deift_residual(t_tilde, left, r_in) < 1e-10
        assert deift_residual(t_tilde, left, r_in * (1 + 1e-6)) >= 1e-7


class TestResidualNorm:
    def test_matches_svd_operator_norm(self):
        rng = np.random.default_rng(46)
        cases = []
        for rows, cols in ((12, 12), (20, 7), (7, 20), (40, 40)):
            cases.append(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
        # residuals live at roundoff scale
        cases.append(1e-15 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))))
        # Hermitian plus a small anti-Hermitian part: a Hermitian-part norm would miss it
        h = random_hermitian_pd(rng, 16)
        k = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        skew = 1e-3 * (k - np.conj(k.T))
        cases.append(h + skew)
        cases.append(skew)
        for x in cases:
            svd = operator_norm(x)
            assert abs(_residual_norm(x) - svd) <= 1e-12 * svd
        # the Hermitian part of h + skew under-reports its norm by far more than 1e-12
        hermitian_part = operator_norm(h + 0.5 * (skew + np.conj(skew.T)))
        assert operator_norm(h + skew) - hermitian_part > 1e-9 * hermitian_part


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
        from schatten_verify import matrix_function

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
    lhs = operator_norm(resolvent_difference(ht, h))
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
        v = relative_perturbation(a, at, grid.cell_volume)
        v_sup = matrix_field_lp_norm(v, np.inf)
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
        v = relative_perturbation(a, at, grid.cell_volume)
        v_sup = matrix_field_lp_norm(v, np.inf)
        h = assemble_constant_coefficient(a, grid)
        ht = assemble_variable_coefficient(at, grid)
        lhs, ratio = operator_norm_ratio(ht, h, v_sup=v_sup)
        assert 0.9 < ratio <= 1.0
