import math

import numpy as np
import pytest

from schatten_verify import (
    NonPositiveDefiniteError,
    QuadratureError,
    clip_coefficients,
    coarea_constant,
    constant_field,
    enumerate_basis,
    matrix_sqrt,
    monomial_matrix,
    polyharmonic_coefficients,
    principal_symbol,
    sampled_field,
    sublevel_volume,
)
from schatten_verify.coeff_algebra import field_powers
from schatten_verify.norms import resolvent_profile_norm

from helpers import random_hermitian, random_hermitian_pd
from oracles import lattice_symbol_integral, resolvent_profile, spectral_symbol_lattice


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            nu = int(rng.integers(1, 11))
            a = random_hermitian_pd(rng, nu)
            b = matrix_sqrt(a)
            assert np.linalg.norm(b @ b - a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(b - np.conj(b.T)) <= 1e-12 * np.linalg.norm(b)

    def test_rejects_indefinite(self):
        a = np.diag([1.0, -0.25])
        with pytest.raises(NonPositiveDefiniteError) as err:
            matrix_sqrt(a)
        assert err.value.min_eigenvalue == pytest.approx(-0.25)
        assert err.value.points == []

    def test_field_power_names_failing_points(self):
        vals = np.broadcast_to(np.eye(2), (3, 4, 2, 2)).copy()
        vals[1, 2] = np.diag([1.0, -0.5])
        vals[2, 0] = np.diag([0.0, 1.0])
        with pytest.raises(NonPositiveDefiniteError) as err:
            field_powers(vals, 0.5)
        assert err.value.min_eigenvalue == pytest.approx(-0.5)
        assert err.value.points == [(1, 2), (2, 0)]

    def test_field_power_round_trip(self):
        rng = np.random.default_rng(19)
        for nu in (1, 3, 6):
            a = random_hermitian_pd(rng, nu)
            field = np.stack([random_hermitian_pd(rng, nu) for _ in range(5)])
            for values in (a, field):
                back = field_powers(field_powers(values, 0.5)[0], 2)[0]
                assert np.abs(back - values).max() <= 1e-12 * np.abs(values).max()
            inv_sqrt = field_powers(field, -0.5)[0]
            assert np.abs(inv_sqrt @ field @ inv_sqrt - np.eye(nu)).max() <= 1e-12


class TestClip:
    def test_identity_fixed_point(self):
        basis = enumerate_basis(2, 1)
        field = constant_field(basis, np.eye(2))
        assert np.allclose(clip_coefficients(field, 1).values, np.eye(2))

    def test_diagonal_example(self):
        basis = enumerate_basis(2, 1)
        field = constant_field(basis, np.diag([5.0, 0.01]))
        clipped = clip_coefficients(field, 2)
        assert np.allclose(clipped.values, np.diag([2.0, 0.5]))

    def test_spectrum_lands_in_band(self):
        rng = np.random.default_rng(11)
        basis = enumerate_basis(3, 2)  # nu = 6
        a = random_hermitian(rng, basis.nu)
        a -= 2.0 * np.eye(basis.nu)  # force a negative eigenvalue
        clipped = clip_coefficients(constant_field(basis, a), 10)
        w = np.linalg.eigvalsh(clipped.values)
        assert w.min() >= 0.1 - 1e-12 and w.max() <= 10 + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        basis = enumerate_basis(2, 2)
        field = constant_field(basis, random_hermitian(rng, basis.nu))
        once = clip_coefficients(field, 3)
        twice = clip_coefficients(once, 3)
        assert np.allclose(
            np.linalg.eigvalsh(once.values), np.linalg.eigvalsh(twice.values), atol=1e-12
        )

    def test_converges_to_input_for_pd(self):
        rng = np.random.default_rng(13)
        basis = enumerate_basis(2, 1)
        a = random_hermitian_pd(rng, basis.nu, spread=(0.3, 5.0))
        field = constant_field(basis, a)
        clipped = clip_coefficients(field, 8)  # 8 > 5 and 1/8 < 0.3
        assert np.abs(clipped.values - a).max() < 1e-12

    def test_in_band_points_returned_bit_for_bit(self):
        # only the points it clips are rebuilt from their eigh; the others keep every bit
        rng = np.random.default_rng(14)
        basis = enumerate_basis(2, 1)
        a = random_hermitian_pd(rng, basis.nu, spread=(0.5, 2.0))
        values = np.stack([a, 10.0 * a, a, 0.01 * a])
        clipped = clip_coefficients(sampled_field(basis, values), 4).values
        assert np.array_equal(clipped[[0, 2]], values[[0, 2]])
        w = np.linalg.eigvalsh(clipped[[1, 3]])
        assert np.all(w[0] <= 4 + 1e-12) and np.isclose(w[0].max(), 4) and np.isclose(w[1].min(), 0.25)

    def test_rejects_level_zero(self):
        basis = enumerate_basis(1, 1)
        with pytest.raises(ValueError):
            clip_coefficients(constant_field(basis, np.eye(1)), 0)


class TestSymbols:
    def test_identity_coefficient_single_variable(self):
        basis = enumerate_basis(1, 1)
        assert principal_symbol(np.eye(1), np.array([2.5]), basis) == pytest.approx(6.25)

    def test_identity_coefficient_gives_monomials(self):
        # the identity coefficient makes A the sum of the squared basis monomials
        basis = enumerate_basis(2, 2)
        xi = np.array([1.5, -2.0])
        expected = sum((xi[0] ** alpha[0] * xi[1] ** alpha[1]) ** 2 for alpha in basis.entries)
        assert principal_symbol(np.eye(basis.nu), xi, basis) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_polyharmonic_weights_are_multinomials(self, N):
        # m!/alpha! bit for bit, summing to N^m; at N = 1 the one weight is 1 for any m, and a
        # half-order of 3,000,000 returns at once, as no m! is formed
        for m in range(1, 13):
            basis = enumerate_basis(N, m)
            weights = np.diag(polyharmonic_coefficients(basis).constant_matrix())
            expected = [math.factorial(m) / math.prod(map(math.factorial, alpha)) for alpha in basis.entries]
            assert np.array_equal(weights, expected) and weights.sum() == N**m
        assert polyharmonic_coefficients(enumerate_basis(1, 3_000_000)).constant_matrix() == 1.0

    def test_polyharmonic_squared_norm(self):
        basis = enumerate_basis(2, 1)
        a = polyharmonic_coefficients(basis).constant_matrix()
        assert principal_symbol(a, np.array([3.0, 4.0]), basis) == pytest.approx(25.0)

    def test_principal_symbol_at_zero(self):
        basis = enumerate_basis(2, 2)
        a = polyharmonic_coefficients(basis).constant_matrix()
        assert principal_symbol(a, np.zeros(2), basis) == 0.0

    @pytest.mark.parametrize("N,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_polyharmonic_closed_form(self, N, m):
        basis = enumerate_basis(N, m)
        a = polyharmonic_coefficients(basis).constant_matrix()
        rng = np.random.default_rng(14)
        for xi in rng.normal(size=(10, N)):
            expected = np.sum(xi**2) ** m
            assert principal_symbol(a, xi, basis) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(15)
        basis = enumerate_basis(3, 2)
        a = random_hermitian_pd(rng, basis.nu)
        xi = rng.normal(size=3)
        ratio = principal_symbol(a, 2.0 * xi, basis) / principal_symbol(a, xi, basis)
        assert ratio == pytest.approx(2.0 ** (2 * basis.m), rel=1e-12)

    @pytest.mark.parametrize("N,m", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_equals_the_square_root_form(self, N, m):
        # xi^(m)T a xi^(m) = |a^{1/2} xi^(m)|^2 for a complex Hermitian a, at points of any batch shape
        rng = np.random.default_rng(20 + 3 * N + m)
        basis = enumerate_basis(N, m)
        a = random_hermitian_pd(rng, basis.nu)
        points = rng.normal(size=(4, 5, N))
        vector = monomial_matrix(points, basis) @ matrix_sqrt(a).T
        symbol = principal_symbol(a, points, basis)
        assert symbol.shape == (4, 5) and symbol.dtype == float
        assert np.abs(symbol - np.sum(np.abs(vector) ** 2, axis=-1)).max() <= 1e-12 * symbol.max()

    def test_rejects_a_matrix_of_another_size(self):
        with pytest.raises(ValueError):
            principal_symbol(np.eye(2), np.zeros(2), enumerate_basis(2, 2))


class TestSpectralSymbol:
    def test_zero_frequency_is_zero_matrix(self):
        basis = enumerate_basis(2, 1)
        b = np.eye(basis.nu)
        out = spectral_symbol_lattice(b, np.zeros(2), resolvent_profile, basis)
        assert out.shape == (2, 2) and np.all(out == 0)

    def test_scalar_reduction(self):
        basis = enumerate_basis(1, 2)
        b = np.array([[1.7]])
        xi = np.array([0.9])
        out = spectral_symbol_lattice(b, xi, resolvent_profile, basis)
        a_val = (1.7 * 0.9**2) ** 2
        assert out[0, 0] == pytest.approx(resolvent_profile(a_val), rel=1e-12)

    def test_operator_norm_equals_profile_of_symbol(self):
        rng = np.random.default_rng(16)
        basis = enumerate_basis(2, 2)
        a = random_hermitian_pd(rng, basis.nu)
        xi = rng.normal(size=(10, 2))
        out = spectral_symbol_lattice(matrix_sqrt(a), xi, resolvent_profile, basis)
        top = np.linalg.svd(out, compute_uv=False)[:, 0]
        expected = resolvent_profile(principal_symbol(a, xi, basis))
        assert np.abs(top - expected).max() <= 1e-12

    def test_rank_at_most_one_and_psd(self):
        rng = np.random.default_rng(17)
        basis = enumerate_basis(3, 1)
        b = matrix_sqrt(random_hermitian_pd(rng, basis.nu))
        pts = rng.normal(size=(25, 3))
        lattice = spectral_symbol_lattice(b, pts, resolvent_profile, basis)
        s = np.linalg.svd(lattice, compute_uv=False)
        assert np.all(s[:, 1] <= 1e-12 * np.maximum(s[:, 0], 1e-300))
        w = np.linalg.eigvalsh(lattice)
        assert w.min() >= -1e-12


def test_evaluate_symbol_bundle():
    # the vector symbol a^{1/2} xi^(m), the principal symbol of a and the rank-one symbol at one frequency agree
    rng = np.random.default_rng(18)
    basis = enumerate_basis(2, 1)
    a = random_hermitian_pd(rng, basis.nu)
    b = matrix_sqrt(a)
    xi = rng.normal(size=2)
    vector = monomial_matrix(xi, basis) @ b.T
    principal = principal_symbol(a, xi, basis)
    rank_one = spectral_symbol_lattice(b, xi, resolvent_profile, basis)
    assert principal == pytest.approx(np.sum(np.abs(vector) ** 2), rel=1e-12)
    assert np.allclose(rank_one, np.conj(rank_one.T))
    s = np.linalg.svd(rank_one, compute_uv=False)
    assert s[0] == pytest.approx(resolvent_profile(principal), rel=1e-12)
    assert s[1] <= 1e-12 * s[0]


def _polyharmonic_c_cov(N: int, m: int) -> float:
    """(2pi)^-N (N/2m) omega_N: A(xi) = |xi|^2m makes {A < 1} the unit ball."""
    ball = np.pi ** (N / 2) / math.gamma(N / 2 + 1)
    return (2.0 * np.pi) ** (-N) * N / (2.0 * m) * ball


class TestSublevelVolume:
    def test_interval(self):
        basis = enumerate_basis(1, 1)
        est = sublevel_volume(np.eye(1), basis, samples=10_000, seed=0)
        assert est.value == pytest.approx(2.0)

    def test_unit_disk(self):
        basis = enumerate_basis(2, 1)
        a = polyharmonic_coefficients(basis).constant_matrix()
        est = sublevel_volume(a, basis, samples=1_000_000, seed=101)
        assert abs(est.value - np.pi) <= 3.0 * est.stderr

    def test_quartic_sublevel_is_still_the_disk(self):
        basis = enumerate_basis(2, 2)
        a = polyharmonic_coefficients(basis).constant_matrix()
        est = sublevel_volume(a, basis, samples=1_000_000, seed=102)
        assert abs(est.value - np.pi) <= 3.0 * est.stderr

    def test_scaling_of_coefficient(self):
        # replacing a by lam*a scales A by lam, so vol{A < 1}, and with it c_cov, by exactly lam^(-N/2m)
        rng = np.random.default_rng(103)
        lam = 1.7
        for N, m in ((1, 1), (2, 1), (2, 2), (3, 1)):
            basis = enumerate_basis(N, m)
            a = random_hermitian_pd(rng, basis.nu)
            c1, _ = coarea_constant(a, basis)
            c2, _ = coarea_constant(lam * a, basis)
            assert c2 == pytest.approx(c1 * lam ** (-N / (2 * m)), rel=1e-13), (N, m)


class TestCoareaConstant:
    def test_disk_value(self):
        basis = enumerate_basis(2, 1)
        c, error = coarea_constant(polyharmonic_coefficients(basis).constant_matrix(), basis)
        assert c == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-13)
        assert error <= 1e-13 * c

    def test_interval_value(self):
        basis = enumerate_basis(1, 1)
        c, error = coarea_constant(np.eye(1), basis)
        assert c == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-13)
        assert error == 0.0

    # with test_interval_value (N=1, m=1) and test_disk_value (N=2, m=1): N in {1, 2, 3}, m in {1, 2}
    @pytest.mark.parametrize("N,m", [(1, 2), (2, 2), (3, 1), (3, 2)])
    def test_polyharmonic_closed_form(self, N, m):
        basis = enumerate_basis(N, m)
        c, error = coarea_constant(polyharmonic_coefficients(basis).constant_matrix(), basis)
        assert c == pytest.approx(_polyharmonic_c_cov(N, m), rel=1e-13)
        assert error <= 1e-13 * c

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_ellipsoid_closed_form(self, N):
        # m = 1: A(xi) = xi^T a xi = xi^T Re(a) xi for real xi, as the imaginary
        # part of a Hermitian a is antisymmetric; {A < 1} is an ellipsoid of
        # volume omega_N / sqrt(det Re a)
        rng = np.random.default_rng(104 + N)
        basis = enumerate_basis(N, 1)
        for _ in range(4):
            a = random_hermitian_pd(rng, basis.nu)
            c, _ = coarea_constant(a, basis)
            exact = _polyharmonic_c_cov(N, 1) / np.sqrt(np.linalg.det(a.real))
            assert c == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("N", [2, 3])
    def test_agrees_with_monte_carlo(self, N):
        # m = 2 has no closed form: the Monte Carlo volume is the independent check
        rng = np.random.default_rng(110 + N)
        basis = enumerate_basis(N, 2)
        a = random_hermitian_pd(rng, basis.nu)
        c, _ = coarea_constant(a, basis)
        vol = sublevel_volume(a, basis, samples=400_000, seed=111)
        prefactor = (2.0 * np.pi) ** (-N) * N / 4.0
        assert abs(c - prefactor * vol.value) <= 4.0 * prefactor * vol.stderr

    def test_unconverged_rule_is_named(self):
        # A = xi_1^2 + 1e-12 xi_2^2 peaks over a 1e-6 wide arc: no rule under the cap resolves it
        basis = enumerate_basis(2, 1)
        with pytest.raises(QuadratureError, match="did not converge within"):
            coarea_constant(np.diag([1.0, 1e-12]), basis)

    def test_lattice_identity(self):
        # (2pi)^-N integral g^2(A) dxi == c_cov * (||g||_2^*)^2, checked by
        # a fine lattice sum against the closed forms
        basis = enumerate_basis(1, 1)
        lhs = lattice_symbol_integral(
            np.eye(1), basis, resolvent_profile, spacing=0.01, radius=1000.0
        )
        gstar = resolvent_profile_norm(2, 1, 1)
        rhs = coarea_constant(np.eye(1), basis)[0] * gstar**2
        assert lhs == pytest.approx(rhs, rel=0.02)


def test_field_rejects_non_hermitian():
    basis = enumerate_basis(2, 1)
    with pytest.raises(ValueError):
        constant_field(basis, np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_hermiticity_rule_at_every_scale():
    # ||a - a*|| > 1e-12 max(||a||, 1): relative for a large field, absolute for a small one, and
    # taken with no overflow on an exactly Hermitian field near the float range's end
    basis = enumerate_basis(2, 1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for matrix in ([[1e308, 1e307j], [-1e307j, 1e308]], np.zeros((2, 2)), [[0.0, 1e-13], [0.0, 0.0]]):
            constant_field(basis, np.array(matrix))
        for matrix in ([[1e300, 1e289], [0.0, 1e300]], [[0.0, 1e-11], [0.0, 0.0]]):
            with pytest.raises(ValueError, match="not Hermitian"):
                constant_field(basis, np.array(matrix))


def test_sampled_field_shape_check():
    basis = enumerate_basis(2, 1)
    with pytest.raises(ValueError):
        sampled_field(basis, np.zeros((4, 3, 3)))
