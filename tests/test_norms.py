import numpy as np
import pytest

from schatten_verify import (
    TorusGrid,
    clip_coefficients,
    constant_field,
    enumerate_basis,
    matrix_field_lp_norm,
    relative_perturbation,
)
from schatten_verify.norms import resolvent_profile_norm

from helpers import box_perturbed_field, random_hermitian_pd, relative_perturbation_of
from oracles import resolvent_profile, weighted_profile_norm


class TestClosedForm:
    def test_beta_value_p4(self):
        # Beta(3, 1) = 1/3
        assert resolvent_profile_norm(4, 2, 1) == pytest.approx((1.0 / 3.0) ** 0.25, rel=1e-14)

    def test_beta_value_p2(self):
        # Beta(3/2, 1/2) = pi/2
        assert resolvent_profile_norm(2, 1, 1) == pytest.approx(np.sqrt(np.pi / 2.0), rel=1e-14)

    @pytest.mark.parametrize("N,m,p", [(2, 1, 2), (3, 1, 3), (1, 1, 1), (3, 1, 2)])
    def test_divergent_at_and_below_threshold(self, N, m, p):
        assert N / m >= p  # sanity: these sit at or below the threshold
        assert resolvent_profile_norm(p, N, m) is None

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            resolvent_profile_norm(0.5, 1, 1)


class TestQuadrature:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8])
    def test_matches_closed_form(self, N, m, p):
        closed = resolvent_profile_norm(p, N, m)
        quad = weighted_profile_norm(resolvent_profile, p, N, m)
        if closed is None:
            assert quad is None
        else:
            assert quad == pytest.approx(closed, rel=1e-8)

    def test_zero_profile(self):
        assert weighted_profile_norm(lambda t: 0.0 * np.asarray(t), 4, 1, 1, tail_decay=1.0) == 0.0

    def test_non_decaying_profile_needs_declared_decay(self):
        # t/(1+t) -> 1 at infinity: never integrable against t^w dt, and
        # flagged only through its declared decay
        profile = lambda t: t / (1.0 + t)
        assert weighted_profile_norm(profile, 4, 1, 1, tail_decay=0.0) is None
        with pytest.raises(ValueError, match="tail_decay"):
            weighted_profile_norm(profile, 4, 1, 1)

    def test_declared_tail_decay_shortcut(self):
        out = weighted_profile_norm(lambda t: np.sqrt(t) / (1 + t), 1, 1, 1, tail_decay=0.5)
        assert out is None

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            weighted_profile_norm(resolvent_profile, 4, 1, 1, tol=0.0)


class TestMatrixFieldNorm:
    def test_indicator_scaling(self):
        # identity on 5 cells of volume 0.25 inside, zero outside
        vals = np.zeros((12, 2, 2), dtype=complex)
        vals[3:8] = np.eye(2)
        for p in (1, 2, 4):
            assert matrix_field_lp_norm(vals, 0.25, p) == pytest.approx((5 * 0.25) ** (1.0 / p))

    def test_sup_norm_spike(self):
        vals = np.zeros((9, 1, 1), dtype=complex)
        vals[4, 0, 0] = 7.0
        assert matrix_field_lp_norm(vals, 0.1, np.inf) == 7.0

    def test_p2_matches_per_point_svd(self):
        rng = np.random.default_rng(20)
        vals = rng.normal(size=(30, 3, 3)) + 1j * rng.normal(size=(30, 3, 3))
        tops = np.array([np.linalg.svd(v, compute_uv=False)[0] for v in vals])
        expected = np.sqrt(0.05 * np.sum(tops**2))
        assert matrix_field_lp_norm(vals, 0.05, 2) == pytest.approx(expected, rel=1e-12)

    def test_monotone_under_pointwise_dominance(self):
        rng = np.random.default_rng(21)
        small = rng.normal(size=(20, 2, 2)).astype(complex)
        big = small * rng.uniform(1.0, 2.0, size=(20, 1, 1))
        for p in (1, 2, 4, np.inf):
            assert matrix_field_lp_norm(small, 0.2, p) <= matrix_field_lp_norm(big, 0.2, p) + 1e-14

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            matrix_field_lp_norm(np.zeros((3, 1, 1), dtype=complex), 1.0, 0.5)


class TestRelativePerturbation:
    def test_equal_coefficients_give_zero(self):
        grid = TorusGrid(N=1, n=8, L=1.0)
        basis = enumerate_basis(1, 1)
        a = constant_field(basis, np.eye(1))
        at = box_perturbed_field(grid, basis, a, amplitude=0.0)
        v = relative_perturbation_of(a, at)
        assert np.abs(v).max() == 0.0

    def test_scalar_arithmetic(self):
        # at = 4 at one point, with its root at^{-1/2} = 1/2 given, and a = 1: V = (4 - 1) / 2
        v = relative_perturbation(np.full((1, 1, 1), 4.0), np.full((1, 1, 1), 0.5), np.eye(1), np.eye(1))
        assert v[0, 0, 0] == pytest.approx(1.5)

    def test_commuting_scaling_case(self):
        rng = np.random.default_rng(22)
        basis = enumerate_basis(2, 1)
        a_mat = random_hermitian_pd(rng, basis.nu)
        lam = 2.5
        a = constant_field(basis, a_mat)
        from schatten_verify import sampled_field

        at = sampled_field(basis, np.broadcast_to(lam * a_mat, (6, *a_mat.shape)).copy())
        v = relative_perturbation_of(a, at)
        expected = (lam - 1.0) / np.sqrt(lam) * np.eye(basis.nu)
        assert np.allclose(v, expected, atol=1e-12)

    def test_clipping_then_perturbation_converges(self):
        # clip(a~, n) -> a~ entrywise once n covers the spectrum, so V stabilizes
        grid = TorusGrid(N=1, n=16, L=1.0)
        basis = enumerate_basis(1, 1)
        a = constant_field(basis, np.eye(1))
        at = box_perturbed_field(grid, basis, a, amplitude=2.0)  # spectrum in [1, 3]
        v_direct = relative_perturbation_of(a, at)
        v_clipped = relative_perturbation_of(a, clip_coefficients(at, 4))
        assert np.abs(v_direct - v_clipped).max() < 1e-12
