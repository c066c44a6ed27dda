import numpy as np
import pytest
from math import comb

from schatten_verify import MultiIndex, enumerate_basis, monomial_matrix

from oracles import monomial


def test_single_variable_forces_one_index():
    basis = enumerate_basis(1, 3)
    assert basis.nu == 1
    assert basis.entries[0].exponents == (3,)


def test_two_vars_order_two_enumeration():
    basis = enumerate_basis(2, 2)
    assert [mi.exponents for mi in basis.entries] == [(0, 2), (1, 1), (2, 0)]
    assert basis.nu == 3


def test_three_vars_order_two_count():
    assert enumerate_basis(3, 2).nu == 6  # C(4, 2)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_stars_and_bars_count(N, m):
    basis = enumerate_basis(N, m)
    assert basis.nu == comb(N + m - 1, N - 1)
    assert len(set(basis.entries)) == basis.nu
    assert all(sum(mi.exponents) == m for mi in basis.entries)
    exponents = [mi.exponents for mi in basis.entries]
    assert exponents == sorted(exponents)


@pytest.mark.parametrize("N,m", [(0, 1), (1, 0), (0, 0)])
def test_degenerate_dimensions_rejected(N, m):
    with pytest.raises(ValueError):
        enumerate_basis(N, m)


def test_monomial_values():
    assert monomial(np.array([2.0, 3.0]), MultiIndex((1, 1))) == 6.0
    assert monomial(np.array([0.0, 5.0]), MultiIndex((2, 0))) == 0.0


def test_monomial_empty_product_convention():
    rng = np.random.default_rng(0)
    xi = rng.normal(size=3)
    assert monomial(xi, MultiIndex((0, 0, 0))) == 1.0
    assert monomial(np.zeros(2), MultiIndex((0, 0))) == 1.0


def test_monomial_dimension_mismatch():
    with pytest.raises(ValueError):
        monomial(np.array([1.0, 2.0, 3.0]), MultiIndex((1, 1)))


def test_monomial_homogeneity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        N, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        basis = enumerate_basis(N, m)
        xi = rng.normal(size=N)
        lam = float(rng.uniform(0.2, 3.0))
        for mi in basis.entries:
            assert monomial(lam * xi, mi) == pytest.approx(
                lam**m * monomial(xi, mi), rel=1e-12
            )


def test_monomial_matrix_matches_scalar():
    rng = np.random.default_rng(2)
    basis = enumerate_basis(3, 2)
    pts = rng.normal(size=(7, 3))
    mat = monomial_matrix(pts, basis)
    assert mat.shape == (7, basis.nu)
    for i in range(7):
        for c, mi in enumerate(basis.entries):
            assert mat[i, c] == pytest.approx(monomial(pts[i], mi), rel=1e-12)
