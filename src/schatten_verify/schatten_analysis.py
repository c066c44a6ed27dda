"""Resolvents, Schatten norms, and the exact operator identities.

Everything here works on dense matrices obtained from small-grid
discretizations. Schatten norms come from the full spectrum, never from
iterative methods: the singular values of a general matrix by SVD, those of
a Hermitian one (a resolvent difference) as the absolute eigenvalues of its
Hermitian part, which is exact and cheaper. The identity residuals need only
an operator norm, taken exactly as sqrt of the largest eigenvalue of X* X.

Verified identities (all exact in finite dimensions):

* the resolvent partition (S*S + 1)^{-1} + S* (SS* + 1)^{-1} S = 1 for an
  arbitrary rectangular S, given both (S*S + 1)^{-1} and (SS* + 1)^{-1} S;
  the harness passes S = Tt, so (S*S + 1)^{-1} = (Ht + 1)^{-1} is the
  resolvent behind every lhs, and (SS* + 1)^{-1} S is the left end below;
* the factorization of a resolvent difference through the coefficient
  difference: the direct difference of (op + 1)^{-1} matrices equals the
  chain  Tt* (Gt+1)^{-1} at^{-1/2} (a - at) a^{-1/2} (G+1)^{-1} T, where
  T = a^{1/2} D, Tt = at^{1/2} D are the derivative factors, G, Gt their Grams;
  the left end (Gt+1)^{-1} Tt is the reference's closed-form channel resolvent
  plus a Woodbury correction sized by the impurity's support, built without
  Ht, and the right end T (H+1)^{-1} is a closed form; the middle field
  vanishes off the support, so the chain is taken over the support rows;
* the polar decomposition a^{1/2} D = G^{1/2} U with U a partial isometry;
* the translation-invariant convolution kernel of profile(G) for constant
  coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# perfbench/tracer.py patches names of both imports here; some have no caller in this module
from .coeff_algebra import (
    HermitianMatrixField,
    field_power,
    matrix_inv_sqrt,
    matrix_sqrt,
    spectral_symbol_lattice,
    sqrt_field,
)
from .torus_operator import (
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    block_multiplication_matrix,
    channel_resolvent_symbols,
    circulant_lookup,
)


def singular_spectrum(matrix: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """Non-increasing singular values of a dense matrix.

    With ``hermitian`` they are the absolute eigenvalues of the matrix's
    Hermitian part, by ``eigvalsh`` instead of an SVD.
    """
    m = np.asarray(matrix)
    if not hermitian:
        return np.linalg.svd(m, compute_uv=False)
    eigenvalues = np.linalg.eigvalsh(0.5 * (m + np.conj(m.T)))
    return np.sort(np.abs(eigenvalues))[::-1]


def schatten_norm_from_values(values: np.ndarray, p: float) -> float:
    if p != np.inf and p < 1:
        raise ValueError(f"Schatten exponent must be >= 1 or inf, got {p}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    if p == np.inf:
        return float(values.max())
    return float(np.sum(values**p) ** (1.0 / p))


def schatten_norm(matrix: np.ndarray, p: float) -> float:
    """(sum s_j^p)^(1/p) from the full SVD; p = inf is the operator norm."""
    return schatten_norm_from_values(singular_spectrum(matrix), p)


def operator_norm(matrix: np.ndarray) -> float:
    return schatten_norm(matrix, np.inf)


def resolvent(matrix: np.ndarray) -> np.ndarray:
    """(M + 1)^{-1} of a dense Hermitian matrix M by dense solve."""
    m = np.asarray(matrix, dtype=complex)
    m = 0.5 * (m + np.conj(m.T))
    return np.linalg.solve(m + np.eye(m.shape[0]), np.eye(m.shape[0], dtype=complex))


def resolvent_difference(matrix_tilde: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    return resolvent(matrix_tilde) - resolvent(matrix)


def matrix_function(
    matrix: np.ndarray,
    fn: Callable,
    spectrum_floor: float | None = None,
    spectrum_snap_rtol: float | None = None,
) -> np.ndarray:
    """fn applied to a Hermitian matrix through its eigendecomposition.

    spectrum_floor clips eigenvalues from below first (e.g. 0.0 for
    functions defined on [0, inf) applied to a semidefinite matrix whose
    smallest eigenvalues are roundoff-negative). spectrum_snap_rtol sends
    eigenvalues below rtol * max|eigenvalue| to exactly 0; needed when fn
    has infinite slope at 0 (sqrt-like profiles) and the zero eigenspace is
    structural, since fn(roundoff) would otherwise be amplified to
    sqrt(roundoff).
    """
    m = np.asarray(matrix, dtype=complex)
    m = 0.5 * (m + np.conj(m.T))
    w, q = np.linalg.eigh(m)
    if spectrum_snap_rtol is not None and w.size:
        w = np.where(np.abs(w) <= spectrum_snap_rtol * np.abs(w).max(), 0.0, w)
    if spectrum_floor is not None:
        w = np.maximum(w, spectrum_floor)
    fw = np.asarray(fn(w), dtype=complex)
    return (q * fw) @ np.conj(q.T)


def spectral_profile_operator(gram_dense: np.ndarray, profile: Callable) -> np.ndarray:
    """profile applied to a PSD Gram matrix, with roundoff eigenvalues snapped to 0."""
    return matrix_function(
        gram_dense, profile, spectrum_floor=0.0, spectrum_snap_rtol=1e-12
    )


def _residual_norm(x: np.ndarray) -> float:
    """||X||_op, exact like the SVD but cheaper: sqrt of the largest eigenvalue of X* X."""
    return float(np.sqrt(max(np.linalg.eigvalsh(np.conj(x.T) @ x)[-1], 0.0)))


def woodbury_left_end(
    a: HermitianMatrixField, a_tilde: HermitianMatrixField, grid: TorusGrid
) -> np.ndarray:
    """(Gt+1)^{-1} Tt for Tt = at^{1/2} D, from the impurity's support.

    With B = at^{1/2} and C = D D* + a^{-1}, Gt + 1 = B (D D* + at^{-1}) B and
    D D* + at^{-1} = C + E* W E, where E restricts to the nu K channels of the
    K points at which at differs from a and W = at^{-1} - a^{-1} there.
    Woodbury gives

        (Gt+1)^{-1} Tt = B^{-1} [C^{-1} D - C^{-1} E* W (1 + Z W)^{-1} M],

    with the closed-form lookups Z = E C^{-1} E* and M = E C^{-1} D, W applied
    pointwise, and one nu K x nu K solve with n^N right-hand sides; on the
    support rows the bracket is (1 + Z W)^{-1} M itself. Nothing of op_tilde
    or its resolvent enters. Returns (nu * n^N, n^N).
    """
    nu, points = a.basis.nu, grid.total_points
    at = a_tilde.sampled_on(grid.spatial_shape).reshape(points, nu, nu)
    differs = np.any(at != a.constant_matrix(), axis=(1, 2))
    support, rest = np.flatnonzero(differs), np.flatnonzero(~differs)
    k = support.size
    c_inv, c_inv_d = channel_resolvent_symbols(a, grid)
    inner = circulant_lookup(c_inv_d, grid).reshape(nu, points, points)  # C^{-1} D
    z = circulant_lookup(c_inv, grid, rows=support, cols=support).reshape(nu * k, nu, k)
    w = field_power(at[support], -1.0) - field_power(a.constant_matrix(), -1.0)
    # Z W: W acts on the columns of Z, support point by support point
    zw = np.matmul(z.transpose(2, 0, 1), w).transpose(1, 2, 0).reshape(nu * k, nu * k)
    zw[np.diag_indices_from(zw)] += 1.0
    y = np.linalg.solve(zw, inner[:, support].reshape(nu * k, points))
    # on the support M - Z W Y is Y itself; off it, C^{-1} D - (C^{-1} E*) W Y
    coupling = circulant_lookup(c_inv, grid, rows=rest, cols=support)
    inner[:, rest] -= (coupling @ _pointwise_rows(w, y)).reshape(nu, rest.size, points)
    inner[:, support] = y.reshape(nu, k, points)
    return _pointwise_rows(field_power(at, -0.5), inner.reshape(nu * points, points))


def _pointwise_rows(field: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Field (K, nu, nu) applied point by point to the channel-major rows (nu K, cols)."""
    (k, nu, _), cols = field.shape, stack.shape[-1]
    by_point = stack.reshape(nu, k, cols).transpose(1, 0, 2)
    return np.matmul(field, by_point).transpose(1, 0, 2).reshape(nu * k, cols)


def deift_residual(s_matrix: np.ndarray, left: np.ndarray, r_in: np.ndarray) -> float:
    """Operator norm of r_in + S* left - 1, with left = (SS*+1)^{-1} S.

    ``r_in`` is the given (S*S+1)^{-1} and ``left`` the given (SS*+1)^{-1} S;
    the residual vanishes when the two agree.
    """
    s = np.asarray(s_matrix, dtype=complex)
    return _residual_norm(r_in + np.conj(s.T) @ left - np.eye(s.shape[1]))


def factorization_residual(
    a: HermitianMatrixField,
    v: np.ndarray,
    grid: TorusGrid,
    direct: np.ndarray,
    left: np.ndarray,
    scale: float,
) -> float:
    """Residual between ``direct`` = (op_tilde+1)^{-1} - (op+1)^{-1} and the chain

        Tt* (Gt+1)^{-1} . at^{-1/2} (a - at) a^{-1/2} . (G+1)^{-1} T

    ``left`` = (Gt+1)^{-1} Tt is the given left end (the Deift check shares
    it), and the middle field -V, for the (*spatial, nu, nu) values ``v`` of
    ``relative_perturbation``, is applied pointwise. V vanishes off the
    impurity's support, so the chain is taken over the support rows only:
    the left end's rows there and the right end's, (G+1)^{-1} T = a^{-1/2}
    C^{-1} D in closed form. ``scale`` is ||direct||, from the spectrum of
    ``direct``. Returns the relative residual, or the absolute one when the
    direct difference is numerically 0.
    """
    nu, points = a.basis.nu, grid.total_points
    v = v.reshape(points, nu, nu)
    support = np.flatnonzero(np.any(v != 0, axis=(1, 2)))
    right_symbol = np.einsum(
        "ab,bc...->ac...", matrix_inv_sqrt(a.constant_matrix()), channel_resolvent_symbols(a, grid)[1]
    )
    right = circulant_lookup(right_symbol, grid, rows=support)  # (nu K, P)
    left_support = left.reshape(nu, points, points)[:, support].reshape(-1, points)
    # the chain carries -V, so direct - chain = direct + left* V right
    gap = _residual_norm(direct + np.conj(left_support.T) @ _pointwise_rows(v[support], right))
    if scale <= 1e-14:
        return gap
    return gap / scale


@dataclass(frozen=True)
class PolarCheck:
    """Residuals of the polar decomposition factor = gram^{1/2} . isometry."""

    factor_residual: float
    isometry_residual: float
    rank: int
    partial_isometry: np.ndarray


def polar_decomposition_check(
    a: HermitianMatrixField,
    grid: TorusGrid,
    rank_rtol: float = 1e-11,
) -> PolarCheck:
    """Build the partial isometry from the SVD of the derivative factor.

    With T the factor and G = T T*, checks ||T - G^{1/2} U|| and
    ||U U* U - U||; the truncation rank drops the zero singular values
    coming from the factor's kernel (the constants).
    """
    factor = assemble_derivative_factor(sqrt_field(a), grid).dense()
    gram = factor @ np.conj(factor.T)
    gram_sqrt = matrix_function(gram, np.sqrt, spectrum_floor=0.0)
    w, s, vh = np.linalg.svd(factor, full_matrices=False)
    rank = int(np.count_nonzero(s > rank_rtol * s[0]))
    isometry = w[:, :rank] @ vh[:rank, :]
    res_factor = operator_norm(factor - gram_sqrt @ isometry)
    res_isometry = operator_norm(
        isometry @ np.conj(isometry.T) @ isometry - isometry
    )
    return PolarCheck(
        factor_residual=res_factor,
        isometry_residual=res_isometry,
        rank=rank,
        partial_isometry=isometry,
    )


def convolution_kernel(
    b: HermitianMatrixField, grid: TorusGrid, profile: Callable
) -> np.ndarray:
    """Translation-invariant kernel of profile(channel gram), constant coefficients.

    Returns k with shape (*spatial, nu, nu), indexed by the periodic
    difference coordinate; the dense matrix entry at (x, alpha), (y, beta)
    of profile(gram) equals h^N * k[x - y][alpha, beta].
    """
    b_mat = b.constant_matrix()
    lattice = spectral_symbol_lattice(b_mat, grid.frequency_points(), profile, b.basis)
    spatial_axes = tuple(range(grid.N))
    return np.fft.ifftn(lattice, axes=spatial_axes) / grid.cell_volume
