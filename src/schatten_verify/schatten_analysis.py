"""Resolvents, Schatten norms, and the exact operator identities.

Everything here works on dense matrices obtained from small-grid
discretizations. Schatten norms come from the full spectrum, never from
iterative methods: the singular values of a general matrix by SVD, those of
a Hermitian one (a resolvent difference) as the absolute eigenvalues of its
Hermitian part, which is exact and cheaper.

Verified identities (all exact in finite dimensions):

* the resolvent partition (S*S + 1)^{-1} + S* (SS* + 1)^{-1} S = 1 for an
  arbitrary rectangular S, given the channel-side solve (SS* + 1)^{-1} S;
* the factorization of a resolvent difference through the coefficient
  difference: the direct difference of (op + 1)^{-1} matrices equals the
  chain  Tt* (Gt+1)^{-1} at^{-1/2} (a - at) a^{-1/2} (G+1)^{-1} T, where
  T = a^{1/2} D, Tt = at^{1/2} D are the derivative factors, G, Gt their Grams;
* the polar decomposition a^{1/2} D = G^{1/2} U with U a partial isometry;
* the translation-invariant convolution kernel of profile(G) for constant
  coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeff_algebra import (
    HermitianMatrixField,
    constant_field,
    field_power,
    matrix_inv_sqrt,
    matrix_sqrt,
    spectral_symbol_lattice,
    sqrt_field,
)
# perfbench/tracer.py patches these names here; some have no caller in this module
from .torus_operator import (
    DEFAULT_DENSE_CAP,
    LinearOperatorRep,
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    block_multiplication_matrix,
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


def _dense_of(op, cap: int) -> np.ndarray:
    if isinstance(op, LinearOperatorRep):
        return op.dense(cap=cap)
    return np.asarray(op, dtype=complex)


def resolvent(op, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """(op + 1)^{-1} by dense solve; accepts a rep or a dense matrix."""
    m = _dense_of(op, cap)
    m = 0.5 * (m + np.conj(m.T))
    return np.linalg.solve(m + np.eye(m.shape[0]), np.eye(m.shape[0], dtype=complex))


def resolvent_difference(op_tilde, op, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    return resolvent(op_tilde, cap) - resolvent(op, cap)


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


def channel_solve(factor: np.ndarray) -> np.ndarray:
    """(F F* + 1)^{-1} F by one dense solve, for a rectangular factor F."""
    f = np.asarray(factor, dtype=complex)
    gram = f @ np.conj(f.T)
    gram[np.diag_indices_from(gram)] += 1.0
    return np.linalg.solve(gram, f)


def deift_residual(s_matrix: np.ndarray, left: np.ndarray) -> float:
    """Operator norm of (S*S+1)^{-1} + S* left - 1, with left = (SS*+1)^{-1} S.

    ``left`` is ``channel_solve(s_matrix)``, the solve that the factorization
    check shares; (S*S+1)^{-1} is solved here from S.
    """
    s = np.asarray(s_matrix, dtype=complex)
    cols = s.shape[1]
    r_in = np.linalg.solve(np.conj(s.T) @ s + np.eye(cols), np.eye(cols, dtype=complex))
    return operator_norm(r_in + np.conj(s.T) @ left - np.eye(cols))


def factorization_residual(
    a: HermitianMatrixField,
    a_tilde: HermitianMatrixField,
    grid: TorusGrid,
    direct: np.ndarray,
    left: np.ndarray,
    scale: float,
    cap: int = DEFAULT_DENSE_CAP,
) -> float:
    """Residual between ``direct`` = (op_tilde+1)^{-1} - (op+1)^{-1} and the chain

        Tt* (Gt+1)^{-1} . at^{-1/2} (a - at) a^{-1/2} . (G+1)^{-1} T

    ``left`` = (Gt+1)^{-1} Tt is ``channel_solve`` of the perturbed factor
    (the Deift check shares it); (G+1)^{-1} T is solved here, and the middle
    field is applied pointwise. ``scale`` is ||direct||, which the caller has
    from the spectrum of ``direct``. Returns the relative operator-norm
    residual, or the absolute residual when the direct difference is
    numerically zero.
    """
    basis = a.basis
    a_mat = a.constant_matrix()
    at_vals = a_tilde.sampled_on(grid.spatial_shape)
    points = grid.total_points

    t = assemble_derivative_factor(constant_field(basis, matrix_sqrt(a_mat)), grid).dense(cap=cap)
    middle = field_power(at_vals, -0.5) @ (a_mat - at_vals) @ matrix_inv_sqrt(a_mat)

    right = channel_solve(t).reshape(basis.nu, points, points)
    middle_right = np.einsum("pab,bpk->apk", middle.reshape(points, basis.nu, basis.nu), right)
    chain = np.conj(left.T) @ middle_right.reshape(basis.nu * points, points)

    gap = operator_norm(direct - chain)
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
    cap: int = DEFAULT_DENSE_CAP,
    rank_rtol: float = 1e-11,
) -> PolarCheck:
    """Build the partial isometry from the SVD of the derivative factor.

    With T the factor and G = T T*, checks ||T - G^{1/2} U|| and
    ||U U* U - U||; the truncation rank drops the zero singular values
    coming from the factor's kernel (the constants).
    """
    factor = assemble_derivative_factor(sqrt_field(a), grid).dense(cap=cap)
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
