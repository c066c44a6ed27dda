"""Resolvents, Schatten norms, and the exact operator identities.

Everything here works on dense matrices obtained from small-grid
discretizations. Schatten norms come from the full spectrum, never from
iterative methods: the singular values of a general matrix by SVD, those of
a Hermitian one (a resolvent difference) as the absolute eigenvalues of its
Hermitian part, which is exact and cheaper. The identity residuals need only
an operator norm, taken exactly as sqrt of the largest eigenvalue of X* X.

Verified identities (all exact in finite dimensions):

* the resolvent partition (S*S + 1)^{-1} + S* (SS* + 1)^{-1} S = 1 for an
  arbitrary rectangular S, given both solves; the harness passes S = Tt, so
  (S*S + 1)^{-1} = (Ht + 1)^{-1} is the resolvent behind every lhs;
* the factorization of a resolvent difference through the coefficient
  difference: the direct difference of (op + 1)^{-1} matrices equals the
  chain  Tt* (Gt+1)^{-1} at^{-1/2} (a - at) a^{-1/2} (G+1)^{-1} T, where
  T = a^{1/2} D, Tt = at^{1/2} D are the derivative factors, G, Gt their Grams;
  the left end is a dense solve, the right end T (H+1)^{-1} a closed form;
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
    matrix_inv_sqrt,
    matrix_sqrt,
    spectral_symbol_lattice,
    sqrt_field,
)
from .torus_operator import (
    DEFAULT_DENSE_CAP,
    LinearOperatorRep,
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    block_multiplication_matrix,
    constant_factor_resolvent,
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


def _residual_norm(x: np.ndarray) -> float:
    """||X||_op, exact like the SVD but cheaper: sqrt of the largest eigenvalue of X* X."""
    return float(np.sqrt(max(np.linalg.eigvalsh(np.conj(x.T) @ x)[-1], 0.0)))


def deift_residual(s_matrix: np.ndarray, left: np.ndarray, r_in: np.ndarray) -> float:
    """Operator norm of r_in + S* left - 1, with left = (SS*+1)^{-1} S.

    ``r_in`` is the given (S*S+1)^{-1} and ``left`` is ``channel_solve(s_matrix)``;
    the residual vanishes when the two solves agree.
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
    cap: int = DEFAULT_DENSE_CAP,
) -> float:
    """Residual between ``direct`` = (op_tilde+1)^{-1} - (op+1)^{-1} and the chain

        Tt* (Gt+1)^{-1} . at^{-1/2} (a - at) a^{-1/2} . (G+1)^{-1} T

    ``left`` = (Gt+1)^{-1} Tt is ``channel_solve`` of the perturbed factor
    (the Deift check shares it), the right end (G+1)^{-1} T = T (op+1)^{-1}
    is a closed form, and the middle field -V, for the (*spatial, nu, nu)
    values ``v`` of ``relative_perturbation``, is applied pointwise. ``scale``
    is ||direct||, from the spectrum of ``direct``. Returns the relative
    residual, or the absolute one when the direct difference is numerically 0.
    """
    nu, points = a.basis.nu, grid.total_points
    right = constant_factor_resolvent(a, grid, cap=cap).reshape(nu, points, points)
    v_right = np.einsum("pab,bpk->apk", v.reshape(points, nu, nu), right)
    # the chain carries -V, so direct - chain = direct + left* V right
    gap = _residual_norm(direct + np.conj(left.T) @ v_right.reshape(nu * points, points))
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
