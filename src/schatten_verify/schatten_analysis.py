"""Resolvents, Schatten norms, and the exact operator identities.

Everything here works on dense matrices obtained from small-grid
discretizations. Schatten norms come from a full spectrum, never from
iterative methods: the singular values of a general matrix by SVD. Those of
the resolvent difference, which is Hermitian, are absolute eigenvalues: of
the nu K x nu K Birman-Schwinger matrix on the impurity's K support points
(``support_spectrum``) while nu K is at most half the grid's n^N points,
else of the dense difference by ``eigvalsh`` (``delta_spectrum``). The
identity residuals are Frobenius (C^2, Hilbert-Schmidt) norms, O(n^2): they
bound the operator norm from above, so a small residual certifies the
identity in operator norm as well.

Verified identities (all exact in finite dimensions):

* the resolvent partition (S*S + 1)^{-1} + S* (SS* + 1)^{-1} S = 1, given
  both (S*S + 1)^{-1} and (SS* + 1)^{-1} S; the harness passes S = Tt as an
  operator, whose adjoint FFT pipeline applies Tt* to (SS* + 1)^{-1} S = the
  left end below, so no dense Tt is formed, and (S*S + 1)^{-1} = (Ht + 1)^{-1}
  is the resolvent behind every lhs;
* the factorization of a resolvent difference through the coefficient
  difference: the direct difference of (op + 1)^{-1} matrices equals the
  chain  Tt* (Gt+1)^{-1} at^{-1/2} (a - at) a^{-1/2} (G+1)^{-1} T, where
  T = a^{1/2} D, Tt = at^{1/2} D are the derivative factors, G, Gt their Grams;
  the left end (Gt+1)^{-1} Tt is the reference's closed-form channel resolvent
  plus a Woodbury correction sized by the impurity's support, built without
  Ht, and the right end T (H+1)^{-1} is a closed form; the middle field
  vanishes off the support, so the chain is taken over the support rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py patches names of both imports here; some have no caller in this module
from .coeff_algebra import (
    HermitianMatrixField,
    field_power,
    field_powers,
    matrix_inv_sqrt,
    matrix_sqrt,
)
from .torus_operator import (
    LinearOperatorRep,
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    block_multiplication_matrix,
    channel_resolvent_symbols,
    circulant_lookup,
    pointwise_rows,
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
    """(M + 1)^{-1} of a dense Hermitian matrix M by dense inverse (LU)."""
    m = np.asarray(matrix, dtype=complex)
    # the Hermitian part and the shift in one new array
    shifted = np.conj(m.T)
    shifted += m
    shifted *= 0.5
    shifted[np.diag_indices_from(shifted)] += 1.0
    return np.linalg.inv(shifted)


@dataclass(frozen=True)
class ImpuritySupport:
    """The coefficient objects of one experiment, and the K points where at and a differ.

    With E the restriction to the nu K channels of the support ``points``
    (flat indices, where at != a exactly) and C = D D* + a^{-1}: ``w`` is
    W = at^{-1} - a^{-1} there, (K, nu, nu); ``one_zw`` is 1 + Z W for
    Z = E C^{-1} E*, (nu K, nu K); ``at`` and its roots ``at_sqrt``,
    ``at_inv_sqrt`` are (n^N, nu, nu); ``c_inv``, ``c_inv_d`` and ``r`` are
    the symbols of C^{-1}, C^{-1} D and the reference's (op + 1)^{-1}.
    """

    grid: TorusGrid
    points: np.ndarray
    at: np.ndarray
    at_sqrt: np.ndarray
    at_inv_sqrt: np.ndarray
    w: np.ndarray
    one_zw: np.ndarray
    c_inv: np.ndarray
    c_inv_d: np.ndarray
    r: np.ndarray


def impurity_support(
    a: HermitianMatrixField, a_tilde: HermitianMatrixField, grid: TorusGrid
) -> ImpuritySupport:
    """One eigendecomposition of at, which names the points where at is not positive
    definite, and one pass over the reference's symbols; every check reads them here."""
    nu, points = a.basis.nu, grid.total_points
    at = a_tilde.sampled_on(grid.spatial_shape)
    roots = field_powers(at, 0.5, -0.5, -1.0)
    at, at_sqrt, at_inv_sqrt, at_inv = (x.reshape(points, nu, nu) for x in (at, *roots))
    support = np.flatnonzero(np.any(at != a.constant_matrix(), axis=(1, 2)))
    k = support.size
    c_inv, c_inv_d, r = channel_resolvent_symbols(a, grid)
    z = circulant_lookup(c_inv, grid, rows=support, cols=support).reshape(nu * k, nu, k)
    w = at_inv[support] - field_power(a.constant_matrix(), -1.0)
    # Z W: W acts on the columns of Z, support point by support point
    zw = np.matmul(z.transpose(2, 0, 1), w).transpose(1, 2, 0).reshape(nu * k, nu * k)
    zw[np.diag_indices_from(zw)] += 1.0
    return ImpuritySupport(grid, support, at, at_sqrt, at_inv_sqrt, w, zw, c_inv, c_inv_d, r)


def woodbury_left_end(imp: ImpuritySupport) -> np.ndarray:
    """(Gt+1)^{-1} Tt for Tt = at^{1/2} D, from the impurity's support.

    With B = at^{1/2} and C = D D* + a^{-1}, Gt + 1 = B (D D* + at^{-1}) B and
    D D* + at^{-1} = C + E* W E (see ``ImpuritySupport``). Woodbury gives

        (Gt+1)^{-1} Tt = B^{-1} [C^{-1} D - C^{-1} E* W (1 + Z W)^{-1} M],

    with the closed-form lookups Z = E C^{-1} E* and M = E C^{-1} D, W applied
    pointwise, and one nu K x nu K solve with n^N right-hand sides; on the
    support rows the bracket is (1 + Z W)^{-1} M itself. Nothing of op_tilde
    or its resolvent enters. Returns (nu * n^N, n^N).
    """
    grid, support = imp.grid, imp.points
    (points, nu, _), k = imp.at.shape, support.size
    rest = np.setdiff1d(np.arange(points), support)
    inner = circulant_lookup(imp.c_inv_d, grid).reshape(nu, points, points)  # C^{-1} D
    y = np.linalg.solve(imp.one_zw, inner[:, support].reshape(nu * k, points))
    # on the support M - Z W Y is Y itself; off it, C^{-1} D - (C^{-1} E*) W Y
    coupling = circulant_lookup(imp.c_inv, grid, rows=rest, cols=support)
    inner[:, rest] -= (coupling @ pointwise_rows(imp.w, y)).reshape(nu, rest.size, points)
    inner[:, support] = y.reshape(nu, k, points)
    return pointwise_rows(imp.at_inv_sqrt, inner.reshape(nu * points, points))


def support_spectrum(imp: ImpuritySupport) -> np.ndarray:
    """Non-increasing singular values of the resolvent difference, from the support.

    By Woodbury the difference is M* Phi M, with M = E C^{-1} D and the
    Hermitian Phi = W (1 + Z W)^{-1}; so its nonzero spectrum is that of
    R* Phi R for G = M M* = Q L Q* and R = Q L^{1/2} (Birman-Schwinger). G is
    the lookup of the symbol (a d)(a d)* / (1 + A)^2 on the support. Every
    object is nu K x nu K; returns nu K values, none for an empty support.
    """
    c_inv_d = imp.c_inv_d[:, 0]
    g_symbol = c_inv_d[:, None] * np.conj(c_inv_d[None, :])
    lam, q = np.linalg.eigh(circulant_lookup(g_symbol, imp.grid, rows=imp.points, cols=imp.points))
    r = q * np.sqrt(np.maximum(lam, 0.0))
    middle = np.conj(r.T) @ pointwise_rows(imp.w, np.linalg.solve(imp.one_zw, r))
    return singular_spectrum(middle, hermitian=True)


# The support spectrum's cost grows as (nu K)^3 with an eigendecomposition in
# it; it overtook eigvalsh of the dense n^N x n^N difference, which is formed
# anyway, at nu K / n^N between 0.5 and 0.57 (n^N = 256 and 1024, nu = 1 to 3,
# 1 and 2 BLAS threads). At nu K / n^N = 2 it was 25x (n^N = 256) to 44x (1024) slower.
SUPPORT_SPECTRUM_MAX_SHARE = 0.5


def delta_spectrum(imp: ImpuritySupport, delta: np.ndarray) -> np.ndarray:
    """Singular values of the resolvent difference ``delta``, by the cheaper exact route."""
    if imp.one_zw.shape[0] <= SUPPORT_SPECTRUM_MAX_SHARE * imp.grid.total_points:
        return support_spectrum(imp)
    return singular_spectrum(delta, hermitian=True)


def spectrum_residual(direct: np.ndarray, values: np.ndarray) -> float:
    """Gap between ||direct||_F and the l2 norm of ``values``, its claimed singular values.

    Exact in finite dimensions and O(n^2): it ties a spectrum not taken from
    ``direct`` itself (``support_spectrum``) back to it. Relative, or absolute
    when the claimed spectrum is numerically 0 (an empty support).
    """
    claimed = float(np.linalg.norm(values))
    gap = abs(float(np.linalg.norm(direct)) - claimed)
    if claimed <= 1e-14:
        return gap
    return gap / claimed


def deift_residual(s_matrix: LinearOperatorRep, left: np.ndarray, r_in: np.ndarray) -> float:
    """Frobenius norm of r_in + S* left - 1, with left = (SS*+1)^{-1} S.

    ``r_in`` is the given (S*S+1)^{-1} and ``left`` the given (SS*+1)^{-1} S;
    the residual vanishes when the two agree. S is an operator whose adjoint
    pipeline applies S* to the columns of ``left``
    (``LinearOperatorRep.adjoint_matmul``). The Frobenius norm bounds the
    operator norm, so a small residual certifies the identity in both.
    """
    x = s_matrix.adjoint_matmul(left)
    x += r_in
    x[np.diag_indices_from(x)] -= 1.0
    return float(np.linalg.norm(x))


def factorization_residual(
    a: HermitianMatrixField,
    c_inv_d: np.ndarray,
    v: np.ndarray,
    grid: TorusGrid,
    direct: np.ndarray,
    left: np.ndarray,
    scale: float,
) -> float:
    """Residual between ``direct`` = (op_tilde+1)^{-1} - (op+1)^{-1} and the chain

        Tt* (Gt+1)^{-1} . at^{-1/2} (a - at) a^{-1/2} . (G+1)^{-1} T

    ``left`` = (Gt+1)^{-1} Tt is the given left end (the Deift check shares
    it), and the middle field -V, for the values ``v`` of
    ``relative_perturbation``, is applied pointwise. V vanishes off the
    impurity's support, so the chain is taken over the support rows only:
    the left end's rows there and the right end's, (G+1)^{-1} T = a^{-1/2}
    C^{-1} D in closed form from ``c_inv_d``, the symbol of C^{-1} D. The
    gap is a Frobenius norm, an upper bound on its operator norm; ``scale``
    is ||direct||_op, the largest of the spectrum of ``direct``, which is at
    most ||direct||_F, so the relative residual errs high. Returns it, or
    the absolute gap when the direct difference is numerically 0.
    """
    nu, points = a.basis.nu, grid.total_points
    v = v.reshape(points, nu, nu)
    support = np.flatnonzero(np.any(v != 0, axis=(1, 2)))
    right_symbol = np.einsum("ab,bc...->ac...", matrix_inv_sqrt(a.constant_matrix()), c_inv_d)
    right = circulant_lookup(right_symbol, grid, rows=support)  # (nu K, P)
    left_support = left.reshape(nu, points, points)[:, support].reshape(-1, points)
    # the chain carries -V, so direct - chain = direct + left* V right
    x = np.conj(left_support.T) @ pointwise_rows(v[support], right)
    x += direct
    gap = float(np.linalg.norm(x))
    if scale <= 1e-14:
        return gap
    return gap / scale
