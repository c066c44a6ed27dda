"""Resolvents, Schatten norms, and the exact operator identities.

The CLI checks an impurity experiment on its K support points alone. With
U* = E D (op + 1)^{-1} the support rows of the derivative resolvent, the
resolvent difference is Delta = U Xi U* with the nu K x nu K core
Xi = a W (1 + Z W)^{-1} a (Woodbury; Hager, SIAM Rev. 31 (1989) 221-239).
``support_spectrum`` gives its singular values (Birman-Schwinger; Simon,
*Trace Ideals and Their Applications*, 2nd ed., AMS 2005), and three
nu K x nu K checks certify it: ``resolvent_certificate`` (the resolvent
equation of the perturbed operator), ``chain_gap`` (the factorization chain
through the printed V) and ``moments_gap`` (tr((Xi G2)^p) against the
printed spectrum). The residuals are Frobenius norms, which bound the
operator norm from above.

The dense functions run on small grids: ``resolvent`` by LU and Schatten
norms by SVD, which the clip study uses, and the tests' dense identity
checks ``deift_residual`` and ``factorization_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py patches names of both imports here; some have no caller in this module
from .coeff_algebra import (
    HermitianMatrixField,
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
    Z = E C^{-1} E*; ``at`` and ``at_inv_sqrt`` are (n^N, nu, nu), ``a`` and
    its roots (nu, nu); ``c_inv_d`` is the symbol of C^{-1} D; ``kernels``
    are G1, G2 and N, the support lookups of d d*, d d* / (1 + A)^2 and
    d d* / (1 + A). The matrices are (nu K, nu K).
    """

    grid: TorusGrid
    points: np.ndarray
    at: np.ndarray
    at_inv_sqrt: np.ndarray
    a: np.ndarray
    a_sqrt: np.ndarray
    a_inv_sqrt: np.ndarray
    w: np.ndarray
    one_zw: np.ndarray
    c_inv_d: np.ndarray
    kernels: np.ndarray


def impurity_support(
    a: HermitianMatrixField, a_tilde: HermitianMatrixField, grid: TorusGrid
) -> ImpuritySupport:
    """One eigendecomposition of at, which names the points where at is not positive
    definite, one of a, and one pass over the reference's symbols; every check reads them here."""
    nu, points = a.basis.nu, grid.total_points
    a_mat = a.constant_matrix()
    at = a_tilde.sampled_on(grid.spatial_shape)
    roots = field_powers(at, -0.5, -1.0)
    at, at_inv_sqrt, at_inv = (x.reshape(points, nu, nu) for x in (at, *roots))
    a_inv, a_inv_sqrt, a_sqrt = field_powers(a_mat, -1.0, -0.5, 0.5)
    support = np.flatnonzero(np.any(at != a_mat, axis=(1, 2)))
    k = support.size
    c_inv, c_inv_d, r, d = channel_resolvent_symbols(a, grid)
    z = circulant_lookup(c_inv, grid, rows=support, cols=support).reshape(nu * k, nu, k)
    w = at_inv[support] - a_inv
    # Z W: W acts on the columns of Z, support point by support point
    zw = np.matmul(z.transpose(2, 0, 1), w).transpose(1, 2, 0).reshape(nu * k, nu * k)
    zw[np.diag_indices_from(zw)] += 1.0
    u = d * r[0]  # the symbol of D (op + 1)^{-1}
    symbols = np.concatenate([x[:, None] * np.conj(y[None]) for x, y in ((d, d), (u, u), (u, d))])
    kernels = circulant_lookup(symbols, grid, rows=support, cols=support).reshape(3, nu * k, nu * k)
    return ImpuritySupport(grid, support, at, at_inv_sqrt, a_mat, a_sqrt, a_inv_sqrt, w, zw, c_inv_d, kernels)


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


def _on_support(imp: ImpuritySupport, field: np.ndarray) -> np.ndarray:
    """The (nu K, nu K) matrix of a pointwise (K, nu, nu) or constant (nu, nu) field on the support."""
    field = np.broadcast_to(field, (imp.points.size, *imp.a.shape))
    return pointwise_rows(field, np.eye(imp.one_zw.shape[0]))


def _trace_form(x: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """tr(x* left x right)^{1/2} = ||L x R*||_F for left = L* L and right = R* R."""
    return float(np.sqrt(abs(np.vdot(left @ x, x @ right))))


def support_core(imp: ImpuritySupport) -> np.ndarray:
    """Xi = a Phi a: with U* = E D (op + 1)^{-1}, M = E C^{-1} D = a U*, so the
    resolvent difference M* Phi M (``support_spectrum``) is U Xi U*."""
    solved = np.linalg.solve(imp.one_zw, _on_support(imp, imp.a))
    return pointwise_rows(imp.a @ imp.w, solved)


def resolvent_certificate(imp: ImpuritySupport, xi: np.ndarray) -> float:
    """||(Ht + 1)((op + 1)^{-1} + U Xi U*) - 1||_F, absolute, from the support alone.

    Ht = op + D* E* Omega E D with Omega = at - a, and (op + 1) U = D* E*, so
    the residual is D* E* Y U* with Y = Omega + Xi + Omega N Xi. Omega and N
    never touch Z or W: the Woodbury core is checked against the operator's
    definition. The computed resolvent is off by at most the residual.
    """
    g1, g2, n = imp.kernels
    omega = imp.at[imp.points] - imp.a
    y = pointwise_rows(omega, n @ xi) + _on_support(imp, omega) + xi
    return _trace_form(y, g1, g2)


def chain_gap(imp: ImpuritySupport, xi: np.ndarray, v: np.ndarray, scale: float) -> float:
    """||U Xi U* - chain||_F for the chain Tt* (Gt+1)^{-1} (-V) (G+1)^{-1} T, relative to ``scale``.

    On the support the chain is U Xi_V U* with Xi_V = -a (1 + W Z)^{-1}
    at^{-1/2} V a^{1/2}, from its own solve, for the printed values ``v`` of
    V. Off the support V vanishes; its part of the chain there is at most
    ||V||_F / 4, which is added. Absolute when ``scale`` = ||Delta||_op is 0.
    """
    support = imp.points
    field = imp.at_inv_sqrt[support] @ v[support] @ imp.a_sqrt
    solved = np.linalg.solve(np.conj(imp.one_zw.T), _on_support(imp, field))
    x = pointwise_rows(np.broadcast_to(imp.a, field.shape), solved) + xi
    gap = _trace_form(x, imp.kernels[1], imp.kernels[1])
    gap += 0.25 * float(np.linalg.norm(np.delete(v, support, axis=0)))
    return gap / scale if scale > 1e-14 else gap


def moments_gap(imp: ImpuritySupport, xi: np.ndarray, values: np.ndarray) -> float:
    """Largest gap between tr((Xi G2)^p) and the sum of ``values``^p, p = 4, 6, 8.

    Xi G2 = Xi U* U has the nonzero eigenvalues of U Xi U*, whose absolute
    values ``support_spectrum`` gave. Relative, or absolute for an empty support.
    """
    b = xi @ imp.kernels[1]
    b2 = b @ b
    b4 = b2 @ b2
    traces = (np.trace(b4), np.sum(b4 * b2.T), np.sum(b4 * b4.T))
    moments = (float(np.sum(values**p)) for p in (4, 6, 8))
    return max(abs(trace - moment) / (moment or 1.0) for trace, moment in zip(traces, moments))


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
    """Frobenius gap between the dense ``direct`` = (Ht+1)^{-1} - (H+1)^{-1} and the chain

        Tt* (Gt+1)^{-1} . at^{-1/2} (a - at) a^{-1/2} . (G+1)^{-1} T

    for a given dense left end ``left`` = (Gt+1)^{-1} Tt and the values ``v``
    of V (``relative_perturbation``). V vanishes off the impurity's support,
    so the chain runs over the support rows, where the right end is the
    lookup of a^{-1/2} times ``c_inv_d``, the symbol of C^{-1} D. Relative to
    ``scale`` = ||direct||_op, or absolute when that is numerically 0.
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
