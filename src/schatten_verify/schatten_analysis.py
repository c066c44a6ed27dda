"""Resolvents, Schatten norms, and the exact operator identities.

The CLI checks an impurity experiment on its K support points alone. With
U* = E D (op + 1)^{-1} the support rows of the derivative resolvent, the
resolvent difference is Delta = U Xi U* with the nu K x nu K core
Xi = a W (1 + Z W)^{-1} a (Woodbury; Hager, SIAM Rev. 31 (1989) 221-239).
``support_spectrum`` reads its singular values from Xi through
``spectrum_factor``'s Cholesky factor of U* U (Birman-Schwinger; Simon,
*Trace Ideals*, 2nd ed., AMS 2005), and three nu K x nu K checks certify it:
``resolvent_certificate`` (the resolvent equation of the perturbed operator),
``chain_gap`` (a bound on the gap to the factorization chain through the
printed V) and ``moments_gap`` (tr((Xi G2)^p) against the printed spectrum).
The residuals are Frobenius norms, which bound the operator norm from above.
``support_pass`` runs these steps in their order, and decides when each
nu K x nu K matrix is formed and dropped.

Where a and the sampled at are real and at is unchanged by a reflection
x -> c - x of the grid, every nu K x nu K matrix is taken in a real basis of
the support (``reflected_lookup``), and the pass runs in float64; otherwise
in the point basis, in complex128. Both give the same traces, Frobenius norms
and singular values, to roundoff.

The dense functions run on small grids: ``resolvent`` by LU and Schatten
norms by SVD, which the clip study uses, and the tests' dense identity
checks ``deift_residual`` and ``factorization_residual``, which take dense
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py patches names of both imports here; some have no caller in this module
from .coeff_algebra import (
    HermitianMatrixField,
    field_powers,
    hermitian_part,
    matrix_inv_sqrt,
    matrix_sqrt,
)
from .norms import lp_norm_of_pointwise
from .torus_operator import (
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    block_multiplication_matrix,
    channel_resolvent_symbols,
    circulant_lookup,
    pointwise_rows,
    reflected_lookup,
)


# the number of row blocks in which _trace_form forms its two products
_BLOCKS = 8


def singular_spectrum(matrix: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """Non-increasing singular values of a dense matrix.

    With ``hermitian`` they are the absolute eigenvalues of the matrix's
    Hermitian part, by ``eigvalsh`` instead of an SVD.
    """
    m = np.asarray(matrix)
    if not hermitian:
        return np.linalg.svd(m, compute_uv=False)
    return np.sort(np.abs(np.linalg.eigvalsh(hermitian_part(m))))[::-1]


def schatten_norm(matrix: np.ndarray, p: float) -> float:
    """(sum s_j^p)^(1/p) from the full SVD; p = inf is the operator norm."""
    return lp_norm_of_pointwise(singular_spectrum(matrix), 1.0, p)


def operator_norm(matrix: np.ndarray) -> float:
    return schatten_norm(matrix, np.inf)


def resolvent(matrix: np.ndarray) -> np.ndarray:
    """(M + 1)^{-1} of a dense Hermitian matrix M, by dense inverse (LU) of its Hermitian part plus 1."""
    m = np.asarray(matrix, dtype=complex)
    return np.linalg.inv(hermitian_part(m) + np.eye(m.shape[0]))


@dataclass(frozen=True)
class ImpuritySupport:
    """The coefficient objects of one experiment, and the K points where at and a differ.

    With E the restriction to the nu K channels of the support ``points``
    (flat indices, where at != a exactly) and C = D D* + a^{-1}: ``w`` is
    W = at^{-1} - a^{-1} there, (K, nu, nu); ``at`` and ``at_inv_sqrt`` are
    (n^N, nu, nu), ``a``, its inverse and its roots (nu, nu); ``symbol`` is the
    reference's principal symbol A on the lattice, (*spatial). ``kernels`` is
    the table of the (nu, nu, *spatial) symbols that ``support_kernel`` looks
    up, one at a time: "z" C^{-1}, "g" (a d)(a d)* / (1 + A)^2, "g1" d d*,
    "g2" u u* and "n" u d*, for the symbols d of D and u = d / (1 + A) of
    D (op + 1)^{-1}.

    ``fixed`` is None where the pass runs in the point basis, in complex
    arithmetic. Otherwise a and at are real, at is unchanged by a reflection
    sigma, ``points`` lists the ``fixed`` points that sigma fixes, then p points
    A and then sigma A, and every nu K x nu K matrix of the pass is real, taken
    in the basis of ``reflected_lookup``. A field is read at ``points`` as in
    the point basis: its values at x and sigma x are equal, so it acts on each
    basis vector as at that vector's point.
    """

    grid: TorusGrid
    points: np.ndarray
    at: np.ndarray
    at_inv_sqrt: np.ndarray
    a: np.ndarray
    a_sqrt: np.ndarray
    a_inv: np.ndarray
    a_inv_sqrt: np.ndarray
    w: np.ndarray
    kernels: dict[str, np.ndarray]
    symbol: np.ndarray
    fixed: int | None


def _mirror_sum(coords: np.ndarray, n: int) -> int:
    """s with the occupied coordinates mapped onto themselves by j -> s - j (mod n), if any s does so.

    Such a reflection maps the widest gap between occupied coordinates onto
    itself when that gap is the only one so wide, so the gap's two ends are
    partners. 0 for an axis that is empty or occupied throughout.
    """
    occupied = np.flatnonzero(np.bincount(coords, minlength=n))
    if occupied.size in (0, n):
        return 0
    i = int(np.argmax(np.diff(occupied, append=occupied[0] + n)))
    return int(occupied[i] + occupied[(i + 1) % occupied.size]) % n


def _support_reflection(
    at: np.ndarray, a: np.ndarray, support: np.ndarray, grid: TorusGrid
) -> tuple[np.ndarray, int] | None:
    """The support ordered as fixed points, A, sigma A, and the number of fixed points; or None.

    sigma is x -> c - x on every axis, with c derived from the support
    (``_mirror_sum``) and confirmed by one exact comparison of the (n^N, nu, nu)
    ``at`` with its reflection. None where a or at has an imaginary part, or
    at is not unchanged by that sigma.
    """
    if np.any(a.imag) or np.any(at.imag):
        return None
    index = np.indices(grid.spatial_shape)
    sums = [_mirror_sum(coords, grid.n) for coords in np.unravel_index(support, grid.spatial_shape)]
    mirror = np.ravel_multi_index(tuple((s - j) % grid.n for s, j in zip(sums, index)), grid.spatial_shape).ravel()
    if not np.array_equal(at, at[mirror]):
        return None
    partner = mirror[support]
    fixed, first = support[partner == support], support[support < partner]
    return np.concatenate([fixed, first, mirror[first]]), fixed.size


def impurity_support(
    a: HermitianMatrixField, a_tilde: HermitianMatrixField, grid: TorusGrid
) -> ImpuritySupport:
    """One eigendecomposition of at, which names the points where at is not positive
    definite, one of a, and one pass over the reference's symbols; every check reads them here.

    Where ``_support_reflection`` finds the experiment reflection-symmetric, a
    and at are taken real, and each step of the pass takes float64 from them."""
    nu, points = a.basis.nu, grid.total_points
    a_mat = a.constant_matrix()
    at = a_tilde.sampled_on(grid.spatial_shape)
    flat = at.reshape(points, nu, nu)
    support = np.flatnonzero(np.any(flat != a_mat, axis=(1, 2)))
    reflection = _support_reflection(flat, a_mat, support, grid)
    fixed = None
    if reflection is not None:
        (support, fixed), at, a_mat = reflection, np.ascontiguousarray(at.real), a_mat.real
    roots = field_powers(at, -0.5, -1.0)
    at, at_inv_sqrt, at_inv = (x.reshape(points, nu, nu) for x in (at, *roots))
    a_inv, a_inv_sqrt, a_sqrt = field_powers(a_mat, -1.0, -0.5, 0.5)
    c_inv, c_inv_d, r, d, symbol = channel_resolvent_symbols(a, grid)
    ad, u = c_inv_d[:, 0], d * r[0]  # (a d) / (1 + A) and d / (1 + A), (nu, *spatial)
    pairs = {"g": (ad, ad), "g1": (d, d), "g2": (u, u), "n": (u, d)}
    kernels = {"z": c_inv} | {name: left[:, None] * np.conj(right[None]) for name, (left, right) in pairs.items()}
    w = at_inv[support] - a_inv
    return ImpuritySupport(grid, support, at, at_inv_sqrt, a_mat, a_sqrt, a_inv, a_inv_sqrt, w, kernels, symbol, fixed)


def pivoted_cholesky(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L, (n, r), and ``order`` with g[order][:, order] = L L*, for g Hermitian and positive
    semidefinite to working precision; written in g's own buffer.

    Diagonally pivoted and left-looking (Higham, "Analysis of the Cholesky
    decomposition of a semi-definite matrix", 1990; LAPACK xPSTRF): each step
    swaps the largest remaining diagonal entry to the front and forms one
    column of L, and the first non-positive pivot ends it, so r is the rank
    found. L is the lower trapezoidal view of g's first r columns.
    """
    n = g.shape[0]
    order = np.arange(n)
    remaining = g.diagonal().real.copy()
    for j in range(n):
        p = j + int(np.argmax(remaining[j:]))
        # swap j and p: the rows whole, the columns below row j, the only part read from here on
        g[[j, p]] = g[[p, j]]
        g[j:, [j, p]] = g[j:, [p, j]]
        order[[j, p]] = order[[p, j]]
        remaining[[j, p]] = remaining[[p, j]]
        column = g[j:, j] - g[j:, :j] @ np.conj(g[j, :j])
        pivot = column[0].real
        if pivot <= 0.0:
            return g[:, :j], order
        column[0] = pivot
        column /= np.sqrt(pivot)
        g[j:, j] = column
        g[:j, j] = 0.0
        remaining[j + 1 :] -= np.abs(column[1:]) ** 2
    return g, order


def spectrum_factor(imp: ImpuritySupport) -> np.ndarray:
    """R' = (a^{-1} x 1) R, (nu K, r), with R' R'* = U* U, for R R* = G = M M* and M = E C^{-1} D = a U*.

    R is G's Cholesky factor, or P L of ``pivoted_cholesky`` with r the rank
    it finds where LAPACK finds G not positive definite to working precision.
    G is the lookup of "g", (a d)(a d)* / (1 + A)^2, apart from "g2", so the moments gap ties the two.
    """
    g = support_kernel(imp, "g")
    try:
        r = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        l, order = pivoted_cholesky(g)
        r = l[np.argsort(order)]  # R = P L: row order[i] of R is row i of L
        del l
    del g  # before R' is formed
    return pointwise_rows(np.broadcast_to(imp.a_inv, (imp.points.size, *imp.a_inv.shape)), r)


def support_spectrum(imp: ImpuritySupport, xi: np.ndarray) -> np.ndarray:
    """r singular values of U Xi U*, its nonzero ones among them, non-increasing: those of R'* Xi R'
    for ``spectrum_factor``'s R' R'* = U* U, (nu K, r).

    Xi R' is formed, then R' is conjugated in its own buffer, and its transpose multiplies Xi R'.
    """
    factor = spectrum_factor(imp)
    right = xi @ factor
    form = np.conjugate(factor, out=factor).T @ right
    del factor, right  # before the eigvalsh
    return singular_spectrum(form, hermitian=True)


def support_kernel(imp: ImpuritySupport, name: str) -> np.ndarray:
    """E K E*, (nu K, nu K), for the symbol K of ``name`` in the support's table: Z = E C^{-1} E*, the
    spectrum's G, or one of the checks' kernels G1 = d d*, G2 = u u* = d d* / (1 + A)^2 and
    N = u d* = d d* / (1 + A); in the point basis, or in the real basis of the support's reflection."""
    if imp.fixed is None:
        return circulant_lookup(imp.kernels[name], imp.grid, rows=imp.points, cols=imp.points)
    return reflected_lookup(imp.kernels[name], imp.grid, imp.points, imp.points, imp.fixed)


def _trace_form(x: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """tr(x* left x right)^{1/2} = ||L x R*||_F for left = L* L and right = R* R.

    Summed over _BLOCKS row blocks of left x and x right, so that no
    product of x's full size is formed.
    """
    step = max(1, -(-x.shape[0] // _BLOCKS))
    total = sum(np.vdot(left[i : i + step] @ x, x[i : i + step] @ right) for i in range(0, x.shape[0], step))
    return float(np.sqrt(abs(total)))


def one_plus_zw(imp: ImpuritySupport) -> np.ndarray:
    """1 + Z W, (nu K, nu K), for the lookup Z = E C^{-1} E* of C^{-1} on the support.

    W and Z are Hermitian, so Z W = (W Z)*, formed in W Z's own buffer.
    """
    zw = pointwise_rows(imp.w, support_kernel(imp, "z"))
    zw = np.conjugate(zw, out=zw).T
    zw[np.diag_indices_from(zw)] += 1.0
    return zw


def support_core(imp: ImpuritySupport) -> tuple[np.ndarray, np.ndarray]:
    """Xi = a W S and S = (1 + Z W)^{-1} a, a at every support point, from the experiment's one inverse.

    With U* = E D (op + 1)^{-1} the resolvent difference is U Xi U*; 1 + Z W
    is freed once inverted. ``chain_gap`` reads S in place of a solve against 1 + W Z.
    """
    inverse = np.linalg.inv(one_plus_zw(imp))
    # a on the channel index of each row's (nu, K) view: a^T from the left, no strided operand or output
    solved = (imp.a.T @ inverse.reshape(len(inverse), imp.a.shape[0], imp.points.size)).reshape(inverse.shape)
    del inverse  # before Xi is formed
    return pointwise_rows(imp.a @ imp.w, solved), solved


def resolvent_certificate(imp: ImpuritySupport, xi: np.ndarray, g2: np.ndarray) -> float:
    """||(Ht + 1)((op + 1)^{-1} + U Xi U*) - 1||_F, absolute, from the support alone.

    Ht = op + D* E* Omega E D with Omega = at - a, and (op + 1) U = D* E*, so
    the residual is D* E* Y U* with Y = Omega + Xi + Omega N Xi. Omega and N
    never touch Z or W: the Woodbury core is checked against the operator's
    definition. The computed resolvent is off by at most the residual.

    G1 enters only this norm, tr(Y* G1 Y G2), where Y is roundoff on a
    correct core; so the residual is at least the relative gap between
    tr(G1) and K sum_xi tr g1(xi) / P, the trace its symbol "g1" = d d* gives. ``g2`` is
    the kernel G2 = U* U; N and then G1 are looked up here, one at a time.
    """
    k = imp.points.size
    omega = imp.at[imp.points] - imp.a
    y = pointwise_rows(omega, support_kernel(imp, "n") @ xi)
    y += xi
    # Omega's (c, c') entries sit on the diagonal of channel block (c, c'), point by point
    nu = omega.shape[-1]
    y.reshape(nu, k, nu, k)[:, np.arange(k), :, np.arange(k)] += omega
    g1 = support_kernel(imp, "g1")
    expected = k * float(np.trace(imp.kernels["g1"]).real.sum()) / imp.grid.total_points
    g1_gap = abs(np.trace(g1) - expected) / (expected or 1.0)
    return max(_trace_form(y, g1, g2), g1_gap)


def chain_gap(imp: ImpuritySupport, xi: np.ndarray, solved: np.ndarray, v: np.ndarray) -> float:
    """A bound on ||U Xi U* - chain||_F for the chain Tt* (Gt+1)^{-1} (-V) (G+1)^{-1} T, absolute.

    On the support the chain is U Xi_V U* with Xi_V = -a (1 + W Z)^{-1} F = -S* F (W, Z Hermitian)
    for the core's ``solved`` S = (1 + Z W)^{-1} a, F = at^{-1/2} V a^{1/2} and the printed ``v``.
    ||U X U*||_F <= ||G2||_op ||X||_F for X = Xi - Xi_V, and G2 = U* U compresses the block circulant
    of symbol u u*, so ||G2||_op <= max_xi tr(u u*), read from the table's "g2" with no lookup: the
    bound is at least the exact gap, and sees the part of X that U maps to 0. Off the support V
    vanishes; its part of the chain there is at most ||V||_F / 4, which is added.
    """
    support = imp.points
    field = imp.at_inv_sqrt[support] @ v[support] @ imp.a_sqrt
    # Xi - Xi_V = Xi + (F* S)*, formed in F* S's own buffer
    x = pointwise_rows(np.conj(field.transpose(0, 2, 1)), solved)
    x = np.conjugate(x, out=x).T
    x += xi
    g2_bound = float(np.trace(imp.kernels["g2"]).real.max())
    return g2_bound * float(np.linalg.norm(x)) + 0.25 * float(np.linalg.norm(np.delete(v, support, axis=0)))


def moments_gap(xi: np.ndarray, g2: np.ndarray, values: np.ndarray) -> float:
    """Largest gap between tr((Xi G2)^p) and the sum of ``values``^p, p = 4, 6, 8.

    Xi G2 = Xi U* U has the nonzero eigenvalues of U Xi U*, whose absolute
    values ``support_spectrum`` gave from its own factor of U* U. Relative,
    or absolute for an empty support.
    """
    b = xi @ g2
    b2 = b @ b
    del b  # only its powers are read below
    b4 = b2 @ b2
    traces = (np.trace(b4), np.einsum("ij,ji->", b4, b2), np.einsum("ij,ji->", b4, b4))
    moments = (float(np.sum(values**p)) for p in (4, 6, 8))
    return max(abs(trace - moment) / (moment or 1.0) for trace, moment in zip(traces, moments))


def support_pass(imp: ImpuritySupport, v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The support spectrum and its two residual columns, for the printed values ``v`` of V.

    The one inverse of 1 + Z W gives Xi, from which the spectrum is read. The
    factorization column is the larger of the chain gap's bound (relative to
    ||Delta||_op = s_1, or absolute where s_1 <= 1e-14) and the moments gap,
    the Deift column the resolvent certificate. Each kernel is looked up once:
    Z by the core, G by the spectrum, G2 after it, N and G1 by the certificate.
    The chain gap reads no lookup, and S is dropped before the spectrum's factor
    (README, "How an experiment is computed").
    """
    xi, solved = support_core(imp)
    chain = chain_gap(imp, xi, solved, v)
    del solved  # before the spectrum's factor
    values = support_spectrum(imp, xi)
    if values.size and values[0] > 1e-14:
        chain /= values[0]
    g2 = support_kernel(imp, "g2")
    return values, max(chain, moments_gap(xi, g2, values)), resolvent_certificate(imp, xi, g2)


def deift_residual(s_matrix: np.ndarray, left: np.ndarray, r_in: np.ndarray) -> float:
    """Frobenius norm of r_in + S* left - 1, with left = (SS*+1)^{-1} S, for a dense S.

    ``r_in`` is the given (S*S+1)^{-1} and ``left`` the given (SS*+1)^{-1} S;
    the residual vanishes when the two agree. S* left is one product with the
    conjugate transpose of ``s_matrix``. The Frobenius norm bounds the
    operator norm, so a small residual certifies the identity in both.
    """
    x = np.conj(s_matrix.T) @ left
    x += r_in
    x[np.diag_indices_from(x)] -= 1.0
    return float(np.linalg.norm(x))


def factorization_residual(
    a: HermitianMatrixField,
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
    lookup of a^{-1/2} times the symbol of C^{-1} D (``channel_resolvent_symbols``).
    Relative to ``scale`` = ||direct||_op, or absolute when that is numerically 0.
    """
    nu, points = a.basis.nu, grid.total_points
    v = v.reshape(points, nu, nu)
    support = np.flatnonzero(np.any(v != 0, axis=(1, 2)))
    c_inv_d = channel_resolvent_symbols(a, grid)[1]
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
