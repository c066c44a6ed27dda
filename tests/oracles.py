"""Oracles: independent reference computations the package does not run."""

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from schatten_verify import (
    LinearOperatorRep,
    TorusGrid,
    assemble_derivative_factor,
    monomial_matrix,
    operator_norm,
    resolvent,
    sqrt_field,
)
from schatten_verify.coeff_algebra import HermitianMatrixField
from schatten_verify.errors import ConfigError
from schatten_verify.harness import CSV_HEADER, Assertion, HarnessConfig, ReportRow, study_assertions
from schatten_verify.multiindex import MultiIndexBasis
from schatten_verify.schatten_analysis import one_plus_zw
from schatten_verify.torus_operator import (
    _derivative_pipelines,
    _pointwise_field,
    _pointwise_matvec,
    channel_resolvent_symbols,
    circulant_lookup,
    pointwise_rows,
)


def inner(grid: TorusGrid, u: np.ndarray, v: np.ndarray) -> complex:
    """Discrete inner product h^N sum u conj(v), summed over channels too."""
    return complex(grid.cell_volume * np.vdot(np.asarray(v).ravel(), np.asarray(u).ravel()))


def plane_wave(grid: TorusGrid, k: tuple[int, ...]) -> np.ndarray:
    """exp(i <xi_k, x>) sampled on the grid, for an integer lattice index k."""
    xi = 2.0 * np.pi / grid.L * np.asarray(k, dtype=float)
    return np.exp(1j * np.tensordot(grid.points(), xi, axes=([-1], [0])))


def monomial(xi, gamma: tuple[int, ...]):
    """Evaluate xi^gamma = prod_i xi_i**gamma_i for the exponent tuple gamma, with the 0**0 = 1 convention.

    The empty-exponent convention makes the zero frequency well-defined:
    all-zero gamma gives 1 regardless of xi.
    """
    xi = np.asarray(xi)
    if xi.shape[-1] != len(gamma):
        raise ValueError(f"point has dimension {xi.shape[-1]}, multi-index has {len(gamma)}")
    # numpy already evaluates 0.0**0 as 1.0, matching the convention
    return np.prod(xi ** np.asarray(gamma), axis=-1)


def resolvent_profile(t):
    """g(t) = sqrt(t)/(1+t): the scalar profile of op^(1/2) (op+1)^(-1).

    Bounded by 1/2 (attained at t = 1), continuous, g(0) = 0, and decaying
    like t^(-1/2) at infinity.
    """
    t = np.asarray(t, dtype=float)
    return np.sqrt(t) / (1.0 + t)


def resolvent_difference(matrix_tilde: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    return resolvent(matrix_tilde) - resolvent(matrix)


def stripe_spectrum(a: HermitianMatrixField, at: HermitianMatrixField, grid: TorusGrid) -> np.ndarray:
    """Singular values of (H~+1)^{-1} - (H+1)^{-1}, largest first, for an a~ that varies along x_1 alone.

    For such an a~ (a box spanning every axis but x_1), H~ and H commute with translations in x_2..x_N, so
    over their lattice frequencies eta the difference is block diagonal: n^(N-1) dense n x n problems in x_1, with
    no support and no kernel lookup, at any P. Each block is formed in x_1's unitary Fourier basis by the
    scaled second resolvent identity, -r K (1 + K)^{-1} r with r = (1 + A)^{-1/2} and
    K = r d* (a~ - a) d r, d = (i xi)^alpha: the spectrum of 1 + K lies between 1 and the extremes of
    a^{-1/2} a~ a^{-1/2}, so no step loses the digits that inverting H~ + 1 loses to its condition,
    about 1 + max A (2.6e5 at N = 2, m = 2, n = 32, L = 2 pi, where the lhs of such inverses is off by 1.5e-11).
    """
    n, nu = grid.n, a.basis.nu
    stripe = at.values.reshape(n, -1, nu, nu)
    if not np.array_equal(stripe, np.broadcast_to(stripe[:, :1], stripe.shape)):
        raise ValueError("a~ varies along an axis other than x_1")
    # (i xi)^alpha over (xi_1, eta, alpha), and r over (eta, xi_1)
    d = 1j**a.basis.m * monomial_matrix(grid.frequency_points(), a.basis).reshape(n, -1, nu)
    r = (1.0 + np.einsum("kea,ab,keb->ek", np.conj(d), a.values, d).real) ** -0.5
    u = np.fft.fft(np.eye(n), norm="ortho")
    # a~ - a in x_1's Fourier basis, (alpha, beta, xi_1, xi_1')
    jump = np.einsum("kj,jab,lj->abkl", u, stripe[:, 0] - a.values, np.conj(u))
    g = d.transpose(1, 2, 0) * r[:, None]
    lam, q = np.linalg.eigh(np.einsum("eak,abkl,ebl->ekl", np.conj(g), jump, g))
    delta = -r[:, :, None] * ((q * (lam / (1.0 + lam))[:, None]) @ np.conj(q.transpose(0, 2, 1))) * r[:, None]
    return np.sort(np.abs(np.linalg.eigvalsh(delta)).ravel())[::-1]


def derivative_operator(grid: TorusGrid, basis: MultiIndexBasis) -> LinearOperatorRep:
    """The order-m derivative stack: scalar -> nu channels, exact on the lattice."""
    return LinearOperatorRep(grid, 1, basis.nu, _derivative_pipelines(grid, basis)[0])


def assemble_channel_gram(b: HermitianMatrixField, grid: TorusGrid) -> LinearOperatorRep:
    """The channel-side Gram operator factor . factor* acting on nu channels."""
    der, der_adj = _derivative_pipelines(grid, b.basis)
    vals = _pointwise_field(b, grid)
    vals_h = np.conj(np.swapaxes(vals, -1, -2))

    def apply(v: np.ndarray) -> np.ndarray:
        back = der_adj(_pointwise_matvec(vals_h, v, grid))
        return _pointwise_matvec(vals, der(back), grid)

    return LinearOperatorRep(grid, b.basis.nu, b.basis.nu, apply)


def spectral_symbol_lattice(
    b: np.ndarray, points: np.ndarray, g: Callable, basis: MultiIndexBasis
) -> np.ndarray:
    """Rank-one matrix symbols g(A) A^{-1} B (x) conj(B) over a batch of frequencies.

    Returns (..., nu, nu). g must satisfy g(0) = 0; the xi = 0 singularity
    is removable and the zero matrix is returned there. The operator norm
    of each symbol equals |g(A(xi))|.
    """
    mono = monomial_matrix(np.asarray(points, dtype=float), basis)  # (..., nu)
    vec = mono @ np.asarray(b).T
    a_val = np.sum(np.abs(vec) ** 2, axis=-1)
    gv = np.asarray(g(a_val), dtype=float)
    scale = np.zeros_like(a_val)
    nz = a_val > 0
    scale[nz] = gv[nz] / a_val[nz]
    return scale[..., None, None] * (vec[..., :, None] * np.conj(vec[..., None, :]))


def channel_solve(factor):
    """(F F* + 1)^{-1} F by one dense solve, for a rectangular factor F."""
    f = np.asarray(factor, dtype=complex)
    gram = f @ np.conj(f.T)
    gram[np.diag_indices_from(gram)] += 1.0
    return np.linalg.solve(gram, f)


def support_unitary(imp) -> np.ndarray:
    """Q, (nu K, nu K): the basis of the support pass over the point basis of ``imp.points``, channel-major.

    A nu K x nu K matrix X of the pass is Q X Q* in the point basis. Q is the
    identity where the pass runs in the point basis (``imp.fixed`` None);
    otherwise its columns are, in every channel, e_x over the fixed points,
    then (e_x + e_sigma x) / sqrt 2 and then i (e_x - e_sigma x) / sqrt 2 over
    the points x of A, for ``imp.points`` = fixed points, A, sigma A.
    """
    k, nu = imp.points.size, imp.a.shape[0]
    q = np.eye(k, dtype=complex)
    if imp.fixed is not None:
        pairs = (k - imp.fixed) // 2
        first = np.arange(imp.fixed, imp.fixed + pairs)
        second = first + pairs
        q[first, first] = q[second, first] = np.sqrt(0.5)
        q[first, second], q[second, second] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
    return np.kron(np.eye(nu), q)


def in_point_basis(imp, matrix: np.ndarray) -> np.ndarray:
    """Q X Q*: a nu K x nu K matrix of the support pass in the point basis of ``imp.points``."""
    q = support_unitary(imp)
    return q @ matrix @ np.conj(q.T)


def woodbury_left_end(a: HermitianMatrixField, imp) -> np.ndarray:
    """(Gt+1)^{-1} Tt for Tt = at^{1/2} D, from the impurity's support ``imp``.

    With B = at^{1/2} and C = D D* + a^{-1}, Gt + 1 = B (D D* + at^{-1}) B and
    D D* + at^{-1} = C + E* W E. Woodbury gives

        (Gt+1)^{-1} Tt = B^{-1} [C^{-1} D - C^{-1} E* W (1 + Z W)^{-1} M],

    with the lookups Z = E C^{-1} E* and M = E C^{-1} D; on the support rows
    the bracket is (1 + Z W)^{-1} M itself. Reads W, at^{-1/2} and the
    core's own 1 + Z W (``one_plus_zw``, in the point basis) from ``imp``, and the symbols of
    C^{-1} D and C^{-1} from ``channel_resolvent_symbols``. Returns
    (nu * n^N, n^N).
    """
    grid, support = imp.grid, imp.points
    (points, nu, _), k = imp.at.shape, support.size
    rest = np.setdiff1d(np.arange(points), support)
    c_inv, c_inv_d = channel_resolvent_symbols(a, grid)[:2]
    inner = circulant_lookup(c_inv_d, grid).reshape(nu, points, points)  # C^{-1} D
    y = np.linalg.solve(in_point_basis(imp, one_plus_zw(imp)), inner[:, support].reshape(nu * k, points))
    # on the support M - Z W Y is Y itself; off it, C^{-1} D - (C^{-1} E*) W Y
    coupling = circulant_lookup(c_inv, grid, rows=rest, cols=support)
    inner[:, rest] -= (coupling @ pointwise_rows(imp.w, y)).reshape(nu, rest.size, points)
    inner[:, support] = y.reshape(nu, k, points)
    return pointwise_rows(imp.at_inv_sqrt, inner.reshape(nu * points, points))


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


def lattice_symbol_integral(
    b: np.ndarray,
    basis: MultiIndexBasis,
    g: Callable,
    spacing: float,
    radius: float,
    chunk_rows: int = 64,
) -> float:
    """Riemann-sum approximation of (2pi)^{-N} integral g^2(A(xi)) dxi.

    Sums g^2(A) over the lattice spacing*Z^N intersected with [-radius, radius]^N,
    weighting each point by the cell volume. Used to validate the coarea
    constant by direct numerical equality.
    """
    N = basis.N
    axis = np.arange(-radius, radius + spacing / 2, spacing)
    b = np.asarray(b)
    cell = spacing**N / (2.0 * np.pi) ** N
    if N == 1:
        vals = np.sum(np.abs(monomial_matrix(axis[:, None], basis) @ b.T) ** 2, axis=-1)
        return cell * float(np.sum(np.asarray(g(vals)) ** 2))
    total = 0.0
    rest = np.meshgrid(*([axis] * (N - 1)), indexing="ij")
    rest_stack = np.stack([r.ravel() for r in rest], axis=-1)  # (M, N-1)
    for start in range(0, len(axis), chunk_rows):
        first = axis[start : start + chunk_rows]
        pts = np.concatenate(
            [
                np.repeat(first, len(rest_stack))[:, None],
                np.tile(rest_stack, (len(first), 1)),
            ],
            axis=1,
        )
        vals = np.sum(np.abs(monomial_matrix(pts, basis) @ b.T) ** 2, axis=-1)
        total += float(np.sum(np.asarray(g(vals)) ** 2))
    return cell * total


# tail decay exponent of the canonical profile, used by the analytic
# divergence check in weighted_profile_norm
_RESOLVENT_PROFILE_DECAY = 0.5


def weighted_profile_norm(
    g: Callable,
    p: float,
    N: int,
    m: int,
    tol: float = 1e-11,
    tail_decay: float | None = None,
) -> float | None:
    """Quadrature of (integral |g|^p t^w dt)^(1/p), w = (N - 2m)/(2m); None when infinite.

    The improper integral is mapped to (0, 1) by t = s/(1-s). Divergence is
    decided analytically from the tail decay of g (g(t) ~ t^-decay): the
    integral converges iff p*decay > w + 1. The canonical profile's decay is
    known; any other profile must declare ``tail_decay``. This quadrature is
    the independent check of resolvent_profile_norm's closed form.
    """
    from scipy.integrate import quad

    if tol <= 0:
        raise ValueError("tolerance must be positive")
    w = (N - 2 * m) / (2.0 * m)
    if tail_decay is None:
        if g is not resolvent_profile:
            raise ValueError("tail_decay is required for a profile other than resolvent_profile")
        tail_decay = _RESOLVENT_PROFILE_DECAY
    if p * tail_decay <= w + 1.0:
        return None

    def integrand(s: float) -> float:
        t = s / (1.0 - s)
        return abs(float(g(t))) ** p * t**w / (1.0 - s) ** 2

    value, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=tol, limit=400)
    return value ** (1.0 / p)


def parse_csv_rows(text: str) -> list[ReportRow]:
    """Inverse of ReportRow.csv_line, for recomputing assertions from a written report."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if ",".join(header) != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        rows.append(
            ReportRow(
                experiment=rec[0],
                p=float(rec[1]),
                lhs=float(rec[2]),
                rhs=float(rec[3]),
                constant=float(rec[4]),
                ratio=float(rec[5]),
                factorization_residual=float(rec[6]),
                deift_residual=float(rec[7]),
                n=int(rec[8]),
                L=float(rec[9]),
                seconds=float(rec[10]),
            )
        )
    return rows


def recompute_assertions_from_csv(
    csv_text: str, config: HarnessConfig, study: str, extras: dict | None = None
) -> list[Assertion]:
    """Re-derive the pass/fail flags from a written CSV report and its summary extras."""
    return study_assertions(study, parse_csv_rows(csv_text), config, extras or {})
