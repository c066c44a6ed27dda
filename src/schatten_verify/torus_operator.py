"""Spectral discretization of order-2m operators on a periodic box.

The box is [-L/2, L/2)^N with n points per axis and the frequency lattice
xi_k = 2 pi k / L, k in {-n/2, ..., n/2 - 1}. All adjoints and norms use
the discrete inner product <u, v> = h^N sum_x u(x) conj(v(x)); since the
weight is a uniform scalar, matrix adjoints reduce to conjugate transposes
and singular values of the plain matrices are the operator singular values.

An operator is an FFT -> pointwise -> inverse FFT pipeline that applies
forward only, materialized densely (against the point basis, channel-major
ordering) for the clip study and the tests' dense oracles, which take its
adjoint as the conjugate transpose. The order-m derivative stack maps a scalar
function to the nu channels (i xi)^alpha u_hat(xi); because every bilinear
pairing here has |alpha| = |beta| = m, the i-powers cancel and the constant-
coefficient operator is the real Fourier multiplier
A(xi) = sum_{alpha beta} xi^alpha a[alpha, beta] xi^beta.

Internally every pipeline works on arrays of shape (*batch, channels,
*spatial), including channels == 1, so one call maps a whole block of
inputs; the public apply() takes a single input and drops the channel axis
for single-channel results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeff_algebra import HermitianMatrixField, check_positive_definite, principal_symbol
from .multiindex import MultiIndexBasis, monomial_matrix


@dataclass(frozen=True)
class TorusGrid:
    """Periodic box [-L/2, L/2)^N sampled with n points per axis (n even)."""

    N: int
    n: int
    L: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("dimension must be >= 1")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 2, got {self.n}")
        if not self.L > 0:
            raise ValueError("box side must be positive")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return (self.n,) * self.N

    @property
    def total_points(self) -> int:
        return self.n**self.N

    @property
    def cell_volume(self) -> float:
        return self.h**self.N

    def axis(self) -> np.ndarray:
        """h (j - n/2): index n/2 is the origin, and the points at j and n - j are exact negatives."""
        return self.h * (np.arange(self.n) - self.n // 2)

    def points(self) -> np.ndarray:
        """(*spatial, N) coordinates."""
        mesh = np.meshgrid(*([self.axis()] * self.N), indexing="ij")
        return np.stack(mesh, axis=-1)

    def frequency_axis(self) -> np.ndarray:
        """Lattice frequencies 2 pi k / L in FFT order."""
        return 2.0 * np.pi / self.L * np.fft.fftfreq(self.n, d=1.0 / self.n)

    def frequency_points(self) -> np.ndarray:
        """(*spatial, N) frequency coordinates in FFT order."""
        mesh = np.meshgrid(*([self.frequency_axis()] * self.N), indexing="ij")
        return np.stack(mesh, axis=-1)


class LinearOperatorRep:
    """An operator on grid functions: a forward pipeline plus dense materialization.

    Dense matrices are taken against the point basis with channel-major
    flattening: flat index = channel * n^N + C-order spatial index.
    """

    def __init__(
        self,
        grid: TorusGrid,
        in_channels: int,
        out_channels: int,
        apply: Callable[[np.ndarray], np.ndarray],
    ):
        self.grid = grid
        self.in_channels = in_channels
        self.out_channels = out_channels
        self._apply = apply

    @property
    def in_dim(self) -> int:
        return self.in_channels * self.grid.total_points

    @property
    def out_dim(self) -> int:
        return self.out_channels * self.grid.total_points

    def _normalize(self, values: np.ndarray, channels: int) -> np.ndarray:
        arr = np.asarray(values, dtype=complex)
        return arr.reshape((channels, *self.grid.spatial_shape))

    def _present(self, values: np.ndarray, channels: int) -> np.ndarray:
        if channels == 1:
            return values.reshape(self.grid.spatial_shape)
        return values

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = self._apply(self._normalize(values, self.in_channels))
        return self._present(out, self.out_channels)

    def dense(self) -> np.ndarray:
        """Dense matrix by one pipeline call on the identity block.

        Row j of the pipeline's output is the image of the j-th point-basis
        vector, i.e. column j of the matrix.
        """
        basis = np.eye(self.in_dim, dtype=complex).reshape(
            self.in_dim, self.in_channels, *self.grid.spatial_shape
        )
        images = self._apply(basis).reshape(self.in_dim, self.out_dim)
        return np.ascontiguousarray(images.T)


def _derivative_multipliers(grid: TorusGrid, basis: MultiIndexBasis) -> np.ndarray:
    """(nu, *spatial) array of (i xi)^alpha = i^m xi^alpha over the frequency lattice."""
    return 1j**basis.m * np.moveaxis(monomial_matrix(grid.frequency_points(), basis), -1, 0)


def _fft(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    return np.fft.fftn(u, axes=tuple(range(-grid.N, 0)))


def _ifft(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    return np.fft.ifftn(u, axes=tuple(range(-grid.N, 0)))


def _derivative_pipelines(grid: TorusGrid, basis: MultiIndexBasis):
    """Raw (channels, *spatial) pipelines for the order-m derivative stack D and its adjoint, for H~ = D* a~ D."""
    if basis.N != grid.N:
        raise ValueError("basis dimension does not match grid")
    mult = _derivative_multipliers(grid, basis)
    conj_mult = np.conj(mult)

    def apply(u: np.ndarray) -> np.ndarray:
        return _ifft(mult * _fft(u, grid), grid)

    def apply_adjoint(v: np.ndarray) -> np.ndarray:
        spectrum = np.sum(conj_mult * _fft(v, grid), axis=-grid.N - 1, keepdims=True)
        return _ifft(spectrum, grid)

    return apply, apply_adjoint


def _pointwise_field(b: HermitianMatrixField, grid: TorusGrid) -> np.ndarray:
    """The coefficient as (n^N, nu, nu) in C order."""
    return b.sampled_on(grid.spatial_shape).reshape(grid.total_points, b.basis.nu, b.basis.nu)


def _pointwise_matvec(field_values: np.ndarray, v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    # field from _pointwise_field; v (*batch, nu, *spatial), read and returned as (nu P, batch) views
    flat = v.reshape(-1, field_values.shape[1] * grid.total_points)
    return pointwise_rows(field_values, flat.T).T.reshape(v.shape)


def pointwise_rows(field_values: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Field (K, nu, nu) applied point by point to the channel-major rows (nu K, cols), through (K, nu, cols) views."""
    view = (field_values.shape[1], field_values.shape[0], stack.shape[1])
    out = np.empty(stack.shape, dtype=np.result_type(field_values, stack))
    np.matmul(field_values, stack.reshape(view).transpose(1, 0, 2), out=out.reshape(view).transpose(1, 0, 2))
    return out


def constant_multiplier(a: HermitianMatrixField, grid: TorusGrid) -> np.ndarray:
    """The real scalar multiplier A(xi) of the constant-coefficient operator: its principal symbol on the lattice."""
    return principal_symbol(a.constant_matrix(), grid.frequency_points(), a.basis)


def assemble_constant_coefficient(
    a: HermitianMatrixField, grid: TorusGrid
) -> LinearOperatorRep:
    """Constant-coefficient operator as the Fourier multiplier A(xi).

    Equal (to roundoff) to composing the derivative stack, the coefficient,
    and the adjoint stack; self-adjoint and positive semi-definite.
    """
    if not a.is_constant:
        raise ValueError("constant assembly needs a constant coefficient field")
    check_positive_definite(np.linalg.eigvalsh(a.constant_matrix()))
    mult = constant_multiplier(a, grid)

    def apply(u: np.ndarray) -> np.ndarray:
        return _ifft(mult * _fft(u, grid), grid)

    return LinearOperatorRep(grid, 1, 1, apply)


def _differences(grid: TorusGrid, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Flat index of the periodic difference x - y, (rows.size, cols.size), for the flat point indices
    x in ``rows`` and y in ``cols``."""
    shape = grid.spatial_shape
    axes = zip(np.unravel_index(rows, shape), np.unravel_index(cols, shape))
    return np.ravel_multi_index(tuple(np.subtract.outer(x, y) for x, y in axes), shape, mode="wrap")


def circulant_lookup(
    symbols: np.ndarray,
    grid: TorusGrid,
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Dense block of a matrix Fourier multiplier over point subsets.

    ``symbols`` (out, in, *spatial) holds the multiplier's (out, in) matrix
    symbol over the frequency lattice; entry ((c, x), (d, y)) of the result is
    ifftn(symbols[c, d]) at the periodic difference x - y, for the flat point
    indices x in ``rows`` and y in ``cols`` (default: every point). The result
    is (out * len(rows), in * len(cols)) in channel-major order; nothing is
    materialized beyond it and nothing is solved.
    """
    points = grid.total_points
    rows = np.arange(points) if rows is None else np.asarray(rows)
    cols = np.arange(points) if cols is None else np.asarray(cols)
    difference = _differences(grid, rows, cols)
    out_ch, in_ch = symbols.shape[:2]
    kernels = _ifft(symbols, grid).reshape(out_ch, in_ch, points)
    out = np.empty((out_ch, rows.size, in_ch, cols.size), dtype=complex)
    for c, d in np.ndindex(out_ch, in_ch):
        out[c, :, d] = kernels[c, d, difference]
    return out.reshape(out_ch * rows.size, in_ch * cols.size)


def reflected_lookup(
    symbols: np.ndarray, grid: TorusGrid, rows: np.ndarray, cols: np.ndarray, fixed: int
) -> np.ndarray:
    """circulant_lookup(symbols, grid, rows, cols) in the real basis of a reflection sigma: x -> c - x, real.

    ``rows`` and ``cols`` each list the ``fixed`` points that sigma fixes, then
    p points A and then sigma A in the same order. In every channel the basis
    is e_x over the fixed points, then (e_x + e_sigma x) / sqrt 2 and then
    i (e_x - e_sigma x) / sqrt 2 over x in A, a unitary change of the point
    basis. J = conjugation after sigma commutes with a multiplier whose symbol
    is a real matrix at every lattice frequency, the Nyquist lines included,
    so its kernel has k(-z) = conj(k(z)), and with k1 = k(x - y),
    k2 = k(sigma x - y) the entries are Re k1 + Re k2 (a plus row and column),
    Re k1 - Re k2 (minus, minus), -(Im k1 + Im k2) (plus, minus) and
    Im k1 - Im k2 (minus, plus), each times 1 / sqrt 2 per fixed point in
    it. Formed from the real and the imaginary part of the kernel at the two
    differences, one channel pair at a time: no complex array of the
    result's size is formed.
    """
    k, pairs = rows.size, (rows.size - fixed) // 2
    half, ends = fixed + pairs, slice(fixed, fixed + pairs)
    plus, minus = slice(0, half), slice(half, k)
    direct = _differences(grid, rows[:half], cols[:half])
    mirrored = _differences(grid, np.concatenate([rows[:fixed], rows[half:]]), cols[:half])
    out_ch, in_ch = symbols.shape[:2]
    kernels = _ifft(symbols, grid).reshape(out_ch, in_ch, grid.total_points)
    out = np.empty((out_ch, k, in_ch, k))
    for c, d in np.ndindex(out_ch, in_ch):
        block = out[c, :, d]
        kernel = kernels[c, d]
        k1, k2 = kernel.real[direct], kernel.real[mirrored]
        np.add(k1, k2, out=block[plus, plus])
        np.subtract(k1[ends, ends], k2[ends, ends], out=block[minus, minus])
        k1, k2 = kernel.imag[direct], kernel.imag[mirrored]
        np.subtract(k1[ends], k2[ends], out=block[minus, plus])
        np.add(k1[:, ends], k2[:, ends], out=block[plus, minus])
        block[plus, minus] *= -1.0
    out[:, :fixed] *= np.sqrt(0.5)
    out[..., :fixed] *= np.sqrt(0.5)
    return out.reshape(out_ch * k, in_ch * k)


def channel_resolvent_symbols(
    a: HermitianMatrixField, grid: TorusGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symbols of C^{-1}, C^{-1} D, (op + 1)^{-1}, D and op, for the channel-side C = D D* + a^{-1}.

    With d = ((i xi)^alpha)_alpha, C has the symbol d d* + a^{-1}, whose
    inverse is a - (a d)(a d)* / (1 + A) by Sherman-Morrison (d* a d = A);
    so C^{-1} D has the symbol a d / (1 + A), and a^{-1/2} C^{-1} D is the
    factor resolvent T (op + 1)^{-1} = (G + 1)^{-1} T of T = a^{1/2} D. The
    operator is the multiplier A(xi), so (op + 1)^{-1} has the symbol 1 / (1 + A).
    Returns (nu, nu, *spatial), (nu, 1, *spatial), (1, 1, *spatial), (nu, *spatial) and
    A itself, (*spatial).
    """
    a_mat = a.constant_matrix()
    d = _derivative_multipliers(grid, a.basis)
    ad = np.einsum("ab,b...->a...", a_mat, d)
    symbol = constant_multiplier(a, grid)
    denominator = 1.0 + symbol
    spatial = (None,) * grid.N
    c_inv = a_mat[(..., *spatial)] - ad[:, None] * np.conj(ad[None, :]) / denominator
    return c_inv, (ad / denominator)[:, None], (1.0 / denominator)[None, None], d, symbol


def assemble_variable_coefficient(
    a_tilde: HermitianMatrixField, grid: TorusGrid
) -> LinearOperatorRep:
    """Variable-coefficient operator via the derivative-coefficient-adjoint pipeline.

    Self-adjoint positive semi-definite with respect to the discrete inner
    product by construction; requires the coefficient to be positive
    definite at every sample and reports the failing points otherwise.
    """
    check_positive_definite(np.linalg.eigvalsh(a_tilde.sampled_on(grid.spatial_shape)))
    vals = _pointwise_field(a_tilde, grid)
    der, der_adj = _derivative_pipelines(grid, a_tilde.basis)

    def apply(u: np.ndarray) -> np.ndarray:
        return der_adj(_pointwise_matvec(vals, der(u), grid))

    return LinearOperatorRep(grid, 1, 1, apply)


def assemble_derivative_factor(
    b: HermitianMatrixField, grid: TorusGrid
) -> LinearOperatorRep:
    """The factor T = b . (derivative stack), so that T* T is the operator.

    ``b`` is the pointwise principal square root of the coefficient field.
    """
    der = _derivative_pipelines(grid, b.basis)[0]
    vals = _pointwise_field(b, grid)

    def apply(u: np.ndarray) -> np.ndarray:
        return _pointwise_matvec(vals, der(u), grid)

    return LinearOperatorRep(grid, 1, b.basis.nu, apply)


def block_multiplication_matrix(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Dense matrix of pointwise multiplication by a (*spatial, nu, nu) field.

    Channel-major ordering; block (alpha, beta) is the diagonal of the
    field entry over grid points.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim == 2:
        values = np.broadcast_to(values, (*grid.spatial_shape, *values.shape))
    nu = values.shape[-1]
    pts = grid.total_points
    out = np.zeros((nu, pts, nu, pts), dtype=complex)
    idx = np.arange(pts)
    out[:, idx, :, idx] = values.reshape(pts, nu, nu)
    return out.reshape(nu * pts, nu * pts)
