"""Spectral discretization of order-2m operators on a periodic box.

The box is [-L/2, L/2)^N with n points per axis and the frequency lattice
xi_k = 2 pi k / L, k in {-n/2, ..., n/2 - 1}. All adjoints and norms use
the discrete inner product <u, v> = h^N sum_x u(x) conj(v(x)); since the
weight is a uniform scalar, matrix adjoints reduce to conjugate transposes
and singular values of the plain matrices are the operator singular values.

Operators are represented matrix-free as FFT -> pointwise -> inverse FFT
pipelines, with dense materialization (against the point basis, channel-
major ordering) for small grids. The order-m derivative stack maps a scalar
function to the nu channels (i xi)^alpha u_hat(xi); because every bilinear
pairing here has |alpha| = |beta| = m, the i-powers cancel and the constant-
coefficient operator is the real Fourier multiplier
A(xi) = sum_{alpha beta} xi^alpha a[alpha, beta] xi^beta.

Internally every pipeline works on arrays of shape (*batch, channels,
*spatial), including channels == 1, so one call maps a whole block of
inputs; the public apply()/apply_adjoint() take a single input and drop the
channel axis for single-channel results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeff_algebra import HermitianMatrixField, check_positive_definite, matrix_sqrt
from .errors import DimensionCapError
from .multiindex import MultiIndexBasis, monomial_matrix

DEFAULT_DENSE_CAP = 8192


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
        return -self.L / 2.0 + self.h * np.arange(self.n)

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

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """Discrete inner product h^N sum u conj(v), summed over channels too."""
        return complex(
            self.cell_volume * np.vdot(np.asarray(v).ravel(), np.asarray(u).ravel())
        )

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.inner(u, u).real))

    def plane_wave(self, k: tuple[int, ...]) -> np.ndarray:
        """exp(i <xi_k, x>) sampled on the grid, for an integer lattice index k."""
        x = self.points()
        xi = 2.0 * np.pi / self.L * np.asarray(k, dtype=float)
        return np.exp(1j * np.tensordot(x, xi, axes=([-1], [0])))


class LinearOperatorRep:
    """An operator on grid functions: matrix-free apply plus dense materialization.

    Dense matrices are taken against the point basis with channel-major
    flattening: flat index = channel * n^N + C-order spatial index.
    """

    def __init__(
        self,
        grid: TorusGrid,
        in_channels: int,
        out_channels: int,
        apply: Callable[[np.ndarray], np.ndarray],
        apply_adjoint: Callable[[np.ndarray], np.ndarray] | None = None,
        label: str = "",
    ):
        self.grid = grid
        self.in_channels = in_channels
        self.out_channels = out_channels
        self._apply = apply
        self._apply_adjoint = apply_adjoint
        self.label = label
        self._dense: np.ndarray | None = None

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

    def apply_adjoint(self, values: np.ndarray) -> np.ndarray:
        if self._apply_adjoint is None:
            raise NotImplementedError(f"no adjoint pipeline for {self.label or 'operator'}")
        out = self._apply_adjoint(self._normalize(values, self.out_channels))
        return self._present(out, self.in_channels)

    def dense(self, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
        """Dense matrix, cached; raises DimensionCapError over ``cap``.

        One pipeline call on the identity block: row j of its output is the
        image of the j-th point-basis vector, i.e. column j of the matrix.
        """
        if self._dense is not None:
            return self._dense
        dim = max(self.in_dim, self.out_dim)
        if dim > cap:
            raise DimensionCapError(dim, cap)
        basis = np.eye(self.in_dim, dtype=complex).reshape(
            self.in_dim, self.in_channels, *self.grid.spatial_shape
        )
        images = self._apply(basis).reshape(self.in_dim, self.out_dim)
        self._dense = np.ascontiguousarray(images.T)
        return self._dense


def _derivative_multipliers(grid: TorusGrid, basis: MultiIndexBasis) -> np.ndarray:
    """(nu, *spatial) array of (i xi)^alpha over the frequency lattice."""
    freq = grid.frequency_points()  # (*spatial, N)
    mult = np.empty((basis.nu, *grid.spatial_shape), dtype=complex)
    for c, mi in enumerate(basis.entries):
        acc = np.ones(grid.spatial_shape, dtype=complex)
        for ax, e in enumerate(mi.exponents):
            if e:
                acc = acc * (1j * freq[..., ax]) ** e
        mult[c] = acc
    return mult


def _fft(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    return np.fft.fftn(u, axes=tuple(range(-grid.N, 0)))


def _ifft(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    return np.fft.ifftn(u, axes=tuple(range(-grid.N, 0)))


def _derivative_pipelines(grid: TorusGrid, basis: MultiIndexBasis):
    """Raw (channels, *spatial) pipelines for the order-m derivative stack."""
    if basis.N != grid.N:
        raise ValueError("basis dimension does not match grid")
    mult = _derivative_multipliers(grid, basis)

    def apply(u: np.ndarray) -> np.ndarray:
        return _ifft(mult * _fft(u, grid), grid)

    def apply_adjoint(v: np.ndarray) -> np.ndarray:
        acc = np.sum(np.conj(mult) * _fft(v, grid), axis=-grid.N - 1, keepdims=True)
        return _ifft(acc, grid)

    return apply, apply_adjoint


def _pointwise_field(b: HermitianMatrixField, grid: TorusGrid) -> np.ndarray:
    """The coefficient as (nu, nu) if constant, else (n^N, nu, nu) in C order."""
    if b.is_constant:
        return b.constant_matrix()
    return b.sampled_on(grid.spatial_shape).reshape(grid.total_points, b.basis.nu, b.basis.nu)


def _pointwise_matvec(field_values: np.ndarray, v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    # field from _pointwise_field; v (*batch, nu, *spatial)
    flat = v.reshape(*v.shape[: v.ndim - grid.N], grid.total_points)
    if field_values.ndim == 2:
        out = np.einsum("ab,...bp->...ap", field_values, flat)
    else:
        out = np.einsum("pab,...bp->...ap", field_values, flat)
    return out.reshape(v.shape)


def derivative_operator(grid: TorusGrid, basis: MultiIndexBasis) -> LinearOperatorRep:
    """The order-m derivative stack: scalar -> nu channels, exact on the lattice."""
    apply, apply_adjoint = _derivative_pipelines(grid, basis)
    return LinearOperatorRep(grid, 1, basis.nu, apply, apply_adjoint, label="derivative_stack")


def constant_multiplier(a: HermitianMatrixField, grid: TorusGrid) -> np.ndarray:
    """The real scalar multiplier A(xi) of the constant-coefficient operator."""
    a_mat = a.constant_matrix()
    mono = monomial_matrix(grid.frequency_points(), a.basis)  # (*spatial, nu)
    return np.einsum("...a,ab,...b->...", mono, a_mat, mono).real


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

    return LinearOperatorRep(grid, 1, 1, apply, apply, label="constant_operator")


def _circulant_blocks(kernels: np.ndarray, grid: TorusGrid, cap: int) -> np.ndarray:
    """Dense (channels * n^N, n^N) matrix of a Fourier multiplier, one channel per block.

    ``kernels`` (channels, *spatial) is the inverse FFT of each channel's symbol;
    block c has entry kernels[c] at the periodic difference x - y in (x, y).
    """
    points = grid.total_points
    rows = kernels.shape[0] * points
    if rows > cap:
        raise DimensionCapError(rows, cap)
    difference = np.zeros((points, points), dtype=np.intp)
    for index in np.indices(grid.spatial_shape).reshape(grid.N, points):
        difference = difference * grid.n + (index[:, None] - index[None, :]) % grid.n
    return kernels.reshape(-1, points)[:, difference].reshape(rows, points)


def constant_resolvent(
    a: HermitianMatrixField, grid: TorusGrid, cap: int = DEFAULT_DENSE_CAP
) -> np.ndarray:
    """(op + 1)^{-1} of the constant-coefficient operator, in closed form.

    The operator is the Fourier multiplier A(xi), so its resolvent is the
    circulant F* diag(1/(1+A)) F: the entry at (x, y) is the kernel
    ifftn(1/(1+A)) at the periodic difference x - y. No operator is
    materialized and nothing is solved.
    """
    if not a.is_constant:
        raise ValueError("constant resolvent needs a constant coefficient field")
    check_positive_definite(np.linalg.eigvalsh(a.constant_matrix()))
    kernel = _ifft(1.0 / (1.0 + constant_multiplier(a, grid)), grid)
    return _circulant_blocks(kernel[None], grid, cap)


def constant_factor_resolvent(
    a: HermitianMatrixField, grid: TorusGrid, cap: int = DEFAULT_DENSE_CAP
) -> np.ndarray:
    """T (op + 1)^{-1} = (T T* + 1)^{-1} T for T = a^{1/2} D, in closed form.

    Channel c is the Fourier multiplier sum_b (a^{1/2})_{cb} (i xi)^beta_b
    / (1 + A(xi)); the result is (nu * n^N, n^N), nothing is solved.
    """
    symbol = np.einsum(
        "cb,b...->c...", matrix_sqrt(a.constant_matrix()), _derivative_multipliers(grid, a.basis)
    )
    return _circulant_blocks(_ifft(symbol / (1.0 + constant_multiplier(a, grid)), grid), grid, cap)


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

    return LinearOperatorRep(grid, 1, 1, apply, apply, label="variable_operator")


def assemble_derivative_factor(
    b: HermitianMatrixField, grid: TorusGrid
) -> LinearOperatorRep:
    """The factor T = b . (derivative stack), so that T* T is the operator.

    ``b`` is the pointwise principal square root of the coefficient field.
    """
    der, der_adj = _derivative_pipelines(grid, b.basis)
    vals = _pointwise_field(b, grid)
    vals_h = np.conj(np.swapaxes(vals, -1, -2))

    def apply(u: np.ndarray) -> np.ndarray:
        return _pointwise_matvec(vals, der(u), grid)

    def apply_adjoint(v: np.ndarray) -> np.ndarray:
        return der_adj(_pointwise_matvec(vals_h, v, grid))

    return LinearOperatorRep(grid, 1, b.basis.nu, apply, apply_adjoint, label="derivative_factor")


def assemble_channel_gram(b: HermitianMatrixField, grid: TorusGrid) -> LinearOperatorRep:
    """The channel-side Gram operator factor . factor* acting on nu channels."""
    der, der_adj = _derivative_pipelines(grid, b.basis)
    vals = _pointwise_field(b, grid)
    vals_h = np.conj(np.swapaxes(vals, -1, -2))

    def apply(v: np.ndarray) -> np.ndarray:
        inner = der_adj(_pointwise_matvec(vals_h, v, grid))
        return _pointwise_matvec(vals, der(inner), grid)

    return LinearOperatorRep(
        grid, b.basis.nu, b.basis.nu, apply, apply, label="channel_gram"
    )


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
    flat = values.reshape(pts, nu, nu)
    out = np.zeros((nu * pts, nu * pts), dtype=complex)
    idx = np.arange(pts)
    for al in range(nu):
        for be in range(nu):
            out[al * pts + idx, be * pts + idx] = flat[:, al, be]
    return out
