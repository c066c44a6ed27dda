"""Coefficient-matrix algebra and the Fourier-side symbol calculus.

The coefficient of an order-2m operator is a Hermitian positive-definite
nu x nu matrix (constant for the reference operator, sampled on a grid for
the perturbed one), with rows/columns indexed by the order-m multi-index
basis. On the Fourier side the constant-coefficient operator is the scalar
principal symbol A(xi) = xi^(m)T a xi^(m) of the coefficient a itself,
xi^(m) the vector of basis monomials; ``principal_symbol`` is its one
evaluator, on the frequency lattice, on the sphere rule's nodes and at the
Monte Carlo oracle's samples alike.

The coarea constant converts frequency-space integrals of g^2(A(xi)) into
the weighted half-line integrals used by the trace-norm estimates:

    (2pi)^{-N} integral g^2(A(xi)) dxi = c_cov * integral g^2(t) t^{(N-2m)/2m} dt

with c_cov = (2pi)^{-N} (N/2m) vol{A < 1}; all 2pi bookkeeping lives in
c_cov because the transform convention is unitary throughout. The CLI takes
the volume from a deterministic quadrature on the unit sphere
(coarea_constant); the Monte Carlo sublevel_volume is kept as the tests'
independent check of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDefiniteError, QuadratureError
from .multiindex import MultiIndexBasis, monomial_matrix

HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class HermitianMatrixField:
    """A nu x nu Hermitian matrix, constant or sampled over a spatial grid.

    ``values`` has shape (nu, nu) for a constant field and
    (*spatial_shape, nu, nu) for a sampled one.
    """

    basis: MultiIndexBasis
    values: np.ndarray

    def __post_init__(self):
        nu = self.basis.nu
        v = np.asarray(self.values, dtype=complex)
        if v.ndim < 2 or v.shape[-1] != nu or v.shape[-2] != nu:
            raise ValueError(f"field values must end in ({nu}, {nu}), got {v.shape}")
        herm_gap = np.linalg.norm(v - np.conj(np.swapaxes(v, -1, -2)))
        scale = np.linalg.norm(v)
        if herm_gap > HERMITICITY_RTOL * max(scale, 1.0):
            raise ValueError(
                f"field is not Hermitian: ||a - a*|| = {herm_gap:.3g} "
                f"exceeds {HERMITICITY_RTOL:g} * ||a||"
            )
        object.__setattr__(self, "values", v)

    @property
    def is_constant(self) -> bool:
        return self.values.ndim == 2

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return self.values.shape[:-2]

    def constant_matrix(self) -> np.ndarray:
        if not self.is_constant:
            raise ValueError("field is sampled, not constant")
        return self.values

    def sampled_on(self, spatial_shape: tuple[int, ...]) -> np.ndarray:
        """Values broadcast to (*spatial_shape, nu, nu)."""
        if self.is_constant:
            return np.broadcast_to(
                self.values, spatial_shape + self.values.shape
            ).copy()
        if self.spatial_shape != tuple(spatial_shape):
            raise ValueError(
                f"field sampled on {self.spatial_shape}, expected {spatial_shape}"
            )
        return self.values


def constant_field(basis: MultiIndexBasis, matrix) -> HermitianMatrixField:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("constant field expects a single matrix")
    return HermitianMatrixField(basis, matrix)


def sampled_field(basis: MultiIndexBasis, values) -> HermitianMatrixField:
    values = np.asarray(values, dtype=complex)
    if values.ndim < 3:
        raise ValueError("sampled field expects (*spatial, nu, nu) values")
    return HermitianMatrixField(basis, values)


def polyharmonic_coefficients(basis: MultiIndexBasis) -> HermitianMatrixField:
    """Diagonal multinomial weights m!/alpha! making A(xi) = |xi|^(2m).

    The multinomial theorem gives sum_{|a|=m} (m!/a!) xi^(2a) = |xi|^(2m),
    so this is the canonical reference coefficient.
    """
    weights = [math.factorial(basis.m) / np.prod([math.factorial(e) for e in alpha]) for alpha in basis.entries]
    return constant_field(basis, np.diag(np.asarray(weights, dtype=float)))


def check_positive_definite(eigenvalues: np.ndarray) -> None:
    """Raise NonPositiveDefiniteError unless every eigenvalue is positive.

    ``eigenvalues`` has shape (nu,) for one matrix or (*spatial, nu) for a
    sampled field; for a field the error lists the failing grid points.
    """
    failing = eigenvalues.min(axis=-1) <= 0
    if np.any(failing):
        points = [tuple(map(int, idx)) for idx in np.argwhere(failing)] if failing.ndim else []
        raise NonPositiveDefiniteError(eigenvalues.min(), points)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 over the last two axes, formed in one new C-ordered buffer."""
    part = np.conj(np.swapaxes(m, -1, -2), order="C")
    part += m
    part *= 0.5
    return part


def _spectral_rebuild(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hermitian part of Q diag(w) Q*, pointwise over any leading axes."""
    return hermitian_part((q * w[..., None, :]) @ np.conj(np.swapaxes(q, -1, -2)))


def field_powers(values, *exponents: float) -> tuple[np.ndarray, ...]:
    """Pointwise principal powers a^s, one per exponent, of a Hermitian positive-definite matrix.

    ``values`` is one (nu, nu) matrix or a (*spatial, nu, nu) field; one
    eigendecomposition serves the positivity check and every power.
    """
    w, q = np.linalg.eigh(np.asarray(values, dtype=complex))
    check_positive_definite(w)
    return tuple(_spectral_rebuild(q, w**s) for s in exponents)


def field_power(values, s: float) -> np.ndarray:
    """Pointwise principal power a^s (``field_powers`` with one exponent)."""
    return field_powers(values, s)[0]


def matrix_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian positive-definite matrix."""
    return field_power(a, 0.5)


def matrix_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse principal square root of a Hermitian positive-definite matrix."""
    return field_power(a, -0.5)


def sqrt_field(field: HermitianMatrixField) -> HermitianMatrixField:
    """Pointwise principal square root of a positive-definite field."""
    return HermitianMatrixField(field.basis, field_power(field.values, 0.5))


def clip_coefficients(field: HermitianMatrixField, n) -> HermitianMatrixField:
    """Pointwise spectral clipping: each eigenvalue lambda -> max(1/n, min(lambda, n)).

    Eigenvectors are unchanged; the result is Hermitian with spectrum in
    [1/n, n], so the clipped field is uniformly elliptic by construction.
    Positive definiteness of the input is not required.
    """
    if n is None or n < 1:
        raise ValueError(f"clip level must be >= 1, got {n}")
    w, q = np.linalg.eigh(field.values)
    return HermitianMatrixField(field.basis, _spectral_rebuild(q, np.clip(w, 1.0 / n, float(n))))


def principal_symbol(a: np.ndarray, points, basis: MultiIndexBasis) -> np.ndarray:
    """A(xi) = Re xi^(m)T a xi^(m) of the (nu, nu) coefficient ``a`` at (..., N) ``points``; (...).

    Homogeneous of degree 2m, and positive off xi = 0 for a positive-definite a.
    """
    mono = monomial_matrix(np.asarray(points, dtype=float), basis)
    return np.einsum("...a,ab,...b->...", mono, a, mono).real


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Monte Carlo value with its binomial standard error."""

    value: float
    stderr: float
    samples: int


def sublevel_bounding_radius(a: np.ndarray, basis: MultiIndexBasis) -> float:
    """Radius of a ball guaranteed to contain {A < 1} for the coefficient ``a``.

    From sum_{|g|=m} xi^(2g) >= (|xi|^2/N)^m one gets
    A(xi) >= lambda_min(a) (|xi|^2/N)^m, so {A < 1} is inside the ball of
    radius sqrt(N) lambda_min(a)^{-1/(2m)}.
    """
    w = np.linalg.eigvalsh(a)
    check_positive_definite(w)
    return float(np.sqrt(basis.N)) * float(w.min()) ** (-1.0 / (2 * basis.m))


def sublevel_volume(
    a: np.ndarray,
    basis: MultiIndexBasis,
    samples: int = 1_000_000,
    seed: int = 0,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of vol{xi : A(xi) < 1} with standard error.

    Samples uniformly in the enclosing cube of the rigorous bounding ball,
    all in one draw; deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    radius = sublevel_bounding_radius(a, basis)
    box_volume = (2.0 * radius) ** basis.N
    pts = np.random.default_rng(seed).uniform(-radius, radius, size=(samples, basis.N))
    frac = int(np.count_nonzero(principal_symbol(a, pts, basis) < 1.0)) / samples
    value = box_volume * frac
    stderr = box_volume * float(np.sqrt(max(frac * (1.0 - frac), 0.0) / samples))
    return MonteCarloEstimate(value=value, stderr=stderr, samples=samples)


SPHERE_RULE_RTOL = 1e-13
SPHERE_RULE_MAX_POINTS = 2**20


def _sphere_rule(N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (M, N) on the unit sphere S^{N-1} and weights summing to its area.

    N = 1: the two points +-1. N >= 2: the periodic trapezoid rule with n
    nodes in the azimuth, times n/2-point Gauss-Legendre in each of the N - 2
    polar angles, whose weights carry the Jacobian sin^k.
    """
    if N == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2)
    phi = 2.0 * np.pi * np.arange(n) / n
    nodes = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    weights = np.full(n, 2.0 * np.pi / n)
    if N > 2:
        t, w = np.polynomial.legendre.leggauss(n // 2)
        theta, w = 0.5 * np.pi * (t + 1.0), 0.5 * np.pi * w
    for k in range(1, N - 1):
        # S^{k+1} from S^k: x = (cos theta, sin theta * x'), area element sin^k theta dtheta dx'
        first = np.broadcast_to(np.cos(theta)[:, None, None], (len(theta), len(nodes), 1))
        nodes = np.concatenate([first, np.sin(theta)[:, None, None] * nodes], axis=-1).reshape(-1, k + 2)
        weights = np.outer(w * np.sin(theta) ** k, weights).ravel()
    return nodes, weights


def _rule_points(N: int, n: int) -> int:
    return n * (n // 2) ** max(N - 2, 0)


def coarea_constant(a: np.ndarray, basis: MultiIndexBasis) -> tuple[float, float]:
    """c_cov = (2pi)^{-N} (N/2m) vol{A < 1} of the coefficient ``a`` by a rule on the unit sphere:
    (value, error).

    A is homogeneous of degree 2m, so vol{A < 1} = (1/N) integral_{S^{N-1}} A^{-N/2m}.
    The integrand is smooth and periodic in the angles, where the trapezoid
    rule converges exponentially (Trefethen & Weideman, SIAM Rev. 56 (2014)
    385-458). From 64 azimuth nodes the rule doubles until two successive
    values agree to SPHERE_RULE_RTOL; their difference is the error estimate.
    Raises QuadratureError when no two rules of at most SPHERE_RULE_MAX_POINTS
    points agree.
    """
    N, m = basis.N, basis.m
    prefactor = (2.0 * np.pi) ** (-N) * (N / (2.0 * m)) / N
    n, previous, relative_gap = 64, None, math.inf
    while _rule_points(N, n) <= SPHERE_RULE_MAX_POINTS:
        nodes, weights = _sphere_rule(N, n)
        value = prefactor * float(weights @ principal_symbol(a, nodes, basis) ** (-N / (2.0 * m)))
        if previous is not None:
            relative_gap = abs(value - previous) / value
            if relative_gap <= SPHERE_RULE_RTOL:
                return value, abs(value - previous)
        n, previous = 2 * n, value
    raise QuadratureError(
        f"the coarea constant's sphere rule did not converge within {SPHERE_RULE_MAX_POINTS} "
        f"points: successive rules differ by {relative_gap:.3g} relative, not "
        f"{SPHERE_RULE_RTOL:g}; the principal symbol is too anisotropic, or N too large, "
        f"for the rule"
    )
