"""Weighted scalar norms, matrix-field L^p norms, and the relative perturbation.

The half-line norm is taken in L^p(R_+, t^w dt) with weight exponent
w = (N - 2m)/(2m). For the canonical resolvent profile
g(t) = sqrt(t)/(1 + t) it has the closed form

    ||g||_p^* = Beta(p/2 + N/(2m), p/2 - N/(2m))^(1/p),

finite exactly when p > N/m. The matrix-field L^p norm integrates the
pointwise operator norm (largest singular value) of the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeff_algebra import HermitianMatrixField, field_power, matrix_inv_sqrt


def resolvent_profile(t):
    """g(t) = sqrt(t)/(1+t): the scalar profile of op^(1/2) (op+1)^(-1).

    Bounded by 1/2 (attained at t = 1), continuous, g(0) = 0, and decaying
    like t^(-1/2) at infinity.
    """
    t = np.asarray(t, dtype=float)
    return np.sqrt(t) / (1.0 + t)


@dataclass(frozen=True)
class WeightedNormSpec:
    """Parameters of the weighted half-line norm ||.||_p^*."""

    p: float
    N: int
    m: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"norm exponent must be >= 1, got {self.p}")
        if self.N < 1 or self.m < 1:
            raise ValueError("N and m must be positive integers")

    @property
    def weight_exponent(self) -> float:
        return (self.N - 2 * self.m) / (2.0 * self.m)

    @property
    def canonical_profile_finite(self) -> bool:
        return self.p > self.N / self.m


def resolvent_profile_norm(spec: WeightedNormSpec) -> float | None:
    """Closed-form ||g||_p^* for the canonical profile, or None when infinite.

    The integrand t^(p/2 + w) (1+t)^(-p) is a Beta integral with
    x = p/2 + N/(2m), y = p/2 - N/(2m); it converges iff y > 0, i.e.
    p > N/m.
    """
    x = spec.p / 2.0 + spec.N / (2.0 * spec.m)
    y = spec.p / 2.0 - spec.N / (2.0 * spec.m)
    if y <= 0:
        return None
    log_beta = math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
    return math.exp(log_beta / spec.p)


@dataclass(frozen=True)
class PerturbationField:
    """Samples of the relative coefficient perturbation on a grid.

    values: (*spatial, nu, nu) complex; not Hermitian in general (it is when
    the two coefficients commute pointwise).
    """

    values: np.ndarray
    cell_volume: float


def relative_perturbation(
    a: HermitianMatrixField,
    a_tilde: HermitianMatrixField,
    cell_volume: float,
) -> PerturbationField:
    """Pointwise atilde^(-1/2) (atilde - a) a^(-1/2) with principal roots.

    Raises NonPositiveDefiniteError listing the failing grid points; callers
    holding a degenerate coefficient should clip first.
    """
    if not a.is_constant:
        raise ValueError("reference coefficient must be constant")
    a_mat = a.constant_matrix()
    inv_sqrt_a = matrix_inv_sqrt(a_mat)
    vals = a_tilde.values
    out = field_power(vals, -0.5) @ (vals - a_mat) @ inv_sqrt_a
    return PerturbationField(values=out, cell_volume=cell_volume)


def matrix_field_lp_norm(field: PerturbationField, p: float) -> float:
    """(h^N sum_x ||V(x)||_op^p)^(1/p); p = inf gives the sup over the grid.

    The pointwise norm is the largest singular value of V(x) acting on
    C^nu.
    """
    if p != np.inf and p < 1:
        raise ValueError(f"norm exponent must be >= 1 or inf, got {p}")
    vals = field.values.reshape(-1, *field.values.shape[-2:])
    top = np.linalg.svd(vals, compute_uv=False)[:, 0]
    if p == np.inf:
        return float(top.max())
    return float((field.cell_volume * np.sum(top**p)) ** (1.0 / p))
