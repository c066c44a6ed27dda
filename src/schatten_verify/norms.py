"""The weighted profile norm, matrix-field L^p norms, and the relative perturbation.

The half-line norm is taken in L^p(R_+, t^w dt) with weight exponent
w = (N - 2m)/(2m). For the canonical resolvent profile
g(t) = sqrt(t)/(1 + t) it has the closed form

    ||g||_p^* = Beta(p/2 + N/(2m), p/2 - N/(2m))^(1/p),

finite exactly when p > N/m. The matrix-field L^p norm integrates the
pointwise operator norm (largest singular value) of the field.
"""

from __future__ import annotations

import math

import numpy as np


def resolvent_profile_norm(p: float, N: int, m: int) -> float | None:
    """Closed-form ||g||_p^* for the canonical profile, or None when infinite.

    The integrand t^(p/2 + w) (1+t)^(-p) is a Beta integral with
    x = p/2 + N/(2m), y = p/2 - N/(2m); it converges iff y > 0, i.e.
    p > N/m.
    """
    if p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    x = p / 2.0 + N / (2.0 * m)
    y = p / 2.0 - N / (2.0 * m)
    if y <= 0:
        return None
    log_beta = math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
    return math.exp(log_beta / p)


def relative_perturbation(
    at: np.ndarray, at_inv_sqrt: np.ndarray, a: np.ndarray, a_inv_sqrt: np.ndarray
) -> np.ndarray:
    """Pointwise atilde^(-1/2) (atilde - a) a^(-1/2) with principal roots.

    ``at`` holds the sampled atilde and ``at_inv_sqrt`` its principal
    atilde^(-1/2), both (..., nu, nu) of one shape; ``a`` is the constant
    (nu, nu) reference and ``a_inv_sqrt`` its a^(-1/2) (see
    ``impurity_support``). Returns complex values of the shape of ``at``, not
    Hermitian in general (they are when the two coefficients commute
    pointwise).
    """
    return at_inv_sqrt @ (at - a) @ a_inv_sqrt


def pointwise_operator_norms(values: np.ndarray) -> np.ndarray:
    """||V(x)||_op, the largest singular value, at every point of (*spatial, nu, nu) ``values``; flat."""
    return np.linalg.svd(values.reshape(-1, *values.shape[-2:]), compute_uv=False)[:, 0]


def lp_norm_of_pointwise(top: np.ndarray, cell_volume: float, p: float) -> float:
    """(h^N sum_x top(x)^p)^(1/p) of pointwise norms ``top``; p = inf gives the sup, 0 when empty.
    A sum that underflows past the normal floats (p = 1e308), a norm of 0 or of few digits, raises."""
    if p != np.inf and p < 1:
        raise ValueError(f"norm exponent must be >= 1 or inf, got {p}")
    if p == np.inf:
        return float(top.max(initial=0.0))
    total = np.sum(top**p)
    if total < np.finfo(float).tiny and top.any():
        raise FloatingPointError(f"underflow in the l^p sum at p = {p:g}")
    return float((cell_volume * total) ** (1.0 / p))


def matrix_field_lp_norm(values: np.ndarray, cell_volume: float, p: float) -> float:
    """(h^N sum_x ||V(x)||_op^p)^(1/p) over (*spatial, nu, nu) ``values``; p = inf gives the sup.

    The pointwise norm is the largest singular value of V(x) acting on
    C^nu; ``cell_volume`` is h^N.
    """
    return lp_norm_of_pointwise(pointwise_operator_norms(values), cell_volume, p)
