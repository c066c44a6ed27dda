"""Multi-indices of a fixed total order and the monomials they index.

Every object in this package whose size is the number of order-m
multi-indices in N variables (coefficient matrices, symbol vectors,
derivative channels) uses the enumeration order fixed here: ascending
lexicographic on the exponent tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class MultiIndex:
    """Tuple of non-negative integer exponents."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"negative exponent in {self.exponents}")


@dataclass(frozen=True)
class MultiIndexBasis:
    """All multi-indices of order ``m`` in ``N`` variables, lexicographically sorted.

    The length is the stars-and-bars count C(N+m-1, N-1).
    """

    N: int
    m: int
    entries: tuple[MultiIndex, ...]

    @property
    def nu(self) -> int:
        return len(self.entries)

    def exponent_array(self) -> np.ndarray:
        """(nu, N) integer array of exponents, row per basis entry."""
        return np.array([mi.exponents for mi in self.entries], dtype=np.int64)


def _compositions(n_vars: int, total: int) -> Iterator[tuple[int, ...]]:
    # yields exponent tuples in ascending lexicographic order
    if n_vars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(n_vars - 1, total - first):
            yield (first,) + rest


def basis_size(N: int, m: int) -> int:
    """nu = C(N+m-1, m), the number of multi-indices with |alpha| = m in N variables, without listing them.

    Rejects N = 0 or m = 0; the degenerate cases have no use here.
    """
    if N < 1:
        raise ValueError(f"spatial dimension must be >= 1, got {N}")
    if m < 1:
        raise ValueError(f"half-order must be >= 1, got {m}")
    return comb(N + m - 1, m)


def enumerate_basis(N: int, m: int) -> MultiIndexBasis:
    """All multi-indices with |alpha| = m in N variables, lexicographic order."""
    nu = basis_size(N, m)
    entries = tuple(MultiIndex(e) for e in _compositions(N, m))
    assert len(entries) == nu
    return MultiIndexBasis(N=N, m=m, entries=entries)


def monomial_matrix(points: np.ndarray, basis: MultiIndexBasis) -> np.ndarray:
    """Evaluate every basis monomial at a batch of points.

    points: (..., N) array. Returns (..., nu) with column order matching
    ``basis.entries``.
    """
    points = np.asarray(points)
    if points.shape[-1] != basis.N:
        raise ValueError(
            f"points have dimension {points.shape[-1]}, basis expects {basis.N}"
        )
    exps = basis.exponent_array()  # (nu, N)
    # broadcast: (..., 1, N) ** (nu, N) -> (..., nu, N) -> product over last axis
    return np.prod(points[..., None, :] ** exps, axis=-1)
