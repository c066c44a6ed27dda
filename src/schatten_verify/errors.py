"""Shared exception types."""

from __future__ import annotations


class NonPositiveDefiniteError(ValueError):
    """A matrix (or matrix field) required to be positive definite is not.

    Carries the smallest offending eigenvalue and, for sampled fields, the
    grid indices where positivity fails.
    """

    def __init__(self, min_eigenvalue: float, points: list | None = None):
        self.min_eigenvalue = float(min_eigenvalue)
        self.points = points or []
        where = ""
        if self.points:
            shown = ", ".join(str(p) for p in self.points[:8])
            more = "" if len(self.points) <= 8 else f" (+{len(self.points) - 8} more)"
            where = f" at grid points [{shown}]{more}"
        super().__init__(
            f"matrix not positive definite: smallest eigenvalue "
            f"{self.min_eigenvalue:.6g}{where}"
        )


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class QuadratureError(ValueError):
    """The sphere rule for the coarea constant did not converge under its node cap."""
