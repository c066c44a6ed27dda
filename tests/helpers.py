"""Shared construction helpers for the test suite."""

import numpy as np

from schatten_verify import (
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    deift_residual,
    enumerate_basis,
    factorization_residual,
    field_power,
    operator_norm,
    polyharmonic_coefficients,
    relative_perturbation,
    resolvent,
    sampled_field,
    sqrt_field,
)

from schatten_verify.schatten_analysis import impurity_support, spectrum_factor, support_core, support_spectrum
from schatten_verify.torus_operator import channel_resolvent_symbols

from oracles import channel_solve, resolvent_difference


def support_values(a, at, grid):
    """The support spectrum of at against a, as ``build_artifacts`` takes it: the factor, then the core."""
    imp = impurity_support(a, at, grid)
    return support_spectrum(spectrum_factor(imp), support_core(imp)[0])


def random_hermitian(rng, nu):
    g = rng.normal(size=(nu, nu)) + 1j * rng.normal(size=(nu, nu))
    return 0.5 * (g + np.conj(g.T))


def random_hermitian_pd(rng, nu, spread=(0.5, 3.0)):
    g = rng.normal(size=(nu, nu)) + 1j * rng.normal(size=(nu, nu))
    q = np.linalg.qr(g)[0]
    w = rng.uniform(*spread, size=nu)
    return (q * w) @ np.conj(q.T)


def box_perturbed_field(grid, basis, a, amplitude, rel_width=0.125):
    """a * (1 + amplitude * indicator of a centered box of width rel_width*L)."""
    x = grid.points()
    inside = np.all(np.abs(x) < rel_width * grid.L / 2.0, axis=-1)
    scale = 1.0 + amplitude * inside.astype(float)
    vals = a.constant_matrix()[(None,) * grid.N] * scale[..., None, None]
    return sampled_field(basis, np.ascontiguousarray(vals))


def bump_perturbed_field(grid, basis, a, amplitude, rel_radius=0.25, center=None):
    """a * (1 + amplitude * smooth bump of radius rel_radius*L)."""
    x = grid.points()
    c = np.zeros(grid.N) if center is None else np.asarray(center, dtype=float)
    d = (x - c + grid.L / 2.0) % grid.L - grid.L / 2.0
    s2 = np.sum(d**2, axis=-1) / (rel_radius * grid.L) ** 2
    prof = np.zeros_like(s2)
    prof[s2 < 1.0] = np.exp(1.0 - 1.0 / (1.0 - s2[s2 < 1.0]))
    scale = 1.0 + amplitude * prof
    vals = a.constant_matrix()[(None,) * grid.N] * scale[..., None, None]
    return sampled_field(basis, np.ascontiguousarray(vals))


def polyharmonic_setup(N, m):
    basis = enumerate_basis(N, m)
    return basis, polyharmonic_coefficients(basis)


def direct_difference(a, at, grid):
    """(op_tilde + 1)^{-1} - (op + 1)^{-1} for the sampled and the constant coefficient."""
    return resolvent_difference(
        assemble_variable_coefficient(at, grid).dense(),
        assemble_constant_coefficient(a, grid).dense(),
    )


class DenseAdjoint:
    """A dense matrix S in the role of an operator: ``adjoint_matmul`` is S* @ stack."""

    def __init__(self, s):
        self.s = np.asarray(s, dtype=complex)
        self.shape = self.s.shape

    def adjoint_matmul(self, stack):
        return np.conj(self.s.T) @ stack


def deift_of(s):
    """deift_residual of S with both of its solves, (S*S+1)^{-1} and (SS*+1)^{-1} S, done here."""
    s = np.asarray(s, dtype=complex)
    return deift_residual(DenseAdjoint(s), channel_solve(s), resolvent(np.conj(s.T) @ s))


def relative_perturbation_of(a, at):
    """relative_perturbation of the field ``at``, with the roots at^{-1/2} and a^{-1/2} taken here."""
    a_mat = a.constant_matrix()
    return relative_perturbation(at.values, field_power(at.values, -0.5), a_mat, field_power(a_mat, -0.5))


def factorization_of(a, at, grid, direct):
    """factorization_residual of ``direct``, with V, the solve it shares and ||direct|| computed here.

    The shared solve is (G~+1)^{-1} T~ for the derivative factor T~ = at^{1/2} D.
    """
    left = channel_solve(assemble_derivative_factor(sqrt_field(at), grid).dense())
    c_inv_d = channel_resolvent_symbols(a, grid)[1]
    v = relative_perturbation_of(a, at)
    return factorization_residual(a, c_inv_d, v, grid, direct, left, operator_norm(direct))


def global_box(exp_id, N, m, n, L, p_values, **jump):
    """An experiment whose box covers the torus, so a~ = a + jump is constant and H~ is a Fourier
    multiplier too; ``jump`` is ``amplitude=`` or ``amplitude_matrix=``."""
    box = {"shape": "box", "center": [0.0] * N, "width": [L] * N, **jump}
    return {
        "id": exp_id, "N": N, "m": m, "grid": {"n": n, "L": L},
        "base": "polyharmonic", "perturbation": box, "p_values": p_values,
    }


# a short torus (N = 1, m = 2, L = 6) on which the continuum constant's ratios read 1.070 (p = 4)
# and 1.067 (p = 8), over the old envelope of 1.05; the lattice ratios are at most 0.969
SHORT_TORUS = global_box("short_torus", 1, 2, 16, 6.0, [4, 8], amplitude=-0.5)
# a row at which the lattice bound is nearly attained: its ratios read 0.99998 at p = 16 and p = inf
NEAR_SHARP = global_box("near_sharp", 1, 1, 8, 2.0, [16], amplitude=-0.9)


def within_lattice_bound(row):
    """The bound flags' rule: both residual columns at most 1e-10, and lhs <= C_lat * rhs * (1 + 1e-12)
    plus the row's Deift column, which bounds the error of lhs itself; a row with C_lat * rhs = 0
    holds when its ratio reads 0."""
    if max(row.factorization_residual, row.deift_residual) > 1e-10:
        return False
    return row.lhs <= row.constant * row.rhs * (1 + 1e-12) + row.deift_residual or row.ratio == 0.0


def near_sharp_holds(rows):
    """The two-sided check on NEAR_SHARP's rows: every lattice ratio in [0.99, 1 + 1e-12], so that a
    lattice constant 2% too large shows as well as one too small."""
    return all(0.99 <= row.ratio <= 1 + 1e-12 for row in rows)
