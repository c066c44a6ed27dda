"""The two-sided lattice sweep: a fixed grid of small experiments, each held to three exact facts.

On every case of the grid:

* every lattice ratio lhs / (C_lat * rhs) is at most 1 + 1e-12, with no
  allowance for the Deift column: the bound is a theorem on the lattice;
* a box over the whole torus makes a~ = a + jump constant, so Delta is the
  Fourier multiplier 1 / (1 + A~) - 1 / (1 + A), and lhs must equal the l^p
  norm of its moduli over the lattice to 1e-12 relative at p = 4, 8 and inf;
* Delta's eigenvalues carry the jump's sign: a jump >= 0 makes H~ >= H, so
  Delta <= 0, and a jump <= 0 makes Delta >= 0, each to 1e-10 of the top
  value. The eigenvalues come from the dense oracle, which the CLI does not run.

The sweep's lower side is the near-sharp row (helpers.NEAR_SHARP, run by
``TestLatticeBound`` in test_harness.py): its ratios must read at least 0.99,
which a lattice constant 2% too large fails.
"""

import itertools
import math

import numpy as np
import pytest

from schatten_verify import constant_field
from schatten_verify.harness import impurity_experiment, parse_config, perturbed_coefficient
from schatten_verify.schatten_analysis import singular_spectrum
from schatten_verify.torus_operator import constant_multiplier

from helpers import direct_difference

# (N, m, n, L) of the grids; every p in P_VALUES is > N/m and >= 2 on each
GRIDS = [(1, 1, 16, 2 * math.pi), (1, 2, 16, 6.0), (2, 1, 8, 5.0), (2, 2, 8, 2 * math.pi)]
P_VALUES = [4, 8]
AMPLITUDES = [-0.5, 1.0]


def _shape(name, N, L):
    if name == "global_box":
        return {"shape": "box", "width": [L] * N}
    if name == "box":
        return {"shape": "box", "width": [L / 4] * N}
    return {"shape": name, "radius": L / 4}


def _case(N, m, n, L, shape, jump):
    return {
        "id": f"n{N}m{m}_{shape}",
        "N": N,
        "m": m,
        "grid": {"n": n, "L": L},
        "base": "polyharmonic",
        "perturbation": {"center": [0.0] * N, **_shape(shape, N, L), **jump},
        "p_values": P_VALUES,
    }


CASES = {
    f"n{N}m{m}_{shape}_{amplitude:+g}": _case(N, m, n, L, shape, {"amplitude": amplitude})
    for (N, m, n, L), shape, amplitude in itertools.product(
        GRIDS, ("box", "ball", "bump", "global_box"), AMPLITUDES
    )
}
# a matrix base with off-diagonal entries, under a positive semidefinite jump and under its negative
for sign, shape in itertools.product((1.0, -1.0), ("box", "global_box")):
    jump = {"amplitude_matrix": [[0.5 * sign, 0.2 * sign], [0.2 * sign, 0.3 * sign]]}
    case = _case(2, 1, 8, 5.0, shape, jump) | {"base": "matrix", "base_matrix": [[2.0, 0.5], [0.5, 1.0]]}
    CASES[f"n2m1_matrix_{shape}_{sign:+g}"] = case


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_case(name):
    exp = parse_config({"experiments": [CASES[name]]}).experiments[0]
    rows = impurity_experiment(exp)
    assert [row.p for row in rows] == [*map(float, P_VALUES), math.inf]
    assert all(row.ratio <= 1 + 1e-12 for row in rows), [row.ratio for row in rows]

    a, a_tilde = exp.reference, perturbed_coefficient(exp)
    if exp.perturbation.width == (exp.grid.L,) * exp.N:
        constant = constant_field(exp.basis, exp.reference.constant_matrix() + exp.jump)
        symbol, symbol_tilde = (constant_multiplier(b, exp.grid) for b in (a, constant))
        moduli = np.abs(1.0 / (1.0 + symbol_tilde) - 1.0 / (1.0 + symbol)).ravel()
        for row in rows:
            assert row.lhs == pytest.approx(np.linalg.norm(moduli, ord=row.p), rel=1e-12, abs=0), row.p

    # the jump's sign: every eigenvalue of the jump >= 0, or every one <= 0, in each case here
    jump_eigenvalues = np.linalg.eigvalsh(exp.jump)
    sign = 1.0 if jump_eigenvalues.min() >= 0 else -1.0
    assert (sign * jump_eigenvalues).min() >= 0
    difference = direct_difference(a, a_tilde, exp.grid)
    eigenvalues = np.linalg.eigvalsh(0.5 * (difference + np.conj(difference.T)))
    top = np.abs(eigenvalues).max()
    assert top > 0 and (sign * eigenvalues).max() <= 1e-10 * top, (sign, eigenvalues.min(), eigenvalues.max())
    # and the dense spectrum is the one the support route printed
    assert rows[-1].lhs == pytest.approx(singular_spectrum(difference, hermitian=True)[0], rel=1e-10)
