"""Property tests: an experiment's pass on random matrix bases and box impurities.

For each dimension N and order m, hypothesis draws the grid, a Hermitian positive
definite base with off-diagonal entries, and a box impurity whose jump keeps
the perturbed coefficient positive definite. The draws are derandomized, so
the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schatten_verify import TorusGrid, constant_field, enumerate_basis
from schatten_verify.harness import (
    ExperimentSpec,
    HarnessConfig,
    PerturbationSpec,
    build_artifacts,
    perturbed_coefficient,
)
from schatten_verify.schatten_analysis import (
    impurity_support,
    schatten_norm_from_values,
    singular_spectrum,
    support_spectrum,
)

from helpers import direct_difference, random_hermitian, random_hermitian_pd

# n per axis, keeping P = n^N <= 64
_SIDES = {1: (8, 16, 32, 64), 2: (4, 6, 8)}
_P_VALUES = (1.0, 2.0, 4.0, 8.0, np.inf)
# torus lengths from the bundled battery's at the same order (2 pi for m = 1, 8 pi for
# m = 2), so with n no larger than there the grid is never finer. The dense oracle's
# roundoff grows with the largest symbol (pi / h)^{2m}; the support checks never apply
# the operator, so their residuals are drawn on tori down to 1/20 of that length too
_MIN_LENGTH = {1: 2 * np.pi, 2: 8 * np.pi}


@st.composite
def box_experiments(draw, N, m, shortest=1.0):
    n = draw(st.sampled_from(_SIDES[N]))
    grid = TorusGrid(N=N, n=n, L=_MIN_LENGTH[m] * draw(st.floats(shortest, 2.0)))
    basis = enumerate_basis(N, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_hermitian_pd(rng, basis.nu)
    # jump = amplitude * a + H with ||H|| below (1 + amplitude) lambda_min(a) / 2: a + jump stays PD
    amplitude = draw(st.one_of(st.floats(-0.8, -0.1), st.floats(0.1, 4.0)))
    h = random_hermitian(rng, basis.nu)
    h /= np.abs(np.linalg.eigvalsh(h)).max()
    h *= draw(st.floats(0.0, 0.5)) * (1 + amplitude) * np.linalg.eigvalsh(base)[0]
    center = tuple(draw(st.floats(-0.5, 0.5)) * grid.L for _ in range(N))
    # at least one grid spacing wide, so the box holds a grid point
    width = tuple(draw(st.floats(grid.h, 0.75 * grid.L)) for _ in range(N))
    return ExperimentSpec(
        id="drawn_box",
        grid=grid,
        basis=basis,
        reference=constant_field(basis, base),
        jump=amplitude * base + h,
        perturbation=PerturbationSpec("box", center, width=width),
        p_values=(4.0,),
    )


@pytest.mark.parametrize("N,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_dense_pass_on_random_box_impurities(N, m, data):
    exp = data.draw(box_experiments(N, m))
    art = build_artifacts(exp, HarnessConfig(experiments=(exp,)))
    assert art.fact_residual <= 1e-10
    assert art.deift_res <= 1e-10

    a, at = exp.reference, perturbed_coefficient(exp)
    dense = singular_spectrum(direct_difference(a, at, exp.grid), hermitian=True)
    support = support_spectrum(impurity_support(a, at, exp.grid))
    # nu K support values against P dense ones: the longer list's tail is 0
    size = max(support.size, dense.size)
    support, dense = (np.pad(values, (0, size - values.size)) for values in (support, dense))
    assert np.abs(support - dense).max() <= 1e-10 * dense[0]

    norms = [schatten_norm_from_values(art.delta_singular_values, p) for p in _P_VALUES]
    assert all(later <= earlier * (1 + 1e-12) for earlier, later in zip(norms, norms[1:]))


@pytest.mark.parametrize("N,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_residuals_on_short_tori(N, m, data):
    exp = data.draw(box_experiments(N, m, shortest=0.05))
    art = build_artifacts(exp, HarnessConfig(experiments=(exp,)))
    assert art.fact_residual <= 1e-10
    assert art.deift_res <= 1e-10
