"""Desk-scale verification of Schatten-class resolvent-difference estimates
for higher-order elliptic operators with one constant-coefficient side."""

from .coeff_algebra import (
    clip_coefficients,
    coarea_constant,
    constant_field,
    matrix_sqrt,
    polyharmonic_coefficients,
    principal_symbol,
    sampled_field,
    sqrt_field,
    sublevel_volume,
)
from .errors import ConfigError, NonPositiveDefiniteError, QuadratureError
from .multiindex import (
    enumerate_basis,
    monomial_matrix,
)
from .norms import (
    matrix_field_lp_norm,
    relative_perturbation,
)
from .schatten_analysis import (
    deift_residual,
    factorization_residual,
    operator_norm,
    resolvent,
    schatten_norm,
)
from .torus_operator import (
    LinearOperatorRep,
    TorusGrid,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    block_multiplication_matrix,
)

__version__ = "0.1.0"
