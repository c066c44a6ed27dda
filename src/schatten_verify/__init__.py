"""Desk-scale verification of Schatten-class resolvent-difference estimates
for higher-order elliptic operators with one constant-coefficient side."""

from .coeff_algebra import (
    HermitianMatrixField,
    MonteCarloEstimate,
    clip_coefficients,
    coarea_constant,
    constant_field,
    field_power,
    lattice_symbol_integral,
    matrix_inv_sqrt,
    matrix_sqrt,
    polyharmonic_coefficients,
    principal_symbol,
    sampled_field,
    spectral_symbol_lattice,
    sqrt_field,
    sublevel_bounding_radius,
    sublevel_volume,
    symbol_vector,
)
from .errors import ConfigError, DimensionCapError, NonPositiveDefiniteError
from .multiindex import (
    MultiIndex,
    MultiIndexBasis,
    enumerate_basis,
    monomial,
    monomial_matrix,
)
from .norms import (
    DIVERGENT,
    PerturbationField,
    WeightedNormSpec,
    is_divergent,
    matrix_field_lp_norm,
    relative_perturbation,
    resolvent_profile,
    resolvent_profile_norm,
    weighted_profile_norm,
)
from .schatten_analysis import (
    PolarCheck,
    convolution_kernel,
    deift_residual,
    factorization_residual,
    matrix_function,
    operator_norm,
    polar_decomposition_check,
    resolvent,
    resolvent_difference,
    schatten_norm,
    schatten_norm_from_values,
    singular_spectrum,
    spectral_profile_operator,
)
from .torus_operator import (
    LinearOperatorRep,
    TorusGrid,
    assemble_channel_gram,
    assemble_constant_coefficient,
    assemble_derivative_factor,
    assemble_variable_coefficient,
    block_multiplication_matrix,
    derivative_operator,
)

__version__ = "0.1.0"
