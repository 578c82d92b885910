"""Discrete vector-field calculus on finite abstract simplicial complexes."""

from .complexes import (
    Complex,
    ComplexError,
    generate_closure,
    load_complex,
    random_complex,
    whitney_complex,
)
from .deformation import (
    DeformationTrajectory,
    inflation_series,
    run_deformation,
    strict_lower_block,
)
from .dynamics import (
    WaveState,
    evolve_heat,
    evolve_schrodinger,
    wave_pack,
    wave_residual_check,
)
from .exterior import (
    GradedOperator,
    dirac_and_hodge,
    exterior_derivative,
)
from .fields import (
    CartanOperators,
    FieldError,
    InteriorDerivative,
    adjoint_field,
    build_edge_field,
    canonical_fields,
    cartan,
    deterministic_field,
    lie_bracket,
    random_edge_field,
    sparsified_adjoint_field,
    zero_field,
)
from .spectral import (
    betti_vector,
    classical_betti,
    euler_poincare_check,
    mckean_singer_check,
    spectral_report,
    spectral_symmetry_check,
)

__version__ = "0.1.0"
