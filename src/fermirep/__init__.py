"""Exact fermionic-mode matrix representations of unitary algebras.

The package builds the 2^n-dimensional occupation space of n fermionic
modes, realizes unitary-algebra generator sets on it in several ways
(bilinear, number-selective, and sector-supported), and machine-checks
every algebraic identity those constructions satisfy.
"""

from .errors import (
    CapacityError,
    ClosureError,
    DegeneracyError,
    DependenceError,
    ValidationError,
)
from .fock import (
    FockOperator,
    annihilation,
    build_basis,
    creation,
    mode_capacity,
    number_operator,
    sector_dimension,
    sector_indices,
    total_number,
    vacuum_projector,
)
from .liealg import (
    GeneratorSet,
    StructureConstants,
    conjugate_rep,
    conjugation_matrix,
    gell_mann,
    gellmann_from_spin1,
    generalized_gell_mann,
    spin1_matrices,
    structure_constants,
)
from .schwinger import (
    RepresentationResult,
    SectorOperatorSet,
    SelectivePolynomial,
    element_operators,
    eval_at_number_operator,
    mixed_rep,
    nssfr_u3_explicit,
    nssfr_un,
    rep_ucnm,
    sector_operators,
    selective_function,
    standard_rep,
)
from .verify import (
    BlockDecomposition,
    VerificationReport,
    block_decompose,
    check_anticommutation,
    check_closure,
    check_eij_algebra,
    check_number_commutant,
    compare_ops,
    run_suite,
)

__version__ = "0.1.0"
