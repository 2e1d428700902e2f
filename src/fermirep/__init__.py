"""Exact fermionic-mode matrix representations of unitary algebras.

The package builds the 2^n-dimensional occupation space of n fermionic
modes, realizes unitary-algebra generator sets on it in several ways
(bilinear, number-selective, and sector-supported), and machine-checks
every algebraic identity those constructions satisfy.

The public names and the submodules are imported on first access (PEP
562), so a command pays only for the modules it uses.
"""

import importlib

# each public name, under the submodule that defines it
_EXPORTS = {
    "errors": "CapacityError ClosureError DegeneracyError DependenceError ValidationError",
    "fock": "FockOperator annihilation build_basis creation mode_capacity number_operator "
            "sector_dimension sector_indices total_number vacuum_projector",
    "liealg": "GeneratorSet StructureConstants conjugate_rep conjugation_matrix gell_mann "
              "gellmann_from_spin1 generalized_gell_mann spin1_matrices structure_constants",
    "schwinger": "RepresentationResult SectorOperatorSet SelectivePolynomial element_operators "
                 "eval_at_number_operator mixed_rep nssfr_u3_explicit nssfr_un rep_ucnm "
                 "sector_operators selective_function standard_rep",
    "verify": "BlockDecomposition VerificationReport block_decompose check_anticommutation "
              "check_closure check_eij_algebra check_number_commutant compare_ops run_suite",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {"cli", "errors", "fock", "liealg", "report", "schwinger", "sparse", "verify"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
