"""Exact construction and verification of exceptional-point crossings in
Bose-Hubbard and anharmonic-oscillator matrix models.

The exact layer (radicals, matrices, models, verify) works in the field of
Gaussian-rational combinations of integer square roots and proves every
identity with zero tolerance; the numeric layer (spectra) reports each
spectrum as the closed-form sl(2) ladder certified against the exact
characteristic polynomial, with floating-point root finding as its
cross-check and conditioning estimates.
"""

from .radicals import (
    DivisionByZero,
    GaussianRational,
    InvalidRadicand,
    MultiTermInverse,
    RadicalSum,
    invert_monomial,
    squarefree_decompose,
)
from .matrices import (
    ExactMatrix,
    ExactPolynomial,
    ShapeError,
    SingularError,
    StructureError,
    similarity,
)
from .models import (
    DimensionError,
    DomainError,
    ModelId,
    NonPositiveRadicand,
    ao_hamiltonian,
    ao_in_bh_frame,
    ao_in_jordan_basis,
    bh_hamiltonian,
    bh_in_ao_frame,
    bh_in_jordan_basis,
    damping,
    intertwiner,
    intertwiner_core,
    intertwiner_inverse,
    jordan_block,
    pascal_matrix,
    transition,
    transition_inverse,
)
from .verify import CheckId, VerificationReport, run_suite
from .spectra import (
    ConditionEntry,
    ConvergenceError,
    FloatPolynomial,
    SpectrumReport,
    char_poly_tridiagonal,
    condition_report,
    degeneracy_scan,
    find_roots,
    reality_scan,
)
from .scenarios import PathSample, ScenarioPath, hamiltonian_at, sample_path, scenario_path

__version__ = "0.1.0"

__all__ = [
    "CheckId",
    "ConditionEntry",
    "ConvergenceError",
    "DimensionError",
    "DivisionByZero",
    "DomainError",
    "ExactMatrix",
    "ExactPolynomial",
    "FloatPolynomial",
    "GaussianRational",
    "InvalidRadicand",
    "ModelId",
    "MultiTermInverse",
    "NonPositiveRadicand",
    "PathSample",
    "RadicalSum",
    "ScenarioPath",
    "ShapeError",
    "SingularError",
    "SpectrumReport",
    "StructureError",
    "VerificationReport",
    "ao_hamiltonian",
    "ao_in_bh_frame",
    "ao_in_jordan_basis",
    "bh_hamiltonian",
    "bh_in_ao_frame",
    "bh_in_jordan_basis",
    "char_poly_tridiagonal",
    "condition_report",
    "damping",
    "degeneracy_scan",
    "find_roots",
    "hamiltonian_at",
    "intertwiner",
    "intertwiner_core",
    "intertwiner_inverse",
    "invert_monomial",
    "jordan_block",
    "pascal_matrix",
    "reality_scan",
    "run_suite",
    "sample_path",
    "scenario_path",
    "similarity",
    "squarefree_decompose",
    "transition",
    "transition_inverse",
]
