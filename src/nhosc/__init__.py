"""Truncated Fock-basis spectra of non-Hermitian quadratic oscillators.

Builds coordinate/momentum matrices and their sheared (non-Hermitian)
transforms in a truncated oscillator basis, verifies commutator
invariance including the truncation defect, assembles the general
quadratic Hamiltonian, and diagonalizes it with a dense nonsymmetric
eigensolver to study where the real spectrum develops conjugate pairs.
"""

from .analysis import (
    Axis,
    IsospectralReport,
    Remark,
    ReportRow,
    SweepPoint,
    SweepResult,
    dual_params,
    duality_check,
    isospectral_report,
    sweep,
)
from .basis import (
    BasisSpec,
    CommutatorDefect,
    OperatorMatrix,
    TransformParams,
    commutator,
    ladder_weights,
    momentum_matrix,
    normalized_commutator_check,
    position_matrix,
    transformed_momentum,
    transformed_position,
)
from .eig import (
    ClassifiedSpectrum,
    ConvergenceError,
    EigensolverError,
    Spectrum,
    balance,
    classify,
    eigenvalues,
    hessenberg_reduce,
    sort_spectrum,
)
from .model import (
    HamiltonianSpec,
    Regime,
    RegimeReport,
    VariationalResult,
    analytic_level,
    build_hamiltonian,
    classify_regime,
    diagonal_expectation,
    variational_frequency,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BasisSpec",
    "ClassifiedSpectrum",
    "CommutatorDefect",
    "ConvergenceError",
    "EigensolverError",
    "HamiltonianSpec",
    "IsospectralReport",
    "OperatorMatrix",
    "Regime",
    "RegimeReport",
    "Remark",
    "ReportRow",
    "Spectrum",
    "SweepPoint",
    "SweepResult",
    "TransformParams",
    "VariationalResult",
    "analytic_level",
    "balance",
    "build_hamiltonian",
    "classify",
    "classify_regime",
    "commutator",
    "diagonal_expectation",
    "dual_params",
    "duality_check",
    "eigenvalues",
    "hessenberg_reduce",
    "isospectral_report",
    "ladder_weights",
    "momentum_matrix",
    "normalized_commutator_check",
    "position_matrix",
    "sort_spectrum",
    "sweep",
    "transformed_momentum",
    "transformed_position",
    "variational_frequency",
]
