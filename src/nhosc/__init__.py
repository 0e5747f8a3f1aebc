"""Truncated Fock-basis spectra of non-Hermitian quadratic oscillators.

Defines the sheared (non-Hermitian) coordinate and momentum of a truncated
oscillator basis as real tridiagonals, verifies commutator invariance
including the truncation defect, builds the general quadratic Hamiltonian
as a real banded matrix, and solves it to study where the real spectrum
develops conjugate pairs.
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
    TransformParams,
    ladder_weights,
    normalized_commutator_check,
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
)
from .model import (
    HamiltonianSpec,
    Regime,
    RegimeReport,
    VariationalResult,
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
    "Regime",
    "RegimeReport",
    "Remark",
    "ReportRow",
    "Spectrum",
    "SweepPoint",
    "SweepResult",
    "TransformParams",
    "VariationalResult",
    "balance",
    "build_hamiltonian",
    "classify",
    "classify_regime",
    "diagonal_expectation",
    "dual_params",
    "duality_check",
    "eigenvalues",
    "hessenberg_reduce",
    "isospectral_report",
    "ladder_weights",
    "normalized_commutator_check",
    "sweep",
    "variational_frequency",
]
