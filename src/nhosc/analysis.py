"""Isospectrality reports against the analytic reference, the transpose
duality check on H's bands, and sweeps of the report over a list of bases."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, TransformParams
from .eig import EigensolverError, classify, eigenvalues, real_mask
from .model import HamiltonianSpec, Regime, classify_regime

__all__ = [
    "IsospectralReport",
    "SweepResult",
    "isospectral_report",
    "duality_check",
    "dual_params",
    "sweep",
]

# largest |computed - (2n+1)|AB|| at which a real level counts as Iso, or 4 eps (2n+1)|AB| where
# that is more: past (2n+1)|AB| = 1.1e12 an absolute 1e-3 is finer than float64 resolves the level
ISO_TOL = 1e-3
_ISO_REL = 4.0 * float(np.finfo(np.float64).eps)

# the columns of IsospectralReport.rows; a new per-level column is one more field
_LEVEL = np.dtype([("epsilon", np.float64), ("computed", np.complex128), ("abs_dev", np.float64), ("iso", bool)])


@dataclass(frozen=True)
class IsospectralReport:
    """Level-by-level comparison of the computed spectrum with (2n+1)|AB|.

    H depends on A and B only through A^2 and B^2, so the reference
    holds for either sign of A*B.

    rows is a read-only structured array with one record per level, the
    level being its index: the reference `epsilon`, the `computed` value,
    their distance `abs_dev` and the verdict `iso`.  Levels are aligned by
    sorted index (real part, then imaginary part), so a conjugate pair
    occupies two consecutive levels.  A level is iso only if its value
    classifies as real and sits within max(ISO_TOL, 4 eps epsilon) of the
    reference epsilon = (2n+1)|AB|.
    n_real + 2 n_complex_pairs = N.
    """

    rows: np.ndarray
    first_deviation_index: int | None
    n_real: int
    n_complex_pairs: int


@dataclass(frozen=True)
class SweepResult:
    """The report of each basis that solved, in the order given, and
    (basis, message) for each that did not."""

    points: list[tuple[BasisSpec, IsospectralReport]]
    failures: list[tuple[BasisSpec, str]]


def isospectral_report(params: TransformParams, basis: BasisSpec) -> IsospectralReport:
    """Build, solve and compare against the analytic reference levels."""
    # build first, so that a float64 overflow is reported as such
    bands = HamiltonianSpec(params=params, basis=basis).bands
    if classify_regime(params).regime is not Regime.REAL_SPECTRUM:
        raise ValueError("isospectral report undefined in the broken regime")
    spec = eigenvalues(bands)
    eps = (2 * np.arange(len(spec)) + 1) * abs(params.a_coef * params.b_coef)
    diff = spec.values - eps
    # hypot, not np.abs: np.abs of a complex array can differ from abs() in the last bit
    dev = np.hypot(diff.real, diff.imag)
    iso = (dev <= np.maximum(ISO_TOL, _ISO_REL * eps)) & real_mask(spec)
    deviations = np.flatnonzero(~iso)
    rows = np.empty(len(spec), dtype=_LEVEL)
    for name, column in zip(_LEVEL.names, (eps, spec.values, dev, iso)):
        rows[name] = column
    rows.setflags(write=False)
    classified = classify(spec)
    return IsospectralReport(
        rows=rows,
        first_deviation_index=int(deviations[0]) if deviations.size else None,
        n_real=classified.n_real,
        n_complex_pairs=classified.n_complex,
    )


def dual_params(params: TransformParams) -> TransformParams:
    """Swap (L,R) and (A,B); together with w -> 1/w this transposes the Hamiltonian."""
    return TransformParams(
        l_coef=params.r_coef,
        r_coef=params.l_coef,
        a_coef=params.b_coef,
        b_coef=params.a_coef,
    )


def duality_check(params: TransformParams, basis: BasisSpec) -> float:
    """Largest absolute entry difference between the swapped dual's H and H's transpose.

    The dual runs at basis frequency 1/w, and its H is D H^T D^-1 with
    D = diag(i^n): H's diagonal, with its +2 and -2 bands the negated -2
    and +2 bands of H.  Both H are built and checked as every solve builds
    them, and their bands are compared in O(N), no spectrum solved: the
    distance is the rounding of the two builds (within 32 eps max|H_ij| on
    the tests' random draws), not the solver's.  ValueError, naming w, where 1/w is past float64.
    """
    h = HamiltonianSpec(params=params, basis=basis).bands
    if 1.0 / basis.freq == math.inf:
        raise ValueError(f"the dual's basis frequency 1/w overflows float64 (w = {basis.freq!r})")
    dual_basis = BasisSpec(n_dim=basis.n_dim, freq=1.0 / basis.freq)
    dual = HamiltonianSpec(params=dual_params(params), basis=dual_basis).bands
    return float(np.abs(np.concatenate([dual.diag - h.diag, dual.upper + h.lower, dual.lower + h.upper])).max())


def sweep(params: TransformParams, bases: Sequence[BasisSpec]) -> SweepResult:
    """One isospectral report per basis, in the order given.

    A basis whose report fails (EigensolverError, or ValueError as in the
    broken regime) is recorded in `failures` with its message, and the
    sweep goes on.
    """
    points: list[tuple[BasisSpec, IsospectralReport]] = []
    failures: list[tuple[BasisSpec, str]] = []
    for basis in bases:
        try:
            points.append((basis, isospectral_report(params, basis)))
        except (EigensolverError, ValueError) as exc:
            failures.append((basis, str(exc)))
    return SweepResult(points=points, failures=failures)
