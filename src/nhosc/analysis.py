"""Isospectrality reports against the analytic reference, duality checks
and parameter sweeps over basis frequency and truncation size."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .basis import BasisSpec, TransformParams
from .eig import EigensolverError, classify, eigenvalues, real_mask
from .model import HamiltonianSpec, Regime, build_hamiltonian, classify_regime

__all__ = [
    "Remark",
    "ReportRow",
    "IsospectralReport",
    "Axis",
    "SweepPoint",
    "SweepResult",
    "isospectral_report",
    "duality_check",
    "dual_params",
    "sweep",
]

# largest |computed - (2n+1)AB| at which a real level counts as Iso
ISO_TOL = 1e-3


class Remark(Enum):
    ISO = "Iso"
    NO_ISO = "NoIso"


@dataclass(frozen=True)
class ReportRow:
    level: int
    epsilon: float
    computed: complex
    abs_dev: float
    remark: Remark


@dataclass(frozen=True)
class IsospectralReport:
    """Level-by-level comparison of the computed spectrum with (2n+1)AB.

    Rows are aligned by sorted index (real part, then imaginary part),
    so a conjugate pair occupies two consecutive levels.  A row is Iso
    only if the value classifies as real and sits within ISO_TOL of the
    reference.
    """

    rows: list[ReportRow]
    first_deviation_index: int | None
    n_complex_pairs: int


class Axis(Enum):
    """Swept field of BasisSpec; the value is the field name."""

    BASIS_FREQUENCY = "freq"
    TRUNCATION_SIZE = "n_dim"


@dataclass(frozen=True)
class SweepPoint:
    axis_value: float
    n_real: int
    n_complex_pairs: int
    first_deviation_index: int | None
    max_abs_dev_below_first_deviation: float


@dataclass(frozen=True)
class SweepResult:
    axis: Axis
    points: list[SweepPoint]
    failures: list[tuple[float, str]]


def isospectral_report(params: TransformParams, basis: BasisSpec) -> IsospectralReport:
    """Build, solve and compare against the analytic reference levels."""
    # build first, so that a float64 overflow is reported as such
    h = build_hamiltonian(HamiltonianSpec(params=params, basis=basis))
    if classify_regime(params).regime is not Regime.REAL_SPECTRUM:
        raise ValueError("isospectral report undefined in the broken regime")
    spec = eigenvalues(h)
    is_real = real_mask(spec)
    ab = params.a_coef * params.b_coef
    rows = []
    first_dev = None
    for n, v in enumerate(spec.values):
        eps_n = (2 * n + 1) * ab
        dev = abs(v - eps_n)
        remark = Remark.ISO if dev <= ISO_TOL and is_real[n] else Remark.NO_ISO
        if remark is Remark.NO_ISO and first_dev is None:
            first_dev = n
        rows.append(
            ReportRow(level=n, epsilon=eps_n, computed=complex(v), abs_dev=float(dev), remark=remark)
        )
    return IsospectralReport(
        rows=rows,
        first_deviation_index=first_dev,
        n_complex_pairs=classify(spec).n_complex,
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
    """Max eigenvalue distance between a configuration and its swapped dual.

    The dual runs at basis frequency 1/w; both spectra are sorted by
    (Re, Im) and compared pairwise, giving a Hausdorff-style bound on
    the multiset distance.  The dual matrix is a transpose up to a
    diagonal unitary, so the distance is solver noise times the
    eigenvalue conditioning.
    """
    h_a = build_hamiltonian(HamiltonianSpec(params=params, basis=basis))
    dual_basis = BasisSpec(n_dim=basis.n_dim, freq=1.0 / basis.freq)
    h_b = build_hamiltonian(HamiltonianSpec(params=dual_params(params), basis=dual_basis))
    return float(np.abs(eigenvalues(h_a).values - eigenvalues(h_b).values).max())


def _summary_point(report: IsospectralReport, axis_value: float) -> SweepPoint:
    cutoff = report.first_deviation_index
    below = report.rows if cutoff is None else report.rows[:cutoff]
    max_dev = max((r.abs_dev for r in below), default=0.0)
    n_pairs = report.n_complex_pairs
    return SweepPoint(
        axis_value=axis_value,
        n_real=len(report.rows) - 2 * n_pairs,
        n_complex_pairs=n_pairs,
        first_deviation_index=cutoff,
        max_abs_dev_below_first_deviation=max_dev,
    )


def sweep(params: TransformParams, basis: BasisSpec, axis: Axis, values: Sequence[float]) -> SweepResult:
    """One isospectral summary per axis value, in ascending order.

    Each point is `basis` with its `axis` field set to the value.  Every
    point's BasisSpec is built before the first solve, so an invalid value
    raises ValueError up front; a point whose solve fails is recorded in
    `failures` and the sweep goes on.
    """
    grid = [(float(v), replace(basis, **{axis.value: v})) for v in sorted(values)]
    points: list[SweepPoint] = []
    failures: list[tuple[float, str]] = []
    for value, point_basis in grid:
        try:
            report = isospectral_report(params, point_basis)
            points.append(_summary_point(report, value))
        except (EigensolverError, ValueError) as exc:
            failures.append((value, str(exc)))
    return SweepResult(axis=axis, points=points, failures=failures)
