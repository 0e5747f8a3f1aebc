"""General non-Hermitian quadratic oscillator: real banded Hamiltonian builder,
variational frequency and regime classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import BasisSpec, TransformParams, _shear_bands
from .basis import transformed_momentum  # noqa: F401  (benchmarks/test_bench.py looks it up here)
from .eig import _frobenius_norm

__all__ = [
    "HamiltonianSpec",
    "VariationalResult",
    "Regime",
    "RegimeReport",
    "build_hamiltonian",
    "diagonal_expectation",
    "variational_frequency",
    "classify_regime",
]

_TINY = np.finfo(np.float64).tiny  # smallest normal float64


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parameter bundle for the quadratic family C [A^2 y^2 + B^2 z^2]."""

    params: TransformParams
    basis: BasisSpec


@dataclass(frozen=True)
class VariationalResult:
    """Oscillation frequency minimizing the diagonal expectation.

    w_v is None when the ratio (B^2 - L^2 A^2) / (A^2 - R^2 B^2) is not
    a positive finite number (no stationary positive frequency exists).
    """

    w_v: float | None


class Regime(Enum):
    REAL_SPECTRUM = "RealSpectrum"
    BROKEN = "Broken"


@dataclass(frozen=True)
class RegimeReport:
    """Expansion coefficients of the quadratic family and the reality regime.

    The Hamiltonian expands to a p^2 + b x^2 + i c (xp + px) with
    a = C(A^2 - R^2 B^2), b = C(B^2 - L^2 A^2), c = C(L A^2 + R B^2);
    the spectrum is guaranteed real when both a and b are positive.
    ab_plus_csq records the invariant combination a*b + c^2 = (A*B)^2.
    """

    coef_p2: float
    coef_x2: float
    coef_cross: float
    regime: Regime
    ab_plus_csq: float


def _coefficient_squares(params: TransformParams) -> tuple[float, float]:
    """(A^2, B^2); ValueError if a nonzero A or B has a square outside the normal float64 range."""
    for name, coef in (("A", params.a_coef), ("B", params.b_coef)):
        if not coef * coef < math.inf:
            raise ValueError(f"{name}^2 overflows float64 ({name} = {coef!r})")
        if coef and coef * coef < _TINY:
            raise ValueError(f"{name}^2 underflows float64 ({name} = {coef!r})")
    return params.a_coef * params.a_coef, params.b_coef * params.b_coef


def _bands(spec: HamiltonianSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal, +2 and -2 bands of H, its only nonzero ones.

    With y = iY, z = Z and the (below, above) coefficients (u, v) of the real
    tridiagonals Y, Z from basis._shear_bands, H = C(-A^2 Y^2 + B^2 Z^2).  A zero-diagonal
    tridiagonal with T[k,k-1] = u sqrt(k) and T[k-1,k] = v sqrt(k) squares to u v (2k+1)
    on the diagonal (u v (N-1) at the edge k = N-1), v^2 sqrt((k+1)(k+2)) at (k, k+2),
    u^2 sqrt((k+1)(k+2)) at (k+2, k), and zero +-1 bands.  Raises ValueError as
    _coefficient_squares does (the term of H would vanish or lose digits before it
    meets the basis factors), when N |H|_F overflows float64 (|H|_F scaled by
    max|entry|), and when A or B is nonzero (so H is not zero) but every entry
    underflows to zero or to a subnormal.
    """
    params, basis = spec.params, spec.basis
    (u_y, v_y), (u_z, v_z) = _shear_bands(basis, params)
    (a2, b2), c = _coefficient_squares(params), params.norm_c
    levels = np.append(2.0 * np.arange(basis.n_dim - 1) + 1.0, basis.n_dim - 1)
    pairs = np.sqrt(np.arange(1.0, basis.n_dim - 1) * np.arange(2.0, basis.n_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        diag = c * (b2 * (u_z * v_z * levels) - a2 * (u_y * v_y * levels))
        upper = c * (b2 * (v_z * v_z * pairs) - a2 * (v_y * v_y * pairs))
        lower = c * (b2 * (u_z * u_z * pairs) - a2 * (u_y * u_y * pairs))
        entries = np.concatenate((diag, upper, lower))
        norm = float(np.linalg.norm(entries))
    if 0.0 < norm < math.inf:
        return diag, upper, lower
    # the squares over- or underflowed, or an entry is not finite: only the
    # max-scaled norm and the entries themselves tell which
    # eig.eigenvalues rejects a matrix whose N |H|_F is not finite: it bounds
    # the trace and eigenvalue sums of the solve
    bound = _frobenius_norm(entries) * basis.n_dim
    if not math.isfinite(bound):
        raise ValueError(f"H overflows float64 (N |H|_F = {bound}) for {params}, {basis}")
    if (params.a_coef or params.b_coef) and np.abs(entries).max() < _TINY:
        raise ValueError(f"H underflows float64 (no entry reaches {_TINY:.3e}) for {params}, {basis}")
    return diag, upper, lower


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """H = C[A^2 y^2 + B^2 z^2] as a read-only real float64 array, written from its bands."""
    diag, upper, lower = _bands(spec)
    h = np.zeros((spec.basis.n_dim, spec.basis.n_dim))
    np.fill_diagonal(h, diag)
    np.fill_diagonal(h[:, 2:], upper)
    np.fill_diagonal(h[2:, :], lower)
    h.setflags(write=False)
    return h


def diagonal_expectation(spec: HamiltonianSpec, level: int, trial_freq: float) -> float:
    """Diagonal entry (level, level) of the Hamiltonian built at basis frequency trial_freq.

    For interior levels this equals C (n+1/2) [(A^2-R^2B^2) w + (B^2-L^2A^2)/w];
    the cross term contributes nothing on the diagonal.
    """
    if not 0 <= level < spec.basis.n_dim:
        raise IndexError(f"level {level} outside basis of dimension {spec.basis.n_dim}")
    basis = BasisSpec(n_dim=spec.basis.n_dim, freq=trial_freq)
    return float(_bands(HamiltonianSpec(params=spec.params, basis=basis))[0][level])


def _quadratic_form(params: TransformParams) -> tuple[float, float, float]:
    """(A^2 - R^2 B^2, B^2 - L^2 A^2, L A^2 + R B^2): the p^2, x^2 and cross
    coefficients of H before the factor C."""
    # products, not **: float64 overflow then gives inf/nan instead of OverflowError
    a2, b2 = params.a_coef * params.a_coef, params.b_coef * params.b_coef
    l_coef, r_coef = params.l_coef, params.r_coef
    return a2 - r_coef * r_coef * b2, b2 - l_coef * l_coef * a2, l_coef * a2 + r_coef * b2


def variational_frequency(params: TransformParams) -> VariationalResult:
    """Stationary basis frequency sqrt((B^2 - L^2 A^2) / (A^2 - R^2 B^2))."""
    den, num, _ = _quadratic_form(params)
    if den == 0.0 or not 0.0 < num / den < math.inf:
        return VariationalResult(w_v=None)
    return VariationalResult(w_v=math.sqrt(num / den))


def classify_regime(params: TransformParams) -> RegimeReport:
    """Expand the quadratic family and classify reality of its spectrum."""
    c_norm = params.norm_c
    coef_p2, coef_x2, coef_cross = (c_norm * q for q in _quadratic_form(params))
    regime = Regime.REAL_SPECTRUM if coef_p2 > 0.0 and coef_x2 > 0.0 else Regime.BROKEN
    return RegimeReport(
        coef_p2=coef_p2,
        coef_x2=coef_x2,
        coef_cross=coef_cross,
        regime=regime,
        ab_plus_csq=coef_p2 * coef_x2 + coef_cross * coef_cross,
    )

