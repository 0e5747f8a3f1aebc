"""Truncated Fock-basis operator matrices and commutator checks.

All operators act on the N-dimensional truncation of the harmonic oscillator
number basis (hbar = m = 1, so the basis frequency w alone fixes x and p).  With
p = iP, y = iY and z = Z for the real tridiagonals Y = P + Lx and Z = x - RP (x, p:
L = R = 0), whose bands ``_shear_bands`` defines for this module and for model's H.
The builders return them as dense complex :class:`OperatorMatrix` values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "BasisSpec",
    "TransformParams",
    "OperatorMatrix",
    "CommutatorDefect",
    "ladder_weights",
    "position_matrix",
    "momentum_matrix",
    "transformed_momentum",
    "transformed_position",
    "commutator",
    "normalized_commutator_check",
]


# Largest rounding floor of the commutator check: beyond it the reported
# defect would be float64 rounding of Z Y - Y Z, not the truncation defect.
_ROUNDING_FLOOR_LIMIT = 1e-6


@dataclass(frozen=True)
class BasisSpec:
    """Truncated oscillator basis: dimension and basis frequency (hbar = m = 1)."""

    n_dim: int
    freq: float = 1.0
    scale: ClassVar[float] = 1.0  # not a field: benchmarks/workloads.h_norm still reads it

    def __post_init__(self):
        if not isinstance(self.n_dim, (int, np.integer)) or self.n_dim < 2:
            raise ValueError(f"n_dim must be an integer >= 2, got {self.n_dim!r}")
        if not (self.freq > 0.0) or not math.isfinite(self.freq):
            raise ValueError(f"freq must be positive and finite, got {self.freq}")


@dataclass(frozen=True)
class TransformParams:
    """Coupling quadruple (L, R, A, B) of the non-Hermitian quadratic family.

    l_coef mixes the coordinate into the momentum, r_coef the momentum
    into the coordinate; a_coef and b_coef weight the squared transformed
    momentum and coordinate in the Hamiltonian.
    """

    l_coef: float = 0.0
    r_coef: float = 0.0
    a_coef: float = 1.0
    b_coef: float = 1.0

    def __post_init__(self):
        for name in ("l_coef", "r_coef", "a_coef", "b_coef"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if 1.0 + self.l_coef * self.r_coef == 0.0:
            raise ValueError("1 + L*R must be nonzero (normalization is singular)")

    @property
    def norm_c(self) -> float:
        """Normalization 1/(1+LR) shared by transform and Hamiltonian."""
        return 1.0 / (1.0 + self.l_coef * self.r_coef)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square complex matrix of a basis operator, frozen on construction."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class CommutatorDefect:
    """Defect report of the normalized coordinate/momentum commutator.

    max_diag_deviation covers the first n_dim-1 diagonal entries against
    the ideal value 1; the last diagonal entry carries the truncation
    defect and is reported separately together with its expected value
    1 - n_dim.
    """

    n_dim: int
    max_diag_deviation: float
    last_diag_entry: float
    expected_last: float
    max_offdiag: float


def ladder_weights(n_dim: int) -> np.ndarray:
    """Off-diagonal ladder weights sqrt(1)..sqrt(n_dim-1)."""
    if n_dim < 2:
        raise ValueError(f"n_dim must be >= 2, got {n_dim}")
    return np.sqrt(np.arange(1, n_dim, dtype=float))


def _shear_bands(basis: BasisSpec, params: TransformParams) -> tuple[tuple[float, float], ...]:
    """(below, above) coefficients (see _tridiagonal) of Y = P + Lx and Z = x - RP, P = -ip."""
    alpha, beta = 1.0 / math.sqrt(2.0 * basis.freq), math.sqrt(basis.freq / 2.0)
    y_bands = (beta + params.l_coef * alpha, params.l_coef * alpha - beta)
    return y_bands, (alpha - params.r_coef * beta, alpha + params.r_coef * beta)


def _tridiagonal(n_dim: int, below: float, above: float) -> np.ndarray:
    """Real N x N array with below*sqrt(k) at (k, k-1), above*sqrt(k) at (k-1, k), zero elsewhere."""
    m = ladder_weights(n_dim)
    return np.diag(below * m, -1) + np.diag(above * m, 1)


def position_matrix(basis: BasisSpec) -> OperatorMatrix:
    """Coordinate operator: real symmetric tridiagonal, entries sqrt(k+1)/sqrt(2w)."""
    return transformed_position(basis, TransformParams())


def momentum_matrix(basis: BasisSpec) -> OperatorMatrix:
    """Momentum operator: purely imaginary, i*sqrt(w/2) times (sub - super)."""
    return transformed_momentum(basis, TransformParams())


def transformed_momentum(basis: BasisSpec, params: TransformParams) -> OperatorMatrix:
    """Sheared momentum p + iL x = iY (unnormalized; the 1/(1+LR) factor is applied downstream)."""
    return OperatorMatrix(1j * _tridiagonal(basis.n_dim, *_shear_bands(basis, params)[0]))


def transformed_position(basis: BasisSpec, params: TransformParams) -> OperatorMatrix:
    """Sheared coordinate x + iR p = Z; exactly real for real R."""
    return OperatorMatrix(_tridiagonal(basis.n_dim, *_shear_bands(basis, params)[1]))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Matrix commutator a@b - b@a."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return OperatorMatrix(a.entries @ b.entries - b.entries @ a.entries)


def normalized_commutator_check(basis: BasisSpec, params: TransformParams) -> CommutatorDefect:
    """Check invariance of the canonical commutator under the shear transform.

    Computes (z y - y z) / (i (1+LR)) = (Z Y - Y Z) / (1+LR) in real
    arithmetic and reports how far the first n_dim-1 diagonal entries
    deviate from 1, the value of the last diagonal entry (the truncation
    defect, ideally 1 - n_dim), and the largest off-diagonal magnitude.
    Raises ValueError when 1+LR or the commutator overflows float64, and
    when the rounding floor 2 eps max|Y| max|Z| / |1+LR| of the product
    exceeds _ROUNDING_FLOOR_LIMIT: the report would then show rounding, not
    the commutator (as at L = 1e14, where forming Y = P + Lx loses P).
    """
    n = basis.n_dim
    norm = 1.0 + params.l_coef * params.r_coef
    y_bands, z_bands = _shear_bands(basis, params)
    big_y, big_z = _tridiagonal(n, *y_bands), _tridiagonal(n, *z_bands)
    with np.errstate(over="ignore", invalid="ignore"):
        c = big_z @ big_y
        c -= big_y @ big_z
    if not (math.isfinite(norm) and np.isfinite(c).all()):
        raise ValueError(f"commutator check overflows float64 (1+LR = {norm})")
    # max|Y| and max|Z| both sit on the last ladder weight sqrt(n-1)
    max_yz = max(map(abs, y_bands)) * max(map(abs, z_bands)) * (n - 1)
    floor = 2.0 * max_yz / abs(norm) * np.finfo(np.float64).eps
    if not floor <= _ROUNDING_FLOOR_LIMIT:
        raise ValueError(f"commutator check is beyond float64 resolution: rounding floor "
                         f"2 eps max|Y| max|Z| / |1+LR| = {floor:.3e} > {_ROUNDING_FLOOR_LIMIT:g}")
    c /= norm
    diag = c.diagonal().copy()
    np.fill_diagonal(c, 0.0)
    return CommutatorDefect(
        n_dim=n,
        max_diag_deviation=float(np.abs(diag[: n - 1] - 1.0).max()),
        last_diag_entry=float(diag[-1]),
        expected_last=float(1 - n),
        max_offdiag=float(np.abs(c).max()),
    )
