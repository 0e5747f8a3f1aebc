"""Truncated Fock-basis operator matrices and commutator checks.

All operators act on the N-dimensional truncation of the harmonic
oscillator number basis (hbar = m = 1 units).  The operators x, p, y and
z are dense complex arrays wrapped in :class:`OperatorMatrix`, frozen on
construction; the Hamiltonian is not built from them (see model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BasisSpec:
    """Truncated oscillator basis: dimension, basis frequency and length scale."""

    n_dim: int
    freq: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n_dim, (int, np.integer)) or self.n_dim < 2:
            raise ValueError(f"n_dim must be an integer >= 2, got {self.n_dim!r}")
        if not (self.freq > 0.0) or not math.isfinite(self.freq):
            raise ValueError(f"freq must be positive and finite, got {self.freq}")
        if not (self.scale > 0.0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


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


def _ladder_bands(basis: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    # sub + super and sub - super skeletons shared by x and p
    m = ladder_weights(basis.n_dim)
    return np.diag(m, -1) + np.diag(m, 1), np.diag(m, -1) - np.diag(m, 1)


def position_matrix(basis: BasisSpec) -> OperatorMatrix:
    """Coordinate operator: real symmetric tridiagonal, entries s*sqrt(k+1)/sqrt(2w)."""
    plus, _ = _ladder_bands(basis)
    x = (basis.scale / math.sqrt(2.0 * basis.freq)) * plus
    return OperatorMatrix(x.astype(np.complex128))


def momentum_matrix(basis: BasisSpec) -> OperatorMatrix:
    """Momentum operator: purely imaginary, i*s*sqrt(w/2) times (sub - super)."""
    _, minus = _ladder_bands(basis)
    p = 1j * basis.scale * math.sqrt(basis.freq / 2.0) * minus
    return OperatorMatrix(p)


def transformed_momentum(basis: BasisSpec, params: TransformParams) -> OperatorMatrix:
    """Sheared momentum p + iL x (unnormalized; the 1/(1+LR) factor is applied downstream)."""
    p = momentum_matrix(basis).entries
    x = position_matrix(basis).entries
    return OperatorMatrix(p + (1j * params.l_coef) * x)


def transformed_position(basis: BasisSpec, params: TransformParams) -> OperatorMatrix:
    """Sheared coordinate x + iR p; exactly real for real R."""
    p = momentum_matrix(basis).entries
    x = position_matrix(basis).entries
    return OperatorMatrix(x + (1j * params.r_coef) * p)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Matrix commutator a@b - b@a."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return OperatorMatrix(a.entries @ b.entries - b.entries @ a.entries)


def normalized_commutator_check(basis: BasisSpec, params: TransformParams) -> CommutatorDefect:
    """Check invariance of the canonical commutator under the shear transform.

    Computes (z y - y z) / (i (1+LR) s^2) and reports how far the first
    n_dim-1 diagonal entries deviate from 1, the value of the last
    diagonal entry (the truncation defect, ideally 1 - n_dim), and the
    largest off-diagonal magnitude.  The s^2 division makes the report
    independent of the length scale.  Raises ValueError when the
    normaliser (1+LR) s^2 or the commutator leaves the float64 range.
    """
    norm = (1.0 + params.l_coef * params.r_coef) * basis.scale * basis.scale
    y = transformed_momentum(basis, params)
    z = transformed_position(basis, params)
    with np.errstate(over="ignore", invalid="ignore"):
        c = commutator(z, y).entries
    if not (math.isfinite(norm) and norm != 0.0 and np.isfinite(c).all()):
        raise ValueError(f"commutator check overflows float64 or underflows ((1+LR) s^2 = {norm})")
    c = c / (1j * norm)
    diag = c.diagonal()
    off = c - np.diag(diag)
    n = basis.n_dim
    return CommutatorDefect(
        n_dim=n,
        max_diag_deviation=float(np.abs(diag[: n - 1] - 1.0).max()),
        last_diag_entry=float(diag[-1].real),
        expected_last=float(1 - n),
        max_offdiag=float(np.abs(off).max()),
    )
