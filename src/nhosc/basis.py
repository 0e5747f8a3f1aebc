"""Truncated Fock basis, coupling parameters and the commutator check.

All operators act on the N-dimensional truncation of the harmonic oscillator
number basis (hbar = m = 1, so the basis frequency w alone fixes x and p).  With
p = iP, y = iY and z = Z for the real tridiagonals Y = P + Lx and Z = x - RP (x, p:
L = R = 0), whose bands ``_shear_bands`` defines for the commutator check and
``transformed_momentum``; model builds H from its quadratic form, not from these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "BasisSpec",
    "TransformParams",
    "CommutatorDefect",
    "ladder_weights",
    "normalized_commutator_check",
]


# Largest rounding floor of the commutator check: beyond it the reported
# defect would be float64 rounding of Z Y - Y Z, not the truncation defect.
_ROUNDING_FLOOR_LIMIT = 1e-6
_TINY = float(np.finfo(np.float64).tiny)  # smallest normal float64


@dataclass(frozen=True)
class BasisSpec:
    """Truncated oscillator basis: dimension and basis frequency (hbar = m = 1)."""

    n_dim: int
    freq: float = 1.0
    scale: ClassVar[float] = 1.0  # not a field: benchmarks/workloads.h_norm still reads it

    def __post_init__(self):
        if not isinstance(self.n_dim, (int, np.integer)) or self.n_dim < 2:
            raise ValueError(f"n_dim must be an integer >= 2, got {self.n_dim!r}")
        _check_freq(self.freq)
        # Python types, as TransformParams stores its couplings: no np.int64 N, no float32 1/freq
        object.__setattr__(self, "n_dim", int(self.n_dim))
        object.__setattr__(self, "freq", float(self.freq))


def _check_freq(freq) -> None:
    """The basis frequency check: ValueError unless freq > 0 and finite (TypeError for a non-number).
    model.diagonal_expectation skips it only for a float trial frequency inside the spec's frequency
    interval, which holds no float outside 0 < w < inf, and calls it otherwise, so its messages are
    BasisSpec's."""
    if not (freq > 0.0) or not math.isfinite(freq):
        raise ValueError(f"freq must be positive and finite, got {freq}")


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
            value = getattr(self, name)
            if not math.isfinite(value):  # TypeError for a non-number, a str included
                raise ValueError(f"{name} must be finite")
            # a Python float: NumPy 2 would compute the bands of an np.float32 field in float32
            object.__setattr__(self, name, float(value))
        if 1.0 + self.l_coef * self.r_coef == 0.0:
            raise ValueError("1 + L*R must be nonzero (normalization is singular)")


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


def _shear_bands(freq: float, l_coef: float, r_coef: float) -> tuple[float, float, float, float]:
    """(u_y, v_y, u_z, v_z): the (below, above) coefficients (see _tridiagonal) of Y = P + Lx, then those
    of Z = x - RP (P = -ip), at freq, as one flat tuple."""
    # alpha = 1/sqrt(2 freq) as beta / freq, which is beta at freq = 1; where freq / 2 rounds (below
    # twice the smallest normal float) alpha is formed from 2 freq, which does not
    half = freq / 2.0
    beta = math.sqrt(half)
    alpha = beta / freq if half >= _TINY else 1.0 / math.sqrt(2.0 * freq)
    l_alpha, r_beta = l_coef * alpha, r_coef * beta
    return beta + l_alpha, l_alpha - beta, alpha - r_beta, alpha + r_beta


def _tridiagonal(n_dim: int, below: float, above: float) -> np.ndarray:
    """Real N x N array with below*sqrt(k) at (k, k-1), above*sqrt(k) at (k-1, k), zero elsewhere."""
    m = ladder_weights(n_dim)
    out = np.zeros((n_dim, n_dim))
    flat = out.reshape(-1)  # a view: the (k, k-1) entries start at n_dim and the (k-1, k) ones at 1
    # + 0.0 writes a -0.0 band as +0.0, the bits a sum with the other band's zeros would give
    flat[n_dim :: n_dim + 1] = (below + 0.0) * m
    flat[1 :: n_dim + 1] = (above + 0.0) * m
    return out


# not in __all__: benchmarks/test_bench.py still looks it up as model.transformed_momentum
def transformed_momentum(basis: BasisSpec, params: TransformParams) -> np.ndarray:
    """Sheared momentum p + iL x = iY as a dense complex array (unnormalized)."""
    u_y, v_y, _, _ = _shear_bands(basis.freq, params.l_coef, params.r_coef)
    return 1j * _tridiagonal(basis.n_dim, u_y, v_y)


def normalized_commutator_check(basis: BasisSpec, params: TransformParams) -> CommutatorDefect:
    """Check invariance of the canonical commutator under the shear transform.

    Computes (z y - y z) / (i (1+LR)) = (Z Y - Y Z) / (1+LR) in real
    arithmetic and reports how far the first n_dim-1 diagonal entries
    deviate from 1, the value of the last diagonal entry (the truncation
    defect, ideally 1 - n_dim), and the largest off-diagonal magnitude.
    Raises ValueError when 1+LR, Y, Z or the commutator overflows float64, and
    when the rounding floor 2 eps max|Y| max|Z| / |1+LR| of the product
    exceeds _ROUNDING_FLOOR_LIMIT: the report would then show rounding, not
    the commutator (as at L = 1e14, where forming Y = P + Lx loses P).
    """
    n = basis.n_dim
    norm = 1.0 + params.l_coef * params.r_coef
    u_y, v_y, u_z, v_z = _shear_bands(basis.freq, params.l_coef, params.r_coef)
    # max|Y| and max|Z| both sit on the last ladder weight sqrt(n-1)
    max_yz = max(abs(u_y), abs(v_y)) * max(abs(u_z), abs(v_z)) * (n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        big_y, big_z = _tridiagonal(n, u_y, v_y), _tridiagonal(n, u_z, v_z)
        c = big_z @ big_y
        c -= big_y @ big_z
    diag = c.diagonal().copy()
    np.fill_diagonal(c, 0.0)
    peak = float(np.abs(c, out=c).max())  # a nan entry makes the peak nan
    if not (math.isfinite(norm) and math.isfinite(peak) and np.isfinite(diag).all()):
        raise ValueError(f"commutator check overflows float64 (1+LR = {norm}, max|Y| max|Z| = {max_yz:.3e})")
    floor = 2.0 * max_yz / abs(norm) * np.finfo(np.float64).eps
    if not floor <= _ROUNDING_FLOOR_LIMIT:
        raise ValueError(f"commutator check is beyond float64 resolution: rounding floor "
                         f"2 eps max|Y| max|Z| / |1+LR| = {floor:.3e} > {_ROUNDING_FLOOR_LIMIT:g}")
    # only the N diagonal entries and the peak are divided: a correctly rounded division by |1+LR| is
    # monotone, so the peak of |c| / |1+LR| is peak / |1+LR|
    diag /= norm
    return CommutatorDefect(
        n_dim=n,
        max_diag_deviation=float(np.abs(diag[: n - 1] - 1.0).max()),
        last_diag_entry=float(diag[-1]),
        expected_last=float(1 - n),
        max_offdiag=peak / abs(norm),
    )
