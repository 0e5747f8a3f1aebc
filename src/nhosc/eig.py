"""Real nonsymmetric eigenvalue solver.

A Bands record of a matrix's 0 and +-2 bands (the oscillator H couples level
n only to n and n+-2; Bands.entries writes the dense array), or a matrix with
only those bands, is solved as its even-index and odd-index tridiagonal
blocks, each symmetrized by a diagonal similarity and handed over largest
level first (_blocks): H's diagonal grows like 2k+1 with the level k, and
LAPACK's QR converges faster on a block graded largest-first (2-3x on the
Table-1 blocks at w_v, N = 200).
Any other matrix is one block: diagonal balancing (Parlett-Reinsch, radix
2) and Householder reduction to upper Hessenberg form in this module.
LAPACK's QR stage (``np.linalg.eigvals``) solves each block.  The spectrum
comes back sorted by (Re, Im), its complex values in exact conjugate pairs,
which classify matches by sorting, then counts.  Eigenvalues only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Bands",
    "EigensolverError",
    "ConvergenceError",
    "Spectrum",
    "ClassifiedSpectrum",
    "balance",
    "hessenberg_reduce",
    "eigenvalues",
    "classify",
    "real_mask",
]

_TOL_REL = 1e-10  # relative realness threshold of real_mask


class EigensolverError(RuntimeError):
    """Raised when the solve cannot be completed or fails self-consistency."""


class ConvergenceError(EigensolverError):
    """LAPACK's QR iteration did not converge."""


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue multiset of one solve.

    Values come sorted by (Re, Im) from eigenvalues; classify_tol is the
    absolute realness threshold, 1e-8 times the Frobenius norm of the input.
    """

    values: np.ndarray
    classify_tol: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ClassifiedSpectrum:
    """The counts of a spectrum's real values and conjugate pairs;
    n_real + 2*n_complex = matrix dimension."""

    n_real: int
    n_complex: int


def _frobenius_norm(*parts: np.ndarray) -> float:
    """|a|_F of the entries of parts (a matrix, or the bands of one) scaled by
    max|a_ij|, so entries whose squares would underflow (below about 1e-154) or
    overflow (above about 1e154) still count."""
    a = np.concatenate([np.ravel(p) for p in parts])
    scale = float(np.abs(a).max())
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(a / scale))


class Bands(NamedTuple):
    """The diagonal, +2 (upper) and -2 (lower) bands of a real N x N matrix
    whose other entries are zero, as float64 arrays of length N, N-2, N-2;
    entries, norm and eigenvalues reject complex bands and other lengths."""

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        """The matrix as a read-only dense N x N array."""
        diag, upper, lower = _as_real_bands(self)
        h = np.zeros((diag.size, diag.size))
        np.fill_diagonal(h, diag)
        np.fill_diagonal(h[:, 2:], upper)
        np.fill_diagonal(h[2:, :], lower)
        h.setflags(write=False)
        return h

    @property
    def norm(self) -> float:
        """The matrix's Frobenius norm, taken from the three bands."""
        return _frobenius_norm(*_as_real_bands(self))


def _as_real_array(m) -> np.ndarray:
    """Real float64 view of a square array-like; rejects complex input."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        raise ValueError("complex matrices are not supported by this solver")
    return a.astype(np.float64, copy=False)


def _as_real_bands(b: Bands) -> Bands:
    """b with float64 bands; rejects complex bands and lengths other than N, N-2, N-2."""
    if any(np.iscomplexobj(band) for band in b):
        raise ValueError("complex matrices are not supported by this solver")
    bands = Bands(*(np.asarray(band, dtype=np.float64) for band in b))
    n, shapes = bands.diag.size, [band.shape for band in bands]
    if shapes != [(n,), (max(n - 2, 0),), (max(n - 2, 0),)]:
        raise ValueError(f"expected bands of lengths N, N-2 and N-2, got shapes {shapes}")
    return bands


@np.errstate(over="ignore", invalid="ignore")  # overflowing sums raise ValueError below
def balance(m) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal similarity scaling that approximately equalizes row/column norms.

    Returns (balanced, d) with balanced = D^-1 m D for D = diag(d); the
    scale factors are powers of two, so the similarity is exact in
    floating point and eigenvalues are unchanged.  Raises ValueError when
    a row or column sum is not finite or within a factor 2 of overflow.
    """
    a = _as_real_array(m).copy()
    n = a.shape[0]
    d = np.ones(n)
    radix = 2.0
    b2 = radix * radix
    noconv = True
    while noconv:
        noconv = False
        for i in range(n):
            c = np.abs(a[:, i]).sum() - abs(a[i, i])
            r = np.abs(a[i, :]).sum() - abs(a[i, i])
            if not math.isfinite(2.0 * (c + r)):  # c < r/2 grows below 2r; an inf c loops forever
                raise ValueError(f"row/column {i} sums {r:.3e}/{c:.3e} are not finite or too large")
            if c == 0.0 or r == 0.0:
                continue
            g = r / radix
            f = 1.0
            s = c + r
            while c < g:
                f *= radix
                c *= b2
            g = r * radix
            while c >= g:
                f /= radix
                c /= b2
            if (c + r) / f < 0.95 * s:
                d[i] *= f
                a[i, :] *= 1.0 / f
                a[:, i] *= f
                noconv = True
    return a, d


def hessenberg_reduce(m) -> np.ndarray:
    """Orthogonal (Householder) similarity reduction to upper Hessenberg form."""
    h = _as_real_array(m).copy()
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1 :, k]
        if not x[1:].any():  # column already Hessenberg: no reflector needed
            continue
        # the reflector does not change when x is scaled; an exact power-of-two
        # scaling to max|x| in [0.5, 1) keeps the squares in norm() from
        # under- or overflowing
        v = np.ldexp(x, -math.frexp(np.abs(x).max())[1])
        norm_x = np.linalg.norm(v)
        v[0] += math.copysign(norm_x, v[0]) if v[0] != 0.0 else norm_x
        v /= np.linalg.norm(v)
        # two-sided reflector application keeps the similarity orthogonal
        h[k + 1 :, k:] -= 2.0 * np.outer(v, v @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v)
        h[k + 2 :, k] = 0.0
    return h


def _blocks(d: np.ndarray, u: np.ndarray, l: np.ndarray) -> list[np.ndarray]:
    """The blocks whose spectra make up the spectrum of the matrix whose only
    nonzero bands are d (0), u (+2) and l (-2).  The even and odd blocks are
    tridiagonal, with u and l made sign(u) r and sign(l) r, r = sqrt|u| sqrt|l|:
    the diagonal and every u l stay, so the characteristic polynomial does, and
    r cannot overflow.  For u l > 0 that is the symmetric D^-1 block D balancing
    cannot find.  Each block comes in reversed level order, [::-1, ::-1], an
    exact permutation similarity: H's diagonal grows with the level, and LAPACK's
    QR meets the graded block largest entries first, which it solves 2-3x
    faster at w_v (N = 200) and about 1.2-1.7x faster in the real window
    (N = 1000-2000) than in natural order."""
    r = np.sqrt(np.abs(u)) * np.sqrt(np.abs(l))
    up, down = np.copysign(r, u), np.copysign(r, l)
    # n = 1 leaves an empty (0 x 0) odd block
    return [
        (np.diag(d[p::2]) + np.diag(up[p::2], 1) + np.diag(down[p::2], -1))[::-1, ::-1]
        for p in (0, 1)
    ]


def eigenvalues(m) -> Spectrum:
    """All eigenvalues of a Bands record or a square real matrix, sorted by (Re, Im).

    A Bands record, or a matrix with only the 0 and +-2 bands, is solved as
    two symmetrized tridiagonal blocks (see _blocks), its norm and trace taken
    from the bands; any other matrix is one block, balanced and in Hessenberg
    form.  Raises ValueError when N |m|_F is not finite, ConvergenceError when
    LAPACK's QR does not converge, and EigensolverError when the sum of the
    eigenvalues misses the trace by more than 1e-9 |m|_F.
    """
    if isinstance(m, Bands):
        bands, dense = _as_real_bands(m), None
    else:
        dense = _as_real_array(m)
        bands = Bands(np.diagonal(dense), np.diagonal(dense, 2), np.diagonal(dense, -2))
        if np.count_nonzero(dense) == sum(np.count_nonzero(band) for band in bands):
            dense = None  # only the 0 and +-2 bands: solved from them
    n = bands.diag.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    # the bands' norm: a norm of all N^2 entries wakes OpenBLAS's threads, which then spin
    norm = _frobenius_norm(*bands) if dense is None else _frobenius_norm(dense)
    if not math.isfinite(n * norm):
        raise ValueError(f"N |m|_F = {n * norm} is not finite (an inf or nan entry, or overflow)")
    blocks = _blocks(*bands) if dense is None else [hessenberg_reduce(balance(dense)[0])]
    try:
        vals = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK QR failed: {exc}") from exc
    tol = 1e-9 * norm if norm > 0.0 else 1e-12
    drift = abs(vals.sum() - bands.diag.sum())
    if not drift <= tol:  # a NaN drift fails too
        raise EigensolverError(
            f"trace identity violated: |sum(eig) - trace| = {drift:.3e} > {tol:.3e}"
        )
    return Spectrum(values=vals[np.lexsort((vals.imag, vals.real))], classify_tol=1e-8 * norm)


def real_mask(s: Spectrum) -> np.ndarray:
    """Which values of s count as real: |Im v| <= max(s.classify_tol, 1e-10 |v|)."""
    return np.abs(s.values.imag) <= np.maximum(s.classify_tol, _TOL_REL * np.abs(s.values))


def classify(s: Spectrum) -> ClassifiedSpectrum:
    """Count a real-matrix spectrum's real values (by real_mask) and conjugate pairs.

    The k-th Im>0 value and the k-th conjugated Im<0 value, both sorted by
    (Re, Im), form a pair.  Unequal counts, or a pair further apart than
    10 max(classify_tol, 1e-10 |v|), mean the matrix was not real and raise
    ValueError.
    """
    mask = real_mask(s)
    rest = s.values[~mask]
    pos = np.sort_complex(rest[rest.imag > 0.0])
    neg = np.sort_complex(rest[rest.imag < 0.0].conj())
    if len(pos) != len(neg):
        raise ValueError(
            f"unpairable complex values: {len(pos)} with Im>0 vs {len(neg)} with Im<0"
        )
    dists = np.abs(neg - pos)
    pair_tol = 10.0 * np.maximum(s.classify_tol, _TOL_REL * np.abs(pos))
    far = np.flatnonzero(~(dists <= pair_tol))  # a NaN distance is far too
    if far.size:
        j = far[0]
        raise ValueError(
            f"no conjugate partner for {pos[j]} within {pair_tol[j]:.3e} (best {dists[j]:.3e})"
        )
    return ClassifiedSpectrum(n_real=int(np.count_nonzero(mask)), n_complex=len(pos))
