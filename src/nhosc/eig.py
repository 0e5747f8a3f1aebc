"""Dense real nonsymmetric eigenvalue solver.

Pipeline: diagonal balancing (Parlett-Reinsch, radix 2) and Householder
reduction to upper Hessenberg form in this module, then LAPACK's QR stage
(``np.linalg.eigvals`` on the Hessenberg matrix).  A matrix whose entries
with i+j odd are all zero (the oscillator H couples level n only to n and
n+-2) is the permutation-similar direct sum of its even-index and
odd-index submatrices; each runs through the pipeline on its own and the
two value sets are joined.  The Householder reduction skips every column
that is already in Hessenberg form, so a tridiagonal block passes through
it unchanged.  The spectrum comes back sorted by (Re, Im), its complex
values in exact conjugate pairs, which classify matches by sorting.  The
private Francis double-shift QR (``_francis_qr``) is the independent
reference the tests check the pipeline against.  Eigenvalues only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
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

_EPS = float(np.finfo(np.float64).eps)
_TOL_REL = 1e-10  # relative realness threshold of real_mask


class EigensolverError(RuntimeError):
    """Raised when the solve cannot be completed or fails self-consistency."""


class ConvergenceError(EigensolverError):
    """QR iteration did not converge.

    subdiagonal_index is the stuck subdiagonal row when the reference Francis
    QR ran out of sweeps, and None when LAPACK gave up (it names no index).
    """

    def __init__(self, message: str, subdiagonal_index: int | None = None):
        self.subdiagonal_index = subdiagonal_index
        super().__init__(message)


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
    """Spectrum split into real values and conjugate pairs.

    complex_pairs holds (real part, |imaginary part|) per pair; the
    counts always satisfy n_real + 2*n_complex = matrix dimension.
    """

    real_values: np.ndarray
    complex_pairs: list[tuple[float, float]]
    n_real: int
    n_complex: int


def _frobenius_norm(a: np.ndarray) -> float:
    """|a|_F scaled by max|a_ij|, so entries whose squares would underflow
    (below about 1e-154) or overflow (above about 1e154) still count."""
    scale = float(np.abs(a).max())
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(a / scale))


def _as_real_array(m) -> np.ndarray:
    """Real float64 view of a square array-like; rejects complex input."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        raise ValueError("complex matrices are not supported by this solver")
    return a.astype(np.float64, copy=False)


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


def _francis_qr(h: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Implicit double-shift QR on an upper Hessenberg matrix (eigenvalues only).

    Follows the classic EISPACK hqr scheme: deflate converged 1x1/2x2
    trailing blocks, form the Francis double shift from the trailing
    2x2, chase the bulge with 3x3 reflectors.  Exceptional shifts kick
    in every 10 stalled sweeps on the same block; exceeding max_sweeps
    raises ConvergenceError naming the stuck subdiagonal.
    """
    a = h.copy()
    n = a.shape[0]
    wr = np.zeros(n)
    wi = np.zeros(n)
    anorm = np.abs(np.triu(a, -1)).sum()
    if anorm == 0.0:
        return wr + 1j * wi
    total = 0
    t = 0.0
    nn = n - 1
    while nn >= 0:
        its = 0
        while True:
            # find the highest l with a negligible subdiagonal below it
            l = nn
            while l >= 1:
                s = abs(a[l - 1, l - 1]) + abs(a[l, l])
                if s == 0.0:
                    s = anorm
                if abs(a[l, l - 1]) <= _EPS * s:
                    a[l, l - 1] = 0.0
                    break
                l -= 1
            x = a[nn, nn]
            if l == nn:  # 1x1 block deflated: one real eigenvalue
                wr[nn] = x + t
                nn -= 1
                break
            y = a[nn - 1, nn - 1]
            w = a[nn, nn - 1] * a[nn - 1, nn]
            if l == nn - 1:  # 2x2 block deflated: real pair or conjugate pair
                p = 0.5 * (y - x)
                q = p * p + w
                z = math.sqrt(abs(q))
                x += t
                if q >= 0.0:
                    z = p + math.copysign(z, p)
                    wr[nn - 1] = wr[nn] = x + z
                    if z != 0.0:
                        wr[nn] = x - w / z
                else:
                    wr[nn - 1] = wr[nn] = x + p
                    wi[nn - 1] = -z
                    wi[nn] = z
                nn -= 2
                break
            if total >= max_sweeps:
                raise ConvergenceError(
                    f"QR iteration did not converge within {total} sweeps; "
                    f"stuck at subdiagonal index {nn}",
                    nn,
                )
            if its != 0 and its % 10 == 0:
                # exceptional shift against cycling
                t += x
                for i in range(nn + 1):
                    a[i, i] -= x
                s = abs(a[nn, nn - 1]) + abs(a[nn - 1, nn - 2])
                y = x = 0.75 * s
                w = -0.4375 * s * s
            its += 1
            total += 1
            # start the bulge as high as two consecutive small subdiagonals allow
            m = nn - 2
            while m >= l:
                z = a[m, m]
                r = x - z
                s = y - z
                p = (r * s - w) / a[m + 1, m] + a[m, m + 1]
                q = a[m + 1, m + 1] - z - r - s
                r = a[m + 2, m + 1]
                s = abs(p) + abs(q) + abs(r)
                p /= s
                q /= s
                r /= s
                if m == l:
                    break
                u = abs(a[m, m - 1]) * (abs(q) + abs(r))
                v = abs(p) * (abs(a[m - 1, m - 1]) + abs(z) + abs(a[m + 1, m + 1]))
                if u <= _EPS * v:
                    break
                m -= 1
            for i in range(m + 2, nn + 1):
                a[i, i - 2] = 0.0
                if i > m + 2:
                    a[i, i - 3] = 0.0
            # chase the bulge: double QR step on rows l..nn, columns m..nn
            for k in range(m, nn):
                if k != m:
                    p = a[k, k - 1]
                    q = a[k + 1, k - 1]
                    r = a[k + 2, k - 1] if k != nn - 1 else 0.0
                    x = abs(p) + abs(q) + abs(r)
                    if x == 0.0:
                        continue
                    p /= x
                    q /= x
                    r /= x
                s = math.copysign(math.sqrt(p * p + q * q + r * r), p)
                if s == 0.0:
                    continue
                if k == m:
                    if l != m:
                        a[k, k - 1] = -a[k, k - 1]
                else:
                    a[k, k - 1] = -s * x
                p += s
                x = p / s
                y = q / s
                z = r / s
                q /= p
                r /= p
                hi = min(nn, k + 3) + 1
                if k == nn - 1:
                    row = a[k, k : nn + 1] + q * a[k + 1, k : nn + 1]
                    a[k, k : nn + 1] -= row * x
                    a[k + 1, k : nn + 1] -= row * y
                    col = x * a[l:hi, k] + y * a[l:hi, k + 1]
                    a[l:hi, k] -= col
                    a[l:hi, k + 1] -= col * q
                else:
                    row = (
                        a[k, k : nn + 1]
                        + q * a[k + 1, k : nn + 1]
                        + r * a[k + 2, k : nn + 1]
                    )
                    a[k, k : nn + 1] -= row * x
                    a[k + 1, k : nn + 1] -= row * y
                    a[k + 2, k : nn + 1] -= row * z
                    col = x * a[l:hi, k] + y * a[l:hi, k + 1] + z * a[l:hi, k + 2]
                    a[l:hi, k] -= col
                    a[l:hi, k + 1] -= col * q
                    a[l:hi, k + 2] -= col * r
    return wr + 1j * wi


def _parity_blocks(a: np.ndarray) -> tuple[slice, ...]:
    """Row/column index sets of the blocks to solve: the even and the odd
    indices when every entry with i+j odd is zero (an exact permutation
    similarity), else all indices."""
    if a.shape[0] < 2 or a[::2, 1::2].any() or a[1::2, ::2].any():
        return (slice(None),)
    return slice(0, None, 2), slice(1, None, 2)


def _solve_block(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of one block: balance -> Hessenberg -> LAPACK QR."""
    try:
        return np.linalg.eigvals(hessenberg_reduce(balance(a)[0]))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK QR failed: {exc}") from exc


def eigenvalues(m) -> Spectrum:
    """All eigenvalues of a square real matrix, sorted by (Re, Im).

    A matrix whose entries with i+j odd are all zero is solved as its
    even-index and odd-index blocks.  Raises ValueError when N |m|_F is not
    finite, ConvergenceError when LAPACK's QR does not converge, and
    EigensolverError when the sum of the eigenvalues misses the trace by
    more than 1e-9 |m|_F.
    """
    a = _as_real_array(m)
    n = a.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    norm = _frobenius_norm(a)
    if not math.isfinite(n * norm):
        raise ValueError(f"N |m|_F = {n * norm} is not finite (an inf or nan entry, or overflow)")
    vals = np.concatenate([_solve_block(a[rows, rows]) for rows in _parity_blocks(a)])
    tol = 1e-9 * norm if norm > 0.0 else 1e-12
    drift = abs(vals.sum() - np.trace(a))
    if not drift <= tol:  # a NaN drift fails too
        raise EigensolverError(
            f"trace identity violated: |sum(eig) - trace| = {drift:.3e} > {tol:.3e}"
        )
    return Spectrum(values=vals[np.lexsort((vals.imag, vals.real))], classify_tol=1e-8 * norm)


def real_mask(s: Spectrum) -> np.ndarray:
    """Which values of s count as real: |Im v| <= max(s.classify_tol, 1e-10 |v|)."""
    return np.abs(s.values.imag) <= np.maximum(s.classify_tol, _TOL_REL * np.abs(s.values))


def classify(s: Spectrum) -> ClassifiedSpectrum:
    """Split a real-matrix spectrum into real values (by real_mask) and conjugate pairs.

    The k-th Im>0 value and the k-th conjugated Im<0 value, both sorted by
    (Re, Im), form a pair.  Unequal counts, or a pair further apart than
    10 max(classify_tol, 1e-10 |v|), mean the matrix was not real and raise
    ValueError.
    """
    mask = real_mask(s)
    reals = np.sort(s.values[mask].real)
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
    pairs = list(zip(0.5 * (pos.real + neg.real), 0.5 * (pos.imag + neg.imag)))
    reals.setflags(write=False)
    return ClassifiedSpectrum(
        real_values=reals,
        complex_pairs=pairs,
        n_real=int(reals.shape[0]),
        n_complex=len(pairs),
    )
