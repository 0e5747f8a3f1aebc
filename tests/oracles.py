"""Independent references for the tests: this module imports nothing from the package.

The operators are dense complex matrices in the N-dimensional truncated
oscillator basis (hbar = m = 1), written straight from the ladder weights
sqrt(k) and the basis frequency w: x = (a + a^+) / sqrt(2w) and
p = i sqrt(w/2) (a^+ - a).  The sheared pair is y = p + iLx, z = x + iRp, and
H = C [A^2 y^2 + B^2 z^2] with C = 1/(1+LR), formed by dense products.
francis_qr is the EISPACK-style double-shift QR for an upper Hessenberg
matrix, the reference eigenvalue solver of whole matrices.  The exact_* functions
count the eigenvalues of the truncated H in exact rational arithmetic, with
no floating-point eigensolver at any precision.  mp_entries gives single
entries of H, and mp_bands its band scalars and norm, from the same
definitions in mpmath at any precision.  dense_commutator_check is the
commutator check with every step on the whole dense N x N array, the
reference of the package's check, which divides and scans less of it.
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import sympy

_EPS = float(np.finfo(np.float64).eps)


def _ladder(n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(a + a^+, a^+ - a): sqrt(k) at (k-1, k) and +-sqrt(k) at (k, k-1)."""
    m = np.sqrt(np.arange(1, n_dim, dtype=float))
    return np.diag(m, -1) + np.diag(m, 1), np.diag(m, -1) - np.diag(m, 1)


def position(n_dim: int, freq: float) -> np.ndarray:
    """x = (a + a^+) / sqrt(2w), complex dtype."""
    return _ladder(n_dim)[0] / math.sqrt(2.0 * freq) + 0j


def momentum(n_dim: int, freq: float) -> np.ndarray:
    """p = i sqrt(w/2) (a^+ - a)."""
    return 1j * math.sqrt(freq / 2.0) * _ladder(n_dim)[1]


def sheared(n_dim: int, freq: float, l_coef: float, r_coef: float) -> tuple[np.ndarray, np.ndarray]:
    """(y, z) = (p + iL x, x + iR p)."""
    x, p = position(n_dim, freq), momentum(n_dim, freq)
    return p + 1j * l_coef * x, x + 1j * r_coef * p


def hamiltonian(n_dim, freq, l_coef, r_coef, a_coef, b_coef) -> np.ndarray:
    """C [A^2 y@y + B^2 z@z], complex dtype."""
    y, z = sheared(n_dim, freq, l_coef, r_coef)
    return (a_coef**2 * (y @ y) + b_coef**2 * (z @ z)) / (1.0 + l_coef * r_coef)


def _mp_entries(l_coef, r_coef, a_coef, b_coef, freq, n_dim, index_pairs) -> list:
    """H[i, j] for each (i, j) of index_pairs as mpmath reals at the working precision (see mp_entries)."""
    l_coef, r_coef, a_coef, b_coef, freq = map(mpmath.mpf, (l_coef, r_coef, a_coef, b_coef, freq))

    def sheared_entries(i, k):
        """(y[i,k], z[i,k]) for |i - k| = 1."""
        root = mpmath.sqrt(max(i, k))
        x = root / mpmath.sqrt(2 * freq)
        p = 1j * mpmath.sqrt(freq / 2) * (root if i > k else -root)
        return p + 1j * l_coef * x, x + 1j * r_coef * p

    values = []
    for i, j in index_pairs:
        h = mpmath.mpc(0)
        for k in (i - 1, i + 1):
            if 0 <= k < n_dim and abs(k - j) == 1:
                (y_ik, z_ik), (y_kj, z_kj) = sheared_entries(i, k), sheared_entries(k, j)
                h += a_coef**2 * y_ik * y_kj + b_coef**2 * z_ik * z_kj
        h /= 1 + l_coef * r_coef
        assert h.imag == 0, (i, j, h)
        values.append(h.real)
    return values


def mp_entries(l_coef, r_coef, a_coef, b_coef, freq, n_dim, index_pairs, dps) -> list[float]:
    """H[i, j] for each (i, j) of index_pairs, as the float nearest its dps-digit mpmath value.

    Each entry is the sum over the one or two intermediate levels k of
    A^2 y[i,k] y[k,j] + B^2 z[i,k] z[k,j], over 1 + LR, with the entries of x, p, y
    and z written out as above and the float inputs taken exactly: no float64
    operation and no closed form of H's bands enters.
    """
    with mpmath.workdps(dps):
        return [float(h) for h in _mp_entries(l_coef, r_coef, a_coef, b_coef, freq, n_dim, index_pairs)]


def mp_bands(l_coef, r_coef, a_coef, b_coef, freq, n_dim, dps) -> tuple[list[float], float, mpmath.mpf]:
    """([D, U, V], N |H|_F, max|H_ij|): the first two as the floats nearest their dps-digit mpmath
    values, the last as that mpmath value (it may lie below the smallest subnormal float).

    D = H[0,0] and U, V = H[0,2], H[2,0] over sqrt(2) are the scalars of H's diagonal, +2 and -2
    bands (U = V = 0 at N = 2, which has no +-2 bands); the norm and the largest magnitude are
    taken over every entry of those bands, each from mp_entries' definitions.
    """
    places = [(k, k) for k in range(n_dim)] + [(k, k + 2) for k in range(n_dim - 2)]
    places += [(k + 2, k) for k in range(n_dim - 2)]
    with mpmath.workdps(dps):
        entries = _mp_entries(l_coef, r_coef, a_coef, b_coef, freq, n_dim, places)
        scalars = [entries[0], entries[n_dim] / mpmath.sqrt(2), entries[2 * n_dim - 2] / mpmath.sqrt(2)] \
            if n_dim > 2 else [entries[0], 0, 0]
        norm = n_dim * mpmath.sqrt(mpmath.fsum(h * h for h in entries))
        return [float(s) for s in scalars], float(norm), max(map(abs, entries))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def diag_sum_tridiagonal(n_dim: int, below: float, above: float) -> np.ndarray:
    """below sqrt(k) at (k, k-1) and above sqrt(k) at (k-1, k), as the sum of two np.diag arrays."""
    m = np.sqrt(np.arange(1, n_dim, dtype=float))
    return np.diag(below * m, -1) + np.diag(above * m, 1)


def dense_commutator_check(n_dim, u_y, v_y, u_z, v_z, norm) -> tuple[float, float, float]:
    """(max |C_kk - 1| over k < N-1, C_{N-1,N-1}, max |C_jk| over j != k) of C = (Z Y - Y Z) / norm, with
    Y, Z = diag_sum_tridiagonal(N, u_y, v_y), (N, u_z, v_z) and every step taken on the whole N x N
    array: the whole-matrix finiteness test, the division and the absolute value.  ValueError as the
    commutator check words it: when norm or C overflows float64, then when the rounding floor
    2 eps max|Y| max|Z| / |norm| is above 1e-6."""
    max_yz = max(abs(u_y), abs(v_y)) * max(abs(u_z), abs(v_z)) * (n_dim - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        big_y, big_z = diag_sum_tridiagonal(n_dim, u_y, v_y), diag_sum_tridiagonal(n_dim, u_z, v_z)
        c = big_z @ big_y - big_y @ big_z
    if not (math.isfinite(norm) and np.isfinite(c).all()):
        raise ValueError(f"commutator check overflows float64 (1+LR = {norm}, max|Y| max|Z| = {max_yz:.3e})")
    floor = 2.0 * max_yz / abs(norm) * _EPS
    if not floor <= 1e-6:
        raise ValueError(f"commutator check is beyond float64 resolution: rounding floor "
                         f"2 eps max|Y| max|Z| / |1+LR| = {floor:.3e} > 1e-06")
    c /= norm
    diag = c.diagonal().copy()
    np.fill_diagonal(c, 0.0)
    return float(np.abs(diag[:-1] - 1.0).max()), float(diag[-1]), float(np.abs(c).max())


class FrancisConvergenceError(RuntimeError):
    """francis_qr ran out of sweeps; subdiagonal_index is the stuck subdiagonal row."""

    def __init__(self, message: str, subdiagonal_index: int):
        self.subdiagonal_index = subdiagonal_index
        super().__init__(message)


def francis_qr(h: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Implicit double-shift QR on an upper Hessenberg matrix (eigenvalues only).

    Follows the classic EISPACK hqr scheme: deflate converged 1x1/2x2
    trailing blocks, form the Francis double shift from the trailing
    2x2, chase the bulge with 3x3 reflectors.  Exceptional shifts kick
    in every 10 stalled sweeps on the same block; exceeding max_sweeps
    raises FrancisConvergenceError naming the stuck subdiagonal.
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
                raise FrancisConvergenceError(
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


def exact_block_charpolys(l_coef, r_coef, a_coef, b_coef, freq, n_dim) -> list[list[int]]:
    """Integer coefficients, highest degree first, of det(x - J) for the even and
    the odd parity block J of the truncated H at rational (L, R, A, B, w).

    With alpha^2 = 1/(2w), beta^2 = w/2 and alpha beta = 1/2, H's diagonal is
    C(B^2(alpha^2 - R^2 beta^2) - A^2(L^2 alpha^2 - beta^2)) times 2k+1 (N-1 at the
    edge k = N-1), and the product of its entries at (k, k+2) and (k+2, k) is
    C^2 (B^2 v_z^2 - A^2 v_y^2)(B^2 u_z^2 - A^2 u_y^2)(k+1)(k+2), with
    v_z^2, u_z^2 = alpha^2 + R^2 beta^2 +- R and v_y^2, u_y^2 = L^2 alpha^2 + beta^2 -+ L:
    every square root cancels, so the three-term recurrence runs over Q.
    """
    l, r, a, b, w = map(Fraction, (l_coef, r_coef, a_coef, b_coef, freq))
    c, a2, b2 = 1 / (1 + l * r), a * a, b * b
    alpha2, beta2 = 1 / (2 * w), w / 2
    diag = c * (b2 * (alpha2 - r * r * beta2) - a2 * (l * l * alpha2 - beta2))
    z2, y2 = alpha2 + r * r * beta2, l * l * alpha2 + beta2
    band = c * c * (b2 * (z2 + r) - a2 * (y2 - l)) * (b2 * (z2 - r) - a2 * (y2 + l))
    polys = []
    for parity in (0, 1):
        older, old = [], [Fraction(1)]  # lowest degree first
        for k in range(parity, n_dim, 2):
            # q_k = (x - d_k) q_{k-2} - band (k-1) k q_{k-4}
            d = diag * (2 * k + 1 if k < n_dim - 1 else n_dim - 1)
            new = [Fraction(0), *old]
            for i, co in enumerate(old):
                new[i] -= d * co
            for i, co in enumerate(older):
                new[i] -= band * (k - 1) * k * co
            older, old = old, new
        den = math.lcm(*(co.denominator for co in old))
        polys.append([int(co * den) for co in reversed(old)])
    return polys


@functools.cache
def exact_real_eigenvalues(
    l_coef, r_coef, a_coef, b_coef, freq, n_dim
) -> tuple[tuple[tuple[int, ...], Fraction, Fraction], ...]:
    """The real eigenvalues of the truncated H at rational (L, R, A, B, w), repeated
    by multiplicity, each as (g, s, t): g the integer coefficients of a square-free
    factor of its block's characteristic polynomial, and [s, t] a rational interval
    holding that root and no other root of g.  Floats are taken at their exact value.
    sympy may end one root's interval at a rational root of the same factor; such a
    factor is split into its irreducible factors, which vanish at no rational end."""
    x = sympy.Symbol("x")
    roots = []
    for coeffs in exact_block_charpolys(l_coef, r_coef, a_coef, b_coef, freq, n_dim):
        factors = sympy.Poly(coeffs, x).sqf_list()[1]
        while factors:
            factor, mult = factors.pop()
            g = tuple(int(co) for co in factor.all_coeffs())
            ends = [(Fraction(int(s.p), int(s.q)), Fraction(int(t.p), int(t.q))) for (s, t), _ in factor.intervals()]
            if any(s < t and 0 in (_value(g, s), _value(g, t)) for s, t in ends):
                factors += [(f, mult * m) for f, m in factor.factor_list()[1]]
                continue
            for s, t in ends:
                if s < t and not _value(g, s) * _value(g, t) < 0:
                    raise AssertionError(f"[{s}, {t}] does not isolate a simple root")
                roots += [(g, s, t)] * mult
    return tuple(roots)


def exact_complex_pairs(l_coef, r_coef, a_coef, b_coef, freq, n_dim) -> int:
    """Conjugate pairs of the truncated H at rational (L, R, A, B, w), exactly."""
    real = len(exact_real_eigenvalues(l_coef, r_coef, a_coef, b_coef, freq, n_dim))
    return (n_dim - real) // 2


def exact_reality_window(l_coef, r_coef, a_coef, b_coef) -> tuple[Fraction, Fraction]:
    """(w-, w+) = ((|AB| - |c|)/a, (|AB| + |c|)/a) at rational (L, R, A, B) in the real regime,
    with a = C(A^2 - R^2 B^2) and c = C(L A^2 + R B^2).  At either edge one +-2 band of H
    vanishes, so the truncated spectrum is exactly (2n+1)|AB| for n < N-1 and (N-1)|AB|."""
    l, r, a, b = map(Fraction, (l_coef, r_coef, a_coef, b_coef))
    c = 1 / (1 + l * r)
    p2, cross = c * (a * a - r * r * b * b), abs(c * (l * a * a + r * b * b))
    return (abs(a * b) - cross) / p2, (abs(a * b) + cross) / p2


def exact_count_in(roots, lo: Fraction, hi: Fraction) -> int:
    """How many of exact_real_eigenvalues' roots lie in [lo, hi]: g changes sign at
    its only root in [s, t], so the root is in [max(s, lo), min(t, hi)] exactly
    when g's values at the two ends differ in sign or one is zero."""
    count = 0
    for g, s, t in roots:
        left, right = max(s, lo), min(t, hi)
        count += left <= right and _value(g, left) * _value(g, right) <= 0
    return count


def _value(coeffs: tuple[int, ...], x: Fraction) -> Fraction:
    value = Fraction(0)
    for co in coeffs:
        value = value * x + co
    return value


def exact_first_deviation(l_coef, r_coef, a_coef, b_coef, freq, n_dim, tol) -> int | None:
    """isospectral_report's first deviation with every eigenvalue of the truncated H at
    rational (L, R, A, B, w) exact: the first level n (None if there is none) at which it is
    not so that exactly n eigenvalues have a real part below (2n+1)|AB| - tol, at least one
    real eigenvalue lies within tol of (2n+1)|AB|, and no complex one has its real part there.
    Needs tol < |AB|, so that the windows of two levels do not meet.

    Complex eigenvalues are counted, never located: the eigenvalues of a block with real part
    below t are its degree less the right-half-plane roots of det(s + t - J) (Routh-Hurwitz).
    Their count only grows with t, so the first level that meets one is bisected.
    """
    polys = exact_block_charpolys(l_coef, r_coef, a_coef, b_coef, freq, n_dim)
    roots = exact_real_eigenvalues(l_coef, r_coef, a_coef, b_coef, freq, n_dim)
    ab, tol = abs(Fraction(a_coef) * Fraction(b_coef)), Fraction(tol)
    floor = min((s for _, s, _ in roots), default=Fraction(0)) - 1  # below every real root
    windows = [((2 * n + 1) * ab - tol, (2 * n + 1) * ab + tol) for n in range(n_dim)]
    top = next((n for n, (lo, hi) in enumerate(windows)
                if exact_count_in(roots, floor, lo) != n or exact_count_in(roots, lo, hi) < 1), n_dim)
    bottom = -1  # no complex eigenvalue has a real part up to windows[bottom], some up to windows[top]
    while top - bottom > 1:
        mid, hi = (top + bottom) // 2, windows[(top + bottom) // 2][1]
        below = sum(len(p) - 1 - _right_half_plane_roots(_taylor_shift(p, hi)) for p in polys)
        top, bottom = (mid, bottom) if below > exact_count_in(roots, floor, hi) else (top, mid)
    return None if top == n_dim else top


def _taylor_shift(coeffs: list[int], t: Fraction) -> list[Fraction]:
    """Coefficients, highest degree first, of p(s + t), by repeated synthetic division."""
    c = [Fraction(co) for co in coeffs]
    for i in range(len(c) - 1):
        for j in range(1, len(c) - i):
            c[j] += t * c[j - 1]
    return c


def _right_half_plane_roots(coeffs: list[Fraction]) -> int:
    """Roots with a positive real part: the sign changes down the first column of the Routh
    array.  AssertionError at a zero pivot (a root on the imaginary axis, or two roots
    mirrored about the origin), which the array alone cannot count."""
    upper, lower, changes = coeffs[0::2], coeffs[1::2], 0
    for _ in range(len(coeffs) - 1):
        if lower[0] == 0:
            raise AssertionError(f"zero pivot in the Routh array of {coeffs}")
        changes += (upper[0] > 0) != (lower[0] > 0)
        pad = [*lower[1:], *[0] * len(upper)]
        upper, lower = lower, [u - upper[0] * v / lower[0] for u, v in zip(upper[1:], pad)] or [Fraction(0)]
    return changes
