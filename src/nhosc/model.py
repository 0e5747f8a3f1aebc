"""General non-Hermitian quadratic oscillator: the real banded Hamiltonian, built from its exact quadratic
form as three checked band scalars times fixed ladders, variational frequency, regime classification and
reality window."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .basis import BasisSpec, TransformParams, _check_freq
from .eig import Bands
from .basis import transformed_momentum  # noqa: F401  (benchmarks/test_bench.py looks it up here)

__all__ = [
    "HamiltonianSpec",
    "Regime",
    "RegimeReport",
    "build_hamiltonian",
    "diagonal_expectation",
    "variational_frequency",
    "classify_regime",
    "reality_window",
]

_TINY = float(np.finfo(np.float64).tiny)  # smallest normal float64
_HUGE = float(np.finfo(np.float64).max)  # largest finite float64


def _quadratic_form(params: TransformParams) -> tuple[int, int, int, int]:
    """(n_a, n_b, n_c, den) with a/2, b/2, c = n_a/den, n_b/den, n_c/den exactly: H's quadratic form
    (a, b, c) = C (A^2 - R^2 B^2, B^2 - L^2 A^2, L A^2 + R B^2) of the float inputs, no rounding.  The
    one form of H in this module: the build, the regime, w_v and the reality window all read it.
    With L, R = l/k, r/k and A^2, B^2 = p/m, q/m over integers, C = k^2/(k^2 + l r), so over
    (k^2 + l r) m, a = k^2 p - r^2 q, b = k^2 q - l^2 p and c = k (l p + r q).
    """
    (l_num, l_den), (r_num, r_den) = params.l_coef.as_integer_ratio(), params.r_coef.as_integer_ratio()
    (a_num, a_den), (b_num, b_den) = params.a_coef.as_integer_ratio(), params.b_coef.as_integer_ratio()
    k, l_int, r_int = l_den * r_den, l_num * r_den, r_num * l_den
    p, q, kk = (a_num * b_den) ** 2, (b_num * a_den) ** 2, k * k
    den = 2 * (kk + l_int * r_int) * (a_den * b_den) ** 2  # nonzero: TransformParams rejects 1 + LR = 0
    return kk * p - r_int * r_int * q, kk * q - l_int * l_int * p, 2 * k * (l_int * p + r_int * q), den


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parameter bundle for the quadratic family C [A^2 y^2 + B^2 z^2]."""

    params: TransformParams
    basis: BasisSpec

    @property
    def bands(self) -> Bands:
        """H's diagonal, +2 and -2 bands, its only nonzero ones: _checked_bands' scalars times ladders, read-only."""
        diag, up, low = _checked_bands(self, self.basis.freq)
        n = self.basis.n_dim
        levels = np.append(2.0 * np.arange(n - 1) + 1.0, n - 1)
        pairs = np.sqrt(np.arange(1.0, n - 1) * np.arange(2.0, n))
        bands = Bands(diag * levels, up * pairs, low * pairs)
        for band in bands:
            band.setflags(write=False)
        return bands

    @cached_property
    def _triple(self) -> tuple[int, int, int, int]:
        """_quadratic_form(params), formed once per spec for _scalars and _exact_bands."""
        return _quadratic_form(self.params)

    @cached_property
    def _scalars(self) -> tuple[int, float, float, float, float, float]:
        """(last, lo, hi, a/2, b/2, c): the half of H's check that (params, N) fix, made once per spec, with
        last = N - 1, the level whose ladder value is N - 1 in place of 2 last + 1.  Never raises.  a/2, b/2
        and c are _triple's rounded once, or nan where that is not 0 or a normal float64.  At every basis
        frequency w in [lo, hi], _checked_bands' float D, U, V pass floor <= N |H|_F < inf, with N |H|_F =
        N hypot(D lev_norm, U pair_norm, V pair_norm) in float64; an N |H|_F below floor = 4 N tiny
        (lev_norm + pair_norm) does not show a normal band scalar.  With x = (a/2) w and y = (b/2)/w,
        D = x + y and U, V = (y - x) +- c:
        - Upper bound: each of |D|, |U|, |V| is at most |x| + |y| + |c|.  With K = HUGE / (8 N (lev_norm +
          2 pair_norm)), lo = 2|b/2|/K and hi = K/(2|a/2|) keep |x| and |y| below K/2 (|y| below 3K/4 where
          lo rounds as a subnormal), so with |c| <= K, N |H|_F stays below HUGE/3: room for every rounding.
        - Lower bound: max(|D|, |U|, |V|) >= max(|c|, |x| + |y|) >= max(|c|, 2 sqrt(|a/2| |b/2|)), since
          U - V = 2c and max(|x + y|, |y - x|) = |x| + |y|.  N |H|_F is at least N pair_norm (<= N lev_norm)
          times this bound at every w: where x or y rounds below the normal range, the other is past twice
          the bound.  A bound that passes floor with 16 eps to spare passes it after every rounding.
        The interval is empty, (lo, hi) = (inf, -inf), which no float passes, inf and nan included, where
        _ladder_norms raises (N above about 5e102: _exact_bands raises it anew, after the level and
        frequency checks), a rounded triple component is nan, |c| > K, or the lower bound fails floor; at
        N = 2 it always fails, as pair_norm = 0: H = D I has no +-2 band to bound a cancellation in D.  A
        non-empty interval has lo >= 5e-324 and hi <= HUGE, so w in [lo, hi] implies 0 < w < inf."""
        n_a, n_b, n_c, den = self._triple
        half_a, half_b, c = _normal(n_a, den), _normal(n_b, den), _normal(n_c, den)
        n = self.basis.n_dim
        empty = n - 1, math.inf, -math.inf, half_a, half_b, c
        try:
            lev_norm, pair_norm = _ladder_norms(n)
        except ValueError:
            return empty
        big = _HUGE / (8.0 * n * (lev_norm + 2.0 * pair_norm))
        least = max(abs(c), 2.0 * math.sqrt(abs(half_a)) * math.sqrt(abs(half_b)))
        floor = 4.0 * n * _TINY * (lev_norm + pair_norm)
        if math.isnan(half_a + half_b + c) or abs(c) > big or not least * n * pair_norm * (1 - 2**-48) >= floor:
            return empty
        lo = max(2.0 * abs(half_b) / big, 5e-324)
        hi = min(big / (2.0 * abs(half_a)), _HUGE) if half_a else _HUGE
        return n - 1, lo, hi, half_a, half_b, c


def _ladder_norms(n: int) -> tuple[float, float]:
    """(lev_norm, pair_norm): the 2-norms of H's diagonal ladder lev (2k+1, and N-1 at the edge) and of its
    +-2 ladder sqrt((k+1)(k+2)), from sum(lev^2) = (N-1)(2N-3)(2N-1)/3 + (N-1)^2 and sum(pair^2) =
    (N-2)(N-1)N/3.  ValueError, naming N, when sum(lev^2) is past float64 (N above about 5e102)."""
    lev_squares = (n - 1) * (2 * n - 3) * (2 * n - 1) // 3 + (n - 1) * (n - 1)  # exact: a Python int
    if lev_squares > _HUGE:  # a Python float: an exact comparison, no conversion of the int
        raise ValueError(f"N = {n} is too large: the sum of H's squared diagonal ladder overflows float64")
    return math.sqrt(lev_squares), math.sqrt((n - 2.0) * (n - 1.0) * n / 3.0)


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
    The regime is decided on the exact signs of a and b, and each float
    field is its exact value rounded once, +-inf past float64.
    """

    coef_p2: float
    coef_x2: float
    coef_cross: float
    regime: Regime
    ab_plus_csq: float


def _rounded(num: int, den: int) -> float:
    """num / den rounded once, or +-inf past float64."""
    try:
        return num / den  # int / int: correctly rounded, OverflowError past float64
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


def _normal(num: int, den: int) -> float:
    """num / den rounded once where that is 0 or a normal float64, else nan."""
    value = _rounded(num, den)
    return value if not num or _TINY <= abs(value) < math.inf else math.nan


def _checked_bands(spec: HamiltonianSpec, freq: float) -> tuple[float, float, float]:
    """The scalars (D, U, V) of H's diagonal, +2 and -2 bands at a basis frequency that passed
    basis._check_freq, checked in O(1): H's one check, for HamiltonianSpec.bands and diagonal_expectation.
    In the number basis, p^2 = (w/2)(lev - a^2 - a+^2), x^2 = (lev + a^2 + a+^2)/(2w) and i(xp + px) =
    a^2 - a+^2, so H = a p^2 + b x^2 + i c (xp + px) has D = (a w + b/w)/2 and U, V = (b/w - a w)/2 +- c times
    ladders that the callers apply last.  With x = (a/2) w and y = (b/2)/w, each term of D = x + y and
    U, V = (y - x) +- c is at most max(|D|, |U|, |V|), so each scalar is within a few eps of the largest.
    Inside spec._scalars' frequency interval these float scalars are H's: their N |H|_F is finite and
    shows a normal entry.  Outside it, _exact_bands decides."""
    _, lo, hi, half_a, half_b, c = spec._scalars
    if lo <= freq <= hi:
        x = half_a * freq
        y = half_b / freq
        t = y - x
        return x + y, t + c, t - c
    return _exact_bands(spec, freq)


def _exact_bands(spec: HamiltonianSpec, freq: float) -> tuple[float, float, float]:
    """_checked_bands' scalars from spec._triple and freq taken exactly, each rounded once.  ValueError when
    N |H|_F overflows and, A or B nonzero, when no entry is normal: H "underflows", or "is zero" exactly."""
    n = spec.basis.n_dim
    lev_norm, pair_norm = _ladder_norms(n)
    n_a, n_b, n_c, den = spec._triple
    w_num, w_den = float(freq).as_integer_ratio()  # a w/2 = x / over and b/(2w) = y / over
    x, y, cross, over = n_a * w_num * w_num, n_b * w_den * w_den, n_c * w_num * w_den, den * w_num * w_den
    terms = (x + y, y - x + cross, y - x - cross) if n > 2 else (x + y, 0, 0)  # N = 2 has no +-2 bands
    try:
        diag, up, low = (term / over for term in terms)
    except OverflowError:
        diag = up = low = math.inf
    params, lev, pair = spec.params, 2.0 * n - 3.0, math.sqrt((n - 2.0) * (n - 1.0))  # the ladders' ends
    if not math.hypot(diag * lev_norm, up * pair_norm, low * pair_norm) * n < math.inf:
        cause = "overflows float64 (N |H|_F = inf)"
    elif max(abs(diag) * lev, abs(up) * pair, abs(low) * pair) < _TINY and (params.a_coef or params.b_coef):
        cause = ("is zero (every entry is 0)" if not any(terms)
                 else f"underflows float64 (no entry reaches {_TINY:.3e})")
    else:
        return diag, up, low
    raise ValueError(f"H {cause} for {params}, {BasisSpec(n, freq)}")


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """H = C[A^2 y^2 + B^2 z^2] as a read-only real float64 array, written from its bands."""
    return spec.bands.entries


def diagonal_expectation(spec: HamiltonianSpec, level: int, trial_freq: float) -> float:
    """Diagonal entry (level, level) of the Hamiltonian built at basis frequency trial_freq.

    For interior levels this equals C (n+1/2) [(A^2-R^2B^2) w + (B^2-L^2A^2)/w]; the cross term
    adds nothing on the diagonal.  One O(1) pass, no BasisSpec or array built: _checked_bands' D times
    the level's ladder value, bit-identical to build_hamiltonian(...)[level, level], with the build's
    errors in the build's order (BasisSpec's freq check, then _exact_bands).
    TypeError for a level that is no integer (or a bool), IndexError outside.
    A search over trial_freq on one spec makes the (params, N) half of the check, spec._scalars, once.
    A call with an int level below N - 1 and a float trial_freq inside its frequency interval then
    passes one guard and pays one product, one division and one sum: the interval holds only floats
    with 0 < w < inf, and is empty where the spec's half would raise.  Every other call takes the
    checks in the build's order, level then basis._check_freq (an np.float32 or an int trial_freq
    enters as its float()), and _checked_bands' D.
    """
    last, lo, hi, half_a, half_b, _ = spec._scalars
    if type(level) is int and type(trial_freq) is float and 0 <= level < last and lo <= trial_freq <= hi:
        return (half_a * trial_freq + half_b / trial_freq) * (2.0 * level + 1.0)
    if type(level) is not int:
        if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
            raise TypeError(f"level must be an integer, got {level!r}")
        level = int(level)
    if not 0 <= level <= last:
        raise IndexError(f"level {level} outside basis of dimension {last + 1}")
    _check_freq(trial_freq)  # BasisSpec's check and message
    trial_freq = float(trial_freq)
    return _checked_bands(spec, trial_freq)[0] * (2.0 * level + 1.0 if level < last else float(last))


def variational_frequency(params: TransformParams) -> float | None:
    """Oscillation frequency minimizing the diagonal expectation: sqrt(b/a), with b/a = (B^2 - L^2 A^2) /
    (A^2 - R^2 B^2) exact, within 1 ulp; None when b/a is not positive (no stationary positive frequency
    exists) or sqrt(b/a) is outside float64.  From the exact form: the integer square root of b/a scaled
    by 4^shift to 128 bits or more, rounded once.  b/a itself is not rounded, as it may be outside float64
    where its root is not (B = 1e-200)."""
    n_a, n_b, _, _ = _quadratic_form(params)
    if n_a * n_b <= 0:
        return None
    n_a, n_b = abs(n_a), abs(n_b)
    shift = max(0, (n_a.bit_length() - n_b.bit_length() + 130) // 2)  # the root gets 64 bits or more
    w_v = _rounded(math.isqrt((n_b << 2 * shift) // n_a), 1 << shift)
    return w_v if 0.0 < w_v < math.inf else None


def classify_regime(params: TransformParams) -> RegimeReport:
    """Expand the quadratic family and classify reality of its spectrum on the exact signs of a and b."""
    n_a, n_b, n_c, den = _quadratic_form(params)
    return RegimeReport(
        coef_p2=_rounded(2 * n_a, den),
        coef_x2=_rounded(2 * n_b, den),
        coef_cross=_rounded(n_c, den),
        regime=Regime.REAL_SPECTRUM if n_a * den > 0 < n_b * den else Regime.BROKEN,  # a > 0 and b > 0
        ab_plus_csq=_rounded(4 * n_a * n_b + n_c * n_c, den * den),
    )


def reality_window(params: TransformParams) -> tuple[float, float] | None:
    """(w-, w+) = (b/(|AB| + |c|), (|AB| + |c|)/a) in the real regime, else None, with a, b and c
    the coefficients of classify_regime; as ab + c^2 = (AB)^2, these are ((|AB| -+ |c|)/a).

    Each is the exact rational rounded once (+inf past float64): over den, |AB| is the integer
    square root of 4 n_a n_b + n_c^2, exactly, and the sum |AB| + |c| cancels nothing.

    At a basis frequency w <= w- or w >= w+ the +2 and -2 bands of H have one sign,
    so each parity block is symmetrizable and the truncated spectrum is real at
    every N.  Strictly inside, conjugate pairs are possible, not guaranteed.
    """
    n_a, n_b, n_c, den = _quadratic_form(params)
    if not n_a * den > 0 < n_b * den:  # the real regime of classify_regime
        return None
    ab_plus_c = math.isqrt(4 * n_a * n_b + n_c * n_c) + abs(n_c)  # (|AB| + |c|) |den|
    return _rounded(2 * abs(n_b), ab_plus_c), _rounded(ab_plus_c, 2 * abs(n_a))
