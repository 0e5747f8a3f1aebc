"""General non-Hermitian quadratic oscillator: the real banded Hamiltonian, built as three checked
band scalars times fixed ladders, variational frequency, regime classification and reality window."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .basis import BasisSpec, TransformParams, _check_freq, _shear_bands
from .eig import Bands
from .basis import transformed_momentum  # noqa: F401  (benchmarks/test_bench.py looks it up here)

__all__ = [
    "HamiltonianSpec",
    "VariationalResult",
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
_NOISE = 16.0 * float(np.finfo(np.float64).eps)  # two terms this close, relative to their size, cancel to rounding


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parameter bundle for the quadratic family C [A^2 y^2 + B^2 z^2]."""

    params: TransformParams
    basis: BasisSpec

    @property
    def bands(self) -> Bands:
        """H's diagonal, +2 and -2 bands, its only nonzero ones, checked as build_hamiltonian checks them."""
        return _bands(self)

    @cached_property
    def _scalars(self) -> tuple[int | float, ...]:
        """(N, L, R, sigma, a, b, lev, pair, lev_norm, pair_norm): the half of H's check that (params, N)
        fix, made once per spec, with the N and couplings that _checked_bands reads; _checked_bands makes
        the half that the basis frequency fixes, from these locals alone.

        sigma = sign(1+LR) and a, b = |A|, |B| over sqrt|1+LR|, so C A^2 = sigma a^2, C B^2 = sigma b^2.
        lev and pair are the ends of the diagonal and +-2 ladders, lev_norm and pair_norm their 2-norms
        from the sums in _checked_bands' docstring.  Raises ValueError anew on every access (a
        cached_property keeps no error): _coefficient_squares' for A^2 and B^2, one when 1 + LR
        overflows, and one naming N when sum(lev^2) is past float64 (N above about 5e102).
        """
        params, n = self.params, self.basis.n_dim
        _coefficient_squares(params)
        l_coef, r_coef = params.l_coef, params.r_coef
        norm = 1.0 + l_coef * r_coef
        if not math.isfinite(norm):
            raise ValueError(f"H overflows float64 (1 + L R = {norm}) for {params}")
        lev_squares = (n - 1) * (2 * n - 3) * (2 * n - 1) // 3 + (n - 1) * (n - 1)  # exact: a Python int
        if lev_squares > _HUGE:  # a Python float: an exact comparison, no conversion of the int
            raise ValueError(f"N = {n} is too large: the sum of H's squared diagonal ladder overflows float64")
        lev, pair, root = 2.0 * (n - 2) + 1.0, math.sqrt((n - 2.0) * (n - 1.0)), math.sqrt(abs(norm))
        sigma, a, b = math.copysign(1.0, norm), abs(params.a_coef) / root, abs(params.b_coef) / root
        return n, l_coef, r_coef, sigma, a, b, lev, pair, math.sqrt(lev_squares), pair * math.sqrt(n / 3)


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
    """(A^2, B^2) as floats; ValueError if a nonzero A or B has a square outside the normal float64 range."""
    a, b = params.a_coef, params.b_coef
    a2, b2 = a * a, b * b
    a_ok, b_ok = a2 < math.inf and (a2 >= _TINY or not a), b2 < math.inf and (b2 >= _TINY or not b)
    if a_ok and b_ok:
        return a2, b2
    name, coef, square = ("B", b, b2) if a_ok else ("A", a, a2)
    raise ValueError(f"{name}^2 {'overflows' if square == math.inf else 'underflows'} float64 ({name} = {coef!r})")


def _checked_bands(spec: HamiltonianSpec, freq: float) -> tuple[float, float, float]:
    """The scalars (D, U, V) of H's diagonal, +2 and -2 bands at a basis frequency that passed
    basis._check_freq, checked in O(1): H's one check, for _bands and diagonal_expectation.
    The half that (params, N) fix is spec._scalars, made once per spec; this is the half that freq fixes.

    With y = iY, z = Z and (u, v) the (below, above) coefficients of the real tridiagonals Y, Z from
    basis._shear_bands, H = C(B^2 Z^2 - A^2 Y^2).  A zero-diagonal tridiagonal with T[k,k-1] = u sqrt(k)
    and T[k-1,k] = v sqrt(k) squares to u v times the ladder lev_k = 2k+1 (N-1 at k = N-1) on the
    diagonal, v^2 and u^2 times sqrt((k+1)(k+2)) on the +2 and -2 bands.  So, with Z's (u, v) scaled by
    b and Y's by a, each band is one scalar sigma (t_z - t_y), the two terms the u v, v^2 or u^2 of the
    scaled Z and Y, times a ladder that the callers apply last.  Each ladder's end is its largest entry,
    and |H|_F = hypot(D |lev|, U |pair|, V |pair|) with the 2-norms from sum(lev^2) =
    (N-1)(2N-3)(2N-1)/3 + (N-1)^2 and sum(pair^2) = (N-2)(N-1)N/3.  ValueError as spec._scalars raises
    it, when N |H|_F overflows (H's "terms overflow float64 before they cancel" where it is nan because
    a band's two terms are both infinite), and, A or B nonzero, when each band's two terms agree to
    within 16 eps of their magnitudes (H "cancels to noise": float64 keeps only their rounding) or no
    entry is normal: H "underflows" if a bound on its terms, from the scaled |u| and |v|, is subnormal,
    else it "cancels to zero".
    """
    n, l_coef, r_coef, sigma, a, b, lev, pair, lev_norm, pair_norm = spec._scalars
    u_y, v_y, u_z, v_z = _shear_bands(freq, l_coef, r_coef)
    # a zero scale leaves its operator out of H, even where its coefficients overflow (0 inf = nan)
    if a:
        u_y, v_y = a * u_y, a * v_y
    else:
        u_y = v_y = 0.0
    if b:
        u_z, v_z = b * u_z, b * v_z
    else:
        u_z = v_z = 0.0
    # (t_z, t_y) of the diagonal, +2 and -2 bands; N = 2 has no +-2 bands, whose 0 keeps an inf out of N |H|_F
    d_z, d_y = u_z * v_z, u_y * v_y
    if n > 2:
        p_z, p_y = v_z * v_z, v_y * v_y
        q_z, q_y = u_z * u_z, u_y * u_y
    else:
        p_z = p_y = q_z = q_y = 0.0
    diag, up, low = sigma * (d_z - d_y), sigma * (p_z - p_y), sigma * (q_z - q_y)
    # hypot scales, so no square overflows.  A finite N |H|_F bounds the trace and eigenvalue sums
    # of the solve: eig.eigenvalues rejects any other matrix
    bound = math.hypot(diag * lev_norm, up * pair_norm, low * pair_norm) * n
    if not math.isfinite(bound):
        where = f"for {spec.params}, {BasisSpec(n, freq)}"
        # hypot is inf where any band is, so a nan bound is a nan band: inf - inf where both its terms
        # overflow, and float64 cannot tell what they cancel to
        if math.isnan(bound) and any(abs(t_z) == abs(t_y) == math.inf
                                     for t_z, t_y in ((d_z, d_y), (p_z, p_y), (q_z, q_y))):
            raise ValueError(f"H's terms overflow float64 before they cancel "
                             f"(both terms of a band are infinite) {where}")
        raise ValueError(f"H overflows float64 (N |H|_F = {bound}) {where}")
    # |sigma (t_z - t_y)| is |t_z - t_y|, so each band's noise test reads its scalar
    if ((abs(diag) <= _NOISE * (abs(d_z) + abs(d_y)) and abs(up) <= _NOISE * (abs(p_z) + abs(p_y))
         and abs(low) <= _NOISE * (abs(q_z) + abs(q_y)))
            or (abs(diag) * lev < _TINY and abs(up) * pair < _TINY and abs(low) * pair < _TINY)):
        params = spec.params
        if params.a_coef or params.b_coef:
            m_z, m_y = max(abs(u_z), abs(v_z)), max(abs(u_y), abs(v_y))  # no u/v cancellation in these
            size = (m_z * m_z + m_y * m_y) * lev
            cause = ("cancels to noise in float64 (each band's two terms agree to within 16 eps)"
                     if max(abs(diag) * lev, abs(up) * pair, abs(low) * pair) >= _TINY else
                     f"{'underflows' if size < _TINY else 'cancels to zero in'} float64 (no entry reaches {_TINY:.3e})")
            raise ValueError(f"H {cause} for {params}, {BasisSpec(n, freq)}")
    return diag, up, low


def _bands(spec: HamiltonianSpec) -> Bands:
    """Diagonal, +2 and -2 bands of H, its only nonzero ones: _checked_bands' scalars times ladders, read-only."""
    diag, up, low = _checked_bands(spec, spec.basis.freq)
    n = spec.basis.n_dim
    levels = np.append(2.0 * np.arange(n - 1) + 1.0, n - 1)
    pairs = np.sqrt(np.arange(1.0, n - 1) * np.arange(2.0, n))
    bands = Bands(diag * levels, up * pairs, low * pairs)
    for band in bands:
        band.setflags(write=False)
    return bands


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """H = C[A^2 y^2 + B^2 z^2] as a read-only real float64 array, written from its bands."""
    return _bands(spec).entries


def diagonal_expectation(spec: HamiltonianSpec, level: int, trial_freq: float) -> float:
    """Diagonal entry (level, level) of the Hamiltonian built at basis frequency trial_freq.

    For interior levels this equals C (n+1/2) [(A^2-R^2B^2) w + (B^2-L^2A^2)/w]; the cross term
    adds nothing on the diagonal.  One O(1) pass, no BasisSpec or array built: _checked_bands' D times
    the level's ladder value, bit-identical to build_hamiltonian(...)[level, level], with the build's
    errors (BasisSpec's freq check, then _checked_bands).  TypeError for a level that is no integer (or a bool), IndexError outside.
    A search over trial_freq on one spec makes the (params, N) half of the check, spec._scalars, once;
    each call pays only the half that trial_freq fixes.
    """
    if type(level) is not int and (isinstance(level, bool) or not isinstance(level, (int, np.integer))):
        raise TypeError(f"level must be an integer, got {level!r}")
    n = spec.basis.n_dim
    if not 0 <= level < n:
        raise IndexError(f"level {level} outside basis of dimension {n}")
    _check_freq(trial_freq)
    return _checked_bands(spec, trial_freq)[0] * (2.0 * int(level) + 1.0 if level < n - 1 else float(n - 1))


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


def reality_window(params: TransformParams) -> tuple[float, float] | None:
    """(w-, w+) = ((|AB| - |c|)/a, (|AB| + |c|)/a) in the real regime, else None,
    with a and c the p^2 and cross coefficients of classify_regime.

    At a basis frequency w <= w- or w >= w+ the +2 and -2 bands of H have one sign,
    so each parity block is symmetrizable and the truncated spectrum is real at
    every N.  Strictly inside, conjugate pairs are possible, not guaranteed.
    """
    report = classify_regime(params)
    if report.regime is not Regime.REAL_SPECTRUM:
        return None
    ab, c = abs(params.a_coef * params.b_coef), abs(report.coef_cross)
    return (ab - c) / report.coef_p2, (ab + c) / report.coef_p2
