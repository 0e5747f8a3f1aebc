import contextlib
import dataclasses
import enum
import itertools
import json
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import oracles
from nhosc import model
from nhosc.cli import main
from nhosc.eig import _blocks
from nhosc import (
    BasisSpec,
    HamiltonianSpec,
    Regime,
    TransformParams,
    build_hamiltonian,
    classify_regime,
    diagonal_expectation,
    eigenvalues,
    isospectral_report,
    reality_window,
    variational_frequency,
)

EPS = np.finfo(np.float64).eps


def hermitian_equivalent(params, n_dim):
    """Symmetric matrix a p^2 + (b + c^2/a) x^2 sharing the analytic spectrum.

    Built at the variational basis frequency; serves as the independent
    oracle for the (2n+1)AB reference levels.
    """
    report = classify_regime(params)
    a, b, c = report.coef_p2, report.coef_x2, report.coef_cross
    basis = BasisSpec(n_dim=n_dim, freq=np.sqrt(b / a))
    x = oracles.position(n_dim, basis.freq).real
    m = np.sqrt(np.arange(1, n_dim))
    t_minus = np.diag(m, -1) - np.diag(m, 1)
    p_sq = -(basis.freq / 2.0) * (t_minus @ t_minus)
    return a * p_sq + (b + c * c / a) * (x @ x)


def draw_real_spectrum_params(rng, l_max=0.6, ab_range=(0.7, 1.5)):
    """Random real-spectrum parameters with a bounded shear ratio.

    Draws with c^2/(a b) > 1.5 are rejected: there the equivalent
    Hermitian oscillator is so far from the basis frequency that moderate
    truncations have not converged yet, which would test the basis size
    rather than the reference formula.
    """
    while True:
        l_coef, r_coef = rng.uniform(-l_max, l_max, size=2)
        a_coef, b_coef = rng.uniform(*ab_range, size=2)
        if abs(1.0 + l_coef * r_coef) < 0.3:
            continue
        params = TransformParams(l_coef, r_coef, a_coef, b_coef)
        report = classify_regime(params)
        if report.regime is not Regime.REAL_SPECTRUM:
            continue
        if report.coef_cross**2 > 1.5 * report.coef_p2 * report.coef_x2:
            continue
        return params


def extreme_grid():
    """(params, w) with L, R, A, B in +-{0, 1e-160, 1e-100, 1, 1e100, 1e155}, w in {1e-150, 1, 1e150}."""
    values = [0.0] + [s * m for m in (1e-160, 1e-100, 1.0, 1e100, 1e155) for s in (1.0, -1.0)]
    for l_coef, r_coef, a_coef, b_coef, w in itertools.product(*[values] * 4, (1e-150, 1.0, 1e150)):
        if 1.0 + l_coef * r_coef != 0.0:
            yield TransformParams(l_coef, r_coef, a_coef, b_coef), w


def check_overflow_threshold(n_dim, folded):
    """H scales as t^2 when A and B scale by t: put N |H|_F just below and just above the
    largest float64, from the norm of the oracle's dense H at t = 1.  A draw counts when A^2
    and B^2 stay 2x below that limit at that scale, and so do the terms A^2 y^2, B^2 z^2 that
    H's entries subtract before the factor C; if folded, the larger term instead overflows
    2x over, which |L|, |R| in [1e2, 1e4] (so |C| < 1e-4) allow."""
    rng = np.random.default_rng(40 + n_dim + 1000 * folded)
    draws = 0
    while draws < 20:
        if folded:
            l_coef, r_coef = rng.choice([-1.0, 1.0], size=2) * 10.0 ** rng.uniform(2.0, 4.0, size=2)
        else:
            l_coef, r_coef = rng.uniform(-2.0, 2.0, size=2)
        a_coef, b_coef = rng.uniform(0.2, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        w = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        if abs(1.0 + l_coef * r_coef) < 0.3:
            continue
        y, z = oracles.sheared(n_dim, w, l_coef, r_coef)
        terms = [coef**2 * (m @ m).real for coef, m in ((a_coef, y), (b_coef, z))]
        norm = float(np.linalg.norm(terms[0] + terms[1])) / abs(1.0 + l_coef * r_coef)
        term, limit = max(np.abs(part).max() for part in terms), n_dim * norm  # limit: max float64 at scale
        if limit < 2.0 * max(a_coef**2, b_coef**2) or (term < 2.0 * limit if folded else limit < 2.0 * term):
            continue
        draws += 1
        for factor in (1.0 - 1e-9, 1.0 + 1e-9):
            t = math.sqrt(factor) * math.sqrt(sys.float_info.max / (n_dim * norm))
            spec = HamiltonianSpec(
                params=TransformParams(l_coef, r_coef, t * a_coef, t * b_coef),
                basis=BasisSpec(n_dim=n_dim, freq=w),
            )
            if factor < 1.0:
                assert np.linalg.norm(build_hamiltonian(spec) / (t * t)) == pytest.approx(norm, rel=1e-12)
            else:
                with pytest.raises(ValueError, match=r"H overflows float64"):
                    build_hamiltonian(spec)


class TestBuildHamiltonian:
    def test_hermitian_limit_is_diagonal(self):
        # matched frequency makes p^2 + x^2 exactly diagonal (band cancellation)
        n = 12
        h = build_hamiltonian(
            HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=n))
        )
        expected = np.diag([2 * k + 1 for k in range(n - 1)] + [n - 1]).astype(float)
        np.testing.assert_allclose(h, expected, atol=1e-13)

    def test_table_one_matrix_is_real(self, table1_params):
        h = build_hamiltonian(
            HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=100, freq=4.0))
        )
        assert h.dtype == np.float64
        assert not h.flags.writeable

    def test_table_one_band_scalars_are_exact(self, table1_params):
        # (a, b, c) = (1, 16, 3) at w = 4: D = (a w + b/w)/2 = 4, U, V = (b/w - a w)/2 +- c = +-3, bit for bit
        for n_dim in (3, 100):
            spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n_dim, freq=4.0))
            assert model._checked_bands(spec, 4.0) == (4.0, 3.0, -3.0)
            bands = spec.bands
            root = math.sqrt(2.0)
            assert (bands.diag[0], bands.upper[0], bands.lower[0]) == (4.0, 3.0 * root, -3.0 * root)

    def test_band_scalars_keep_the_invariant(self):
        # D^2 - U V = a b + c^2 = (A B)^2 (RegimeReport's ab_plus_csq) to a few eps of the largest scalar squared
        rng = np.random.default_rng(31)
        for _ in range(400):
            l_coef, r_coef = rng.uniform(-2.0, 2.0, size=2)
            if abs(1.0 + l_coef * r_coef) < 0.3:
                continue
            a_coef, b_coef = rng.uniform(0.2, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            w = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
            spec = HamiltonianSpec(TransformParams(l_coef, r_coef, a_coef, b_coef), BasisSpec(n_dim=5))
            diag, up, low = model._checked_bands(spec, w)
            largest = max(abs(diag), abs(up), abs(low))
            assert abs(diag * diag - up * low - (a_coef * b_coef) ** 2) <= 8 * EPS * largest * largest

    def test_exactly_real_for_random_real_parameters(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            l_coef, r_coef = rng.uniform(-2.0, 2.0, size=2)
            if abs(1.0 + l_coef * r_coef) < 1e-2:
                continue
            a_coef, b_coef = rng.uniform(0.2, 3.0, size=2)
            h = build_hamiltonian(
                HamiltonianSpec(
                    params=TransformParams(l_coef, r_coef, a_coef, b_coef),
                    basis=BasisSpec(n_dim=15, freq=rng.uniform(0.3, 3.0)),
                )
            )
            assert h.dtype == np.float64

    def test_entries_whose_squares_overflow_are_accepted(self):
        # entries near 1e157 are finite though their squares are not; H and
        # its values scale as t^2 when A and B both scale by t
        big, ref = (
            build_hamiltonian(HamiltonianSpec(
                params=TransformParams(l_coef=3.0, a_coef=t, b_coef=5.0 * t), basis=BasisSpec(n_dim=40)
            ))
            for t in (1e78, 1.0)
        )
        assert np.abs(big).max() > 1e157
        np.testing.assert_allclose(big, 1e156 * ref, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(
            np.sort(eigenvalues(big).values), 1e156 * np.sort(eigenvalues(ref).values), rtol=1e-12
        )

    @pytest.mark.parametrize(
        "params, overflows",
        [
            (TransformParams(a_coef=1e200), True),  # a = 1e400
            (TransformParams(b_coef=-1e155), True),  # b = 1e310
            (TransformParams(a_coef=1e-170), False),
            (TransformParams(b_coef=1e-155), False),  # B^2 is subnormal
        ],
    )
    def test_coefficient_square_out_of_normal_range_enters_exactly(self, params, overflows):
        # A^2 and B^2 enter H's triple exactly, never as floats: an overflowing square rejects H
        # because H's entries overflow, and a square below the normal range keeps its term
        spec = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=6))
        if overflows:
            with pytest.raises(ValueError, match=r"^H overflows float64 \(N \|H\|_F = inf\) for "):
                build_hamiltonian(spec)
            return
        true, _, _ = oracles.mp_bands(params.l_coef, params.r_coef, params.a_coef, params.b_coef, 1.0, 6, dps=900)
        assert model._checked_bands(spec, 1.0) == tuple(true)

    def test_coefficient_square_in_normal_range_is_kept(self):
        # B^2 = 1e-300 is normal: at w = B/A the +-2 bands cancel to rounding
        # and H is the diagonal (2n+1)AB, with the edge entry (N-1)AB
        params = TransformParams(b_coef=1e-150)
        h = build_hamiltonian(HamiltonianSpec(params=params, basis=BasisSpec(n_dim=6, freq=1e-150)))
        np.testing.assert_allclose(np.diag(h), 1e-150 * np.array([1, 3, 5, 7, 9, 5]), rtol=1e-14)
        assert np.abs(h - np.diag(np.diag(h))).max() <= 1e-14 * 1e-150
        zero_b = TransformParams(b_coef=0.0)
        assert np.abs(build_hamiltonian(HamiltonianSpec(params=zero_b, basis=BasisSpec(n_dim=6)))).max() > 0

    @pytest.mark.parametrize("n_dim", [2, 3, 50, 400])
    def test_overflow_threshold_is_n_times_frobenius_norm(self, n_dim):
        # with C last: every term A^2 y^2, B^2 z^2 stays 2x below the largest float64
        check_overflow_threshold(n_dim, folded=False)

    @pytest.mark.parametrize("n_dim", [2, 3, 50, 400])
    def test_folded_overflow_threshold_is_n_times_frobenius_norm(self, n_dim):
        # a term A^2 y^2 or B^2 z^2 overflows 2x over, |C| < 1e-4 brings H back
        check_overflow_threshold(n_dim, folded=True)

    @pytest.mark.parametrize(
        "l_coef, r_coef, a_coef, b_coef, w, n_dim",
        [
            (-1.34, -1.82, -4.12, 8.65, 1.99, 2),  # C = 0.29; B^2 z^2 overflows
            (-1.42, -2.8, 2.49, 1.26, 1.28, 3),  # C = 0.20; A^2 y^2 overflows, +-2 bands present
            (-3.7, 3.01, -1.51, -1.73, 2.01, 3),  # C = -0.099; B^2 z^2 overflows
        ],
    )
    def test_overflow_before_normalization_is_accepted(self, l_coef, r_coef, a_coef, b_coef, w, n_dim):
        # |C| < 1 brings N |H|_F to (1 - 1e-9) of the float64 maximum, but a term
        # A^2 y^2 or B^2 z^2 overflows before C: the build, which never forms it, accepts H
        ref = oracles.hamiltonian(n_dim, w, l_coef, r_coef, a_coef, b_coef).real
        norm = float(np.linalg.norm(ref))
        t = math.sqrt(1.0 - 1e-9) * math.sqrt(sys.float_info.max / (n_dim * norm))
        y, z = oracles.sheared(n_dim, w, l_coef, r_coef)
        terms = [(t * coef) ** 2 * float(np.abs((m @ m).real).max()) for coef, m in ((a_coef, y), (b_coef, z))]
        assert math.isinf(max(terms))
        spec = HamiltonianSpec(
            params=TransformParams(l_coef, r_coef, t * a_coef, t * b_coef), basis=BasisSpec(n_dim=n_dim, freq=w)
        )
        h = build_hamiltonian(spec) / (t * t)
        assert np.linalg.norm(h) == pytest.approx(norm, rel=1e-12)
        assert np.abs(h - ref).max() <= 1e-14 * norm

    @pytest.mark.parametrize(
        "l_coef, r_coef, a_coef, b_coef, w",
        [
            (0.0, 1e155, 1.0, 0.0, 1.0),  # Z's v^2 overflows beside B = 0: H = -A^2 Y^2
            (0.0, 1e155, 1.0, 1e-150, 1.0),  # B^2 brings Z's v^2 (near 5e309) back to 5e9
            (0.0, 1e100, 0.0, 0.0, 1e150),  # Z's v^2 overflows beside A = B = 0: H = 0
            (0.0, 1e100, 1.0, 0.0, 1e150),
            # Z's (Y's) u and v themselves overflow beside B = 0 (A = 0), which leaves Z (Y) out, not 0 inf = nan;
            # measured within 0 and 9.5e-17 max|H|
            (3.0, 1e300, 1.0, 0.0, 1e300),
            (1e300, 0.5, 0.0, 5.0, 1e-300),
        ],
    )
    def test_shear_products_that_overflow_before_their_coefficient_are_accepted(self, l_coef, r_coef, a_coef, b_coef, w):
        # a product u v, v^2 or u^2 of Y's or Z's coefficients overflows, but never meets A^2 or B^2
        # unscaled: every band entry is within 16 eps max|H| of a 900-digit evaluation
        n_dim = 3
        bands = HamiltonianSpec(TransformParams(l_coef, r_coef, a_coef, b_coef), BasisSpec(n_dim, w)).bands
        places = [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]
        true = np.array(oracles.mp_entries(l_coef, r_coef, a_coef, b_coef, w, n_dim, places, dps=900))
        assert np.abs(np.concatenate(bands) - true).max() <= 16 * EPS * np.abs(true).max()

    # u_y = beta + L alpha (u_z = alpha - R beta) overflows, but A = 0 (B = 0) leaves Y (Z) out of H
    @pytest.mark.parametrize("n_dim", [2, 3, 200])
    @pytest.mark.parametrize("couplings, zeroed, w", [
        ((1e300, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), 1e-300),
        ((0.0, 1e300, 1.0, 0.0), (0.0, 0.0, 1.0, 0.0), 1e300),
    ])
    def test_overflowing_coefficient_beside_zero_scale_is_left_out(self, couplings, zeroed, w, n_dim):
        # the band scalars, and so the bands and the diagonal, are those with that coupling set to 0, bit for bit
        spec, same = (HamiltonianSpec(TransformParams(*c), BasisSpec(n_dim, w)) for c in (couplings, zeroed))
        assert model._checked_bands(spec, w) == model._checked_bands(same, w)
        for band, want in zip(spec.bands, same.bands):
            assert np.array_equal(band, want) and np.isfinite(band).all()
        for level in {0, 1, n_dim - 2, n_dim - 1}:
            assert diagonal_expectation(spec, level, w) == diagonal_expectation(same, level, w)

    def test_terms_that_overflow_in_float64_build_the_exact_h(self):
        # 1/sqrt(2w) is near 7e159: at L = 1 the shear coefficients' products overflow, while H's
        # triple (a, b, c) = (1, 0, 1) gives D = w/2 and U, V = -+1 (entries below 10.5 in magnitude)
        n_dim, w = 12, 1e-320
        spec = HamiltonianSpec(TransformParams(l_coef=1.0), BasisSpec(n_dim=n_dim))
        built = HamiltonianSpec(spec.params, BasisSpec(n_dim, w)).bands
        true, _, largest = oracles.mp_bands(1.0, 0.0, 1.0, 1.0, w, n_dim, dps=900)
        assert model._checked_bands(spec, w) == tuple(true) == (5e-321, 1.0, -1.0)
        assert float(largest) == pytest.approx(10.49, rel=1e-3)
        assert [diagonal_expectation(spec, k, w) for k in range(n_dim)] == list(built.diag)
        # at L = 0, b = 1 and b / (2w) = 5e319: a true overflow
        with pytest.raises(ValueError, match=r"^H overflows float64 \(N \|H\|_F = inf\) for "):
            diagonal_expectation(HamiltonianSpec(TransformParams(), BasisSpec(n_dim=n_dim)), 0, w)

    def test_overflowing_normalization_builds_the_exact_h(self):
        # 1 + LR overflows in float64, but C = 1/(1 + LR) enters the triple exactly: near -1, 2e-200
        for l_coef in (1e200, -1e200):
            spec = HamiltonianSpec(TransformParams(l_coef, 1e200), BasisSpec(n_dim=10))
            true, _, _ = oracles.mp_bands(l_coef, 1e200, 1.0, 1.0, 4.0, 10, dps=900)
            got = model._checked_bands(spec, 4.0)
            assert max(abs(g - t) for g, t in zip(got, true)) <= 4 * EPS * max(map(abs, true))
            assert diagonal_expectation(spec, 0, 4.0) == got[0]

    @pytest.mark.parametrize(
        "l_coef, r_coef, a_coef, b_coef, w, n_dim",
        [
            (1.0, 1.0, 1.0, 1.0, 4.0, 2),  # H = -2 A^2 C (Px + xP): no diagonal, no +-2 bands at N = 2
            (-1e154, -1.0, 0.0, 1e154, 1.0, 2),  # a = b = 0: H = i c (xp + px), no diagonal at N = 2
        ],
    )
    def test_exactly_zero_h_is_rejected(self, l_coef, r_coef, a_coef, b_coef, w, n_dim):
        # with A or B nonzero, an H whose exact entries are all 0 is rejected by name; the true H,
        # from the float inputs in 500 digits, is 0
        spec = HamiltonianSpec(TransformParams(l_coef, r_coef, a_coef, b_coef), BasisSpec(n_dim=n_dim, freq=w))
        with pytest.raises(ValueError, match=r"^H is zero \(every entry is 0\) for TransformParams\("):
            build_hamiltonian(spec)
        with mpmath.workdps(500):
            l_coef, r_coef, a_coef, b_coef, w = map(mpmath.mpf, (l_coef, r_coef, a_coef, b_coef, w))
            raise_op = mpmath.matrix(n_dim, n_dim)
            for k in range(1, n_dim):
                raise_op[k, k - 1] = mpmath.sqrt(k)
            x = (raise_op + raise_op.T) / mpmath.sqrt(2 * w)  # p = iP, P = sqrt(w/2) (a^dagger - a)
            big_p = (raise_op - raise_op.T) * mpmath.sqrt(w / 2)
            y, z = big_p + l_coef * x, x - r_coef * big_p  # y = iY, z = Z
            h = (b_coef**2 * z * z - a_coef**2 * y * y) / (1 + l_coef * r_coef)
            assert max(abs(v) for v in h) == 0

    @pytest.mark.parametrize(
        "l_coef, r_coef, a_coef, b_coef, w, n_dim, true_max",
        [
            (-1e100, -1.0, -1e100, -1e100, 1e150, 2, 5.0e149),  # L^2 alpha^2 = 5e49 is lost beside beta^2 = 5e149
            (-1e100, -1.0, -1e100, -1e100, 1e150, 3, math.sqrt(2.0) * 1e200),
            # B^2 = L^2 A^2: b = 0 exactly, and the true +-2 bands are 1.4e100
            (-1e100, 0.0, 1.0, 1e100, 4.0, 3, math.sqrt(2.0) * 1e100),
            # B R = 1 but for the rounding of the inputs: a is near 1e-16, and the true entries near 1e134
            (0.0, 1e-100, 1.0, 1e100, 1e150, 3, None),
            (0.0, 1e-100, 1.0, 1e100, 1e150, 40, None),
        ],
    )
    def test_cancelling_terms_build_the_exact_h(self, l_coef, r_coef, a_coef, b_coef, w, n_dim, true_max):
        # inputs whose shear products cancel in float64 (rejected, or accepted as noise, while H was
        # formed from them): the exact triple gives every band scalar within 4 eps of the largest,
        # against 900 digits, and diagonal_expectation the built diagonal
        params = TransformParams(l_coef, r_coef, a_coef, b_coef)
        bands = HamiltonianSpec(params, BasisSpec(n_dim=n_dim, freq=w)).bands
        true, _, largest = oracles.mp_bands(l_coef, r_coef, a_coef, b_coef, w, n_dim, dps=900)
        got = model._checked_bands(HamiltonianSpec(params, BasisSpec(n_dim=n_dim)), w)
        assert max(abs(g - t) for g, t in zip(got, true)) <= 4 * EPS * max(map(abs, true))
        if true_max is not None:
            assert float(largest) == pytest.approx(true_max, rel=1e-12, abs=0.0)
        spec = HamiltonianSpec(params, BasisSpec(n_dim=n_dim))
        assert [diagonal_expectation(spec, k, w) for k in range(n_dim)] == list(bands.diag)

    def test_terms_that_overflow_before_c_at_large_n_are_accepted(self):
        # C = 1e-308 and A^2 Y^2's scalar near 1e507: the scalars take C in Y's and Z's scaled
        # coefficients, and the ladder after them, so the band ends are those of a 900-digit evaluation
        n_dim, args = 200, (-1e154, -1e154, -1e100, -3.0, 1.0)
        bands = HamiltonianSpec(TransformParams(*args[:4]), BasisSpec(n_dim=n_dim, freq=args[4])).bands
        ends = [(n_dim - 2, n_dim - 2), (n_dim - 1, n_dim - 1), (n_dim - 3, n_dim - 1), (n_dim - 1, n_dim - 3)]
        true = oracles.mp_entries(*args, n_dim, ends, dps=900)
        got = [bands.diag[-2], bands.diag[-1], bands.upper[-1], bands.lower[-1]]
        assert max(abs(g - t) for g, t in zip(got, true)) <= 1e-14 * max(map(abs, true))

    def test_band_entries_are_within_rounding_of_mpmath(self):
        # every band entry, scalar times ladder, within 16 eps max|H| of H from 50-digit mpmath
        rng = np.random.default_rng(27)
        draws = 0
        while draws < 40:
            l_coef, r_coef = rng.uniform(-2.0, 2.0, size=2)
            if abs(1.0 + l_coef * r_coef) < 0.3:
                continue
            draws += 1
            a_coef, b_coef = rng.uniform(0.2, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            n_dim, w = int(rng.integers(2, 41)), float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
            bands = HamiltonianSpec(TransformParams(l_coef, r_coef, a_coef, b_coef), BasisSpec(n_dim, w)).bands
            places = [(k, k) for k in range(n_dim)] + [(k, k + 2) for k in range(n_dim - 2)]
            places += [(k + 2, k) for k in range(n_dim - 2)]
            true = np.array(oracles.mp_entries(l_coef, r_coef, a_coef, b_coef, w, n_dim, places, dps=50))
            got = np.concatenate(bands)
            assert np.abs(got - true).max() <= 16 * EPS * np.abs(true).max(), (l_coef, r_coef, a_coef, b_coef, w, n_dim)

    @pytest.mark.parametrize("n_dim", [2, 3, 40])
    @pytest.mark.parametrize("freq", [2.0, 4.0, 9.0])
    def test_band_record_entries_are_the_dense_h(self, table1_params, n_dim, freq):
        # Bands.entries, the one dense writer: each band in its place, zeros elsewhere, read-only
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n_dim, freq=freq))
        bands = spec.bands
        assert [band.shape for band in bands] == [(n_dim,), (n_dim - 2,), (n_dim - 2,)]
        h = np.zeros((n_dim, n_dim))
        for k in range(n_dim):
            h[k, k] = bands.diag[k]
        for k in range(n_dim - 2):
            h[k, k + 2], h[k + 2, k] = bands.upper[k], bands.lower[k]
        assert bands.entries.tobytes() == h.tobytes() == build_hamiltonian(spec).tobytes()
        assert not bands.entries.flags.writeable and not any(band.flags.writeable for band in bands)

    def test_normalization_enters_the_exact_form(self):
        # C = 1/(1 + LR) = 1/13: (a/2, b/2, c) = (-15/26, -8/26, 7/13) exactly
        n_a, n_b, n_c, den = model._quadratic_form(TransformParams(l_coef=3.0, r_coef=4.0))
        assert [Fraction(n, den) for n in (n_a, n_b, n_c)] == [Fraction(-15, 26), Fraction(-8, 26), Fraction(7, 13)]
        assert HamiltonianSpec(TransformParams(3.0, 4.0), BasisSpec(4))._triple == (n_a, n_b, n_c, den)

    def test_matches_dense_complex_product(self):
        # reference: C (A^2 y@y + B^2 z@z) from the oracle's complex shear matrices.
        # |1+LR| >= 0.3 keeps away from the singular normalisation, where the
        # two squares cancel and both builds lose ~1/|1+LR| of their accuracy.
        rng = np.random.default_rng(2)
        draws = 0
        while draws < 25:
            l_coef, r_coef = rng.uniform(-2.0, 2.0, size=2)
            if abs(1.0 + l_coef * r_coef) < 0.3:
                continue
            draws += 1
            a_coef, b_coef = rng.uniform(0.2, 3.0, size=2)
            params = TransformParams(l_coef, r_coef, a_coef, b_coef)
            basis = BasisSpec(
                n_dim=int(rng.integers(2, 401)),
                freq=float(np.exp(rng.uniform(np.log(0.25), np.log(4.0)))),
            )
            ref = oracles.hamiltonian(basis.n_dim, basis.freq, l_coef, r_coef, a_coef, b_coef)
            assert np.all(ref.imag == 0.0)
            h = build_hamiltonian(HamiltonianSpec(params=params, basis=basis))
            assert np.abs(h - ref.real).max() <= 4 * EPS * np.linalg.norm(h)


class TestDiagonalExpectation:
    @given(
        n_dim=st.integers(2, 400),
        shears=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
        weights=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-3, 20.0), st.floats(-20.0, -1e-3))] * 2),
        w=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_equals_built_diagonal(self, n_dim, shears, weights, w):
        # bit for bit at every level, the truncation edge N-1 included
        assume(1.0 + shears[0] * shears[1] != 0.0)
        params = TransformParams(*shears, *weights)
        spec = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=n_dim))
        h = build_hamiltonian(HamiltonianSpec(params=params, basis=BasisSpec(n_dim=n_dim, freq=w)))
        levels = [diagonal_expectation(spec, n, w) for n in range(n_dim)]
        np.testing.assert_array_equal(levels, np.diagonal(h))

    @pytest.mark.parametrize("n_dim", [2, 3, 7])
    def test_errors_are_the_builds(self, n_dim):
        # over an extreme grid, a ValueError exactly when the build raises one,
        # with its message; N = 2 has no +-2 bands, N = 3 one entry in each.
        # At every N the grid reaches every kind the build has
        levels = sorted({0, n_dim - 2, n_dim - 1})
        seen = set()
        fresh = {}
        for params, w in extreme_grid():
            spec = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=n_dim))
            try:
                h = build_hamiltonian(HamiltonianSpec(params=params, basis=BasisSpec(n_dim=n_dim, freq=w)))
            except ValueError as exc:
                seen.add(str(exc).split(" (")[0])
                for level in (0, n_dim - 1):
                    with pytest.raises(ValueError) as raised:
                        diagonal_expectation(spec, level, w)
                    assert str(raised.value) == str(exc)
                fresh[params, w] = str(exc)
                continue
            seen.add("built")
            fresh[params, w] = [diagonal_expectation(spec, level, w).hex() for level in levels]
            assert fresh[params, w] == [v.hex() for v in h.diagonal()[levels]]
        # an H with A or B nonzero is exactly zero only at N = 2, whose H = D I has no +-2 bands
        zero = {"H is zero"} if n_dim == 2 else set()
        assert seen == {"built", "H overflows float64", "H underflows float64"} | zero
        # second pass: one spec per params, its (params, N) half made once and kept over every w of
        # the grid, gives the fresh specs' bits and messages
        specs = {}
        for params, w in extreme_grid():
            if params not in specs:
                specs[params] = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=n_dim))
            spec = specs[params]
            try:
                reused = [diagonal_expectation(spec, level, w).hex() for level in levels]
            except ValueError as exc:
                reused = str(exc)
            assert reused == fresh[params, w], (params, w)

    def test_errors_are_not_kept(self):
        # N past 5e102: the spec's (params, N) half keeps an empty frequency interval, so every call
        # reaches _exact_bands, which raises anew with one message, and only after the level and trial
        # frequency checks, as the build raises it from spec.bands
        n_dim = 10**103
        spec = HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=n_dim))
        with pytest.raises(ValueError) as first:
            diagonal_expectation(spec, 0, 1.0)
        with pytest.raises(ValueError) as second:
            diagonal_expectation(spec, 6, 4.0)
        assert first.value is not second.value
        assert str(first.value) == str(second.value) == (
            f"N = {n_dim} is too large: the sum of H's squared diagonal ladder overflows float64")
        with pytest.raises(TypeError, match="level must be an integer"):
            diagonal_expectation(spec, 2.5, 1.0)
        with pytest.raises(IndexError):
            diagonal_expectation(spec, n_dim, 1.0)
        with pytest.raises(ValueError) as basis_error:
            BasisSpec(n_dim=n_dim, freq=0.0)
        with pytest.raises(ValueError) as bad_w:
            diagonal_expectation(spec, 0, 0.0)
        assert str(bad_w.value) == str(basis_error.value)
        with pytest.raises(ValueError) as from_bands:
            spec.bands
        assert str(from_bands.value) == str(first.value)

    def test_spec_identity_is_its_fields(self, table1_params):
        # the kept (params, N) half is no field: equality, hash and repr stay the spec's own, and
        # dataclasses.replace makes a spec that checks its own N's ladder ends.  At A = 1e151,
        # B = 5e151 N |H|_F overflows at N = 400, not at N = 2, 3 or 40
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=7))
        before = hash(spec), repr(spec)
        diagonal_expectation(spec, 0, 4.0)
        twin = HamiltonianSpec(spec.params, spec.basis)
        assert spec == twin and (hash(spec), repr(spec)) == (hash(twin), repr(twin)) == before
        params = TransformParams(l_coef=3.0, a_coef=1e151, b_coef=5e151)
        for n_dim, other in ((2, 400), (3, 400), (40, 400), (400, 3), (400, 40), (3, 40)):
            spec = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=n_dim, freq=4.0))
            with contextlib.suppress(ValueError):
                diagonal_expectation(spec, 0, 4.0)
            moved = dataclasses.replace(spec, basis=BasisSpec(n_dim=other, freq=4.0))
            fresh = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=other, freq=4.0))
            if other == 400:
                with pytest.raises(ValueError, match=r"^H overflows float64") as expected:
                    build_hamiltonian(fresh)
                with pytest.raises(ValueError) as raised:
                    build_hamiltonian(moved)
                assert str(raised.value) == str(expected.value)
            else:
                assert build_hamiltonian(moved).tobytes() == build_hamiltonian(fresh).tobytes()

    def test_search_checks_params_once(self, table1_params, monkeypatch):
        # a 42-call golden-section search on one spec makes the (params, N) half once: a/2, b/2, c.
        # Each call passes the one in-interval guard and reaches neither _checked_bands nor
        # _exact_bands; the last level and a w outside the interval do reach them
        rounded, calls = model._normal, []
        monkeypatch.setattr(model, "_normal", lambda num, den: calls.append(num) or rounded(num, den))
        reached, exact_bands = [], model._exact_bands
        for name in ("_checked_bands", "_exact_bands"):
            inner = getattr(model, name)
            monkeypatch.setattr(model, name, lambda spec, w, name=name, inner=inner: reached.append(name)
                                or inner(spec, w))
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=100))
        values = []

        def f(w):
            values.append(diagonal_expectation(spec, 3, w))
            return values[-1]

        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = 1.0, 16.0
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(40):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = f(d)
        assert len(values) == 42 and len(calls) == 3 and reached == []
        assert (a + b) / 2.0 == pytest.approx(variational_frequency(table1_params), abs=1e-5)
        assert diagonal_expectation(spec, 99, 4.0) == 4.0 * 99 and reached == ["_checked_bands"]
        outside = math.nextafter(spec._scalars[1], 0.0)
        assert diagonal_expectation(spec, 3, outside) == exact_bands(spec, outside)[0] * 7.0
        assert reached == ["_checked_bands", "_checked_bands", "_exact_bands"] and len(calls) == 3

    @pytest.mark.parametrize("w", [0.0, -0.0, -2.0, math.nan, math.inf, -math.inf, "4", None])
    @pytest.mark.parametrize("params, n_dim", [(None, 7), (TransformParams(a_coef=0.0), 7), (None, 2)],
                             ids=["table1", "a_zero_empty_interval", "table1_n2_empty_interval"])
    def test_trial_freq_errors_are_the_basis_specs(self, table1_params, params, n_dim, w):
        # the exception type and message of the basis the build would take, on a spec with a frequency
        # interval and on two whose interval is empty, where no w passes the in-interval guard
        spec = HamiltonianSpec(params=params or table1_params, basis=BasisSpec(n_dim=n_dim))
        assert (spec._scalars[1] == math.inf) is (params is not None or n_dim == 2)
        with pytest.raises((ValueError, TypeError)) as expected:
            BasisSpec(n_dim=n_dim, freq=w)
        with pytest.raises(Exception) as raised:
            diagonal_expectation(spec, 0, w)
        assert type(raised.value) is expected.type
        assert str(raised.value) == str(expected.value)

    def test_numpy_trial_freq(self, table1_params):
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=7))
        for level in (0, 5, 6):
            assert diagonal_expectation(spec, level, np.float64(4.1)).hex() == diagonal_expectation(spec, level, 4.1).hex()

    def test_float32_couplings_are_python_floats(self):
        # NumPy 2 keeps np.float32 * float in float32: TransformParams stores Python floats, so an
        # np.float32 L or R gives the bits of its float value, and Python floats keep their own bits
        as_f32 = TransformParams(l_coef=np.float32(3.0), r_coef=np.float32(0.1), a_coef=1.0, b_coef=5.0)
        as_float = TransformParams(l_coef=float(np.float32(3.0)), r_coef=float(np.float32(0.1)), a_coef=1.0, b_coef=5.0)
        assert all(type(v) is float for v in (as_f32.l_coef, as_f32.r_coef, as_f32.a_coef, as_f32.b_coef))
        basis = BasisSpec(n_dim=10)
        f32, f64 = HamiltonianSpec(params=as_f32, basis=basis), HamiltonianSpec(params=as_float, basis=basis)
        assert diagonal_expectation(f32, 3, 4.1).hex() == diagonal_expectation(f64, 3, 4.1).hex()
        assert diagonal_expectation(f32, 3, 4.1) == 18.785412611132834  # 18.785413974517244 in float32 bands
        assert build_hamiltonian(f32).tobytes() == build_hamiltonian(f64).tobytes()
        python = TransformParams(l_coef=3.0, r_coef=0.1, a_coef=1.0, b_coef=5.0)
        assert (python.l_coef, python.r_coef) == (3.0, 0.1) and python.r_coef.hex() == (0.1).hex()

    def test_float32_trial_frequency_is_a_python_float(self):
        # NumPy 2 keeps float * np.float32 in float32: the trial frequency enters as its float value
        spec = HamiltonianSpec(TransformParams(3.0, 0.1, 1.0, 5.0), BasisSpec(10))
        got = diagonal_expectation(spec, 3, np.float32(4.1))
        assert type(got) is float and got.hex() == diagonal_expectation(spec, 3, float(np.float32(4.1))).hex()
        assert got == 18.785412809791296  # 18.785414 in float32

    def test_valid_call_builds_no_basis(self, table1_params, monkeypatch):
        # O(1) with no object on the way: the trial frequency is checked in place
        h = build_hamiltonian(HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=7, freq=4.1)))
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=7))

        def no_basis(self):
            raise AssertionError("a BasisSpec was built")

        monkeypatch.setattr(BasisSpec, "__post_init__", no_basis)
        assert [diagonal_expectation(spec, level, 4.1) for level in range(7)] == list(h.diagonal())

    def test_large_basis_needs_no_dense_matrix(self, table1_params, monkeypatch):
        # O(1) in N: no band of H is built, let alone a dense H
        def no_bands(spec):
            raise AssertionError("the bands of H were built")

        monkeypatch.setattr(HamiltonianSpec, "bands", property(no_bands))
        n_dim = 10**15
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n_dim))
        np.testing.assert_allclose(diagonal_expectation(spec, 7, 4.0), 4.0 * 15, rtol=1e-13)
        # truncation edge: (N-1) in place of 2n+1
        edge = diagonal_expectation(spec, n_dim - 1, 4.0)
        np.testing.assert_allclose(edge, 4.0 * (n_dim - 1), rtol=1e-13)

    @pytest.mark.parametrize("n_dim", [10**103, 10**160, 10**400])
    @pytest.mark.parametrize("a_coef, b_coef", [(1.0, 5.0), (0.0, 0.0)])
    def test_basis_past_float64_ladders_is_rejected(self, n_dim, a_coef, b_coef):
        # sum(lev^2), about 4 N^3 / 3, passes float64 near N = 5e102: a ValueError that names N,
        # from both the O(1) entry and the band build, never an OverflowError or a nan
        params = TransformParams(l_coef=3.0, a_coef=a_coef, b_coef=b_coef)
        spec = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=n_dim))
        for call in (lambda: diagonal_expectation(spec, 0, 4.0), lambda: spec.bands):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value).startswith(f"N = {n_dim} is too large") and "nan" not in str(raised.value)
        below = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=5 * 10**102))
        assert diagonal_expectation(below, 7, 4.0) == pytest.approx(4.0 * 15 if b_coef else 0.0, rel=1e-13)

    def test_ground_state_untransformed(self):
        spec = HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=10))
        np.testing.assert_allclose(diagonal_expectation(spec, 0, 1.0), 1.0, atol=1e-14)

    def test_table_one_ground_state(self, table1_params):
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=100, freq=4.0))
        np.testing.assert_allclose(diagonal_expectation(spec, 0, 4.0), 4.0, rtol=1e-13)

    def test_closed_form_interior_levels(self):
        rng = np.random.default_rng(9)
        spec = HamiltonianSpec(
            params=TransformParams(l_coef=1.2, r_coef=-0.4, a_coef=1.5, b_coef=2.0),
            basis=BasisSpec(n_dim=40),
        )
        report = classify_regime(spec.params)
        for _ in range(10):
            n = int(rng.integers(0, 30))
            w = float(rng.uniform(0.3, 4.0))
            expected = (n + 0.5) * (report.coef_p2 * w + report.coef_x2 / w)
            np.testing.assert_allclose(diagonal_expectation(spec, n, w), expected, rtol=1e-12)

    def test_index_out_of_range(self):
        spec = HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=5))
        for level in (5, -1, np.int64(5)):
            with pytest.raises(IndexError):
                diagonal_expectation(spec, level, 1.0)

    @pytest.mark.parametrize("level", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3", None])
    def test_non_integer_level_is_rejected(self, level):
        spec = HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=5))
        with pytest.raises(TypeError, match="level must be an integer"):
            diagonal_expectation(spec, level, 1.0)

    def test_numpy_integer_level(self):
        # a numpy level is not an int: it gives the plain-int value as a Python float, not an np.float64
        spec = HamiltonianSpec(params=TransformParams(l_coef=0.5), basis=BasisSpec(n_dim=5))
        for level in (0, 2, 4):
            value = diagonal_expectation(spec, np.int64(level), 2.0)
            assert type(value) is float and value == diagonal_expectation(spec, level, 2.0)

    def test_int_subclass_level(self):
        # an int subclass other than bool passes the level check, as int does, with the plain-int value
        class Level(enum.IntEnum):
            GROUND = 0
            MIDDLE = 2
            EDGE = 4

        spec = HamiltonianSpec(params=TransformParams(l_coef=0.5), basis=BasisSpec(n_dim=5))
        for level in Level:
            value = diagonal_expectation(spec, level, 2.0)
            assert type(value) is float and value == diagonal_expectation(spec, int(level), 2.0)

    def test_minimizer_matches_variational_frequency(self, table1_params):
        # golden-section minimization oracle, independent of the closed form
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=100, freq=4.0))
        minimizers = []
        for n in (0, 3, 10):
            res = minimize_scalar(
                lambda w: diagonal_expectation(spec, n, w),
                bracket=(1.0, 3.0, 16.0),
                method="golden",
                options={"xtol": 1e-10},
            )
            minimizers.append(res.x)
        w_v = variational_frequency(table1_params)
        np.testing.assert_allclose(minimizers, w_v, atol=1e-6)
        assert max(minimizers) - min(minimizers) <= 1e-6


class TestVariationalFrequency:
    def test_table_one(self):
        assert variational_frequency(TransformParams(l_coef=3.0, r_coef=0.0, a_coef=1.0, b_coef=5.0)) == 4.0

    def test_table_two(self):
        assert variational_frequency(TransformParams(l_coef=0.0, r_coef=3.0, a_coef=5.0, b_coef=1.0)) == 0.25

    def test_untransformed(self):
        assert variational_frequency(TransformParams()) == 1.0

    def test_undefined_cases(self):
        # negative ratio
        assert variational_frequency(TransformParams(l_coef=2.0)) is None
        # zero denominator
        assert variational_frequency(TransformParams(r_coef=1.0)) is None
        # sqrt(b/a) past float64 either way: 2e631 and 5e-632
        assert variational_frequency(TransformParams(a_coef=5e-324, b_coef=1e308)) is None
        assert variational_frequency(TransformParams(a_coef=1e308, b_coef=5e-324)) is None

    @pytest.mark.parametrize("kw, w_v", [({"a_coef": 1e200}, 1e-200), ({"b_coef": 1e-200}, 1e-200)])
    def test_root_of_a_ratio_outside_float64(self, kw, w_v):
        # b/a = 1e-400 is no float64, its root is: the ratio is never rounded
        assert variational_frequency(TransformParams(**kw)) == w_v

    def test_within_one_ulp_of_the_exact_root(self):
        # sqrt((B^2 - L^2 A^2) / (A^2 - R^2 B^2)) of the exact inputs, against 60-digit mpmath
        rng = np.random.default_rng(22)
        for _ in range(200):
            l_coef, r_coef, a_coef, b_coef = rng.uniform(-4.0, 4.0, size=4)
            if abs(1.0 + l_coef * r_coef) < 1e-3:
                continue
            (l, r), (a2, b2) = map(Fraction, (l_coef, r_coef)), (Fraction(a_coef) ** 2, Fraction(b_coef) ** 2)
            ratio = (b2 - l * l * a2) / (a2 - r * r * b2)
            w_v = variational_frequency(TransformParams(l_coef, r_coef, a_coef, b_coef))
            if ratio <= 0:
                assert w_v is None
                continue
            with mpmath.workdps(60):
                exact = mpmath.sqrt(mpmath.mpf(ratio.numerator) / ratio.denominator)
                assert abs(w_v - exact) <= math.ulp(w_v), (l_coef, r_coef, a_coef, b_coef)

    def test_matches_regime_expansion(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            params = draw_real_spectrum_params(rng)
            report = classify_regime(params)
            w_v = variational_frequency(params)
            np.testing.assert_allclose(w_v, np.sqrt(report.coef_x2 / report.coef_p2), rtol=1e-12)


class TestClassifyRegime:
    def test_table_one_expansion(self, table1_params):
        report = classify_regime(table1_params)
        np.testing.assert_allclose(
            [report.coef_p2, report.coef_x2, report.coef_cross], [1.0, 16.0, 3.0]
        )
        assert report.regime is Regime.REAL_SPECTRUM
        np.testing.assert_allclose(report.ab_plus_csq, 25.0)

    def test_broken_threshold(self):
        report = classify_regime(TransformParams(l_coef=2.0))
        np.testing.assert_allclose(report.coef_x2, -3.0)
        assert report.regime is Regime.BROKEN

    def test_untransformed(self):
        report = classify_regime(TransformParams())
        assert (report.coef_p2, report.coef_x2, report.coef_cross) == (1.0, 1.0, 0.0)
        assert report.regime is Regime.REAL_SPECTRUM

    def test_coefficients_are_the_exact_values_rounded_once(self):
        # C (A^2 - R^2 B^2), C (B^2 - L^2 A^2), C (L A^2 + R B^2) and (AB)^2 of the exact inputs
        rng = np.random.default_rng(34)
        for _ in range(200):
            l_coef, r_coef, a_coef, b_coef = rng.uniform(-4.0, 4.0, size=4)
            if abs(1.0 + l_coef * r_coef) < 1e-3:
                continue
            params = TransformParams(l_coef, r_coef, a_coef, b_coef)
            l, r, a, b = map(Fraction, (l_coef, r_coef, a_coef, b_coef))
            c = 1 / (1 + l * r)
            p2, x2 = c * (a * a - r * r * b * b), c * (b * b - l * l * a * a)
            report = classify_regime(params)
            assert report.coef_p2 == float(p2) and report.coef_x2 == float(x2)
            assert report.coef_cross == float(c * (l * a * a + r * b * b))
            assert report.ab_plus_csq == float((a * b) ** 2)
            assert (report.regime is Regime.REAL_SPECTRUM) == (p2 > 0 and x2 > 0)

    def test_product_identity_random(self):
        # a b + c^2 == (A B)^2, the basis-independence of the reference levels
        rng = np.random.default_rng(33)
        count = 0
        while count < 1000:
            l_coef, r_coef = rng.uniform(-1.5, 1.5, size=2)
            if abs(1.0 + l_coef * r_coef) < 0.3:
                continue
            a_coef, b_coef = rng.uniform(0.5, 2.0, size=2)
            report = classify_regime(TransformParams(l_coef, r_coef, a_coef, b_coef))
            assert abs(report.ab_plus_csq - (a_coef * b_coef) ** 2) <= 1e-12
            count += 1


class TestAnalyticLevel:
    """The reference levels (2n+1)AB; the broken regime, which has none, is
    rejected by isospectral_report (test_broken_regime_rejected)."""

    def test_table_values(self, table1_report):
        # the eps_n column of the Table-1 report
        assert table1_report.rows[0]["epsilon"] == 5.0
        assert table1_report.rows[44]["epsilon"] == 445.0
        assert isospectral_report(TransformParams(), BasisSpec(n_dim=4)).rows[2]["epsilon"] == 5.0

    def test_validated_against_hermitian_equivalent(self):
        # reference formula vs diagonalizing the similarity-equivalent matrix
        rng = np.random.default_rng(17)
        for _ in range(10):
            params = draw_real_spectrum_params(rng)
            h_eq = hermitian_equivalent(params, n_dim=40)
            ev = np.sort(np.linalg.eigvalsh(h_eq))
            for n in range(11):
                np.testing.assert_allclose(ev[n], (2 * n + 1) * params.a_coef * params.b_coef, atol=1e-8)


class TestHermitianLimitSpectrum:
    def test_lowest_half_matches_reference(self):
        # L=R=0 at w = w_v = B/A: computed levels agree with (2n+1)AB
        params = TransformParams(a_coef=1.5, b_coef=0.75)
        n_dim = 30
        basis = BasisSpec(n_dim=n_dim, freq=variational_frequency(params))
        h = build_hamiltonian(HamiltonianSpec(params=params, basis=basis))
        np.testing.assert_array_equal(h, h.T)
        ev = np.sort(eigenvalues(h).values.real)
        levels = np.arange(n_dim // 2)
        np.testing.assert_allclose(
            ev[: n_dim // 2], (2 * levels + 1) * params.a_coef * params.b_coef, atol=1e-8
        )


class TestRealityWindow:
    """Between w- = (|AB| - |c|)/a and w+ = (|AB| + |c|)/a, with a and c the p^2 and
    cross coefficients of classify_regime, H's +2 and -2 bands have opposite signs."""

    @pytest.mark.parametrize("n_dim", [2, 3, 40, 401, 2000])
    @pytest.mark.parametrize("w", [2.0, 8.0])
    def test_exact_spectrum_at_window_edges(self, table1_params, n_dim, w):
        # Table 1's window is (2, 8): at w = 2 the -2 band vanishes, at w = 8 the
        # +2 band, so H is triangular and its spectrum is its diagonal, exactly
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n_dim, freq=w))
        _, upper, lower = spec.bands
        np.testing.assert_array_equal(lower if w == 2.0 else upper, 0.0)
        values = eigenvalues(build_hamiltonian(spec)).values
        np.testing.assert_array_equal(values.imag, 0.0)
        levels = np.append(5.0 * (2 * np.arange(n_dim - 1) + 1), 5.0 * (n_dim - 1))
        np.testing.assert_array_equal(values.real, np.sort(levels))

    def test_table_one_window(self, table1_params):
        assert reality_window(table1_params) == (2.0, 8.0)
        assert reality_window(TransformParams()) == (1.0, 1.0)  # H is Hermitian only at w = 1
        assert reality_window(TransformParams(l_coef=2.0)) is None  # broken regime

    @given(
        shears=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        weights=st.tuples(*[st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))] * 2),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_window_is_the_exact_window_rounded_once(self, shears, weights):
        # ((|AB| - |c|)/a, (|AB| + |c|)/a) of the exact inputs, each rounded once
        assume(1.0 + shears[0] * shears[1] != 0.0)
        params = TransformParams(*shears, *weights)
        l, r, a, b = map(Fraction, (*shears, *weights))
        c = 1 / (1 + l * r)
        real = c * (a * a - r * r * b * b) > 0 and c * (b * b - l * l * a * a) > 0
        expected = tuple(map(float, oracles.exact_reality_window(*shears, *weights))) if real else None
        assert reality_window(params) == expected

    @given(
        shears=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        weights=st.tuples(*[st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))] * 2),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(shears=(1.75, 0.0), weights=(-0.99999, 1.75))  # B^2 - L^2 A^2 cancels to 6e-5
    def test_band_signs_follow_closed_form_window(self, shears, weights):
        assume(1.0 + shears[0] * shears[1] != 0.0)
        params = TransformParams(*shears, *weights)
        assume(classify_regime(params).regime is Regime.REAL_SPECTRUM)
        w_lo, w_hi = reality_window(params)
        # sqrt(w- w+) = sqrt(b/a) = w_v exactly; each of w-, w+ and w_v is its exact value rounded
        # once (w_v within 1 ulp), so the two sides differ by the product's and root's roundings alone
        assert math.isclose(math.sqrt(w_lo * w_hi), variational_frequency(params), rel_tol=4.0 * EPS)
        for w in np.geomspace(w_lo / 50.0, 50.0 * w_hi, 100):
            if min(abs(w - w_lo) / w_lo, abs(w - w_hi) / w_hi) <= 1e-9:
                continue
            _, upper, lower = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=4, freq=w)).bands
            assert np.sign(upper[0] * lower[0]) == (-1.0 if w_lo < w < w_hi else 1.0)


def exact_scalars(params, w):
    """H's band scalars (D, U, V) at basis frequency w, exactly: D = (a/2) w + (b/2)/w and
    U, V = (b/2)/w - (a/2) w +- c, with a/2, b/2 and c from model._quadratic_form."""
    n_a, n_b, n_c, den = model._quadratic_form(params)
    x, y = Fraction(n_a, den) * Fraction(w), Fraction(n_b, den) / Fraction(w)
    return x + y, y - x + Fraction(n_c, den), y - x - Fraction(n_c, den)


def exact_ab(params):
    """|AB| = |A| |B| of the float inputs, exactly."""
    return abs(Fraction(params.a_coef)) * abs(Fraction(params.b_coef))


def meixner_c(params, w):
    """The Meixner parameter c_M = (D - |AB|)/(D + |AB|) of H at basis frequency w, exactly."""
    diag, ab = exact_scalars(params, w)[0], exact_ab(params)
    return (diag - ab) / (diag + ab)


def meixner_jacobi(ab, c_m, p, j):
    """Row j of block p of |AB| (4X + 2p + 1), X the monic Jacobi matrix of the Meixner polynomials
    M_j(x; beta, c_M) with beta = p + 1/2: (its diagonal entry, the product of the entries that couple
    rows j and j + 1).  From the monic recurrence x p_j = p_(j+1) + ((1 + c) j + beta c)/(1 - c) p_j
    + c j (j + beta - 1)/(1 - c)^2 p_(j-1) (Koekoek, Lesky & Swarttouw 2010, (9.10.4))."""
    beta = p + Fraction(1, 2)
    diag = ab * (4 * ((1 + c_m) * j + beta * c_m) / (1 - c_m) + 2 * p + 1)
    return diag, 16 * ab * ab * c_m * (j + 1) * (j + beta) / (1 - c_m) ** 2


def dyadic_window_couplings(count, seed):
    """count (params, w) with L, R, A, B multiples of 1/8 and w a multiple of 1/16, w strictly inside
    the reality window (c_M < -1e-3)."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        l_coef, r_coef = (float(v) / 8.0 for v in rng.integers(-16, 17, size=2))
        a_coef, b_coef = (float(v) / 8.0 for v in rng.integers(2, 25, size=2) * rng.choice([-1, 1], size=2))
        if 1.0 + l_coef * r_coef == 0.0:
            continue
        params = TransformParams(l_coef, r_coef, a_coef, b_coef)
        if classify_regime(params).regime is not Regime.REAL_SPECTRUM:
            continue
        inside = [m / 16.0 for m in range(1, 256) if meixner_c(params, m / 16.0) < Fraction(-1, 1000)]
        if inside:
            found.append((params, float(rng.choice(inside))))
    return found


TABLE_ONE_C_M = {3.0: Fraction(-1, 11), 4.0: Fraction(-1, 9), 6.0: Fraction(-1, 14)}
MEIXNER_CASES = [
    *((TransformParams(l_coef=3.0, b_coef=5.0), w) for w in TABLE_ONE_C_M),
    *dyadic_window_couplings(5, seed=27),
]


class TestMeixnerForm:
    """Block p (levels k = 2j + p) of H is |AB| (4X + 2p + 1), X the monic Jacobi matrix of the Meixner
    polynomials M_j(x; beta, c_M), beta = p + 1/2 and c_M = (D - |AB|)/(D + |AB|), but for one entry:
    the diagonal of level N - 1, whose ladder value is N - 1, not 2N - 1.  The lattice x = 0, 1, ...
    of X maps to |AB| (2(2x + p) + 1), the ladder (2n + 1)|AB| itself."""

    @pytest.mark.parametrize("n_dim", [20, 21])
    @pytest.mark.parametrize("params, w", MEIXNER_CASES)
    def test_bands_are_the_meixner_recurrence_exactly(self, params, w, n_dim):
        diag, up, low = exact_scalars(params, w)
        ab, c_m = exact_ab(params), meixner_c(params, w)
        assert diag * diag - up * low == ab * ab and c_m < 0
        for k in range(n_dim):
            j, p = divmod(k, 2)
            meixner_diag, meixner_product = meixner_jacobi(ab, c_m, p, j)
            entry = diag * (2 * k + 1 if k < n_dim - 1 else n_dim - 1)  # H's ladder: N - 1 at the edge
            if k < n_dim - 1:
                assert entry == meixner_diag, (k, entry, meixner_diag)
            else:
                assert entry != meixner_diag  # the truncation edge is the one entry off the form
            if k + 2 < n_dim:
                assert up * low * (k + 1) * (k + 2) == meixner_product, (k, up * low, meixner_product)

    @pytest.mark.parametrize("n_dim", [20, 21])
    @pytest.mark.parametrize("params, w", MEIXNER_CASES)
    def test_float_blocks_match_the_meixner_form(self, params, w, n_dim):
        # _blocks' symmetrized blocks, in natural level order, entry by entry to a few eps of the scale
        ab, c_m = exact_ab(params), meixner_c(params, w)
        diag = exact_scalars(params, w)[0]
        bands = HamiltonianSpec(params, BasisSpec(n_dim=n_dim, freq=w)).bands
        for p, block in enumerate(_blocks(*bands)):
            block = block[::-1, ::-1]
            m = len(block)
            for j in range(m):
                k = 2 * j + p
                size = float(diag + ab) * (k + 2)  # |D|, |U|, |V| <= D + |AB| inside the window
                meixner_diag, meixner_product = meixner_jacobi(ab, c_m, p, j)
                if k < n_dim - 1:
                    assert abs(block[j, j] - float(meixner_diag)) <= 4 * EPS * size, (p, j)
                else:
                    assert abs(block[j, j] - float(diag * (n_dim - 1))) <= 4 * EPS * size
                    # off the form by D N: the ladder's N - 1 in place of 2N - 1
                    assert abs(float(meixner_diag) - block[j, j] - float(diag) * n_dim) <= 8 * EPS * size
                if j + 1 < m:
                    assert block[j, j + 1] == -block[j + 1, j]  # c_M < 0: opposite signs, one magnitude
                    product = block[j, j + 1] * block[j + 1, j]
                    assert abs(product - float(meixner_product)) <= 4 * EPS * size * size, (p, j)

    @pytest.mark.parametrize("w", sorted(TABLE_ONE_C_M))
    def test_table_one_parameters(self, table1_params, w):
        # D = w/2 + 8/w over |AB| = 5: 5/6, 4/5 and 13/15 at w = 3, 4 and 6
        assert meixner_c(table1_params, w) == TABLE_ONE_C_M[w]


def seeded_draws(seed, count):
    """count seeded real-regime TransformParams from draw_real_spectrum_params, |L|, |R| <= 2."""
    rng = np.random.default_rng(seed)
    return [draw_real_spectrum_params(rng, l_max=2.0, ab_range=(0.3, 3.0)) for _ in range(count)]


class TestMeixnerParameter:
    """c_M(w) = (D(w) - |AB|)/(D(w) + |AB|), exactly: D = |AB| at w = (|AB| -+ |c|)/a, the reality
    window's edges, as D^2 - UV = (AB)^2 and D - |AB| = ((a/2) w^2 - |AB| w + b/2)/w."""

    def test_table_one_sign_changes_at_the_window_edges(self, table1_params):
        assert meixner_c(table1_params, 2.0) == meixner_c(table1_params, 8.0) == 0
        for w in np.geomspace(0.05, 500.0, 201):
            c_m = meixner_c(table1_params, w)
            assert c_m < 0 if 2.0 < w < 8.0 else c_m > 0, w

    @pytest.mark.parametrize("params", seeded_draws(36, 20))
    def test_sign_changes_at_the_window_edges(self, params):
        # 0 at the exact edges; reality_window rounds each once, which leaves c_M a few eps from 0
        couplings = (params.l_coef, params.r_coef, params.a_coef, params.b_coef)
        assert [meixner_c(params, edge) for edge in oracles.exact_reality_window(*couplings)] == [0, 0]
        w_lo, w_hi = reality_window(params)
        assert abs(meixner_c(params, w_lo)) <= 4 * EPS and abs(meixner_c(params, w_hi)) <= 4 * EPS
        for w in np.geomspace(w_lo / 50.0, 50.0 * w_hi, 101):
            if min(abs(w - w_lo) / w_lo, abs(w - w_hi) / w_hi) > 1e-9:
                c_m = meixner_c(params, w)
                assert c_m < 0 if w_lo < w < w_hi else c_m > 0, w

    @pytest.mark.parametrize("params", [TransformParams(l_coef=3.0, b_coef=5.0), *seeded_draws(37, 10)])
    def test_symmetric_under_w_to_w_v_squared_over_w(self, params):
        # D(w_v^2/w) = D(w) with w_v^2 = b/a exactly: the two frequencies share their spectrum over |AB|
        n_a, n_b, _, _ = model._quadratic_form(params)
        for w in np.geomspace(0.01, 100.0, 41):
            assert meixner_c(params, w) == meixner_c(params, Fraction(n_b, n_a) / Fraction(w))

    @pytest.mark.parametrize("params", [TransformParams(l_coef=3.0, b_coef=5.0), *seeded_draws(38, 10)])
    def test_deepest_at_the_variational_frequency(self, params):
        w_v = variational_frequency(params)
        grid = [w_v * 2.0 ** (i / 8.0) for i in range(-24, 25) if i] + list(reality_window(params))
        assert all(meixner_c(params, w_v) < meixner_c(params, w) for w in grid)

    @pytest.mark.parametrize(
        "params, shear",
        [
            *((p, True) for p in seeded_draws(39, 10)),
            *((TransformParams(a_coef=a, b_coef=b), False)
              for a, b in np.random.default_rng(40).uniform(0.3, 3.0, size=(10, 2))),
            (TransformParams(l_coef=-0.5, r_coef=0.5), False),  # L A^2 + R B^2 = 0 with L, R nonzero
            (TransformParams(a_coef=0.5, b_coef=2.0), False),  # w_v = 4 exactly
        ],
    )
    def test_negative_at_w_v_exactly_with_a_cross_term(self, params, shear):
        # At the exact w_v, D = sqrt(ab) and (AB)^2 - ab = c^2: c_M(w_v) < 0 exactly when c, that is
        # C (L A^2 + R B^2), is nonzero, and 0 otherwise.  w_v is rounded within 1 ulp, which moves
        # c_M by O(eps^2) upward.
        l, r, a, b = map(Fraction, (params.l_coef, params.r_coef, params.a_coef, params.b_coef))
        assert (l * a * a + r * b * b != 0) == shear
        w_v = variational_frequency(params)
        c_m = meixner_c(params, w_v)
        assert c_m < -(EPS**2) if shear else 0 <= c_m <= EPS**2
        assert c_m == 0 or w_v != 4.0

    def test_cli_sweep_is_symmetric_under_w_to_w_v_squared_over_w(self, capsys):
        # Table 1, w_v^2 = 16: w = 3 and 16/3 share c_M = -1/11, so every count agrees
        assert main("sweep-w --L 3 --B 5 --values 3,5.333333333333333 --N 40 --format json".split()) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        counts = [(p["n_real"], p["n_complex_pairs"], p["first_deviation_index"]) for p in points]
        assert counts == [(16, 12, 11)] * 2
