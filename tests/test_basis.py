import math
import random

import mpmath
import numpy as np
import pytest

import oracles
from nhosc import BasisSpec, CommutatorDefect, TransformParams, ladder_weights, normalized_commutator_check
from nhosc.basis import _shear_bands, _tridiagonal, transformed_momentum


def naive_matmul(a, b):
    """Triple-loop product, the brute-force oracle for small matrices."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def truncated_xp_commutator(n):
    """Closed form i (I - N e_last) of the truncated ladder algebra."""
    c = 1j * np.eye(n, dtype=complex)
    c[-1, -1] = 1j * (1 - n)
    return c


def library_yz(basis, params):
    """The library's real tridiagonals Y, Z, with y = iY and z = Z."""
    u_y, v_y, u_z, v_z = _shear_bands(basis.freq, params.l_coef, params.r_coef)
    return _tridiagonal(basis.n_dim, u_y, v_y), _tridiagonal(basis.n_dim, u_z, v_z)


def both_x(basis):
    """x from the oracle and from the library (Z at R = 0)."""
    return oracles.position(basis.n_dim, basis.freq), library_yz(basis, TransformParams())[1]


def both_p(basis):
    """p from the oracle and from the library (iY at L = 0)."""
    return oracles.momentum(basis.n_dim, basis.freq), 1j * library_yz(basis, TransformParams())[0]


class TestLadderWeights:
    def test_small(self):
        np.testing.assert_allclose(ladder_weights(3), [1.0, np.sqrt(2.0)])
        np.testing.assert_allclose(ladder_weights(2), [1.0])

    def test_large_last_entry(self):
        w = ladder_weights(100)
        assert w.shape == (99,)
        np.testing.assert_allclose(w[-1], np.sqrt(99.0))

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            ladder_weights(1)


class TestPositionMatrix:
    def test_two_by_two(self):
        for x in both_x(BasisSpec(n_dim=2)):
            np.testing.assert_allclose(x.real, [[0, 2**-0.5], [2**-0.5, 0]], atol=1e-15)
            assert np.all(x.imag == 0.0)

    def test_frequency_scaling(self):
        for x in both_x(BasisSpec(n_dim=2, freq=4.0)):
            np.testing.assert_allclose(x[0, 1].real, 1.0 / np.sqrt(8.0))

    def test_superdiagonal_n3(self):
        for x in both_x(BasisSpec(n_dim=3)):
            np.testing.assert_allclose(np.diag(x.real, 1), [2**-0.5, 1.0])

    def test_symmetric_and_real(self):
        for n, w in [(5, 1.0), (8, 0.25)]:
            for x in both_x(BasisSpec(n_dim=n, freq=w)):
                assert np.all(x.imag == 0.0)
                np.testing.assert_array_equal(x, x.T)


class TestMomentumMatrix:
    def test_two_by_two(self):
        for p in both_p(BasisSpec(n_dim=2)):
            np.testing.assert_allclose(p, [[0, -1j * 2**-0.5], [1j * 2**-0.5, 0]], atol=1e-15)

    def test_frequency_scaling(self):
        for p in both_p(BasisSpec(n_dim=2, freq=4.0)):
            np.testing.assert_allclose(p[1, 0], 1j * np.sqrt(2.0))

    def test_antisymmetric_skeleton_and_hermitian(self):
        # transpose(p) = -p while conj(transpose(p)) = p: both hold exactly
        for n in (2, 5, 9):
            for p in both_p(BasisSpec(n_dim=n, freq=2.0)):
                np.testing.assert_array_equal(p.T, -p)
                np.testing.assert_array_equal(p.conj().T, p)

    def test_purely_imaginary(self):
        for p in both_p(BasisSpec(n_dim=6)):
            assert np.any(p.imag != 0.0)
            assert np.all(p.real == 0.0)


class TestTransformedOperators:
    def test_identity_transforms(self):
        # at w = 2 the factors 1/sqrt(2w) and sqrt(w/2) are exact, so both
        # routes give the same floats
        basis = BasisSpec(n_dim=5, freq=2.0)
        big_y, big_z = library_yz(basis, TransformParams())
        np.testing.assert_array_equal(1j * big_y, oracles.momentum(5, 2.0))
        np.testing.assert_array_equal(big_z, oracles.position(5, 2.0))

    @pytest.mark.parametrize("freq", [1.0, 0.25, 4.0, 2.0**-1000, 3.0, 0.1, 1e300, 1e308, 1e-300, 1e-310, 5e-324])
    def test_basis_factors(self, freq):
        # alpha = 1/sqrt(2w) is formed as beta / w, so it is beta at w = 1 and beta scaled exactly at a
        # power-of-two w, and finite where 2w overflows; a subnormal w forms it from 2w, since w / 2 would round
        beta, minus_beta, alpha, alpha_too = _shear_bands(freq, 0.0, 0.0)
        assert (minus_beta, alpha_too) == (-beta, alpha)
        if freq / 2.0 >= np.finfo(float).tiny:
            assert alpha == beta / freq and (alpha == beta) == (freq == 1.0)
        with mpmath.workdps(50):
            assert abs(alpha - 1 / mpmath.sqrt(2 * mpmath.mpf(freq))) <= 2 * np.finfo(float).eps * alpha

    def test_sheared_momentum_entry(self):
        basis = BasisSpec(n_dim=2, freq=4.0)
        params = TransformParams(l_coef=3.0)
        expected = 1j * (np.sqrt(2.0) + 3.0 / np.sqrt(8.0))
        np.testing.assert_allclose(oracles.sheared(2, 4.0, 3.0, 0.0)[0][1, 0], expected)
        np.testing.assert_allclose(1j * library_yz(basis, params)[0][1, 0], expected)

    def test_sheared_momentum_purely_imaginary(self):
        # the oracle's complex y = p + iLx against the library's real Y, y = iY
        for n in (2, 7, 30):
            y = oracles.sheared(n, 1.0, 3.0, 0.0)[0]
            assert np.all(y.real == 0.0)
            assert np.any(y.imag != 0.0)
            big_y = library_yz(BasisSpec(n_dim=n), TransformParams(l_coef=3.0))[0]
            assert big_y.dtype == np.float64
            np.testing.assert_allclose(big_y, y.imag, rtol=1e-15, atol=0.0)

    def test_transformed_momentum_is_oracle_y(self):
        # a plain complex ndarray iY, equal to the oracle's y = p + iLx
        for n, w, l_coef in ((2, 4.0, 3.0), (9, 0.5, -1.25), (30, 1.0, 0.0)):
            y = transformed_momentum(BasisSpec(n_dim=n, freq=w), TransformParams(l_coef=l_coef))
            assert type(y) is np.ndarray and y.dtype == np.complex128
            np.testing.assert_allclose(y, oracles.sheared(n, w, l_coef, 0.0)[0], rtol=1e-15, atol=0.0)

    def test_sheared_position_entries(self):
        z_oracle = oracles.sheared(2, 1.0, 0.0, 3.0)[1]
        z_library = library_yz(BasisSpec(n_dim=2), TransformParams(r_coef=3.0))[1]
        for z in (z_oracle, z_library):
            np.testing.assert_allclose(z[0, 1].real, 4.0 / np.sqrt(2.0))
            np.testing.assert_allclose(z[1, 0].real, -2.0 / np.sqrt(2.0))

    def test_sheared_position_real(self):
        for r in (-2.0, 0.5, 3.0):
            z = oracles.sheared(6, 1.0, 0.0, r)[1]
            assert np.all(z.imag == 0.0)
            big_z = library_yz(BasisSpec(n_dim=6), TransformParams(r_coef=r))[1]
            np.testing.assert_allclose(big_z, z.real, rtol=1e-15, atol=0.0)


class TestCommutator:
    def test_identity_commutes(self):
        for x in both_x(BasisSpec(n_dim=4)):
            np.testing.assert_array_equal(oracles.commutator(np.eye(4), x), np.zeros((4, 4)))

    def test_xp_commutator_n3(self):
        basis = BasisSpec(n_dim=3)
        for x, p in zip(both_x(basis), both_p(basis)):
            np.testing.assert_allclose(oracles.commutator(x, p), 1j * np.diag([1.0, 1.0, -2.0]), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_xp_closed_form(self, n):
        basis = BasisSpec(n_dim=n)
        for x, p in zip(both_x(basis), both_p(basis)):
            brute = naive_matmul(x, p) - naive_matmul(p, x)
            np.testing.assert_allclose(brute, truncated_xp_commutator(n), atol=1e-13)
            np.testing.assert_allclose(oracles.commutator(x, p), truncated_xp_commutator(n), atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_products_match_naive_oracle(self, n):
        basis = BasisSpec(n_dim=n, freq=2.0)
        params = TransformParams(l_coef=1.5, r_coef=-0.5)
        big_y, big_z = library_yz(basis, params)
        mats = [*both_x(basis), *both_p(basis), *oracles.sheared(n, 2.0, 1.5, -0.5), 1j * big_y, big_z]
        for a in mats:
            for b in mats:
                np.testing.assert_allclose(a @ b, naive_matmul(a, b), atol=1e-13)


# couplings and frequencies at which the check's float64 steps round, overflow or meet signed zeros
EXTREME_COUPLINGS = [s * m for m in (0.0, 1e-300, 1e-160, 1e155) for s in (1.0, -1.0)] + [3.0, 1e14, 1.7e308]
EXTREME_FREQS = [5e-324, 1e-320, 1e-3, 1.0, 4.0, 1e300]


def _report(call):
    """repr of a call's result, or its ValueError's message."""
    try:
        return repr(call())
    except ValueError as exc:
        return str(exc)


class TestNormalizedCommutatorCheck:
    def test_matches_dense_reference_bit_for_bit(self):
        # every field by repr (signed zeros and nan included) and every message, against the check with
        # every step on the whole dense array: each coupling pair and frequency at N = 2, 3 and 12, and
        # seeded draws of them at N = 100 and 401; transformed_momentum against the np.diag-sum Y
        rng = random.Random(34)
        cases = [(n, l_coef, r_coef, w) for n in (2, 3, 12) for l_coef in EXTREME_COUPLINGS
                 for r_coef in EXTREME_COUPLINGS for w in EXTREME_FREQS]
        cases += [(n, rng.choice(EXTREME_COUPLINGS), rng.choice(EXTREME_COUPLINGS), rng.choice(EXTREME_FREQS))
                  for n in (100, 401) for _ in range(60)]
        signed_zero = 0
        for n, l_coef, r_coef, w in cases:
            if 1.0 + l_coef * r_coef == 0.0:
                continue
            basis, params = BasisSpec(n_dim=n, freq=w), TransformParams(l_coef=l_coef, r_coef=r_coef)
            bands = _shear_bands(w, l_coef, r_coef)
            signed_zero += any(b == 0.0 and math.copysign(1.0, b) < 0.0 for b in bands)
            norm = 1.0 + l_coef * r_coef

            def reference():
                deviation, last, offdiag = oracles.dense_commutator_check(n, *bands, norm)
                return CommutatorDefect(n_dim=n, max_diag_deviation=deviation, last_diag_entry=last,
                                        expected_last=float(1 - n), max_offdiag=offdiag)

            assert _report(lambda: normalized_commutator_check(basis, params)) == _report(reference), \
                (n, l_coef, r_coef, w)
            with np.errstate(over="ignore", invalid="ignore"):
                got = transformed_momentum(basis, params)
                want = 1j * oracles.diag_sum_tridiagonal(n, bands[0], bands[1])
            assert got.tobytes() == want.tobytes(), (n, l_coef, r_coef, w)
        assert signed_zero  # as v_y = -0.0 at w = 5e-324, L = -0.0

    def test_full_size_configuration(self):
        defect = normalized_commutator_check(
            BasisSpec(n_dim=100), TransformParams(l_coef=3.0, r_coef=4.0)
        )
        assert defect.max_diag_deviation <= 1e-12
        np.testing.assert_allclose(defect.last_diag_entry, -99.0, atol=1e-10)
        assert defect.expected_last == -99.0
        assert defect.max_offdiag <= 1e-12

    def test_untransformed_reduces_to_xp(self):
        defect = normalized_commutator_check(BasisSpec(n_dim=20), TransformParams())
        assert defect.max_diag_deviation <= 1e-13
        np.testing.assert_allclose(defect.last_diag_entry, -19.0, atol=1e-12)

    @pytest.mark.parametrize("w", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_independent_of_frequency_and_scale(self, w, s):
        # s scales A and B together, which scales H by s^2; the commutator
        # of the sheared x and p reads neither
        defect = normalized_commutator_check(
            BasisSpec(n_dim=40, freq=w), TransformParams(l_coef=3.0, r_coef=4.0, a_coef=s, b_coef=s)
        )
        assert defect.max_diag_deviation <= 1e-12
        np.testing.assert_allclose(defect.last_diag_entry, -39.0, atol=1e-11)
        assert defect.max_offdiag <= 1e-12

    def test_real_shortcut_matches_complex_operators(self):
        # the real (Z Y - Y Z) / (1+LR) against the oracle's complex z y - y z
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 30:
            l_coef, r_coef = rng.uniform(-4.0, 4.0, size=2)
            if abs(1.0 + l_coef * r_coef) < 0.3:
                continue
            basis = BasisSpec(n_dim=int(rng.integers(2, 41)), freq=rng.uniform(0.25, 4.0))
            params = TransformParams(l_coef=l_coef, r_coef=r_coef)
            y, z = oracles.sheared(basis.n_dim, basis.freq, l_coef, r_coef)
            c = oracles.commutator(z, y) / (1j * (1.0 + l_coef * r_coef))
            diag = c.diagonal()
            defect = normalized_commutator_check(basis, params)
            assert abs(defect.max_diag_deviation - np.abs(diag[:-1] - 1.0).max()) <= 1e-12
            assert abs(defect.last_diag_entry - diag[-1].real) <= 1e-12
            assert abs(defect.max_offdiag - np.abs(c - np.diag(diag)).max()) <= 1e-12
            checked += 1

    @pytest.mark.parametrize("l_coef", [1e14, 1e300])
    def test_rounding_floor_rejected(self, l_coef):
        # forming Y = P + Lx in float64 loses P: at L = 1e14, N = 100 the
        # check used to report max |diag - 1| = 2 and a last entry of -98
        with pytest.raises(ValueError, match="float64 resolution"):
            normalized_commutator_check(BasisSpec(n_dim=100), TransformParams(l_coef=l_coef))

    @pytest.mark.parametrize("params", [TransformParams(r_coef=1e308), TransformParams(l_coef=1e308)])
    def test_overflowing_operator_rejected_without_warning(self, params):
        # 1+LR = 1 here: Y or Z itself overflows, which used to warn before the check raised
        with pytest.raises(ValueError, match=r"1\+LR = 1.0, max\|Y\| max\|Z\| = inf"):
            normalized_commutator_check(BasisSpec(n_dim=12), params)

    def test_large_resolvable_shear_passes(self):
        # rounding floor 2.2e-7 at L = 1e7, N = 100: below the limit, and the
        # reported deviation is rounding of that size
        defect = normalized_commutator_check(BasisSpec(n_dim=100), TransformParams(l_coef=1e7))
        assert defect.max_diag_deviation <= 1e-6
        assert abs(defect.last_diag_entry + 99.0) <= 1e-6

    def test_singular_normalization_rejected(self):
        with pytest.raises(ValueError):
            TransformParams(l_coef=1.0, r_coef=-1.0)

    def test_commutator_bilinearity(self):
        # (z y - y z) = (1+LR) (x p - p x) entrywise: the library's z = Z and
        # y = iY against the oracle's x and p
        rng = np.random.default_rng(11)
        basis = BasisSpec(n_dim=30, freq=2.0)
        base = oracles.commutator(oracles.position(30, 2.0), oracles.momentum(30, 2.0))
        for _ in range(25):
            l_coef, r_coef = rng.uniform(-4.0, 4.0, size=2)
            if abs(1.0 + l_coef * r_coef) < 1e-2:
                continue
            params = TransformParams(l_coef=l_coef, r_coef=r_coef)
            big_y, big_z = library_yz(basis, params)
            lhs = 1j * (big_z @ big_y - big_y @ big_z)
            np.testing.assert_allclose(lhs, (1.0 + l_coef * r_coef) * base, atol=1e-12)


class TestSpecValidation:
    def test_basis_invariants(self):
        with pytest.raises(ValueError):
            BasisSpec(n_dim=1)
        with pytest.raises(ValueError):
            BasisSpec(n_dim=4.5)
        with pytest.raises(ValueError):
            BasisSpec(n_dim=10, freq=0.0)
        with pytest.raises(TypeError):  # hbar = m = 1: the basis frequency alone fixes x and p
            BasisSpec(n_dim=4, scale=2.0)

    def test_fields_are_stored_as_python_types(self):
        # as TransformParams' couplings: n_dim an int and freq a float, so a sweep
        # over np.int64 sizes exports N = 20, not 20.0 or a numpy scalar
        basis = BasisSpec(n_dim=np.int64(20), freq=np.float32(4.0))
        assert type(basis.n_dim) is int and basis.n_dim == 20
        assert type(basis.freq) is float and basis.freq == 4.0
        assert type(BasisSpec(n_dim=10, freq=4).freq) is float
        assert repr(BasisSpec(n_dim=np.int64(10), freq=4)) == "BasisSpec(n_dim=10, freq=4.0)"
