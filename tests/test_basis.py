import numpy as np
import pytest

from nhosc import (
    BasisSpec,
    OperatorMatrix,
    TransformParams,
    commutator,
    ladder_weights,
    momentum_matrix,
    normalized_commutator_check,
    position_matrix,
    transformed_momentum,
    transformed_position,
)


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


def truncated_xp_commutator(n, s=1.0):
    """Closed form i s^2 (I - N e_last) of the truncated ladder algebra."""
    c = 1j * s * s * np.eye(n, dtype=complex)
    c[-1, -1] = 1j * s * s * (1 - n)
    return c


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
        x = position_matrix(BasisSpec(n_dim=2)).entries
        np.testing.assert_allclose(x.real, [[0, 2**-0.5], [2**-0.5, 0]], atol=1e-15)
        assert np.all(x.imag == 0.0)

    def test_frequency_scaling(self):
        x = position_matrix(BasisSpec(n_dim=2, freq=4.0)).entries
        np.testing.assert_allclose(x[0, 1].real, 1.0 / np.sqrt(8.0))

    def test_superdiagonal_n3(self):
        x = position_matrix(BasisSpec(n_dim=3)).entries
        np.testing.assert_allclose(np.diag(x.real, 1), [2**-0.5, 1.0])

    def test_symmetric_and_real(self):
        for n, w, s in [(5, 1.0, 1.0), (8, 0.25, 2.0)]:
            op = position_matrix(BasisSpec(n_dim=n, freq=w, scale=s))
            assert np.all(op.entries.imag == 0.0)
            np.testing.assert_array_equal(op.entries, op.entries.T)


class TestMomentumMatrix:
    def test_two_by_two(self):
        p = momentum_matrix(BasisSpec(n_dim=2)).entries
        np.testing.assert_allclose(p, [[0, -1j * 2**-0.5], [1j * 2**-0.5, 0]], atol=1e-15)

    def test_frequency_scaling(self):
        p = momentum_matrix(BasisSpec(n_dim=2, freq=4.0)).entries
        np.testing.assert_allclose(p[1, 0], 1j * np.sqrt(2.0))

    def test_antisymmetric_skeleton_and_hermitian(self):
        # transpose(p) = -p while conj(transpose(p)) = p: both hold exactly
        for n in (2, 5, 9):
            p = momentum_matrix(BasisSpec(n_dim=n, freq=2.0)).entries
            np.testing.assert_array_equal(p.T, -p)
            np.testing.assert_array_equal(p.conj().T, p)

    def test_purely_imaginary(self):
        op = momentum_matrix(BasisSpec(n_dim=6))
        assert np.any(op.entries.imag != 0.0)
        assert np.all(op.entries.real == 0.0)


class TestTransformedOperators:
    def test_identity_transforms(self):
        basis = BasisSpec(n_dim=5, freq=2.0)
        ident = TransformParams()
        np.testing.assert_array_equal(
            transformed_momentum(basis, ident).entries, momentum_matrix(basis).entries
        )
        np.testing.assert_array_equal(
            transformed_position(basis, ident).entries, position_matrix(basis).entries
        )

    def test_sheared_momentum_entry(self):
        basis = BasisSpec(n_dim=2, freq=4.0)
        y = transformed_momentum(basis, TransformParams(l_coef=3.0)).entries
        np.testing.assert_allclose(y[1, 0], 1j * (np.sqrt(2.0) + 3.0 / np.sqrt(8.0)))

    def test_sheared_momentum_purely_imaginary(self):
        for n in (2, 7, 30):
            y = transformed_momentum(BasisSpec(n_dim=n), TransformParams(l_coef=3.0))
            assert np.all(y.entries.real == 0.0)
            assert np.any(y.entries.imag != 0.0)

    def test_sheared_position_entries(self):
        basis = BasisSpec(n_dim=2)
        z = transformed_position(basis, TransformParams(r_coef=3.0)).entries
        np.testing.assert_allclose(z[0, 1].real, 4.0 / np.sqrt(2.0))
        np.testing.assert_allclose(z[1, 0].real, -2.0 / np.sqrt(2.0))

    def test_sheared_position_real(self):
        for r in (-2.0, 0.5, 3.0):
            z = transformed_position(BasisSpec(n_dim=6), TransformParams(r_coef=r))
            assert np.all(z.entries.imag == 0.0)


class TestCommutator:
    def test_identity_commutes(self):
        m = position_matrix(BasisSpec(n_dim=4))
        ident = OperatorMatrix(np.eye(4, dtype=complex))
        np.testing.assert_array_equal(commutator(ident, m).entries, np.zeros((4, 4)))

    def test_dimension_mismatch(self):
        a = position_matrix(BasisSpec(n_dim=3))
        b = position_matrix(BasisSpec(n_dim=4))
        with pytest.raises(ValueError):
            commutator(a, b)

    def test_xp_commutator_n3(self):
        basis = BasisSpec(n_dim=3)
        c = commutator(position_matrix(basis), momentum_matrix(basis)).entries
        np.testing.assert_allclose(c, 1j * np.diag([1.0, 1.0, -2.0]), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_xp_closed_form(self, n):
        basis = BasisSpec(n_dim=n)
        x = position_matrix(basis).entries
        p = momentum_matrix(basis).entries
        brute = naive_matmul(x, p) - naive_matmul(p, x)
        np.testing.assert_allclose(brute, truncated_xp_commutator(n), atol=1e-13)
        c = commutator(position_matrix(basis), momentum_matrix(basis)).entries
        np.testing.assert_allclose(c, truncated_xp_commutator(n), atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_products_match_naive_oracle(self, n):
        basis = BasisSpec(n_dim=n, freq=2.0)
        params = TransformParams(l_coef=1.5, r_coef=-0.5)
        mats = [
            position_matrix(basis).entries,
            momentum_matrix(basis).entries,
            transformed_momentum(basis, params).entries,
            transformed_position(basis, params).entries,
        ]
        for a in mats:
            for b in mats:
                np.testing.assert_allclose(a @ b, naive_matmul(a, b), atol=1e-13)


class TestNormalizedCommutatorCheck:
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
        defect = normalized_commutator_check(
            BasisSpec(n_dim=40, freq=w, scale=s), TransformParams(l_coef=3.0, r_coef=4.0)
        )
        assert defect.max_diag_deviation <= 1e-12
        np.testing.assert_allclose(defect.last_diag_entry, -39.0, atol=1e-11)
        assert defect.max_offdiag <= 1e-12

    def test_real_shortcut_matches_complex_operators(self):
        # the real (Z Y - Y Z) / ((1+LR) s^2) against the public complex route
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 30:
            l_coef, r_coef = rng.uniform(-4.0, 4.0, size=2)
            if abs(1.0 + l_coef * r_coef) < 0.3:
                continue
            basis = BasisSpec(
                n_dim=int(rng.integers(2, 41)), freq=rng.uniform(0.25, 4.0), scale=rng.uniform(0.5, 2.0)
            )
            params = TransformParams(l_coef=l_coef, r_coef=r_coef)
            c = commutator(transformed_position(basis, params), transformed_momentum(basis, params)).entries
            c = c / (1j * (1.0 + l_coef * r_coef) * basis.scale**2)
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
        # (z y - y z) = (1+LR) (x p - p x) entrywise
        rng = np.random.default_rng(11)
        basis = BasisSpec(n_dim=30, freq=2.0)
        x = position_matrix(basis).entries
        p = momentum_matrix(basis).entries
        base = x @ p - p @ x
        for _ in range(25):
            l_coef, r_coef = rng.uniform(-4.0, 4.0, size=2)
            if abs(1.0 + l_coef * r_coef) < 1e-2:
                continue
            params = TransformParams(l_coef=l_coef, r_coef=r_coef)
            y = transformed_momentum(basis, params).entries
            z = transformed_position(basis, params).entries
            lhs = z @ y - y @ z
            np.testing.assert_allclose(lhs, (1.0 + l_coef * r_coef) * base, atol=1e-12)


class TestSpecValidation:
    def test_basis_invariants(self):
        with pytest.raises(ValueError):
            BasisSpec(n_dim=1)
        with pytest.raises(ValueError):
            BasisSpec(n_dim=4.5)
        with pytest.raises(ValueError):
            BasisSpec(n_dim=10, freq=0.0)
        with pytest.raises(ValueError):
            BasisSpec(n_dim=10, scale=-1.0)

    def test_operator_matrix_must_be_square(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros((2, 3)))

    def test_entries_frozen(self):
        x = position_matrix(BasisSpec(n_dim=3))
        with pytest.raises(ValueError):
            x.entries[0, 0] = 1.0
