import mpmath
import numpy as np
import pytest

import nhosc.eig
from nhosc import (
    BasisSpec,
    ConvergenceError,
    HamiltonianSpec,
    Spectrum,
    TransformParams,
    balance,
    build_hamiltonian,
    classify,
    eigenvalues,
    hessenberg_reduce,
    position_matrix,
    sort_spectrum,
)
from nhosc.eig import _frobenius_norm

BACKENDS = ("lapack", "francis")


def sorted_by_re_im(v):
    v = np.asarray(v, dtype=complex)
    return v[np.lexsort((v.imag, v.real))]


def multiset_distance(u, v):
    return np.abs(sorted_by_re_im(u) - sorted_by_re_im(v)).max()


def char_poly_coeffs(a):
    """Coefficients of det(a - t I) by cofactor expansion with polynomial entries.

    Exact symbolic expansion in t (each entry is a degree <= 1 polynomial);
    the independent oracle for small-matrix eigenvalues.
    """
    n = a.shape[0]
    entries = [[np.array([a[i, j]], dtype=float) for j in range(n)] for i in range(n)]
    for i in range(n):
        entries[i][i] = np.array([-1.0, a[i, i]])  # a_ii - t

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = np.zeros(1)
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = np.polymul(entries[rows[0]][c], minor)
            total = np.polyadd(total, (-1.0) ** k * term)
        return total

    return det(tuple(range(n)), tuple(range(n)))


class TestBalance:
    def test_identity_unchanged(self):
        b, d = balance(np.eye(4))
        np.testing.assert_array_equal(b, np.eye(4))
        np.testing.assert_array_equal(d, np.ones(4))

    def test_symmetric_not_scaled(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        b, d = balance(m)
        np.testing.assert_array_equal(d, np.ones(6))
        np.testing.assert_array_equal(b, m)

    def test_similarity_preserves_eigenvalues(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((10, 10))
        # grade the rows/columns badly to give balance something to do
        scales = 10.0 ** np.arange(-5, 5)
        m = np.diag(scales) @ m @ np.diag(1.0 / scales)
        b, d = balance(m)
        assert multiset_distance(np.linalg.eigvals(b), np.linalg.eigvals(m)) <= 1e-10
        # powers-of-two record reconstructs the input exactly
        np.testing.assert_array_equal(np.diag(d) @ b @ np.diag(1.0 / d), m)

    def test_scales_are_powers_of_two(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 8)) * 10.0 ** rng.integers(-6, 6, size=(8, 8))
        _, d = balance(m)
        assert np.all(np.log2(d) == np.round(np.log2(d)))


class TestHessenbergReduce:
    def test_tridiagonal_unchanged_up_to_signs(self):
        basis = BasisSpec(n_dim=8)
        x = position_matrix(basis).entries.real
        h = hessenberg_reduce(x)
        np.testing.assert_allclose(np.abs(h), np.abs(x), atol=1e-14)

    def test_tridiagonal_returned_bit_for_bit(self):
        # every column is already Hessenberg, so no reflector is applied
        rng = np.random.default_rng(7)
        m = sum(np.diag(rng.standard_normal(9 - abs(k)), k) for k in (-1, 0, 1))
        np.testing.assert_array_equal(hessenberg_reduce(m), m)

    def test_two_by_two_unchanged(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(hessenberg_reduce(m), m)

    def test_structure_and_eigenvalues(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((8, 8))
        h = hessenberg_reduce(m)
        assert np.all(h[np.tril_indices(8, -2)] == 0.0)
        assert multiset_distance(np.linalg.eigvals(h), np.linalg.eigvals(m)) <= 1e-10


class TestEigenvalues:
    def test_diagonal(self):
        for backend in BACKENDS:
            spec = eigenvalues(np.diag([2.0, 3.0]), backend=backend)
            np.testing.assert_allclose(sorted_by_re_im(spec.values), [2.0, 3.0])

    def test_one_by_one(self):
        np.testing.assert_array_equal(eigenvalues(np.array([[7.0]])).values, [7.0])
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((0, 0)))

    def test_rotation_matrix(self):
        for backend in BACKENDS:
            spec = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]), backend=backend)
            np.testing.assert_allclose(sorted_by_re_im(spec.values), [-1j, 1j], atol=1e-15)

    def test_companion_matrix(self):
        # t^3 - 6 t^2 + 11 t - 6 = (t-1)(t-2)(t-3)
        m = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        for backend in BACKENDS:
            spec = eigenvalues(m, backend=backend)
            np.testing.assert_allclose(sorted_by_re_im(spec.values), [1.0, 2.0, 3.0], atol=1e-8)

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((10, 10))
        det = np.linalg.det(m)
        for backend in BACKENDS:
            vals = eigenvalues(m, backend=backend).values
            assert abs(vals.sum() - np.trace(m)) <= 1e-10 * max(1.0, abs(np.trace(m)))
            assert abs(np.prod(vals) - det) <= 1e-8 * abs(det)

    def test_conjugate_closure_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = rng.standard_normal((8, 8))
            for backend in BACKENDS:
                classify(eigenvalues(m, backend=backend))  # raises if pairing fails

    def test_transpose_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.standard_normal((10, 10))
            for backend in BACKENDS:
                d = multiset_distance(
                    eigenvalues(m, backend=backend).values, eigenvalues(m.T, backend=backend).values
                )
                assert d <= 1e-8

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = rng.standard_normal((10, 10))
            q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
            for backend in BACKENDS:
                d = multiset_distance(
                    eigenvalues(m, backend=backend).values,
                    eigenvalues(q @ m @ q.T, backend=backend).values,
                )
                assert d <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_characteristic_polynomial_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            m = rng.standard_normal((n, n))
            roots = np.roots(char_poly_coeffs(m))
            for backend in BACKENDS:
                assert multiset_distance(eigenvalues(m, backend=backend).values, roots) <= 1e-6

    def test_rejects_complex_input(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[1.0 + 1j, 0.0], [0.0, 2.0]]))

    def test_accepts_real_hamiltonian(self, table1_params):
        h = build_hamiltonian(
            HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=20, freq=4.0))
        )
        spec = eigenvalues(h)
        assert len(spec) == 20

    @pytest.mark.parametrize("n", [9, 10])
    def test_parity_split_matches_full_solve(self, n, monkeypatch):
        # entries with i+j odd are zero: even and odd indices never mix
        i, j = np.indices((n, n))
        m = np.where((i + j) % 2 == 0, np.random.default_rng(n).standard_normal((n, n)), 0.0)
        shapes = []
        monkeypatch.setattr(nhosc.eig, "balance", lambda a: shapes.append(a.shape) or balance(a))
        for backend in BACKENDS:
            got = eigenvalues(m, backend=backend).values
            assert multiset_distance(got, np.linalg.eigvals(m)) <= 1e-10
        assert shapes == [((n + 1) // 2,) * 2, (n // 2,) * 2] * 2

    def test_one_odd_entry_keeps_one_block(self, monkeypatch):
        i, j = np.indices((8, 8))
        m = np.where((i + j) % 2 == 0, np.random.default_rng(3).standard_normal((8, 8)), 0.0)
        m[2, 5] = 0.5
        shapes = []
        monkeypatch.setattr(nhosc.eig, "balance", lambda a: shapes.append(a.shape) or balance(a))
        assert multiset_distance(eigenvalues(m).values, np.linalg.eigvals(m)) <= 1e-10
        assert shapes == [(8, 8)]

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_general_matrix_whose_squares_under_or_overflow(self, scale):
        # |entries| near 1e-170 square to zero and near 1e200 to inf; the
        # reflectors are built from columns scaled by a power of two
        m = np.random.default_rng(6).standard_normal((6, 6))
        got = eigenvalues(scale * m).values / scale
        assert multiset_distance(got, np.linalg.eigvals(m)) <= 1e-12

    @pytest.mark.parametrize("parity", [0, 1])
    def test_convergence_failure_in_a_block_names_input_row(self, parity):
        # entries with i+j odd are zero; the block of the other parity is
        # upper triangular and deflates without a sweep
        i, j = np.indices((8, 8))
        m = np.where((i + j) % 2 == 0, np.random.default_rng(5).standard_normal((8, 8)), 0.0)
        m[parity ^ 1 :: 2, parity ^ 1 :: 2] = np.triu(m[parity ^ 1 :: 2, parity ^ 1 :: 2])
        with pytest.raises(ConvergenceError) as exc_info:
            eigenvalues(m, max_sweeps=0, backend="francis")
        # the stuck subdiagonal is the last row, 3, of the 4x4 block
        row = 6 + parity
        assert exc_info.value.subdiagonal_index == row
        assert f"{('even', 'odd')[parity]}-index block (input row {row})" in str(exc_info.value)

    def test_convergence_failure_names_index(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((6, 6))
        with pytest.raises(ConvergenceError) as exc_info:
            eigenvalues(m, max_sweeps=0, backend="francis")
        err = exc_info.value
        assert err.subdiagonal_index == 5
        assert "subdiagonal index 5" in str(err)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        with pytest.raises(ConvergenceError) as exc_info:
            eigenvalues(np.diag([1.0, 2.0]))
        assert exc_info.value.subdiagonal_index is None
        assert "did not converge" in str(exc_info.value)

    def test_backend_arguments(self):
        m = np.diag([1.0, 2.0])
        with pytest.raises(ValueError, match="unknown backend"):
            eigenvalues(m, backend="numpy")
        with pytest.raises(ValueError, match="Francis QR loop only"):
            eigenvalues(m, max_sweeps=10)
        eigenvalues(m, max_sweeps=10, backend="francis")

    def test_tiny_hamiltonian_has_positive_tolerance(self):
        # entries near 1e-170 are normal floats whose squares underflow
        h = build_hamiltonian(
            HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=6, scale=1e-85))
        )
        assert 0.0 < np.abs(h).max() < 1e-160
        for backend in BACKENDS:
            spec = eigenvalues(h, backend=backend)
            assert spec.classify_tol > 0.0
            assert classify(spec).n_real == 6


class TestFrobeniusNorm:
    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    def test_scaled_entries(self, scale):
        m = np.array([[3.0, 0.0], [-4.0, 12.0]])  # |m|_F = 13
        assert _frobenius_norm(m * scale) == pytest.approx(13.0 * scale, rel=4e-16, abs=0.0)

    def test_zero_and_non_finite(self):
        assert _frobenius_norm(np.zeros((3, 3))) == 0.0
        assert _frobenius_norm(np.array([[1.0, np.inf]])) == np.inf


class TestBackendsAgree:
    """LAPACK (the default QR stage) against the in-package Francis QR and
    against a 50-digit mpmath solve of the same double-precision matrix.

    The oscillator H has zero +-1 bands, so every solve here runs the
    even/odd split: two tridiagonal blocks, each through its own QR stage.
    """

    @pytest.mark.parametrize("n_dim, tol", [(40, 1e-9), (60, 1e-6)])
    def test_table_one_spectrum(self, table1_params, n_dim, tol):
        # measured gaps: 1.3e-10 at N=40, 6.4e-9 at N=60 (|eigenvalues| up to 330 and 520)
        h = build_hamiltonian(
            HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n_dim, freq=4.0))
        )
        lapack, francis = (eigenvalues(h, backend=b) for b in BACKENDS)
        assert multiset_distance(lapack.values, francis.values) <= tol
        a, b = classify(lapack), classify(francis)
        assert (a.n_real, a.n_complex) == (b.n_real, b.n_complex)

    def test_mpmath_oracle(self, table1_params):
        h = build_hamiltonian(
            HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=30, freq=4.0))
        )
        with mpmath.workdps(50):
            exact = mpmath.eig(mpmath.matrix(h.tolist()), left=False, right=False)
            exact = np.array([complex(v) for v in exact])
        for backend in BACKENDS:
            # measured: LAPACK 2.9e-12, Francis 8.5e-12 from the 50-digit values
            assert multiset_distance(eigenvalues(h, backend=backend).values, exact) <= 1e-9


class TestSortSpectrum:
    def test_real_values_ascending(self):
        s = Spectrum(values=np.array([3.0, 1.0, 2.0], dtype=complex), classify_tol=1e-10)
        np.testing.assert_allclose(sort_spectrum(s).values, [1.0, 2.0, 3.0])

    def test_re_then_im_conjugates(self):
        vals = np.array([395.53 + 59.95j, 5.0, 395.53 - 59.95j])
        s = sort_spectrum(Spectrum(vals, 1e-10))
        np.testing.assert_allclose(
            s.values, [5.0, 395.53 - 59.95j, 395.53 + 59.95j]
        )


class TestClassify:
    def test_tolerance_discards_tiny_imag(self):
        s = Spectrum(np.array([1.0 + 1e-12j]), 0.0)
        out = classify(s, tol_abs=1e-9)
        assert out.n_real == 1 and out.n_complex == 0
        np.testing.assert_allclose(out.real_values, [1.0])

    def test_pairs_matched(self):
        s = Spectrum(np.array([1.0 + 2.0j, 3.0 + 0j, 1.0 - 2.0j]), 1e-12)
        out = classify(s)
        assert out.n_real == 1 and out.n_complex == 1
        np.testing.assert_allclose(out.complex_pairs, [(1.0, 2.0)])
        assert out.n_real + 2 * out.n_complex == 3

    def test_unpairable_raises(self):
        s = Spectrum(np.array([1.0 + 2.0j, 5.0 + 0j]), 1e-12)
        with pytest.raises(ValueError):
            classify(s)

    def test_hermitian_limit_all_real(self):
        h = build_hamiltonian(
            HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=30))
        )
        out = classify(eigenvalues(h))
        assert out.n_complex == 0
        assert out.n_real == 30

    def test_table_configuration_has_pairs(self, table1_report):
        # complex pairs in the upper spectrum of the full-size run
        assert table1_report.n_complex_pairs > 0
        assert table1_report.n_complex_pairs * 2 < 100
