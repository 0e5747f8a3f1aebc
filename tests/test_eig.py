import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import nhosc.eig
import oracles
from nhosc import (
    Bands,
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
)
from nhosc.eig import _blocks, _frobenius_norm, real_mask
from test_model import draw_real_spectrum_params


def francis(m, max_sweeps=None):
    """Reference solve of the whole matrix (no parity split): balance -> Hessenberg -> Francis QR."""
    h = hessenberg_reduce(balance(m)[0])
    return oracles.francis_qr(h, 30 * h.shape[0] if max_sweeps is None else max_sweeps)


def both(m):
    """The values of eigenvalues(m) and of the Francis reference solve."""
    return eigenvalues(m).values, francis(m)


def oscillator_shaped(rng, n):
    """Random n x n matrix whose only nonzero bands are 0 and +-2, like H; the
    products u l of the +-2 entries take both signs, and about a third are zero."""
    m = np.diag(rng.standard_normal(n))
    if n > 2:
        u, l = rng.standard_normal((2, n - 2)) * (rng.random((2, n - 2)) > 0.2)
        m += np.diag(u, 2) + np.diag(l, -2)
    return m


def greedy_pairs(s):
    """Reference pairing: each Im>0 value, in (Re, Im) order, takes its nearest
    remaining conjugated Im<0 partner."""
    rest = s.values[~real_mask(s)]
    neg = list(rest[rest.imag < 0.0])
    pairs = []
    for p in sorted(rest[rest.imag > 0.0], key=lambda z: (z.real, z.imag)):
        partner = neg.pop(int(np.argmin([abs(u - p.conjugate()) for u in neg])))
        pairs.append((0.5 * (p.real + partner.real), 0.5 * (p.imag - partner.imag)))
    return pairs


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
        x = oracles.position(8, 1.0).real
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
        for vals in both(np.diag([2.0, 3.0])):
            np.testing.assert_allclose(sorted_by_re_im(vals), [2.0, 3.0])

    def test_one_by_one(self):
        np.testing.assert_array_equal(eigenvalues(np.array([[7.0]])).values, [7.0])
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((0, 0)))

    def test_zero_matrix(self):
        # the Francis reference returns at once when the Hessenberg part is zero
        for vals in both(np.zeros((4, 4))):
            np.testing.assert_array_equal(vals, np.zeros(4))

    def test_rotation_matrix(self):
        for vals in both(np.array([[0.0, 1.0], [-1.0, 0.0]])):
            np.testing.assert_allclose(sorted_by_re_im(vals), [-1j, 1j], atol=1e-15)

    def test_companion_matrix(self):
        # t^3 - 6 t^2 + 11 t - 6 = (t-1)(t-2)(t-3)
        m = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        for vals in both(m):
            np.testing.assert_allclose(sorted_by_re_im(vals), [1.0, 2.0, 3.0], atol=1e-8)

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((10, 10))
        det = np.linalg.det(m)
        for vals in both(m):
            assert abs(vals.sum() - np.trace(m)) <= 1e-10 * max(1.0, abs(np.trace(m)))
            assert abs(np.prod(vals) - det) <= 1e-8 * abs(det)

    def test_conjugate_closure_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = rng.standard_normal((8, 8))
            spec = eigenvalues(m)
            classify(spec)  # raises if pairing fails
            classify(Spectrum(francis(m), spec.classify_tol))

    def test_transpose_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.standard_normal((10, 10))
            for solve in (lambda a: eigenvalues(a).values, francis):
                assert multiset_distance(solve(m), solve(m.T)) <= 1e-8

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = rng.standard_normal((10, 10))
            q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
            for solve in (lambda a: eigenvalues(a).values, francis):
                assert multiset_distance(solve(m), solve(q @ m @ q.T)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_characteristic_polynomial_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            m = rng.standard_normal((n, n))
            roots = np.roots(char_poly_coeffs(m))
            for vals in both(m):
                assert multiset_distance(vals, roots) <= 1e-6

    def test_rejects_complex_input(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[1.0 + 1j, 0.0], [0.0, 2.0]]))

    def test_accepts_real_hamiltonian(self, table1_params):
        h = build_hamiltonian(
            HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=20, freq=4.0))
        )
        spec = eigenvalues(h)
        assert len(spec) == 20

    @pytest.mark.parametrize(
        "bands, message",
        [
            (Bands(np.ones(4), np.ones(1), np.ones(1)), "lengths N, N-2 and N-2"),
            (Bands(np.ones(3), np.ones(3), np.ones(1)), "lengths N, N-2 and N-2"),
            (Bands(np.ones((2, 2)), np.ones(0), np.ones(0)), "lengths N, N-2 and N-2"),
            (Bands(np.array([1.0 + 1j, 2.0, 3.0]), np.ones(1), np.ones(1)), "complex"),
        ],
    )
    def test_rejects_malformed_band_record(self, bands, message):
        # a short band would otherwise repeat along its diagonal in entries
        for use in (eigenvalues, lambda b: b.entries, lambda b: b.norm):
            with pytest.raises(ValueError, match=message):
                use(bands)

    @pytest.mark.parametrize("n_dim", [2, 3, 40, 41, 225])
    @pytest.mark.parametrize("freq", [1.0, 2.0, 4.0, 7.9, 8.0, 9.0])
    def test_band_record_solves_as_its_entries(self, table1_params, n_dim, freq):
        # a Bands record goes to the blocks as it is; its dense entries have their bands found
        bands = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n_dim, freq=freq)).bands
        from_bands, from_entries = eigenvalues(bands), eigenvalues(bands.entries)
        assert from_bands.values.tobytes() == from_entries.values.tobytes()
        assert from_bands.classify_tol == from_entries.classify_tol

    @pytest.mark.parametrize("seed", [9, 10])
    def test_parity_split_matches_full_solve(self, seed, monkeypatch):
        # only the 0 and +-2 bands: each parity block is solved in its
        # symmetrized form, with no balance and no Hessenberg reduction
        calls = []
        monkeypatch.setattr(nhosc.eig, "balance", lambda a: calls.append(a.shape) or balance(a))
        monkeypatch.setattr(
            nhosc.eig, "hessenberg_reduce", lambda a: calls.append(a.shape) or hessenberg_reduce(a)
        )
        rng = np.random.default_rng(seed)
        for n in range(1, 31):
            m = oscillator_shaped(rng, n)
            got = eigenvalues(m).values
            assert len(got) == n  # n = 1 gains no value from an empty odd block
            # the Francis reference balances and solves the whole matrix in one piece
            for want in (np.linalg.eigvals(m), francis(m)):
                assert multiset_distance(got, want) <= 1e-10
        assert calls == []

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_blocks_come_largest_level_first(self, n):
        # each block is the symmetrized natural-order block reversed, [::-1, ::-1]
        a = oscillator_shaped(np.random.default_rng(n), n)
        blocks = _blocks(np.diagonal(a), np.diagonal(a, 2), np.diagonal(a, -2))
        assert [b.shape for b in blocks] == [((n + 1) // 2,) * 2, (n // 2,) * 2]  # n = 1: 0 x 0 odd
        for p, block in enumerate(blocks):
            natural, sub = block[::-1, ::-1], a[p::2, p::2]
            np.testing.assert_array_equal(np.diagonal(natural), np.diagonal(sub))
            up, down = np.diagonal(natural, 1), np.diagonal(natural, -1)
            u, l = np.diagonal(sub, 1), np.diagonal(sub, -1)
            nz = up != 0.0  # up = sign(u) r and down = sign(l) r; r = 0 where u l = 0
            np.testing.assert_array_equal(np.sign(up[nz]), np.sign(u[nz]))
            np.testing.assert_array_equal(np.sign(down[nz]), np.sign(l[nz]))
            np.testing.assert_array_equal(np.abs(up), np.abs(down))
            np.testing.assert_allclose(up * down, u * l, rtol=1e-15, atol=0.0)
            assert np.count_nonzero(np.triu(natural, 2)) + np.count_nonzero(np.tril(natural, -2)) == 0

    def test_one_odd_entry_keeps_one_block(self, monkeypatch):
        # one entry off the 0 and +-2 bands, off by one band (i+j odd) or by two
        for row, col in [(2, 5), (0, 4)]:
            m = oscillator_shaped(np.random.default_rng(3), 8)
            m[row, col] = 0.5
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

    def test_convergence_failure_names_index(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((6, 6))
        with pytest.raises(oracles.FrancisConvergenceError) as exc_info:
            francis(m, max_sweeps=0)
        err = exc_info.value
        assert err.subdiagonal_index == 5
        assert "subdiagonal index 5" in str(err)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        with pytest.raises(ConvergenceError) as exc_info:
            eigenvalues(np.diag([1.0, 2.0]))
        assert "did not converge" in str(exc_info.value)

    def test_tiny_hamiltonian_has_positive_tolerance(self):
        # entries near 1e-170 are normal floats whose squares underflow
        h = build_hamiltonian(HamiltonianSpec(
            params=TransformParams(a_coef=1e-85, b_coef=1e-85), basis=BasisSpec(n_dim=6)
        ))
        assert 0.0 < np.abs(h).max() < 1e-160
        spec = eigenvalues(h)
        assert spec.classify_tol > 0.0
        assert classify(spec).n_real == 6
        assert classify(Spectrum(francis(h), spec.classify_tol)).n_real == 6


class TestFrobeniusNorm:
    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    def test_scaled_entries(self, scale):
        m = np.array([[3.0, 0.0], [-4.0, 12.0]])  # |m|_F = 13
        assert _frobenius_norm(m * scale) == pytest.approx(13.0 * scale, rel=4e-16, abs=0.0)

    def test_zero_and_non_finite(self):
        assert _frobenius_norm(np.zeros((3, 3))) == 0.0
        assert _frobenius_norm(np.array([[1.0, np.inf]])) == np.inf


class TestBackendsAgree:
    """LAPACK (the production QR stage) against the Francis reference and
    against a 50-digit mpmath solve of the same double-precision matrix.

    The oscillator H has only the 0 and +-2 bands, so eigenvalues solves its
    symmetrized parity blocks, while the reference balances and solves the
    whole matrix: the comparison checks the symmetrization too.
    """

    @pytest.mark.parametrize("n_dim, tol", [(40, 1e-9), (60, 1e-6)])
    def test_table_one_spectrum(self, table1_params, n_dim, tol):
        # measured gaps: 1.5e-10 at N=40, 9.6e-9 at N=60 (|eigenvalues| up to 330 and 520)
        h = build_hamiltonian(
            HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n_dim, freq=4.0))
        )
        lapack = eigenvalues(h)
        reference = Spectrum(francis(h), lapack.classify_tol)
        assert multiset_distance(lapack.values, reference.values) <= tol
        a, b = classify(lapack), classify(reference)
        assert (a.n_real, a.n_complex) == (b.n_real, b.n_complex)

    def test_mpmath_oracle(self, table1_params):
        h = build_hamiltonian(
            HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=30, freq=4.0))
        )
        with mpmath.workdps(50):
            exact = mpmath.eig(mpmath.matrix(h.tolist()), left=False, right=False)
            exact = np.array([complex(v) for v in exact])
        # measured: LAPACK 2.9e-12, Francis 1.2e-11 from the 50-digit values
        for vals in both(h):
            assert multiset_distance(vals, exact) <= 1e-9


class TestRealWindow:
    """Table-1 parameters (L=3, B=5): the +-2 band products u l of H are
    positive for w < 2 and w > 8, so each parity block is similar to a real
    symmetric tridiagonal and every truncation has a real spectrum there.
    Balancing cannot find that similarity; the balanced solve of each block
    printed its rounding noise as complex pairs."""

    @staticmethod
    def hamiltonian(params, n_dim, freq):
        return build_hamiltonian(
            HamiltonianSpec(params=params, basis=BasisSpec(n_dim=n_dim, freq=freq))
        )

    # the balanced solve reported 54 / 170 / 131 pairs at N=400 and 89 / 415 at N=1000
    @pytest.mark.parametrize(
        "n_dim, freq", [(400, 1.9), (400, 8.1), (400, 16.0), (1000, 1.0), (1000, 16.0)]
    )
    def test_no_complex_pairs(self, table1_params, n_dim, freq):
        out = classify(eigenvalues(self.hamiltonian(table1_params, n_dim, freq)))
        assert (out.n_real, out.n_complex) == (n_dim, 0)

    @staticmethod
    def blocks_in_40_digits(h):
        """Both parity blocks of h solved by a 40-digit mpmath.eig, unsymmetrized."""
        with mpmath.workdps(40):
            return np.array([
                complex(v)
                for q in (0, 1)
                for v in mpmath.eig(mpmath.matrix(h[q::2, q::2].tolist()), left=False, right=False)
            ])

    def test_blocks_against_40_digits_off_w_v(self, table1_params):
        # w=7.9 lies inside the complex window, where u/l = -0.0106, not -1 as at w_v = 4
        h = self.hamiltonian(table1_params, 50, 7.9)
        exact = self.blocks_in_40_digits(h)
        # measured 1.5e-14 max|lambda| (6.2e-15 with the blocks in natural level
        # order); the balanced solve was off by 7.5e-10 max|lambda|
        assert multiset_distance(eigenvalues(h).values, exact) <= 1e-12 * np.abs(exact).max()

    # w=4 = w_v, where u/l = -1, and w=16 in the real window. Measured 9.3e-12
    # and 2.4e-15 max|lambda| (1.7e-11 and 1.4e-15 with the blocks in natural
    # level order); the bounds allow about 10x that.
    @pytest.mark.parametrize("freq, rel_tol", [(4.0, 1e-10), (16.0, 3e-14)])
    def test_blocks_against_40_digits_at_n_60(self, table1_params, freq, rel_tol):
        h = self.hamiltonian(table1_params, 60, freq)
        exact = self.blocks_in_40_digits(h)
        assert multiset_distance(eigenvalues(h).values, exact) <= rel_tol * np.abs(exact).max()

    def test_pairs_of_the_40_digit_solve(self, table1_params):
        # w=7.9, N=100: the pairs of a 40-digit mpmath.eig of both blocks (about
        # 30 s, so recorded here); the balanced solve reported 19 pairs, and 55
        # values off by more than 1e-3
        exact = [
            (836.28783845634, 10.9844196487877),
            (846.986298531841, 9.88939474704362),
            (862.985475049584, 32.2877649718869),
            (873.570555854775, 31.1633536833589),
            (893.871863588075, 56.2367801876178),
            (904.257662289815, 55.0721545045482),
            (932.932408810091, 85.2501822381398),
            (943.101088957064, 84.0504462366059),
        ]
        spec = eigenvalues(self.hamiltonian(table1_params, 100, 7.9))
        assert classify(spec).n_complex == 8
        pos = np.sort_complex(spec.values[spec.values.imag > 0.0])
        # measured 3.6e-10 from the recorded pairs
        np.testing.assert_allclose(list(zip(pos.real, pos.imag)), exact, rtol=0.0, atol=1e-8)


class TestKreinStructure:
    """Table-1 parameters (L=3, B=5, |AB| = 5; reality window (2, 8)).  Inside
    the window every parity block J of H has u l < 0 and satisfies
    J^T = S J S, S = diag((-1)^k): J is self-adjoint in the indefinite inner
    product [x, y] = y^T S x, and a real eigenvalue carries the Krein signature
    sign(x^T S x) of its right vector x.  Two real eigenvalues can leave the
    real axis as a pair only where eigenvalues of opposite signature meet."""

    TABLE_ONE = [(n, w) for n in (40, 41, 60) for w in (2.1, 2.5, 4.0, 6.0, 7.9)]

    @staticmethod
    def blocks(params, n_dim, freq):
        h = build_hamiltonian(HamiltonianSpec(params=params, basis=BasisSpec(n_dim=n_dim, freq=freq)))
        return _blocks(np.diagonal(h), np.diagonal(h, 2), np.diagonal(h, -2))

    # 1.9, 8.1 and 16 lie in the real window, where every block is symmetric
    @pytest.mark.parametrize("n_dim, freq", [*TABLE_ONE, (40, 1.9), (41, 8.1), (60, 16.0)])
    def test_blocks_are_s_self_adjoint_or_symmetric(self, table1_params, n_dim, freq):
        inside = 2.0 < freq < 8.0
        for block in self.blocks(table1_params, n_dim, freq):
            ul = np.diagonal(block, 1) * np.diagonal(block, -1)
            assert (ul < 0.0).all() if inside else (ul > 0.0).all()
            if inside:
                s = (-1.0) ** np.arange(len(block))
                assert np.array_equal(block.T, s[:, None] * block * s[None, :])
            else:
                assert np.array_equal(block, block.T)

    # measured: every block alternates up to its first pair or the edge value;
    # the only breaks sit above the edge (e.g. at 201.2 for N = 40, w = 2.1)
    @pytest.mark.parametrize("n_dim, freq", TABLE_ONE)
    def test_signature_alternates_below_first_pair_and_edge(self, table1_params, n_dim, freq):
        edge = (n_dim - 1) * 5.0  # (N-1)|AB|, the edge level of the truncation
        for block in self.blocks(table1_params, n_dim, freq):
            s = (-1.0) ** np.arange(len(block))
            vals, vecs = np.linalg.eig(block)
            real = vals.imag == 0.0  # LAPACK returns a real eigenvalue with a real vector
            cutoff = min(vals.real[~real].min(initial=np.inf), edge)
            below = np.flatnonzero(real & (vals.real < cutoff))
            x = vecs[:, below[np.argsort(vals.real[below])]].real
            signature = np.sign(np.einsum("ij,i,ij->j", x, s, x))
            assert len(signature) >= 6 and (signature != 0.0).all()
            assert (signature[1:] == -signature[:-1]).all(), signature

    # c_M in {-1/9, -1/2}, beta = p + 1/2 and ladder level 2x + p of block p, x < 8, at 60 digits
    @pytest.mark.parametrize("c_m", [mpmath.mpf(-1) / 9, mpmath.mpf(-1) / 2])
    @pytest.mark.parametrize("beta", [mpmath.mpf(1) / 2, mpmath.mpf(3) / 2])
    def test_signature_is_the_sign_of_the_meixner_dual_weight(self, c_m, beta):
        # Block p is |AB| (4X + 2p + 1), X Meixner's Jacobi matrix (test_model.TestMeixnerForm).  The
        # weight of its level x is 1 / sum_n (beta)_n c^n M_n(x)^2 / n!, M_n(x) = 2F1(-n, -x; beta; 1 - 1/c),
        # and the orthogonality (KLS (9.10.2), n and x swapped: M_n(x) = M_x(n)) sums that to
        # c^-x x! / ((beta)_x (1 - c)^beta), of sign (-1)^x for c < 0: the alternating signature above
        with mpmath.workdps(60):
            for x in range(8):
                total, weight = mpmath.mpf(0), mpmath.mpf(1)  # weight: (beta)_n c^n / n!
                for n in range(400):
                    total += weight * mpmath.hyp2f1(-n, -x, beta, 1 - 1 / c_m) ** 2
                    weight *= (beta + n) * c_m / (n + 1)
                closed = c_m**-x * mpmath.factorial(x) / (mpmath.rf(beta, x) * (1 - c_m) ** beta)
                assert abs(total - closed) <= 1e-30 * abs(closed), x
                assert mpmath.sign(total) == (-1) ** x


class TestMeixnerCollapse:
    """Block p of H is |AB| (4X + 2p + 1), X the Meixner Jacobi matrix of c_M = (D - |AB|)/(D + |AB|)
    (test_model.TestMeixnerForm), so the truncated spectrum over |AB| is a function of (c_M, N) alone:
    any couplings at the w where D/|AB| is Table 1's share Table 1's spectrum over |AB| = 5."""

    @pytest.mark.parametrize("n_dim", [20, 40])
    @pytest.mark.parametrize("table_w", [3.0, 4.0, 6.0])
    def test_spectrum_over_ab_is_table_ones(self, table1_params, n_dim, table_w):
        table = eigenvalues(HamiltonianSpec(table1_params, BasisSpec(n_dim=n_dim, freq=table_w)).bands)
        ratio = (table_w / 2.0 + 8.0 / table_w) / 5.0  # D/|AB|, with (a, b) = (1, 16)
        rng = np.random.default_rng(27 + int(table_w))
        draws = 0
        while draws < 3:
            params = draw_real_spectrum_params(rng, l_max=2.0, ab_range=(0.3, 3.0))
            n_a, n_b, _, den = nhosc.model._quadratic_form(params)
            half_a, half_b = n_a / den, n_b / den
            ab = params.a_coef * params.b_coef
            target = ratio * ab
            disc = target * target - 4.0 * half_a * half_b
            if disc < 0.0:  # c_M at w_v lies above Table 1's: no w reaches it
                continue
            draws += 1
            w = (target + math.sqrt(disc)) / (2.0 * half_a)  # D(w) = (a/2) w + (b/2)/w = target
            got = eigenvalues(HamiltonianSpec(params, BasisSpec(n_dim=n_dim, freq=w)).bands)
            assert np.abs(got.values / ab - table.values / 5.0).max() <= 1e-10, (params, w)
            assert classify(got) == classify(table)


NON_FINITE = [
    "[[1.0, inf], [1.0, 1.0]]",
    "[[1e308, 1e308], [1e308, 1e308]]",
    "[[nan, 1.0], [1.0, 1.0]]",
    "[[0.0, 1.7e308], [2.2e-300, 0.0]]",  # balancing would scale the column sum to inf
]


@pytest.mark.parametrize("matrix", NON_FINITE, ids=["inf", "sum-overflow", "nan", "balance-overflow"])
def test_non_finite_input_is_value_error(matrix):
    # a child process with a timeout, so that a hang fails instead of stalling the suite
    script = f"""
import time
import numpy as np
from numpy import inf, nan
from nhosc import balance, eigenvalues
for solve in (eigenvalues, balance):
    start = time.perf_counter()
    try:
        solve(np.array({matrix}))
    except ValueError as exc:
        print(f"{{time.perf_counter() - start}} {{exc}}")
    else:
        raise SystemExit(solve.__name__ + " accepted the matrix")
"""
    src = str(Path(nhosc.eig.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", script]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    (t_eig, msg_eig), (t_balance, msg_balance) = (line.split(" ", 1) for line in done.stdout.splitlines())
    assert float(t_eig) < 1.0 and float(t_balance) < 1.0
    # eigenvalues rejects the matrix by its norm, before any solve stage runs
    assert msg_eig.startswith("N |m|_F = ") and msg_balance.startswith("row/column 0 sums ")


class TestConjugateClosure:
    """classify matches pairs by sorting; that needs every spectrum eigenvalues
    returns for a real matrix to be exactly conjugate-closed."""

    def assert_closed(self, m):
        spec = eigenvalues(m)
        v = spec.values
        # the Im>0 values and the conjugated Im<0 values, each sorted by (Re, Im)
        pos, neg = np.sort_complex(v[v.imag > 0.0]), np.sort_complex(v[v.imag < 0.0].conj())
        np.testing.assert_array_equal(pos, neg)
        # classify counts the pairs of that sorted matching, which is the nearest-partner one bit for bit
        assert classify(spec).n_complex == len(pos)
        assert greedy_pairs(spec) == list(zip(pos.real, pos.imag))

    def test_random_dense(self):
        rng = np.random.default_rng(20)
        for n in range(2, 61):
            self.assert_closed(rng.standard_normal((n, n)))

    def test_parity_split(self):
        rng = np.random.default_rng(21)
        for n in range(1, 31):
            self.assert_closed(oscillator_shaped(rng, n))

    @pytest.mark.parametrize("n_dim", [20, 100, 400])
    @pytest.mark.parametrize("freq", [1.0, 4.0, 7.9, 16.0])
    def test_oscillator(self, table1_params, n_dim, freq):
        # w = 1 and 16 lie in the real window (no pairs at any N), w = 4 and
        # 7.9 inside the complex one
        self.assert_closed(
            build_hamiltonian(
                HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n_dim, freq=freq))
            )
        )


class TestSortSpectrum:
    """eigenvalues returns its values sorted by (Re, Im)."""

    def test_real_values_ascending(self):
        np.testing.assert_array_equal(eigenvalues(np.diag([3.0, 1.0, 2.0])).values, [1.0, 2.0, 3.0])

    def test_re_then_im_conjugates(self):
        # 5 and the pair 395.53 -+ 59.95i
        m = np.array([[395.53, 59.95, 0.0], [-59.95, 395.53, 0.0], [0.0, 0.0, 5.0]])
        np.testing.assert_allclose(
            eigenvalues(m).values, [5.0, 395.53 - 59.95j, 395.53 + 59.95j], rtol=1e-14
        )


class TestClassify:
    def test_tolerance_discards_tiny_imag(self):
        s = Spectrum(np.array([1.0 + 1e-12j]), classify_tol=1e-9)
        out = classify(s)
        assert out.n_real == 1 and out.n_complex == 0
        np.testing.assert_array_equal(s.values[real_mask(s)].real, [1.0])

    def test_real_mask_relative_threshold(self):
        # |Im| <= max(classify_tol, 1e-10 |v|)
        s = Spectrum(np.array([1e6 + 5e-5j, 1e6 + 5e-4j, 1.0 + 5e-5j]), classify_tol=0.0)
        np.testing.assert_array_equal(real_mask(s), [True, False, False])

    def test_pairs_matched(self):
        s = Spectrum(np.array([1.0 + 2.0j, 3.0 + 0j, 1.0 - 2.0j]), 1e-12)
        out = classify(s)
        assert out.n_real == 1 and out.n_complex == 1
        v = s.values[s.values.imag > 0.0]
        assert list(zip(v.real, v.imag)) == [(1.0, 2.0)]
        assert out.n_real + 2 * out.n_complex == 3

    def test_pairs_sharing_a_real_part(self):
        s = Spectrum(np.array([5.0 + 2.0j, 5.0 - 1.0j, 3.0, 5.0 + 1.0j, 5.0 - 2.0j]), 1e-12)
        out = classify(s)
        assert (out.n_real, out.n_complex) == (1, 2)
        # the k-th Im>0 value, sorted by (Re, Im), meets the k-th conjugated Im<0 one
        v = np.sort_complex(s.values[s.values.imag > 0.0])
        assert list(zip(v.real, v.imag)) == [(5.0, 1.0), (5.0, 2.0)]

    def test_partner_beyond_pair_tol_raises(self):
        # pair_tol = 10 max(1e-12, 1e-10 |1+2i|) = 2.2e-9; the partner is 1e-6 away
        s = Spectrum(np.array([1.0 + 2.0j, 1.000001 - 2.0j]), 1e-12)
        with pytest.raises(ValueError, match="no conjugate partner for"):
            classify(s)

    def test_unpairable_raises(self):
        s = Spectrum(np.array([1.0 + 2.0j, 5.0 + 0j]), 1e-12)
        with pytest.raises(ValueError) as exc_info:
            classify(s)
        assert str(exc_info.value) == "unpairable complex values: 1 with Im>0 vs 0 with Im<0"

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
