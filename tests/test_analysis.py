from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhosc.analysis
import oracles

from nhosc import (
    Axis,
    BasisSpec,
    HamiltonianSpec,
    Regime,
    Remark,
    TransformParams,
    build_hamiltonian,
    classify_regime,
    dual_params,
    duality_check,
    eigenvalues,
    isospectral_report,
    sweep,
    variational_frequency,
)
from nhosc.analysis import ISO_TOL, ReportRow
from nhosc.eig import real_mask
from test_model import draw_real_spectrum_params


def h_norm(params, basis):
    return float(np.linalg.norm(build_hamiltonian(HamiltonianSpec(params=params, basis=basis))))


class TestIsospectralReport:
    def test_table_one_low_levels(self, table1_report):
        for n in range(6):
            row = table1_report.rows[n]
            assert row.remark is Remark.ISO
            np.testing.assert_allclose(row.computed, (2 * n + 1) * 5.0, atol=1e-3)
            assert row.epsilon == (2 * n + 1) * 5.0

    def test_table_one_complex_pair_placement(self, table1_report):
        # the known complex pair sits at the levels whose references are 445/455
        row44, row45 = table1_report.rows[44], table1_report.rows[45]
        assert row44.remark is Remark.NO_ISO and row45.remark is Remark.NO_ISO
        assert abs(row44.computed - (395.53 - 59.95j)) <= 0.5
        assert abs(row45.computed - (395.53 + 59.95j)) <= 0.5
        assert row44.epsilon == 445.0 and row45.epsilon == 455.0

    def test_conjugate_symmetry_of_noiso_rows(self, table1_report):
        complex_rows = [
            r for r in table1_report.rows if abs(r.computed.imag) > 1e-6
        ]
        assert complex_rows, "expected complex rows in the full-size run"
        values = [r.computed for r in complex_rows]
        for v in values:
            partner = min(values, key=lambda u: abs(u - v.conjugate()))
            assert abs(partner - v.conjugate()) <= 1e-9 * max(1.0, abs(v))

    def test_rows_sorted_and_first_deviation(self, table1_report):
        levels = [r.level for r in table1_report.rows]
        assert levels == sorted(levels)
        first = table1_report.first_deviation_index
        assert first is not None
        assert all(r.remark is Remark.ISO for r in table1_report.rows[:first])
        assert table1_report.rows[first].remark is Remark.NO_ISO

    def test_real_window_first_deviation(self, table1_params):
        # w=16 lies in the real window (w > 8): no pairs, and the ladder holds
        # up to level 111 (the balanced solve printed 131 pairs and stopped at 36)
        report = isospectral_report(table1_params, BasisSpec(n_dim=400, freq=16.0))
        assert (report.n_complex_pairs, report.first_deviation_index) == (0, 111)

    @pytest.mark.parametrize("a_coef, b_coef", [(1.0, 5.0), (-1.0, 5.0), (1.0, -5.0), (-1.0, -5.0)])
    def test_reference_is_abs_ab_for_every_sign(self, table1_params, a_coef, b_coef):
        # H reads A and B only as A^2 and B^2: a negative A*B used to mark every level NoIso
        basis = BasisSpec(n_dim=40, freq=4.0)
        report = isospectral_report(TransformParams(l_coef=3.0, a_coef=a_coef, b_coef=b_coef), basis)
        assert report.rows == isospectral_report(table1_params, basis).rows
        assert report.first_deviation_index == 11

    def test_broken_regime_rejected(self):
        with pytest.raises(ValueError):
            isospectral_report(TransformParams(l_coef=2.0), BasisSpec(n_dim=10))

    @pytest.mark.parametrize("freq", [4.0, 16.0])  # w_v, with complex pairs; the real window
    def test_matches_per_level_loop(self, table1_params, freq):
        # abs_dev is Python's abs() of the complex deviation, bit for bit, and
        # every row and the first deviation match the per-level reference loop
        basis = BasisSpec(n_dim=200, freq=freq)
        report = isospectral_report(table1_params, basis)
        spec = eigenvalues(build_hamiltonian(HamiltonianSpec(params=table1_params, basis=basis)))
        is_real = real_mask(spec)
        ab = table1_params.a_coef * table1_params.b_coef
        rows, first_dev = [], None
        for n, v in enumerate(spec.values):
            eps_n = (2 * n + 1) * ab
            dev = abs(complex(v) - eps_n)
            remark = Remark.ISO if dev <= ISO_TOL and is_real[n] else Remark.NO_ISO
            if remark is Remark.NO_ISO and first_dev is None:
                first_dev = n
            rows.append(ReportRow(level=n, epsilon=eps_n, computed=complex(v), abs_dev=dev, remark=remark))
        assert all(r.abs_dev == abs(r.computed - r.epsilon) for r in report.rows)
        assert report.rows == rows and report.first_deviation_index == first_dev
        assert Remark.ISO in {r.remark for r in rows} and first_dev is not None

    def test_hermitian_truncated_run(self):
        # exactly diagonal Hamiltonian: every level except the defective
        # boundary value is exact, and that value lands mid-spectrum
        report = isospectral_report(TransformParams(), BasisSpec(n_dim=50))
        for n in range(25):
            assert report.rows[n].remark is Remark.ISO
            assert report.rows[n].abs_dev <= 1e-6
        assert report.first_deviation_index == 25
        assert report.n_complex_pairs == 0

    def test_hermitian_deviation_against_doubled_basis(self):
        # doubled-N reference: the N=100 sorted values are the converged
        # levels, so the N=50 deviations equal the sorted-value shifts
        small = isospectral_report(TransformParams(), BasisSpec(n_dim=50))
        assert all(r.abs_dev <= 1e-6 for r in small.rows[: small.first_deviation_index])
        h_big = build_hamiltonian(
            HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=100))
        )
        big = eigenvalues(h_big).values
        for n in range(50):
            shift = abs(small.rows[n].computed - big[n])
            np.testing.assert_allclose(small.rows[n].abs_dev, shift, atol=1e-9)

    def test_level_alignment_sanity_hermitian(self):
        # the Hermitian-limit H is the diagonal 1, 3, ..., 37 with the
        # truncation-edge entry N-1 = 19 last, so 19 is a double eigenvalue;
        # sorted-index alignment equals nearest-reference alignment below it
        report = isospectral_report(TransformParams(), BasisSpec(n_dim=20))
        assert all(r.abs_dev <= 1e-6 for r in report.rows[: report.first_deviation_index])
        values = np.array([r.computed.real for r in report.rows])
        exact = np.sort(np.append(2.0 * np.arange(19) + 1.0, 19.0))
        np.testing.assert_allclose(values, exact, rtol=1e-12, atol=0.0)
        assert np.all(np.array([r.computed.imag for r in report.rows]) == 0.0)
        eps = np.array([r.epsilon for r in report.rows])
        nearest = np.abs(values[:, None] - eps[None, :]).argmin(axis=1)
        interior = slice(0, 10)  # away from the shifted boundary tail
        np.testing.assert_array_equal(nearest[interior], np.arange(20)[interior])


class TestDuality:
    def test_table_configs_at_miniature_size(self, table1_params):
        basis = BasisSpec(n_dim=6, freq=4.0)
        assert duality_check(table1_params, basis) <= 1e-10

    def test_self_dual_is_exact(self):
        params = TransformParams(l_coef=0.5, r_coef=0.5, a_coef=1.5, b_coef=1.5)
        assert duality_check(params, BasisSpec(n_dim=12)) == 0.0

    def test_dual_params_swap(self, table1_params):
        d = dual_params(table1_params)
        assert (d.l_coef, d.r_coef, d.a_coef, d.b_coef) == (0.0, 3.0, 5.0, 1.0)

    def test_random_real_spectrum_draws(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            params = draw_real_spectrum_params(rng)
            w_v = np.sqrt(
                (params.b_coef**2 - params.l_coef**2 * params.a_coef**2)
                / (params.a_coef**2 - params.r_coef**2 * params.b_coef**2)
            )
            basis = BasisSpec(n_dim=40, freq=w_v)
            dist = duality_check(params, basis)
            assert dist <= 1e-6 * h_norm(params, basis)

    def test_transpose_similarity_mechanism(self, table1_params):
        # dual matrix equals D H^T D^-1 with D = diag(i^n): exact identity
        n = 12
        h = build_hamiltonian(
            HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n, freq=4.0))
        )
        h_dual = build_hamiltonian(
            HamiltonianSpec(params=dual_params(table1_params), basis=BasisSpec(n_dim=n, freq=0.25))
        )
        phases = 1j ** np.arange(n)
        candidate = phases[:, None] * h.T * (1.0 / phases)[None, :]
        np.testing.assert_allclose(candidate, h_dual, atol=1e-12)


class TestSweepFrequency:
    def test_table_params_around_variational_point(self, table1_params):
        result = sweep(table1_params, BasisSpec(n_dim=60), Axis.BASIS_FREQUENCY, [2.0, 4.0, 8.0])
        assert result.axis is Axis.BASIS_FREQUENCY
        assert [p.axis_value for p in result.points] == [2.0, 4.0, 8.0]
        assert not result.failures
        by_w = {p.axis_value: p for p in result.points}
        assert by_w[4.0].n_complex_pairs > 0
        for p in result.points:
            assert p.n_real + 2 * p.n_complex_pairs == 60

    def test_single_point_matches_report(self, table1_params):
        basis = BasisSpec(n_dim=40, freq=4.0)
        report = isospectral_report(table1_params, basis)
        result = sweep(table1_params, BasisSpec(n_dim=40), Axis.BASIS_FREQUENCY, [4.0])
        point = result.points[0]
        assert point.n_complex_pairs == report.n_complex_pairs
        assert point.first_deviation_index == report.first_deviation_index

    def test_hermitian_limit_no_pairs(self):
        result = sweep(
            TransformParams(), BasisSpec(n_dim=30), Axis.BASIS_FREQUENCY, [0.5, 1.0, 2.0]
        )
        assert all(p.n_complex_pairs == 0 for p in result.points)

    def test_rejects_nonpositive_frequency(self, table1_params):
        with pytest.raises(ValueError):
            sweep(table1_params, BasisSpec(n_dim=10), Axis.BASIS_FREQUENCY, [1.0, -2.0])

    def test_rejects_bad_value_before_any_solve(self, table1_params, monkeypatch):
        def no_solve(*args):
            pytest.fail("a point was solved before the invalid value was rejected")

        monkeypatch.setattr(nhosc.analysis, "isospectral_report", no_solve)
        with pytest.raises(ValueError, match="freq"):
            sweep(table1_params, BasisSpec(n_dim=10), Axis.BASIS_FREQUENCY, [1.0, float("inf")])

    def test_broken_regime_recorded_as_failure(self):
        result = sweep(
            TransformParams(l_coef=2.0), BasisSpec(n_dim=10), Axis.BASIS_FREQUENCY, [1.0]
        )
        assert not result.points
        assert len(result.failures) == 1
        assert result.failures[0][0] == 1.0


class TestSweepTruncation:
    def test_low_levels_iso_at_every_size(self, table1_params):
        result = sweep(
            table1_params, BasisSpec(n_dim=2, freq=4.0), Axis.TRUNCATION_SIZE, [50, 100, 200]
        )
        assert result.axis is Axis.TRUNCATION_SIZE
        assert not result.failures
        for p in result.points:
            assert p.first_deviation_index is None or p.first_deviation_index > 5

    def test_monotone_truncation_of_low_levels(self, table1_params):
        # converged levels stay converged as N doubles; the allowance
        # covers solver noise, which scales with the matrix norm
        devs = []
        for n_dim in (50, 100, 200):
            report = isospectral_report(table1_params, BasisSpec(n_dim=n_dim, freq=4.0))
            devs.append(max(r.abs_dev for r in report.rows[:6]))
        assert devs[1] <= devs[0] + 1e-8
        assert devs[2] <= devs[1] + 1e-8

    def test_minimal_truncation_runs(self):
        result = sweep(TransformParams(), BasisSpec(n_dim=2), Axis.TRUNCATION_SIZE, [2])
        assert len(result.points) == 1
        assert result.points[0].n_real + 2 * result.points[0].n_complex_pairs == 2

    def test_hermitian_first_deviation_grows(self):
        result = sweep(TransformParams(), BasisSpec(n_dim=2), Axis.TRUNCATION_SIZE, [50, 100])
        assert all(p.max_abs_dev_below_first_deviation <= 1e-6 for p in result.points)
        first = [p.first_deviation_index for p in result.points]
        assert first[0] is not None and first[1] is not None
        assert first[1] > first[0]

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            sweep(TransformParams(), BasisSpec(n_dim=2), Axis.TRUNCATION_SIZE, [1, 10])


class TestExactPairCounts:
    """float64 against exact root counting of the truncated H over the rationals
    (tests/oracles.py), which no floating-point eigensolver enters."""

    @pytest.mark.parametrize("couplings, freq, n_dim", [
        ((3.0, 0.0, 1.0, 5.0), 4.0, 7), ((0.5, -1.5, 2.0, 0.5), 0.75, 6), ((-1.0, 2.0, 1.5, -1.0), 3.0, 5),
    ])
    def test_block_polynomials_are_the_dense_characteristic_polynomial(self, couplings, freq, n_dim):
        even, odd = (np.array(p, dtype=float) / p[0] for p in oracles.exact_block_charpolys(*couplings, freq, n_dim))
        ref = np.poly(oracles.hamiltonian(n_dim, freq, *couplings).real)
        np.testing.assert_allclose(np.polymul(even, odd), ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("n_dim, pairs", [(40, 13), (60, 19)])
    def test_table_one_at_the_variational_frequency(self, table1_params, n_dim, pairs):
        assert oracles.exact_complex_pairs(3.0, 0.0, 1.0, 5.0, 4.0, n_dim) == pairs
        assert isospectral_report(table1_params, BasisSpec(n_dim=n_dim, freq=4.0)).n_complex_pairs == pairs

    @pytest.mark.parametrize("freq, pairs", [
        (2.01, 0), (2.1, 2), (2.5, 5), (3.0, 6), (4.0, 6), (6.0, 5), (7.5, 2), (7.9, 0), (7.99, 0),
    ])
    def test_table_one_across_the_window(self, table1_params, freq, pairs):
        # inside the reality window (2, 8) pairs are possible, not guaranteed: N = 20
        # is still real at 2.01, 7.9 and 7.99
        assert oracles.exact_complex_pairs(3.0, 0.0, 1.0, 5.0, freq, 20) == pairs
        assert isospectral_report(table1_params, BasisSpec(n_dim=20, freq=freq)).n_complex_pairs == pairs

    @given(
        data=st.data(),
        weights=st.tuples(st.integers(1, 10), st.integers(1, 10)),
        n_dim=st.integers(8, 40),
        sixteenths=st.integers(1, 128),
        near_w_v=st.booleans(),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_float64_agrees_with_exact_counts(self, data, weights, n_dim, sixteenths, near_w_v):
        # half-integer L, R, A, B and w in sixteenths, so the float inputs are the rationals.
        # |L| A < B and |R| B < A with 1 + LR > 0 give the real regime (a, b > 0);
        # near_w_v puts w within a factor 2 of w_v, the middle of the reality window
        a_coef, b_coef = (k / 2 for k in weights)
        halves = [k / 2 for k in range(-6, 7)]
        l_coef = data.draw(st.sampled_from([x for x in halves if abs(x) * a_coef < b_coef]))
        r_coef = data.draw(st.sampled_from([x for x in halves if abs(x) * b_coef < a_coef and 1.0 + l_coef * x > 0]))
        params = TransformParams(l_coef, r_coef, a_coef, b_coef)
        assert classify_regime(params).regime is Regime.REAL_SPECTRUM
        w_v = variational_frequency(params).w_v
        freq = max(1, round(16 * w_v * 2 ** (sixteenths / 64 - 1))) / 16 if near_w_v else sixteenths / 16
        report = isospectral_report(params, BasisSpec(n_dim=n_dim, freq=freq))
        roots = oracles.exact_real_eigenvalues(l_coef, r_coef, a_coef, b_coef, freq, n_dim)
        assert report.n_complex_pairs == (n_dim - len(roots)) // 2
        for row in report.rows:
            if row.remark is Remark.ISO:
                lo, hi = Fraction(row.epsilon) - Fraction(ISO_TOL), Fraction(row.epsilon) + Fraction(ISO_TOL)
                assert oracles.exact_count_in(roots, lo, hi) == 1, row
