import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhosc.analysis
import oracles

from nhosc import (
    BasisSpec,
    HamiltonianSpec,
    Regime,
    TransformParams,
    classify_regime,
    dual_params,
    duality_check,
    eigenvalues,
    isospectral_report,
    sweep,
    variational_frequency,
)
from nhosc.analysis import ISO_TOL
from nhosc.cli import main
from test_model import draw_real_spectrum_params


def h_norm(params, basis):
    return float(np.linalg.norm(HamiltonianSpec(params=params, basis=basis).bands.entries))


class TestIsospectralReport:
    def test_table_one_low_levels(self, table1_report):
        for n in range(6):
            row = table1_report.rows[n]
            assert row["iso"]
            np.testing.assert_allclose(row["computed"], (2 * n + 1) * 5.0, atol=1e-3)
            assert row["epsilon"] == (2 * n + 1) * 5.0

    def test_table_one_complex_pair_placement(self, table1_report):
        # the known complex pair sits at the levels whose references are 445/455
        row44, row45 = table1_report.rows[44], table1_report.rows[45]
        assert not row44["iso"] and not row45["iso"]
        assert abs(row44["computed"] - (395.53 - 59.95j)) <= 0.5
        assert abs(row45["computed"] - (395.53 + 59.95j)) <= 0.5
        assert row44["epsilon"] == 445.0 and row45["epsilon"] == 455.0

    def test_conjugate_symmetry_of_noiso_rows(self, table1_report):
        computed = table1_report.rows["computed"]
        values = computed[np.abs(computed.imag) > 1e-6].tolist()
        assert values, "expected complex rows in the full-size run"
        for v in values:
            partner = min(values, key=lambda u: abs(u - v.conjugate()))
            assert abs(partner - v.conjugate()) <= 1e-9 * max(1.0, abs(v))

    def test_rows_sorted_and_first_deviation(self, table1_report):
        # the level is the index: the values come sorted by (Re, Im)
        computed = table1_report.rows["computed"]
        np.testing.assert_array_equal(np.lexsort((computed.imag, computed.real)), np.arange(len(computed)))
        first = table1_report.first_deviation_index
        assert first is not None
        assert table1_report.rows["iso"][:first].all()
        assert not table1_report.rows["iso"][first]

    def test_real_window_first_deviation(self, table1_params):
        # w=16 lies in the real window (w > 8): no pairs, and the ladder holds
        # up to level 111 (the balanced solve printed 131 pairs and stopped at 36)
        report = isospectral_report(table1_params, BasisSpec(n_dim=400, freq=16.0))
        assert (report.spectrum.n_complex, report.first_deviation_index) == (0, 111)

    @pytest.mark.parametrize("w_cap", [1e150, 1e300])
    def test_level_within_rounding_of_a_huge_reference_is_iso(self, w_cap):
        # table1 --W 1e150 / 1e300 --N 10 (L = 0, B = W, w = W): H is diagonal, but LAPACK returns level 0
        # a fraction of an eps off (2n+1)|AB|, far past the absolute ISO_TOL; 4 eps of the level counts
        # it Iso, so the first deviation is the truncation's, level 5, as at W = 1
        report = isospectral_report(TransformParams(b_coef=w_cap), BasisSpec(n_dim=10, freq=w_cap))
        assert report.first_deviation_index == 5 and report.rows["iso"][:5].all()
        assert ISO_TOL < report.rows["abs_dev"][0] <= 4.0 * np.finfo(np.float64).eps * report.rows["epsilon"][0]
        assert isospectral_report(TransformParams(), BasisSpec(n_dim=10)).first_deviation_index == 5

    @pytest.mark.parametrize("a_coef, b_coef", [(1.0, 5.0), (-1.0, 5.0), (1.0, -5.0), (-1.0, -5.0)])
    def test_reference_is_abs_ab_for_every_sign(self, table1_params, a_coef, b_coef):
        # H reads A and B only as A^2 and B^2: a negative A*B used to mark every level NoIso
        basis = BasisSpec(n_dim=40, freq=4.0)
        report = isospectral_report(TransformParams(l_coef=3.0, a_coef=a_coef, b_coef=b_coef), basis)
        assert report.rows.tobytes() == isospectral_report(table1_params, basis).rows.tobytes()
        assert report.first_deviation_index == 11

    def test_rows_are_one_read_only_record_array(self, table1_report):
        rows = table1_report.rows
        assert rows.dtype.names == ("epsilon", "computed", "abs_dev", "iso") and len(rows) == 100
        assert rows["iso"].dtype == bool and rows["computed"].dtype == np.complex128
        with pytest.raises(ValueError):
            rows["iso"][0] = False
        with pytest.raises(ValueError):
            rows[0] = rows[1]
        assert table1_report.spectrum.n_real + 2 * table1_report.spectrum.n_complex == 100
        assert table1_report.spectrum.n_real == int(np.count_nonzero(rows["computed"].imag == 0.0))

    def test_keeps_the_spectrum_it_compared(self, table1_params, capsys):
        # the report carries its solve: rows' computed column is that solve's values, bit for bit,
        # and sweep-w prints the solve's counts at the same point
        report = isospectral_report(table1_params, BasisSpec(n_dim=40, freq=3.0))
        assert np.ascontiguousarray(report.rows["computed"]).tobytes() == report.spectrum.values.tobytes()
        counts = (report.spectrum.n_real, report.spectrum.n_complex, report.first_deviation_index)
        assert counts == (16, 12, 11)
        assert main(["sweep-w", "--L", "3", "--B", "5", "--values", "3", "--N", "40", "--format", "json"]) == 0
        (point,) = json.loads(capsys.readouterr().out)["points"]
        assert (point["n_real"], point["n_complex_pairs"], point["first_deviation_index"]) == counts

    def test_broken_regime_rejected(self):
        with pytest.raises(ValueError):
            isospectral_report(TransformParams(l_coef=2.0), BasisSpec(n_dim=10))

    @pytest.mark.parametrize("freq", [4.0, 16.0])  # w_v, with complex pairs; the real window
    def test_matches_per_level_loop(self, table1_params, freq):
        # abs_dev is Python's abs() of the complex deviation, bit for bit, and
        # every column and the first deviation match the per-level reference loop
        basis = BasisSpec(n_dim=200, freq=freq)
        report = isospectral_report(table1_params, basis)
        spec = eigenvalues(HamiltonianSpec(params=table1_params, basis=basis).bands.entries)
        is_real = spec.real
        ab = table1_params.a_coef * table1_params.b_coef
        columns, first_dev = {"epsilon": [], "computed": [], "abs_dev": [], "iso": []}, None
        for n, v in enumerate(spec.values):
            eps_n = (2 * n + 1) * ab
            dev = abs(complex(v) - eps_n)
            iso = dev <= max(ISO_TOL, 4.0 * np.finfo(np.float64).eps * eps_n) and is_real[n]
            if not iso and first_dev is None:
                first_dev = n
            for name, x in zip(columns, (eps_n, complex(v), dev, iso)):
                columns[name].append(x)
        assert all(d == abs(v - e) for e, v, d, _ in report.rows.tolist())
        assert report.rows.dtype.names == tuple(columns)
        for name, column in columns.items():
            assert report.rows[name].tobytes() == np.array(column, dtype=report.rows.dtype[name]).tobytes(), name
        assert report.first_deviation_index == first_dev
        assert any(columns["iso"]) and first_dev is not None

    def test_hermitian_truncated_run(self):
        # exactly diagonal Hamiltonian: every level except the defective
        # boundary value is exact, and that value lands mid-spectrum
        report = isospectral_report(TransformParams(), BasisSpec(n_dim=50))
        for n in range(25):
            assert report.rows[n]["iso"]
            assert report.rows[n]["abs_dev"] <= 1e-6
        assert report.first_deviation_index == 25
        assert report.spectrum.n_complex == 0

    def test_hermitian_deviation_against_doubled_basis(self):
        # doubled-N reference: the N=100 sorted values are the converged
        # levels, so the N=50 deviations equal the sorted-value shifts
        small = isospectral_report(TransformParams(), BasisSpec(n_dim=50))
        assert (small.rows["abs_dev"][: small.first_deviation_index] <= 1e-6).all()
        h_big = HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=100)).bands.entries
        big = eigenvalues(h_big).values
        for n in range(50):
            shift = abs(small.rows[n]["computed"] - big[n])
            np.testing.assert_allclose(small.rows[n]["abs_dev"], shift, atol=1e-9)

    def test_level_alignment_sanity_hermitian(self):
        # the Hermitian-limit H is the diagonal 1, 3, ..., 37 with the
        # truncation-edge entry N-1 = 19 last, so 19 is a double eigenvalue;
        # sorted-index alignment equals nearest-reference alignment below it
        report = isospectral_report(TransformParams(), BasisSpec(n_dim=20))
        assert (report.rows["abs_dev"][: report.first_deviation_index] <= 1e-6).all()
        values = report.rows["computed"].real
        exact = np.sort(np.append(2.0 * np.arange(19) + 1.0, 19.0))
        np.testing.assert_allclose(values, exact, rtol=1e-12, atol=0.0)
        assert np.all(report.rows["computed"].imag == 0.0)
        eps = report.rows["epsilon"]
        nearest = np.abs(values[:, None] - eps[None, :]).argmin(axis=1)
        interior = slice(0, 10)  # away from the shifted boundary tail
        np.testing.assert_array_equal(nearest[interior], np.arange(20)[interior])


class TestDuality:
    def test_table_configs_at_miniature_size(self, table1_params):
        basis = BasisSpec(n_dim=6, freq=4.0)
        assert duality_check(table1_params, basis) <= 1e-10

    def test_self_dual_compares_h_with_its_own_transpose(self):
        # the dual is H itself, so the distance is exactly H's own band asymmetry |upper + lower|,
        # which is 0 at w = 1, where the basis factors 1/sqrt(2w) and sqrt(w/2) are one float
        params = TransformParams(l_coef=0.5, r_coef=0.5, a_coef=1.5, b_coef=1.5)
        assert dual_params(params) == params
        h = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=12)).bands
        assert np.abs(h.upper + h.lower).max() == 0.0 < np.abs(h.upper).max()
        assert duality_check(params, BasisSpec(n_dim=12)) == 0.0

    @pytest.mark.parametrize("n_dim", [20, 151, 400])
    def test_table_two_is_table_one_bit_for_bit(self, table1_params, n_dim):
        # at W = 4 the dual basis frequency 1/4 is exact, and the bands of H and its dual are
        # each other's transposes exactly, so the table 2 solve reads table 1's rows
        basis, dual_basis = BasisSpec(n_dim=n_dim, freq=4.0), BasisSpec(n_dim=n_dim, freq=0.25)
        assert duality_check(table1_params, basis) == 0.0
        rows = isospectral_report(table1_params, basis).rows
        assert isospectral_report(dual_params(table1_params), dual_basis).rows.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("n_dim", [150, 400, 2000])
    def test_table_one_band_distance_is_rounding(self, table1_params, n_dim):
        # the bands hold the transpose identity to rounding at every N, where the spectra are noise
        basis = BasisSpec(n_dim=n_dim, freq=4.0)
        assert duality_check(table1_params, basis) <= 1e-15 * HamiltonianSpec(table1_params, basis).bands.norm

    def test_float32_frequency_has_a_float64_dual(self, table1_params):
        # BasisSpec stores freq as a Python float: a float32 1/w for the dual
        # basis would read a distance of 2.0e-6 here, not 6.5e-13
        basis = BasisSpec(n_dim=20, freq=np.float32(3.0))
        assert duality_check(table1_params, basis) == duality_check(table1_params, BasisSpec(n_dim=20, freq=3.0))

    def test_overflowing_dual_frequency_is_named(self):
        # H is finite at w = 1e-320, but the dual's basis frequency 1/w is past float64
        with pytest.raises(ValueError, match=r"^the dual's basis frequency 1/w overflows float64 \(w = 1e-320\)$"):
            duality_check(TransformParams(b_coef=1e-150), BasisSpec(n_dim=3, freq=1e-320))

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
            h = HamiltonianSpec(params=params, basis=basis).bands
            dual_basis = BasisSpec(n_dim=40, freq=1.0 / basis.freq)
            dual = HamiltonianSpec(params=dual_params(params), basis=dual_basis).bands
            # LAPACK on H against its transpose dual: the spectra agree to the solver's noise
            dist = np.abs(eigenvalues(h).values - eigenvalues(dual).values).max()
            assert dist <= 1e-6 * h_norm(params, basis)
            # and the bands hold the transpose identity to the rounding of the two builds
            max_entry = max(np.abs(band).max() for band in h)
            assert duality_check(params, basis) <= 32 * np.finfo(float).eps * max_entry

    def test_transpose_similarity_mechanism(self, table1_params):
        # dual matrix equals D H^T D^-1 with D = diag(i^n): exact identity
        n = 12
        h = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n, freq=4.0)).bands.entries
        h_dual = HamiltonianSpec(
            params=dual_params(table1_params), basis=BasisSpec(n_dim=n, freq=0.25)
        ).bands.entries
        phases = 1j ** np.arange(n)
        candidate = phases[:, None] * h.T * (1.0 / phases)[None, :]
        np.testing.assert_allclose(candidate, h_dual, atol=1e-12)


def grid(basis, field, values):
    """basis with its field set to each value, as the sweep-w and sweep-n commands build it."""
    return [replace(basis, **{field: v}) for v in values]


class TestSweepContract:
    def test_each_point_is_the_report_at_its_basis(self, table1_params):
        bases = grid(BasisSpec(n_dim=40), "freq", [8.0, 2.5, 4.0])
        result = sweep(table1_params, bases)
        assert [basis for basis, _ in result.points] == bases  # the given order, not sorted
        for basis, report in result.points:
            direct = isospectral_report(table1_params, basis)
            assert np.array_equal(report.rows, direct.rows)
            assert report.first_deviation_index == direct.first_deviation_index
            got, want = report.spectrum, direct.spectrum
            assert (got.n_real, got.n_complex) == (want.n_real, want.n_complex)

    def test_keeps_the_given_order_across_fields(self, table1_params):
        bases = [BasisSpec(n_dim=30, freq=4.0), BasisSpec(n_dim=10, freq=2.5), BasisSpec(n_dim=20, freq=7.0)]
        assert [basis for basis, _ in sweep(table1_params, bases).points] == bases

    def test_failure_carries_its_basis(self, table1_params):
        broken = TransformParams(l_coef=2.0)
        bases = grid(BasisSpec(n_dim=12), "freq", [3.0, 1.0])
        result = sweep(broken, bases)
        assert not result.points
        assert result.failures == [(basis, "isospectral report undefined in the broken regime") for basis in bases]


class TestSweepFrequency:
    def test_table_params_around_variational_point(self, table1_params):
        result = sweep(table1_params, grid(BasisSpec(n_dim=60), "freq", [2.0, 4.0, 8.0]))
        assert [basis.freq for basis, _ in result.points] == [2.0, 4.0, 8.0]
        assert not result.failures
        by_w = {basis.freq: report for basis, report in result.points}
        assert by_w[4.0].spectrum.n_complex > 0
        for _, report in result.points:
            assert report.spectrum.n_real + 2 * report.spectrum.n_complex == 60

    def test_single_point_matches_report(self, table1_params):
        basis = BasisSpec(n_dim=40, freq=4.0)
        report = isospectral_report(table1_params, basis)
        result = sweep(table1_params, grid(BasisSpec(n_dim=40), "freq", [4.0]))
        point_basis, point = result.points[0]
        assert point_basis == basis
        assert point.spectrum.n_complex == report.spectrum.n_complex
        assert point.first_deviation_index == report.first_deviation_index

    def test_hermitian_limit_no_pairs(self):
        result = sweep(TransformParams(), grid(BasisSpec(n_dim=30), "freq", [0.5, 1.0, 2.0]))
        assert all(report.spectrum.n_complex == 0 for _, report in result.points)

    def test_rejects_nonpositive_frequency(self, table1_params):
        with pytest.raises(ValueError):
            sweep(table1_params, grid(BasisSpec(n_dim=10), "freq", [1.0, -2.0]))

    def test_rejects_bad_value_before_any_solve(self, table1_params, monkeypatch):
        def no_solve(*args):
            pytest.fail("a point was solved before the invalid value was rejected")

        monkeypatch.setattr(nhosc.analysis, "isospectral_report", no_solve)
        with pytest.raises(ValueError, match="freq"):
            sweep(table1_params, grid(BasisSpec(n_dim=10), "freq", [1.0, float("inf")]))

    def test_broken_regime_recorded_as_failure(self):
        result = sweep(TransformParams(l_coef=2.0), grid(BasisSpec(n_dim=10), "freq", [1.0]))
        assert not result.points
        assert len(result.failures) == 1
        assert result.failures[0][0].freq == 1.0


class TestSweepTruncation:
    def test_low_levels_iso_at_every_size(self, table1_params):
        result = sweep(table1_params, grid(BasisSpec(n_dim=2, freq=4.0), "n_dim", [50, 100, 200]))
        assert not result.failures
        for _, report in result.points:
            assert report.first_deviation_index is None or report.first_deviation_index > 5

    def test_monotone_truncation_of_low_levels(self, table1_params):
        # converged levels stay converged as N doubles; the allowance
        # covers solver noise, which scales with the matrix norm
        devs = []
        for n_dim in (50, 100, 200):
            report = isospectral_report(table1_params, BasisSpec(n_dim=n_dim, freq=4.0))
            devs.append(report.rows["abs_dev"][:6].max())
        assert devs[1] <= devs[0] + 1e-8
        assert devs[2] <= devs[1] + 1e-8

    def test_minimal_truncation_runs(self):
        result = sweep(TransformParams(), grid(BasisSpec(n_dim=2), "n_dim", [2]))
        assert len(result.points) == 1
        report = result.points[0][1]
        assert report.spectrum.n_real + 2 * report.spectrum.n_complex == 2

    def test_hermitian_first_deviation_grows(self):
        result = sweep(TransformParams(), grid(BasisSpec(n_dim=2), "n_dim", [50, 100]))
        for _, report in result.points:
            cutoff = report.first_deviation_index
            assert report.rows["abs_dev"][:cutoff].max(initial=0.0) <= 1e-6
        first = [report.first_deviation_index for _, report in result.points]
        assert first[0] is not None and first[1] is not None
        assert first[1] > first[0]

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            sweep(TransformParams(), grid(BasisSpec(n_dim=2), "n_dim", [1, 10]))


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
        assert isospectral_report(table1_params, BasisSpec(n_dim=n_dim, freq=4.0)).spectrum.n_complex == pairs

    @pytest.mark.parametrize("freq, pairs", [
        (2.01, 0), (2.1, 2), (2.5, 5), (3.0, 6), (4.0, 6), (6.0, 5), (7.5, 2), (7.9, 0), (7.99, 0),
    ])
    def test_table_one_across_the_window(self, table1_params, freq, pairs):
        # inside the reality window (2, 8) pairs are possible, not guaranteed: N = 20
        # is still real at 2.01, 7.9 and 7.99
        assert oracles.exact_complex_pairs(3.0, 0.0, 1.0, 5.0, freq, 20) == pairs
        assert isospectral_report(table1_params, BasisSpec(n_dim=20, freq=freq)).spectrum.n_complex == pairs

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
        w_v = variational_frequency(params)
        freq = max(1, round(16 * w_v * 2 ** (sixteenths / 64 - 1))) / 16 if near_w_v else sixteenths / 16
        self.check_against_exact(l_coef, r_coef, a_coef, b_coef, freq, n_dim)

    @pytest.mark.parametrize("couplings, freq, n_dim, first, first_unaligned", [
        ((0.0, 0.0, 1.0, 3.0), 3.1875, 24, 11, 17),  # Hermitian; a truncation-edge root at 68.85
        ((0.5, 0.0, 2.0, 5.0), 2.9375, 32, 16, 23),  # in the window (2, 3); an edge root at 311.4
    ])
    def test_recorded_draws(self, couplings, freq, n_dim, first, first_unaligned):
        # a real root off the ladder sorts between two levels, so every level above it meets
        # the value of the level below: the report deviates there, while each level still has
        # exactly one root within ISO_TOL up to first_unaligned
        report = self.check_against_exact(*couplings, freq, n_dim)
        assert report.first_deviation_index == first
        roots = oracles.exact_real_eigenvalues(*couplings, freq, n_dim)
        counts = [oracles.exact_count_in(roots, *self.window(e)) for e in report.rows["epsilon"].tolist()]
        assert next(n for n, c in enumerate(counts) if c != 1) == first_unaligned

    def test_double_root_at_the_window_edge(self):
        # at w = w+ = 4 (L = 1, A = 1, B = 3) the N = 10 spectrum is the ladder plus the edge
        # value (N-1)|AB| = 27 = eps_4: level 4 holds a double root and is Iso, and the
        # sorted values first miss the ladder at level 5
        report = self.check_against_exact(1.0, 0.0, 1.0, 3.0, 4.0, 10)
        roots = oracles.exact_real_eigenvalues(1.0, 0.0, 1.0, 3.0, 4.0, 10)
        assert oracles.exact_count_in(roots, *self.window(27.0)) == 2
        assert report.rows["iso"][4] and report.first_deviation_index == 5

    @staticmethod
    def window(epsilon: float) -> tuple[Fraction, Fraction]:
        return Fraction(epsilon) - Fraction(ISO_TOL), Fraction(epsilon) + Fraction(ISO_TOL)

    def check_against_exact(self, l_coef, r_coef, a_coef, b_coef, freq, n_dim):
        """The pair count, each Iso level and the first deviation against the exact oracles; returns the report."""
        report = isospectral_report(TransformParams(l_coef, r_coef, a_coef, b_coef), BasisSpec(n_dim=n_dim, freq=freq))
        roots = oracles.exact_real_eigenvalues(l_coef, r_coef, a_coef, b_coef, freq, n_dim)
        assert report.spectrum.n_complex == (n_dim - len(roots)) // 2
        # at a window edge the edge value (N-1)|AB| doubles level (N-2)/2 of an even N
        edge = Fraction(freq) in oracles.exact_reality_window(l_coef, r_coef, a_coef, b_coef)
        doubled = (n_dim - 2) // 2 if edge and n_dim % 2 == 0 else None
        for n in np.flatnonzero(report.rows["iso"]):
            expected = 2 if n == doubled else 1
            assert oracles.exact_count_in(roots, *self.window(report.rows["epsilon"][n])) == expected, report.rows[n]
        exact_first = oracles.exact_first_deviation(l_coef, r_coef, a_coef, b_coef, freq, n_dim, ISO_TOL)
        assert report.first_deviation_index == exact_first
        return report
