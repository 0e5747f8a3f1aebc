import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from nhosc import (
    BasisSpec,
    HamiltonianSpec,
    Regime,
    TransformParams,
    analytic_level,
    build_hamiltonian,
    classify_regime,
    diagonal_expectation,
    eigenvalues,
    position_matrix,
    transformed_momentum,
    transformed_position,
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
    x = position_matrix(basis).entries.real
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
        "params, message",
        [
            (TransformParams(a_coef=1e200), r"A\^2 overflows"),
            (TransformParams(b_coef=-1e155), r"B\^2 overflows"),
            (TransformParams(a_coef=1e-170), r"A\^2 underflows"),
            (TransformParams(b_coef=1e-155), r"B\^2 underflows"),  # B^2 is subnormal
        ],
    )
    def test_coefficient_square_out_of_normal_range_is_rejected(self, params, message):
        # A^2 and B^2 are formed before they meet the basis factors: an
        # underflowed square would drop its term from H, an overflowed one
        # would reach H as inf or nan
        with pytest.raises(ValueError, match=message):
            build_hamiltonian(HamiltonianSpec(params=params, basis=BasisSpec(n_dim=6)))

    def test_coefficient_square_in_normal_range_is_kept(self):
        # B^2 = 1e-300 is normal: at w = B/A the +-2 bands cancel to rounding
        # and H is the diagonal (2n+1)AB, with the edge entry (N-1)AB
        params = TransformParams(b_coef=1e-150)
        h = build_hamiltonian(HamiltonianSpec(params=params, basis=BasisSpec(n_dim=6, freq=1e-150)))
        np.testing.assert_allclose(np.diag(h), 1e-150 * np.array([1, 3, 5, 7, 9, 5]), rtol=1e-14)
        assert np.abs(h - np.diag(np.diag(h))).max() <= 1e-14 * 1e-150
        zero_b = TransformParams(b_coef=0.0)
        assert np.abs(build_hamiltonian(HamiltonianSpec(params=zero_b, basis=BasisSpec(n_dim=6)))).max() > 0

    def test_norm_c_field(self):
        np.testing.assert_allclose(TransformParams(l_coef=3.0, r_coef=4.0).norm_c, 1.0 / 13.0)

    def test_matches_dense_complex_product(self):
        # reference: C (A^2 y@y + B^2 z@z) from the complex shear matrices.
        # |1+LR| >= 0.3 keeps away from the singular normalisation, where the
        # two squares cancel and both builds lose ~1/|1+LR| of their accuracy.
        rng = np.random.default_rng(2)
        draws = 0
        while draws < 25:
            l_coef, r_coef = rng.uniform(-2.0, 2.0, size=2)
            if abs(1.0 + l_coef * r_coef) < 0.3:
                continue
            draws += 1
            params = TransformParams(l_coef, r_coef, *rng.uniform(0.2, 3.0, size=2))
            basis = BasisSpec(
                n_dim=int(rng.integers(2, 401)),
                freq=float(np.exp(rng.uniform(np.log(0.25), np.log(4.0)))),
            )
            y = transformed_momentum(basis, params).entries
            z = transformed_position(basis, params).entries
            ref = params.norm_c * (params.a_coef**2 * (y @ y) + params.b_coef**2 * (z @ z))
            assert np.all(ref.imag == 0.0)
            h = build_hamiltonian(HamiltonianSpec(params=params, basis=basis))
            assert np.abs(h - ref.real).max() <= 4 * EPS * np.linalg.norm(h)


class TestDiagonalExpectation:
    def test_equals_built_diagonal(self):
        # every level, the truncation edge N-1 included
        rng = np.random.default_rng(4)
        for _ in range(10):
            l_coef, r_coef = rng.uniform(-0.5, 0.5, size=2)
            params = TransformParams(l_coef, r_coef, *rng.uniform(0.5, 2.0, size=2))
            w = rng.uniform(0.3, 4.0)
            spec = HamiltonianSpec(params=params, basis=BasisSpec(n_dim=30))
            h = build_hamiltonian(HamiltonianSpec(params=params, basis=BasisSpec(n_dim=30, freq=w)))
            levels = [diagonal_expectation(spec, n, w) for n in range(30)]
            np.testing.assert_array_equal(levels, np.diagonal(h))

    def test_large_basis_needs_no_dense_matrix(self, table1_params):
        # a dense H at this N would need 80 GB
        n_dim = 100_000
        spec = HamiltonianSpec(params=table1_params, basis=BasisSpec(n_dim=n_dim))
        np.testing.assert_allclose(diagonal_expectation(spec, 7, 4.0), 4.0 * 15, rtol=1e-13)
        # truncation edge: (N-1) in place of 2n+1
        edge = diagonal_expectation(spec, n_dim - 1, 4.0)
        np.testing.assert_allclose(edge, 4.0 * (n_dim - 1), rtol=1e-13)

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
        with pytest.raises(IndexError):
            diagonal_expectation(spec, 5, 1.0)

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
        w_v = variational_frequency(table1_params).w_v
        np.testing.assert_allclose(minimizers, w_v, atol=1e-6)
        assert max(minimizers) - min(minimizers) <= 1e-6


class TestVariationalFrequency:
    def test_table_one(self):
        res = variational_frequency(TransformParams(l_coef=3.0, r_coef=0.0, a_coef=1.0, b_coef=5.0))
        assert res.w_v == 4.0
        assert res.numerator == 16.0 and res.denominator == 1.0

    def test_table_two(self):
        res = variational_frequency(TransformParams(l_coef=0.0, r_coef=3.0, a_coef=5.0, b_coef=1.0))
        assert res.w_v == 0.25

    def test_untransformed(self):
        assert variational_frequency(TransformParams()).w_v == 1.0

    def test_undefined_cases(self):
        # negative ratio
        assert variational_frequency(TransformParams(l_coef=2.0)).w_v is None
        # zero denominator
        res = variational_frequency(TransformParams(r_coef=1.0))
        assert res.w_v is None and res.denominator == 0.0
        # float64 overflow of A^2: no ratio, and no OverflowError
        assert variational_frequency(TransformParams(a_coef=1e200)).w_v is None

    def test_matches_regime_expansion(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            params = draw_real_spectrum_params(rng)
            report = classify_regime(params)
            w_v = variational_frequency(params).w_v
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
    def test_table_values(self, table1_params):
        assert analytic_level(table1_params, 0) == 5.0
        assert analytic_level(table1_params, 44) == 445.0
        assert analytic_level(TransformParams(), 2) == 5.0

    def test_rejects_broken_regime(self):
        with pytest.raises(ValueError):
            analytic_level(TransformParams(l_coef=2.0), 0)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            analytic_level(TransformParams(), -1)

    def test_validated_against_hermitian_equivalent(self):
        # reference formula vs diagonalizing the similarity-equivalent matrix
        rng = np.random.default_rng(17)
        for _ in range(10):
            params = draw_real_spectrum_params(rng)
            h_eq = hermitian_equivalent(params, n_dim=40)
            ev = np.sort(np.linalg.eigvalsh(h_eq))
            for n in range(11):
                np.testing.assert_allclose(ev[n], analytic_level(params, n), atol=1e-8)


class TestHermitianLimitSpectrum:
    def test_lowest_half_matches_reference(self):
        # L=R=0 at w = w_v = B/A: computed levels agree with (2n+1)AB
        params = TransformParams(a_coef=1.5, b_coef=0.75)
        n_dim = 30
        basis = BasisSpec(n_dim=n_dim, freq=variational_frequency(params).w_v)
        h = build_hamiltonian(HamiltonianSpec(params=params, basis=basis))
        np.testing.assert_array_equal(h, h.T)
        ev = np.sort(eigenvalues(h).values.real)
        levels = np.arange(n_dim // 2)
        np.testing.assert_allclose(
            ev[: n_dim // 2], (2 * levels + 1) * params.a_coef * params.b_coef, atol=1e-8
        )
