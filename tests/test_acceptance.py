"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one pass/fail
line per criterion.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from nhosc import (
    BasisSpec,
    HamiltonianSpec,
    TransformParams,
    classify_regime,
    diagonal_expectation,
    eigenvalues,
    normalized_commutator_check,
    variational_frequency,
)
from nhosc.cli import parse_config, run
from test_model import draw_real_spectrum_params, hermitian_equivalent


@contextmanager
def criterion(label):
    """Print the one-line verdict for a criterion, pass or fail."""
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


def _export_json(tokens, path):
    run(parse_config(tokens + ["--format", "json", "--out", str(path)]))
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def w4l3(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "w4l3.json"
    return _export_json(["table1", "--W", "4", "--L", "3", "--count", "100"], path)


@pytest.fixture(scope="module")
def w3l4(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "w3l4.json"
    return _export_json(["table1", "--W", "3", "--L", "4", "--count", "100"], path)


@pytest.fixture(scope="module")
def table2_w4r3(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "t2w4r3.json"
    return _export_json(["table2", "--W", "4", "--R", "3", "--count", "100"], path)


def _find_pair(rows, re_ref, im_ref, tol):
    """Locate a conjugate pair within tol on both components; returns its rows."""
    for k, row in enumerate(rows[:-1]):
        if abs(row["re"] - re_ref) <= tol and abs(row["im"] + im_ref) <= tol:
            partner = rows[k + 1]
            assert partner["re"] == row["re"], "pair rows must share the real part"
            assert partner["im"] == -row["im"], "pair rows must be exact conjugates"
            return row, partner
    raise AssertionError(f"pair {re_ref}+-{im_ref}i not found within {tol}")


def test_criterion_1_table_one_low_levels(w4l3, w3l4):
    with criterion("criterion 1 (table1 low levels)"):
        for payload in (w4l3, w3l4):
            for n in range(6):
                row = payload["rows"][n]
                assert abs(row["im"]) <= 1e-6
                assert abs(row["re"] - (2 * n + 1) * 5.0) <= 1e-6
                assert row["remark"] == "Iso"


def test_criterion_2_table_one_complex_pairs(w4l3, w3l4):
    with criterion("criterion 2 (table1 complex pairs)"):
        # W=4, L=3: the expected pairs sit exactly at the levels whose
        # references are 445..495
        expected = [(395.53, 59.95), (398.30, 50.18), (412.52, 82.47)]
        rows = w4l3["rows"]
        for k, (re_ref, im_ref) in enumerate(expected):
            lo = rows[44 + 2 * k]
            hi = rows[45 + 2 * k]
            assert lo["epsilon_n"] == 445.0 + 10 * (2 * k)
            assert hi["epsilon_n"] == 455.0 + 10 * (2 * k)
            assert abs(lo["re"] - re_ref) <= 0.5 and abs(lo["im"] + im_ref) <= 0.5
            assert hi["re"] == lo["re"] and hi["im"] == -lo["im"]
        summary = w4l3["summary"]
        assert summary["n_real"] + 2 * summary["n_complex_pairs"] == 100
        # W=3, L=4: the expected pairs are present (the modulus-sorted
        # listing interleaves them differently, so containment is checked)
        for re_ref, im_ref in [(281.71, 137.20), (280.41, 144.83), (295.72, 163.26)]:
            _find_pair(w3l4["rows"], re_ref, im_ref, tol=0.5)


def test_criterion_3_table_two_duality(w4l3, table2_w4r3):
    with criterion("criterion 3 (table2 duality)"):
        eps_a = [r["epsilon_n"] for r in w4l3["rows"]]
        eps_b = [r["epsilon_n"] for r in table2_w4r3["rows"]]
        assert eps_a == eps_b
        vals_a = np.array([r["re"] + 1j * r["im"] for r in w4l3["rows"]])
        vals_b = np.array([r["re"] + 1j * r["im"] for r in table2_w4r3["rows"]])
        h = HamiltonianSpec(
            params=TransformParams(l_coef=3.0, r_coef=0.0, a_coef=1.0, b_coef=5.0),
            basis=BasisSpec(n_dim=100, freq=4.0),
        ).bands.entries
        norm = np.linalg.norm(h)
        assert np.abs(vals_a - vals_b).max() <= 1e-6 * norm


def test_criterion_4_variational_formula():
    with criterion("criterion 4 (variational formula)"):
        assert variational_frequency(
            TransformParams(l_coef=3.0, r_coef=0.0, a_coef=1.0, b_coef=5.0)
        ) == 4.0
        assert variational_frequency(
            TransformParams(l_coef=0.0, r_coef=3.0, a_coef=5.0, b_coef=1.0)
        ) == 0.25
        spec = HamiltonianSpec(
            params=TransformParams(l_coef=3.0, r_coef=0.0, a_coef=1.0, b_coef=5.0),
            basis=BasisSpec(n_dim=100, freq=4.0),
        )
        minimizers = []
        for n in (0, 3, 10):
            res = minimize_scalar(
                lambda w: diagonal_expectation(spec, n, w),
                bracket=(1.0, 3.0, 16.0),
                method="golden",
                options={"xtol": 1e-10},
            )
            minimizers.append(res.x)
            assert abs(res.x - 4.0) <= 1e-6
        assert max(minimizers) - min(minimizers) <= 1e-6


def test_criterion_5_commutator_invariance():
    with criterion("criterion 5 (commutator invariance)"):
        for l_coef, r_coef in [(3.0, 4.0), (0.0, 0.0), (3.0, 0.0), (0.0, 3.0)]:
            defect = normalized_commutator_check(
                BasisSpec(n_dim=100), TransformParams(l_coef=l_coef, r_coef=r_coef)
            )
            assert defect.max_diag_deviation <= 1e-12
            assert defect.max_offdiag <= 1e-12
            assert abs(defect.last_diag_entry - (1 - 100)) <= 1e-10


def test_criterion_6_analytic_oracle_validation():
    with criterion("criterion 6 (analytic-oracle validation)"):
        rng = np.random.default_rng(60)
        for _ in range(20):
            params = draw_real_spectrum_params(rng)
            report = classify_regime(params)
            ab_sq = (params.a_coef * params.b_coef) ** 2
            assert abs(report.ab_plus_csq - ab_sq) <= 1e-12
            ev = np.sort(np.linalg.eigvalsh(hermitian_equivalent(params, n_dim=60)))
            for n in range(11):
                ref = (2 * n + 1) * params.a_coef * params.b_coef
                assert abs(ev[n] - ref) <= 1e-6


def test_criterion_7_eigensolver_property_suite():
    from test_eig import char_poly_coeffs, multiset_distance

    with criterion("criterion 7 (eigensolver property suite)"):
        rng = np.random.default_rng(70)
        for i in range(100):
            m = rng.standard_normal((10, 10))
            vals = eigenvalues(m).values
            trace = np.trace(m)
            det = np.linalg.det(m)
            assert abs(vals.sum() - trace) <= 1e-9 * max(1.0, abs(trace))
            assert abs(np.prod(vals) - det) <= 1e-8 * max(1.0, abs(det))
            eigenvalues(m).n_complex  # conjugate-pair closure
            if i < 25:
                sorted_m = np.sort_complex(vals)
                assert np.abs(
                    sorted_m - np.sort_complex(eigenvalues(m.T).values)
                ).max() <= 1e-8
                q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
                assert np.abs(
                    sorted_m - np.sort_complex(eigenvalues(q @ m @ q.T).values)
                ).max() <= 1e-8
        for n in range(2, 6):
            for _ in range(5):
                m = rng.standard_normal((n, n))
                roots = np.roots(char_poly_coeffs(m))
                assert multiset_distance(eigenvalues(m).values, roots) <= 1e-6


def test_criterion_8_hermitian_limit_regression():
    with criterion("criterion 8 (Hermitian-limit regression)"):
        h = HamiltonianSpec(params=TransformParams(), basis=BasisSpec(n_dim=50)).bands.entries
        spec = eigenvalues(h)
        assert spec.n_complex == 0
        ev = np.sort(spec.values.real)
        for n in range(25):
            assert abs(ev[n] - (2 * n + 1)) <= 1e-8


def test_criterion_9_determinism(tmp_path):
    with criterion("criterion 9 (determinism)"):
        tokens = ["table1", "--W", "4", "--L", "3", "--format", "json"]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        run(parse_config(tokens + ["--out", str(out_a)]))
        run(parse_config(tokens + ["--out", str(out_b)]))
        assert out_a.read_bytes() == out_b.read_bytes()
