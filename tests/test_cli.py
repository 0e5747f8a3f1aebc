import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nhosc import (
    EigensolverError,
    HamiltonianSpec,
    TransformParams,
    build_hamiltonian,
    dual_params,
    eigenvalues,
)
from nhosc.cli import (
    MAX_N,
    Command,
    ConfigError,
    Format,
    _fmt2,
    _fmt_param,
    main,
    parse_config,
    run,
)
from nhosc.eig import _frobenius_norm


_COMMANDS = ["commutator-check", "spectrum", "table1", "table2", "sweep-w", "sweep-n", "duality"]
_SMALL_RUNS = {
    "commutator-check": "--N 8 --L 1.5 --R 0.5",
    "spectrum": "--N 12 --L 3 --B 5 --w auto",
    "table1": "--W 4 --L 3 --N 20",
    "table2": "--W 4 --R 3 --N 20",
    "sweep-w": "--L 3 --B 5 --N 12 --values 2,4",
    "sweep-n": "--L 3 --B 5 --w 4 --values 12,8",
    "duality": "--W 4 --L 3 --N 12",
}


class TestParseConfig:
    def test_table_one_derivation(self):
        config = parse_config(["table1", "--W", "4", "--L", "3"])
        assert config.command is Command.TABLE_ONE
        assert config.params.a_coef == 1.0 and config.params.r_coef == 0.0
        assert config.params.b_coef == 5.0
        assert config.basis.freq == 4.0
        assert config.basis.n_dim == 100
        assert config.print_count == 50

    def test_table_two_derivation(self):
        config = parse_config(["table2", "--W", "3", "--R", "4"])
        assert config.params.b_coef == 1.0 and config.params.l_coef == 0.0
        assert config.params.a_coef == 5.0
        np.testing.assert_allclose(config.basis.freq, 1.0 / 3.0)

    def test_spectrum_explicit(self):
        config = parse_config(
            ["spectrum", "--L", "0", "--R", "0", "--A", "1", "--B", "1", "--w", "1", "--N", "50"]
        )
        assert config.command is Command.SPECTRUM
        assert config.basis.n_dim == 50
        assert config.print_count == 50
        assert config.basis.freq == 1.0

    def test_auto_frequency(self):
        config = parse_config(["spectrum", "--L", "3", "--B", "5", "--w", "auto"])
        assert config.basis.freq == 4.0

    def test_auto_frequency_undefined(self):
        with pytest.raises(ConfigError):
            parse_config(["spectrum", "--L", "2", "--w", "auto"])

    def test_contradictory_table_flags(self):
        with pytest.raises(ConfigError):
            parse_config(["table1", "--W", "4", "--B", "5"])
        with pytest.raises(ConfigError):
            parse_config(["table1", "--W", "4", "--R", "1"])
        with pytest.raises(ConfigError):
            parse_config(["table2", "--W", "4", "--A", "2"])

    def test_table_requires_w(self):
        with pytest.raises(ConfigError):
            parse_config(["table1", "--L", "3"])

    def test_unknown_flag(self):
        with pytest.raises(ConfigError):
            parse_config(["spectrum", "--nope", "1"])

    def test_count_validation(self):
        with pytest.raises(ConfigError):
            parse_config(["spectrum", "--N", "20", "--count", "30"])
        config = parse_config(["spectrum", "--N", "20"])
        assert config.print_count == 20

    def test_deterministic_resolution(self):
        tokens = ["table1", "--W", "4", "--L", "3", "--count", "12"]
        assert parse_config(tokens) == parse_config(tokens)

    def test_sweep_values(self):
        config = parse_config(["sweep-w", "--L", "3", "--B", "5", "--values", "2,4,8"])
        assert config.sweep_values == (2.0, 4.0, 8.0)
        with pytest.raises(ConfigError):
            parse_config(["sweep-n", "--values", "1,10"])

    @pytest.mark.parametrize("command", ["sweep-w", "sweep-n"])
    @pytest.mark.parametrize("values", ["4,nan", "inf", "2,-inf"])
    def test_non_finite_sweep_values(self, command, values):
        with pytest.raises(ConfigError, match="finite"):
            parse_config([command, "--values", values])

    # --s of any value is an unknown flag (test_scale_flag_is_unrecognized)
    @pytest.mark.parametrize("flag", ["w"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_frequency_and_scale(self, flag, value):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(["spectrum", f"--{flag}={value}"])

    @given(
        w_cap=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        coef=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_table_two_is_table_one_dual(self, w_cap, coef):
        assume(math.isfinite(math.hypot(w_cap, coef)))
        one = parse_config(["table1", f"--W={w_cap!r}", f"--L={coef!r}"])
        if 1.0 / w_cap == math.inf:
            # table 2's basis frequency 1/W overflows: an error naming --W
            with pytest.raises(ConfigError, match="1/W of --W must be finite"):
                parse_config(["table2", f"--W={w_cap!r}", f"--R={coef!r}"])
            return
        two = parse_config(["table2", f"--W={w_cap!r}", f"--R={coef!r}"])
        assert two.params == dual_params(one.params)
        assert two.params == TransformParams(
            l_coef=0.0, r_coef=coef, a_coef=math.hypot(w_cap, coef), b_coef=1.0
        )
        assert (one.basis.freq, two.basis.freq) == (w_cap, 1.0 / w_cap)

    @pytest.mark.parametrize(
        "flags, table",
        [([], "table1"), (["--L", "3"], "table1"), (["--R", "3"], "table2")],
    )
    def test_duality_shorthand_derivation(self, flags, table):
        # table2's derivation exactly when only --R is given
        duality = parse_config(["duality", "--W", "4", *flags])
        resolved = parse_config([table, "--W", "4", *flags])
        assert (duality.params, duality.basis) == (resolved.params, resolved.basis)

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("table1 --W inf", "--W must be finite"),
            ("table1 --W 4 --L nan", "--L must be finite"),
            ("table2 --W nan --R 3", "--W must be finite"),
            ("table2 --W 4 --R nan", "--R must be finite"),
            ("table2 --W 4 --R=-inf", "--R must be finite"),
            ("duality --W inf --R 3", "--W must be finite"),
            ("duality --W 4 --R inf", "--R must be finite"),
            ("duality --W 4 --L inf", "--L must be finite"),
            ("table2 --W 1.5e308 --R 1.5e308", "sqrt(W^2 + R^2) must be finite"),
            ("duality --W 4 --A 2", "--W fixes --A for duality"),
            ("duality --W 4 --L 3 --R 3", "--W fixes --R for duality"),
            ("table2 --W 5e-324", "1/W of --W must be finite"),
            ("duality --W 5e-324 --R 3", "1/W of --W must be finite"),
        ],
    )
    def test_table_errors_name_the_flags_given(self, argv, message):
        # never a field of the derived (or dual) coupling quadruple
        with pytest.raises(ConfigError) as info:
            parse_config(argv.split())
        assert message in str(info.value) and "_coef" not in str(info.value)

    def test_singular_normalization(self):
        with pytest.raises(ConfigError):
            parse_config(["spectrum", "--L", "1", "--R", "-1"])

    def test_basis_size_limit(self):
        # parse_config allocates nothing, so the rejected sizes cost nothing
        assert parse_config(["commutator-check", "--N", str(MAX_N)]).basis.n_dim == MAX_N
        assert parse_config(["sweep-n", "--values", f"2,{MAX_N}"]).sweep_values == (2, MAX_N)
        with pytest.raises(ConfigError, match="MAX_N"):
            parse_config(["commutator-check", "--N", str(MAX_N + 1)])
        with pytest.raises(ConfigError, match="MAX_N"):
            parse_config(["sweep-n", "--values", f"10,{MAX_N + 1}"])


class TestRunText:
    def test_table_one_reference_rows(self):
        text = run(parse_config(["table1", "--W", "4", "--L", "3"]))
        assert "5 | 5 | iso-spectra" in text
        assert "395.53-59.95i | 445 | No iso-spectra" in text
        assert "395.53+59.95i | 455 | No iso-spectra" in text

    def test_commutator_check_output(self):
        text = run(parse_config(["commutator-check", "--L", "3", "--R", "4", "--N", "100"]))
        assert "-99" in text
        max_dev = float(text.splitlines()[1].rsplit(":", 1)[1])
        assert max_dev <= 1e-12

    def test_duality_output(self, table1_params):
        text = run(parse_config(["duality", "--W", "4", "--L", "3", "--N", "40"]))
        distance = float(text.splitlines()[1].rsplit(":", 1)[1])
        assert distance <= 1e-6 * 900.0  # |H| at N=40 is a few hundred

    def test_two_decimal_format(self):
        assert [_fmt2(x) for x in (5.0, -9.0, 395.534, 0.004, 1e15)] == [
            "5", "-9", "395.53", "0", "1000000000000000"
        ]
        assert _fmt2(1e300) == "1.00e+300" and _fmt2(-2.5e16) == "-2.50e+16"
        # at w = 1e300, L x is comparable to p, so the check stays resolvable
        text = run(parse_config(["commutator-check", "--L", "1e300", "--w", "1e300", "--N", "10"]))
        assert text.splitlines()[0] == "commutator check: N=10 L=1.00e+300 R=0"

    def test_small_parameters_render_nonzero(self):
        # parameters and sweep points that would round to 0 show in exponent
        # form; eigenvalue and eps_n cells keep the two-decimal rule
        assert [_fmt_param(x) for x in (0.0, -0.001, 0.004, 0.01, 5.0, 1e300)] == [
            "0", "-1.00e-03", "4.00e-03", "0.01", "5", "1.00e+300"
        ]
        argv = ["sweep-w", "--L", "3", "--B", "5", "--values", "0.001,0.004", "--N", "10"]
        cells = [line.split(" | ")[0] for line in run(parse_config(argv)).splitlines()[1:]]
        assert cells == ["1.00e-03", "4.00e-03"]
        text = run(parse_config(["table1", "--W", "0.001", "--L", "0.002", "--N", "4"]))
        assert text.splitlines()[1] == "1.00e-03 | 2.00e-03 | 1.00e-03 | 0 | 0 | No iso-spectra"
        text = run(parse_config(["duality", "--w", "1e-300", "--N", "4"]))
        assert "B=1, w=1.00e-300) vs (" in text.splitlines()[0]

    def test_spectrum_listing(self):
        text = run(parse_config(["spectrum", "--N", "10", "--count", "3"]))
        lines = text.splitlines()
        assert lines[0] == "n | E_n -> H"
        assert lines[1] == "0 | 1"
        assert "n_complex_pairs=0" in lines[-1]

    def test_two_decimal_rendering_keeps_full_precision(self, tmp_path):
        # text shows 2 decimals; the JSON artifact carries full doubles
        out = tmp_path / "t.json"
        config = parse_config(
            ["table1", "--W", "4", "--L", "3", "--format", "json", "--out", str(out)]
        )
        text = run(config)
        payload = json.loads(out.read_text())
        row0 = payload["rows"][0]
        assert row0["re"] != 5 or row0["abs_dev"] == 0.0
        assert abs(row0["re"] - 5.0) < 1e-9


class TestExportFormats:
    def test_csv_row_count(self, tmp_path):
        out = tmp_path / "t.csv"
        run(parse_config(
            ["table1", "--W", "4", "--L", "3", "--count", "10", "--format", "csv", "--out", str(out)]
        ))
        lines = out.read_text().split("\n")
        assert lines[0] == "level,epsilon_n,re,im,abs_dev,remark"
        assert len([ln for ln in lines if ln]) == 11  # header + print_count

    def test_csv_uses_lf_endings(self, tmp_path):
        out = tmp_path / "t.csv"
        run(parse_config(
            ["spectrum", "--N", "8", "--format", "csv", "--out", str(out)]
        ))
        raw = out.read_bytes()
        assert b"\r" not in raw

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "t.json"
        run(parse_config(
            ["table1", "--W", "4", "--L", "3", "--format", "json", "--out", str(out)]
        ))
        payload = json.loads(out.read_text())
        assert payload["config"]["B"] == 5.0
        assert payload["config"]["W"] == 4.0
        summary = payload["summary"]
        assert summary["n_real"] + 2 * summary["n_complex_pairs"] == 100
        assert len(payload["rows"]) == 50

    def test_json_bytes_deterministic(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        tokens = ["table1", "--W", "4", "--L", "3", "--format", "json"]
        run(parse_config(tokens + ["--out", str(out_a)]))
        run(parse_config(tokens + ["--out", str(out_b)]))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_null_for_missing_first_deviation(self, tmp_path):
        out = tmp_path / "t.json"
        run(parse_config(
            ["sweep-n", "--L", "3", "--B", "5", "--w", "4", "--values", "40",
             "--format", "json", "--out", str(out)]
        ))
        payload = json.loads(out.read_text())
        assert "points" in payload and len(payload["points"]) == 1

    def test_json_null_for_undefined_variational_frequency(self, tmp_path):
        # broken-regime spectrum export: w_v has no real value -> null
        out = tmp_path / "t.json"
        run(parse_config(
            ["spectrum", "--L", "2", "--N", "8", "--format", "json", "--out", str(out)]
        ))
        payload = json.loads(out.read_text())
        assert payload["config"]["w_v"] is None
        out2 = tmp_path / "t2.json"
        run(parse_config(
            ["table1", "--W", "4", "--L", "3", "--format", "json", "--out", str(out2)]
        ))
        assert json.loads(out2.read_text())["config"]["w_v"] == 4.0
        # A^2 overflows, so w_v is undefined; commutator-check does not use A
        doc = run(parse_config(["commutator-check", "--A", "1e200", "--N", "6", "--format", "json"]))
        assert json.loads(doc)["config"]["w_v"] is None

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        run(parse_config(
            ["sweep-w", "--L", "3", "--B", "5", "--values", "2,4", "--N", "40",
             "--format", "csv", "--out", str(out)]
        ))
        lines = [ln for ln in out.read_text().split("\n") if ln]
        assert lines[0].startswith("w,n_real,n_complex_pairs")
        assert len(lines) == 3


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["spectrum", "--N", "6"]) == 0
        assert "E_n" in capsys.readouterr().out

    def test_config_error(self, capsys):
        assert main(["table1", "--W", "4", "--B", "5"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_scale_flag_is_unrecognized(self, command, capsys):
        # x and p are fixed by w alone (hbar = m = 1): a factor s on both
        # would act as hbar = s^2 against the (2n+1)AB reference
        assert main([command, *_SMALL_RUNS[command].split(), "--s", "2"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --s 2" in captured.err and captured.out == ""

    def test_undefined_auto_frequency_is_config_error(self, capsys):
        assert main(["spectrum", "--L", "2", "--w", "auto"]) == 2
        assert "variational frequency undefined" in capsys.readouterr().err

    def test_solver_failure(self, monkeypatch, capsys):
        import nhosc.cli as cli_mod

        def boom(config):
            raise EigensolverError("forced failure")

        monkeypatch.setattr(cli_mod, "_execute", boom)
        assert main(["spectrum", "--N", "6"]) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_lapack_failure_exits_3(self, monkeypatch, capsys):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        assert main(["spectrum", "--N", "6"]) == 3
        captured = capsys.readouterr()
        assert "solver failure" in captured.err and "did not converge" in captured.err
        assert captured.out == ""

    def test_io_failure(self, tmp_path, capsys):
        bad_path = tmp_path / "missing-dir" / "out.json"
        code = main(["spectrum", "--N", "6", "--format", "json", "--out", str(bad_path)])
        assert code == 4
        assert "i/o failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --A 1e154 --B 1e154",
            "spectrum --w 1e-300 --B 1e5",
            "spectrum --w 1e300 --A 1e5",
            "spectrum --A 1e200",
            "spectrum --L 1e200 --R 1e200",
            "commutator-check --w 1e10 --R 1e300",
            "commutator-check --R 1e300 --L 1e300",  # 1+LR overflows
            "commutator-check --L 1e300 --w 1e-10",
            "table1 --W 1e300",
            "table1 --W 4 --L 1e300",
        ],
    )
    def test_float64_overflow_is_config_error(self, argv, monkeypatch, capsys):
        def no_qr(*args):
            pytest.fail("QR ran on an overflowed matrix")

        monkeypatch.setattr(np.linalg, "eigvals", no_qr)
        assert main(argv.split() + ["--N", "10"]) == 2
        assert "overflows float64" in capsys.readouterr().err

    def test_commutator_rounding_floor_is_config_error(self, capsys):
        # the check used to exit 0 here with max |diag - 1| = 2: pure rounding
        assert main(["commutator-check", "--L", "1e14", "--N", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float64 resolution" in captured.err

    @pytest.mark.parametrize("w, w_ref", [("1e300", "1e150"), ("1e-300", "1e-150")])
    def test_extreme_frequency_with_finite_entries_solves(self, w, w_ref, capsys):
        # levels near 1e301 overflow only when squared; far from w = 1 one
        # of the two terms of H is negligible, so H and its values scale as
        # w (w >> 1) or 1/w (w << 1): by 1e150 from w_ref to w either way
        def values(freq):
            assert main(["spectrum", "--w", freq, "--N", "10", "--format", "json"]) == 0
            return np.array([[r["re"], r["im"]] for r in json.loads(capsys.readouterr().out)["values"]])

        got, ref = values(w), values(w_ref)
        assert np.all(np.isfinite(got)) and np.abs(got).max() > 1e300
        np.testing.assert_allclose(got, 1e150 * ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "argv", ["spectrum --N 10", "spectrum --A 0 --R -0.8333333333333334 --N 3"]
    )
    def test_overflow_bound_edge(self, argv, monkeypatch, capsys):
        # the build accepts H while N |H|_F is finite, which keeps every row,
        # column and trace sum of the solve finite.  H scales as t^2 when A
        # and B both scale by t, so the edge is t_edge = sqrt(DBL_MAX / (N
        # |H(t=1)|_F)).  The second case has one dominant entry H_20: with
        # only |H|_F kept finite, it could near DBL_MAX and overflow a column
        # sum in balance.
        config = parse_config(argv.split())
        h_ref = build_hamiltonian(HamiltonianSpec(params=config.params, basis=config.basis))
        t_edge = math.sqrt(np.finfo(np.float64).max / (config.basis.n_dim * _frobenius_norm(h_ref)))

        def scaled(t):  # later flags override earlier ones
            a_coef, b_coef = t * config.params.a_coef, t * config.params.b_coef
            return argv.split() + ["--A", repr(a_coef), "--B", repr(b_coef)]

        assert main(scaled(0.97 * t_edge) + ["--format", "json"]) == 0
        got = [complex(r["re"], r["im"]) for r in json.loads(capsys.readouterr().out)["values"]]
        want = (0.97 * t_edge) ** 2 * np.sort_complex(eigenvalues(h_ref).values)
        assert np.all(np.isfinite(got)) and np.abs(got).max() > 1e306
        np.testing.assert_allclose(np.sort_complex(got), want, rtol=0.0, atol=1e-12 * np.abs(want).max())

        def no_qr(*args):
            pytest.fail("QR ran on an overflowed matrix")

        monkeypatch.setattr(np.linalg, "eigvals", no_qr)
        assert main(scaled(1.03 * t_edge)) == 2
        assert "H overflows float64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        # A^2 and B^2 are normal; the basis factor 1/(2w) or w/2 takes H below them
        "argv",
        ["spectrum --A 0 --B 1e-153 --w 1e12 --N 6", "spectrum --A 1e-153 --B 0 --w 1e-12 --N 6 --format json"],
    )
    def test_float64_underflow_is_config_error(self, argv, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert "underflows float64" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # H is diagonal here, (2n+1)e-200 exactly: B^2 would vanish
            ("spectrum --B 1e-200 --w 1e-200 --N 6", "B^2 underflows float64"),
            ("table1 --W 1e-200 --N 6", "B^2 underflows float64"),
            ("table1 --W 1e200 --N 6", "B^2 overflows float64"),
            ("table2 --W 4 --R 1e308", "A^2 overflows float64"),
            # --w auto names the square, not an undefined frequency
            ("spectrum --B 1e-200 --w auto --N 6", "B^2 underflows float64"),
            ("spectrum --A 1e200 --w auto --N 6", "A^2 overflows float64"),
        ],
    )
    def test_coefficient_square_out_of_range_is_config_error(self, argv, message, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_duality_of_zero_hamiltonian(self, capsys):
        assert main(["duality", "--A", "0", "--B", "0", "--N", "6"]) == 0
        assert "distance/norm = -" in capsys.readouterr().out

    def test_duality_of_tiny_hamiltonian(self, capsys):
        # entries near 1e-170 are normal floats whose squares underflow
        tiny = ["duality", "--A", "1e-85", "--B", "1e-85", "--N", "6"]
        assert main(tiny + ["--format", "json"]) == 0
        h_norm = json.loads(capsys.readouterr().out)["h_norm"]
        assert 1e-171 < h_norm < 1e-167
        assert main(tiny) == 0
        out = capsys.readouterr().out
        assert "hamiltonian norm: 0.0" not in out
        assert "distance/norm = 0.000e+00" in out


def _dash(v):
    return "-" if v is None else str(v)


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_formats_agree(command, tmp_path, capsys):
    """CSV is the JSON table, text counts match JSON, and --out holds stdout."""
    outputs = {}
    for fmt in ("text", "csv", "json"):
        path = tmp_path / f"out.{fmt}"
        argv = [command, *_SMALL_RUNS[command].split(), "--format", fmt, "--out", str(path)]
        assert main(argv) == 0
        outputs[fmt] = capsys.readouterr().out
        assert path.read_bytes() == outputs[fmt].encode()
    doc = json.loads(outputs["json"])
    if command == "commutator-check":
        table = [doc["defect"]]
    elif command == "duality":
        table = [{k: doc[k] for k in ("distance", "h_norm")}]
    else:
        table = doc[{"spectrum": "values", "table1": "rows", "table2": "rows"}.get(command, "points")]

    header, *rows = csv.reader(io.StringIO(outputs["csv"]))
    assert header == list(table[0])
    assert len(rows) == len(table)
    for cells, row in zip(rows, table):
        values = list(row.values())
        assert [None if c == "" else type(v)(c) for c, v in zip(cells, values)] == values

    lines = outputs["text"].splitlines()
    if command.startswith("sweep"):
        got = [ln.split(" | ")[1:4] for ln in lines[1:]]
        want = [[_dash(p[k]) for k in ("n_real", "n_complex_pairs", "first_deviation_index")]
                for p in doc["points"]]
    elif command == "commutator-check":
        got, want = lines[1].rsplit(": ", 1)[1], f"{doc['defect']['max_diag_deviation']:.3e}"
    elif command == "duality":
        got, want = lines[1].rsplit(": ", 1)[1], f"{doc['distance']:.6e}"
    else:
        got = dict(kv.split("=") for kv in lines[-1].split()[1:])
        want = {k: _dash(v) for k, v in doc["summary"].items()}
    assert got == want


_SPECIAL = [0.0, -1.0, 1e300, -1e300, 1e-300, float("nan"), float("inf"), float("-inf")]
_NUMBERS = st.one_of(st.floats(-20.0, 20.0), st.sampled_from(_SPECIAL))
# sweep-n values are basis sizes: only small ones, or ones parse_config rejects
_SIZES = st.one_of(st.integers(2, 12).map(float), st.sampled_from([0.0, -3.0, 2.5, *_SPECIAL[4:]]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command, f"--N={draw(st.integers(2, 12))}"]
    for flag in draw(st.sets(st.sampled_from(["w", "L", "R", "A", "B", "W", "count"]))):
        if flag == "count":
            value = draw(st.integers(0, 14))
        elif flag == "w":
            value = draw(st.one_of(st.just("auto"), _NUMBERS))
        else:
            value = draw(_NUMBERS)
        argv.append(f"--{flag}={value}")
    if command.startswith("sweep"):
        values = st.lists(_SIZES if command == "sweep-n" else _NUMBERS, min_size=1, max_size=3)
        argv.append("--values=" + ",".join(str(v) for v in draw(values)))
    argv.append(f"--format={draw(st.sampled_from(['text', 'csv', 'json']))}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_exit_code_property(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)
