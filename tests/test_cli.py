import argparse
import contextlib
import csv
import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import nhosc
import nhosc.analysis
import nhosc.cli as cli
import oracles
from nhosc import (
    BasisSpec,
    EigensolverError,
    HamiltonianSpec,
    TransformParams,
    dual_params,
    eigenvalues,
)
from nhosc.cli import (
    MAX_N,
    Command,
    ConfigError,
    Format,
    RunConfig,
    _fmt2,
    _fmt_param,
    main,
    parse_config,
    run,
)
from nhosc.eig import _frobenius_norm


def test_package_reexports_each_layer_name():
    # every public name is declared once, in its layer's __all__, and is that object
    layers = (nhosc.analysis, nhosc.basis, nhosc.eig, nhosc.model)
    assert nhosc.__all__ == [name for layer in layers for name in layer.__all__]
    for layer in layers:
        for name in layer.__all__:
            assert getattr(nhosc, name) is getattr(layer, name)


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
            ("sweep-w --L 3 --B 5 --values 0,4 --N 20", "--values must be positive"),
            ("sweep-w --L 3 --B 5 --values -1 --N 20", "--values must be positive"),
            ("spectrum --L inf", "--L must be finite"),
            ("spectrum --R inf", "--R must be finite"),
            ("spectrum --A nan", "--A must be finite"),
            ("spectrum --B inf", "--B must be finite"),
            ("spectrum --w inf", "--w must be finite"),
            ("spectrum --w nan", "--w must be finite"),
            ("spectrum --w 0 --N 6", "--w must be positive, got '0'"),
            ("spectrum --w=-2 --N 6", "--w must be positive, got '-2'"),
            ("spectrum --w=-inf --N 6", "--w must be positive, got '-inf'"),
            ("sweep-n --w 0 --values 4", "--w must be positive, got '0'"),
        ],
    )
    def test_table_errors_name_the_flags_given(self, argv, message):
        # never a field of the derived (or dual) coupling quadruple
        with pytest.raises(ConfigError) as info:
            parse_config(argv.split())
        assert message in str(info.value) and "_coef" not in str(info.value)

    def test_reused_parser_leaks_nothing(self, monkeypatch):
        # one parser serves every call; a parser built afresh for each call
        # must give the same results, an error raised mid-parse included
        argvs = ["table1 --W 4 --L 3", "spectrum", "sweep-w --values 2,4",
                 "table1 --W 4 --N 7 --count 3 --format xml", "table2 --W 4 --R 3"]

        def parse_all():
            results = []
            for argv in argvs:
                try:
                    results.append(parse_config(argv.split()))
                except ConfigError as exc:
                    results.append(str(exc))
            return results

        shared = parse_all()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert shared == parse_all()
        assert shared[1] == RunConfig(Command.SPECTRUM, TransformParams(), BasisSpec(n_dim=100))
        assert shared[2].params == TransformParams() and shared[2].capital_w is None
        assert "invalid choice: 'xml'" in shared[3]

    def test_parser_built_once(self, capsys):
        cli._build_parser.cache_clear()
        for argv in ("spectrum --N 4", "table1 --W 4 --N 4 --format json", "bogus", "spectrum --N 4"):
            main(argv.split())
        assert cli._build_parser.cache_info().misses == 1

    def test_subcommands_are_the_commands(self):
        # the parser adds one subcommand per Command, in declaration order
        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [c.value for c in Command] == _COMMANDS

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


class TestRealityWindowFields:
    """The window (w-, w+) outside which the truncated spectrum is real at every N."""

    def test_table_summaries(self):
        doc = json.loads(run(parse_config(["table1", "--W", "4", "--L", "3", "--N", "20", "--format", "json"])))
        assert list(doc["summary"]) == ["n_real", "n_complex_pairs", "first_deviation_index",
                                        "w_minus", "w_plus", "in_real_window"]
        assert [doc["summary"][k] for k in ("w_minus", "w_plus", "in_real_window")] == [2.0, 8.0, False]
        # table 2 is the transpose dual at 1/W: its window is (1/8, 1/2)
        text = run(parse_config(["table2", "--W", "4", "--R", "3", "--N", "20"]))
        assert text.splitlines()[-1].endswith(" w_minus=0.125 w_plus=0.5 in_real_window=False")

    def test_spectrum_summary(self):
        text = run(parse_config(["spectrum", "--L", "3", "--B", "5", "--w", "1", "--N", "12"]))
        assert text.splitlines()[-1] == (
            "summary: n_real=12 n_complex_pairs=0 w_minus=2.0 w_plus=8.0 in_real_window=True"
        )

    def test_undefined_in_the_broken_regime(self):
        text = run(parse_config(["spectrum", "--L", "2", "--N", "4"]))
        assert text.splitlines()[-1].endswith(" w_minus=- w_plus=- in_real_window=-")
        doc = json.loads(run(parse_config(["spectrum", "--L", "2", "--N", "4", "--format", "json"])))
        assert [doc["summary"][k] for k in ("w_minus", "w_plus", "in_real_window")] == [None, None, None]

    def test_edges_past_float64_are_null(self):
        # reality_window gives inf for an edge past float64; the export writes null, as for w_v
        # with A = 1 and R = 0, (w-, w+) = (B - L, B + L) exactly: 7e307 and 2.7e308
        window = cli._window(TransformParams(l_coef=1e308, b_coef=1.7e308), 1.0)
        assert window == {"w_minus": 1.7e308 - 1e308, "w_plus": None, "in_real_window": True}
        # A = 5e-324: w- and w+ are both near B/A = 2e323
        argv = "spectrum --L=1e-160 --A=5e-324 --B=1 --w 4 --N 6 --format json"
        doc = json.loads(run(parse_config(argv.split())))
        assert [doc["summary"][k] for k in ("w_minus", "w_plus", "in_real_window")] == [None, None, True]
        assert doc["config"]["w_v"] is None

    def test_sweep_column(self):
        # inside (2, 8) the spectrum may stay real (w = 2.01 and 7.9 at N = 20);
        # the window edges themselves belong to the real side
        argv = ["sweep-w", "--L", "3", "--B", "5", "--values", "1,2,2.01,4,7.9,8,16", "--N", "20"]
        points = json.loads(run(parse_config([*argv, "--format", "json"])))["points"]
        expected = [True, True, False, False, False, True, True]
        assert [p["in_real_window"] for p in points] == expected
        assert [p["n_complex_pairs"] for p in points] == [0, 0, 0, 6, 0, 0, 0]
        header, *rows = csv.reader(io.StringIO(run(parse_config([*argv, "--format", "csv"]))))
        assert header[-1] == "in_real_window" and [r[-1] for r in rows] == [str(v) for v in expected]
        lines = run(parse_config(argv)).splitlines()
        assert lines[0].endswith(" | max_abs_dev_below | in_real_window")
        assert [ln.rsplit(" | ", 1)[1] for ln in lines[1:]] == [str(v) for v in expected]

    def test_sweep_points_come_sorted(self):
        # the command sorts its values; analysis.sweep keeps the order it is given
        argv = ["sweep-w", "--L", "3", "--B", "5", "--values", "8,2,4,2", "--N", "20", "--format", "json"]
        assert [p["w"] for p in json.loads(run(parse_config(argv)))["points"]] == [2.0, 2.0, 4.0, 8.0]
        argv = ["sweep-n", "--L", "3", "--B", "5", "--w", "4", "--values", "20,10", "--format", "json"]
        assert [p["N"] for p in json.loads(run(parse_config(argv)))["points"]] == [10, 20]

    def test_sweep_n_has_no_window_column(self):
        argv = ["sweep-n", "--L", "3", "--B", "5", "--w", "4", "--values", "12,8", "--format", "csv"]
        assert run(parse_config(argv)).splitlines()[0] == (
            "N,n_real,n_complex_pairs,first_deviation_index,max_abs_dev_below_first_deviation"
        )

    def test_sweep_n_writes_integer_n(self):
        # N is the basis size, an int in every format; the config echo already showed [20, 40]
        argv = ["sweep-n", "--L", "3", "--B", "5", "--w", "auto", "--values", "20,40", "--N", "40"]
        doc = json.loads(run(parse_config([*argv, "--format", "json"])))
        assert doc["config"]["values"] == [20, 40]
        assert [p["N"] for p in doc["points"]] == [20, 40] and all(type(p["N"]) is int for p in doc["points"])
        header, *rows = csv.reader(io.StringIO(run(parse_config([*argv, "--format", "csv"]))))
        assert [r[0] for r in rows] == ["20", "40"]
        assert [ln.split(" | ")[0] for ln in run(parse_config(argv)).splitlines()[1:]] == ["20", "40"]
        failed = json.loads(run(parse_config(["sweep-n", "--L", "2", "--values", "12", "--format", "json"])))
        assert failed["points"] == [] and failed["failures"][0]["N"] == 12 and type(failed["failures"][0]["N"]) is int


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
        # sqrt(b/a) = B/A = 2e631 is past float64, so w_v is undefined; commutator-check does not use A or B
        doc = run(parse_config(["commutator-check", "--A", "5e-324", "--B", "1e308", "--N", "6", "--format", "json"]))
        assert json.loads(doc)["config"]["w_v"] is None

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_value_is_not_exported(self, fmt, monkeypatch, capsys):
        monkeypatch.setattr(cli, "duality_check", lambda params, basis: math.inf)
        argv = ["duality", "--W", "4", "--L", "3", "--N", "6"]
        assert main([*argv, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert main(argv) == 0  # text shows it
        assert "max band distance, dual vs transposed H: inf" in capsys.readouterr().out

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        run(parse_config(
            ["sweep-w", "--L", "3", "--B", "5", "--values", "2,4", "--N", "40",
             "--format", "csv", "--out", str(out)]
        ))
        lines = [ln for ln in out.read_text().split("\n") if ln]
        assert lines[0].startswith("w,n_real,n_complex_pairs")
        assert len(lines) == 3

    @pytest.mark.parametrize("argv, points", [
        ("sweep-w --L 3 --B 5 --values 1e-320,4 --N 6", ["w=1e-320"]),  # both terms of H's bands overflow
        ("sweep-n --L 2 --values 12,6", ["N=6", "N=12"]),  # the broken regime has no isospectral report
    ])
    def test_csv_sweep_names_its_failures_on_stderr(self, argv, points, capsys):
        # a CSV table has no row for a failed point: stdout holds the points that passed, exit 0, and
        # stderr names each failed point with the message of the text rendering's cell
        assert main(argv.split()) == 0
        text = capsys.readouterr()
        messages = [ln.split(" | failed: ", 1)[1] for ln in text.out.splitlines() if " | failed: " in ln]
        assert main([*argv.split(), "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"failed: {p}: {m}" for p, m in zip(points, messages, strict=True)]
        header, *rows = csv.reader(io.StringIO(captured.out))
        assert len(rows) == len(text.out.splitlines()) - 1 - len(points)
        assert text.err == ""


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

    @pytest.mark.parametrize("values", ["0,4", "-1"])
    def test_nonpositive_sweep_w_value_is_config_error(self, values, monkeypatch, capsys):
        def no_solve(*args):
            pytest.fail("a point was solved before the invalid value was rejected")

        monkeypatch.setattr(nhosc.analysis, "isospectral_report", no_solve)
        assert main(["sweep-w", "--L", "3", "--B", "5", "--values", values, "--N", "20"]) == 2
        captured = capsys.readouterr()
        assert "--values must be positive" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, cause", [
        ("spectrum --L 2 --w auto", "undefined: b/a is not positive"),
        ("spectrum --R 1 --w auto", "undefined: b/a is not positive"),  # a = 0
        ("spectrum --A 5e-324 --B 1e308 --w auto", "sqrt(b/a) is outside float64"),  # 2e631
        ("spectrum --A 1e308 --B 5e-324 --w auto", "sqrt(b/a) is outside float64"),  # 5e-632
    ])
    def test_undefined_auto_frequency_is_config_error(self, argv, cause, capsys):
        assert main(argv.split()) == 2
        assert capsys.readouterr().err == f"error: --w auto: variational frequency {cause}\n"

    def test_solver_failure(self, monkeypatch, capsys):
        import nhosc.cli as cli_mod

        def boom(config):
            raise EigensolverError("forced failure")

        monkeypatch.setitem(cli_mod._BUILDERS, Command.SPECTRUM, boom)
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
            "commutator-check --w 1e10 --R 1e300",
            "commutator-check --R 1e300 --L 1e300",  # 1+LR overflows
            "commutator-check --L 1e300 --w 1e-10",
            "commutator-check --R 1e308",  # Z overflows while 1+LR = 1, and must raise before numpy warns
            "commutator-check --L 1e308",
            "table2 --W 4 --R 1e308",  # c = R B^2 = 1e308 on the +-2 bands
        ],
    )
    def test_float64_overflow_is_config_error(self, argv, monkeypatch, capsys):
        def no_qr(*args):
            pytest.fail("QR ran on an overflowed matrix")

        monkeypatch.setattr(np.linalg, "eigvals", no_qr)
        assert main(argv.split() + ["--N", "10"]) == 2
        assert "overflows float64" in capsys.readouterr().err

    def test_overflow_message_names_its_cause(self, capsys):
        # b / (2w) = 5e319: a true overflow, named by N |H|_F, never nan
        assert main(["spectrum", "--L", "0", "--w", "1e-320", "--N", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: H overflows float64 (N |H|_F = inf) for ")
        assert "nan" not in captured.err

    @pytest.mark.parametrize("argv", [
        "spectrum --L 1e200 --R 1e200 --N 10",  # 1 + LR overflows in float64
        "spectrum --B 1e-200 --w 1e-200 --N 6",  # B^2 underflows in float64; H is diagonal, (2n+1)e-200
        "spectrum --B 1e200 --w 1e200 --N 6",  # B^2 overflows in float64
        # shear coefficients whose products cancel (B R = 1 but for the inputs' rounding; B^2 = L^2 A^2)
        "spectrum --R 1e-100 --A 1 --B 1e100 --w 1e150 --N 3",
        "duality --R 1e-100 --A 1 --B 1e100 --w 1e150 --N 3",
        "duality --L=-1e100 --A 1 --B 1e100 --w 4 --N 3",  # its spectrum: test_b_equal_to_l_a_solves_...
    ])
    def test_h_that_float64_intermediates_lose_solves(self, argv, capsys):
        # H's triple is exact from the float inputs, so an A^2, B^2, 1 + LR or shear product beyond
        # float64 costs nothing: exit 0, with band scalars within 4 eps of 900-digit mpmath
        assert main(argv.split() + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)
        config = parse_config(argv.split())
        p, b = config.params, config.basis
        true, _, _ = oracles.mp_bands(p.l_coef, p.r_coef, p.a_coef, p.b_coef, b.freq, b.n_dim, dps=900)
        got = nhosc.model._checked_bands(HamiltonianSpec(p, b), b.freq)
        assert max(abs(g - t) for g, t in zip(got, true)) <= 4 * np.finfo(np.float64).eps * max(map(abs, true))

    def test_b_equal_to_l_a_solves_with_its_exact_bands(self, capsys):
        # B^2 = L^2 A^2 makes b = 0 exactly: (D, U, V) = (a w / 2, -a w / 2 + c, -a w / 2 - c) = (2, -1e100, 1e100)
        argv = "spectrum --L=-1e100 --A 1 --B 1e100 --w 4 --N 3"
        config = parse_config(argv.split())
        assert nhosc.model._checked_bands(HamiltonianSpec(config.params, config.basis), 4.0) == (2.0, -1e100, 1e100)
        assert main(argv.split() + ["--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        assert [complex(v["re"], v["im"]) for v in values] == pytest.approx([-1.4142135623730951e100j,
                                                                              1.4142135623730951e100j, 6.0])

    @pytest.mark.parametrize("argv, level_0", [
        # a shear coefficient that cancels: accepted as 8.64e50 while H was formed from the shear products
        ("spectrum --L=69.13304933807956 --R=8.878467928194506e+29 --A=6.696600120056964e+40 "
         "--B=75425176665.79794 --w=5.537241693088149e+16 --N 3", 5.941411694965223e50),
        # a shear coefficient that overflowed before its tiny scale rejected this finite H
        ("spectrum --L 1e300 --R 2e-8 --A 1.5e-154 --w 5e-21 --N 3", None),
        # both terms of every band overflowed (inf - inf), though every entry is below 10.5
        ("spectrum --L 1 --w 1e-320 --N 12", None),
    ])
    def test_shear_path_defects_solve_to_mpmath(self, argv, level_0, capsys):
        # exit 0 with each printed value within 1e-13 max|H| of an eigenvalue of the truncated H whose
        # entries are 900-digit mpmath's, solved in 60 digits, and each of those near a printed value
        assert main(argv.split() + ["--format", "json"]) == 0
        got = [complex(v["re"], v["im"]) for v in json.loads(capsys.readouterr().out)["values"]]
        p, b = (config := parse_config(argv.split())).params, config.basis
        places = [(i, j) for i in range(b.n_dim) for j in range(b.n_dim)]
        entries = oracles.mp_entries(p.l_coef, p.r_coef, p.a_coef, p.b_coef, b.freq, b.n_dim, places, dps=900)
        with mpmath.workdps(60):
            h = mpmath.matrix(b.n_dim, b.n_dim)
            for (i, j), entry in zip(places, entries):
                h[i, j] = entry
            true = [complex(e) for e in mpmath.eig(h, left=False, right=False)]
        tol = 1e-13 * max(map(abs, entries))
        assert all(min(abs(g - t) for t in true) <= tol for g in got)
        assert all(min(abs(g - t) for g in got) <= tol for t in true)
        if level_0 is not None:
            assert got[0] == pytest.approx(level_0, rel=1e-12)

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
        h_ref = HamiltonianSpec(params=config.params, basis=config.basis).bands.entries
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
        [
            "spectrum --A 0 --B 1e-153 --w 1e12 --N 6",
            "spectrum --A 1e-153 --B 0 --w 1e-12 --N 6 --format json",
            # H = -C A^2 Y^2 is near 1e-349 (C = 1e-149), though Z's u^2 (near 2e308) overflows beside B = 0
            "spectrum --L 1e-5 --R 1e154 --A 1e-100 --B 0 --w 4 --N 3",
        ],
    )
    def test_float64_underflow_is_config_error(self, argv, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert "underflows float64" in captured.err and captured.out == ""

    def test_float64_cancellation_is_config_error(self, capsys):
        # a = b = 0 exactly and N = 2 has no +-2 bands: every entry of H is exactly 0
        assert main("spectrum --L 1 --R 1 --A 1 --B 1 --w 4 --N 2".split()) == 2
        captured = capsys.readouterr()
        assert "H is zero (every entry is 0)" in captured.err and captured.out == ""

    def test_zero_h_from_cancelled_shear_is_config_error(self, capsys):
        # a = C(0 - R^2 B^2) and b = C B^2 cancel in D = (a w + b/w)/2 at w = 1, and N = 2 has no
        # +-2 bands: the true H is the zero matrix, though A^2 and B^2 are normal
        assert main("spectrum --L=-1e154 --R=-1 --A 0 --B 1e154 --w 1 --N 2".split()) == 2
        captured = capsys.readouterr()
        assert "H is zero (every entry is 0)" in captured.err and captured.out == ""

    def test_overflowing_shear_product_beside_zero_coefficient_solves(self, capsys):
        # Z's v^2 overflows, but B = 0: H = -A^2 Y^2, whose spectrum is 0, 3/2, 3/2 at N = 3
        assert main("spectrum --R 1e155 --A 1 --B 0 --w 1 --N 3 --format json".split()) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        assert [v["im"] for v in values] == [0.0, 0.0, 0.0]
        np.testing.assert_allclose([v["re"] for v in values], [0.0, 1.5, 1.5], rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("argv, flag", [
        ("spectrum --L 1e300 --A 0 --w 1e-300 --N 3 --format json", "--L"),
        ("spectrum --R 1e300 --B 0 --w 1e300 --N 3 --format json", "--R"),
    ])
    def test_overflowing_shear_coefficient_beside_zero_scale_solves(self, capsys, argv, flag):
        # L alpha (R beta) overflows, but A = 0 (B = 0) leaves that operator out: the values are those at flag 0
        assert main(argv.split()) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        assert main(argv.replace(f"{flag} 1e300", f"{flag} 0").split()) == 0
        assert values == json.loads(capsys.readouterr().out)["values"]
        assert all(math.isfinite(v["re"]) and v["im"] == 0.0 for v in values)

    def test_terms_that_overflow_before_c_at_large_n_solve(self, capsys):
        # C = 1e-308 meets Y's and Z's coefficients before any ladder value: the scalars stay finite
        argv = "spectrum --L=-1e154 --R=-1e154 --A=-1e100 --B=-3 --w 1 --N 200 --format json"
        assert main(argv.split()) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        assert all(math.isfinite(v["re"]) and math.isfinite(v["im"]) for v in values)

    @pytest.mark.parametrize(
        "argv, w",
        [
            # H = diag(B (2k+1), N-1 at the edge), exactly: a = 1, b = B^2, c = 0 and w = B
            ("table1 --W 1e300 --N 10", 1e300),
            ("table1 --W 1e200 --N 6", 1e200),
            ("table1 --W 1e-200 --N 6", 1e-200),
            ("spectrum --B 1e-200 --w auto --N 6", 1e-200),  # w_v = sqrt(b/a) = B, though b/a = 1e-400
            ("spectrum --A 1e200 --w auto --N 6", 1e-200),  # w_v = 1/A: H = diag(A (2k+1), ...) within 1 eps
        ],
    )
    def test_coefficient_squares_past_float64_solve(self, argv, w, capsys):
        # A^2 or B^2 is outside float64, the exact quadratic form is not: the regime is real, the
        # window (w-, w+) = (w, w) = (b/|AB|, |AB|/a) and w_v are exact, and the spectrum is the ladder
        assert main([*argv.split(), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        config, summary = doc["config"], doc["summary"]
        assert config["w"] == config["w_v"] == summary["w_minus"] == summary["w_plus"] == w
        assert summary["n_real"] == config["N"] and summary["in_real_window"] is True
        ab, n_dim = abs(config["A"] * config["B"]), config["N"]
        ladder = sorted([(2 * k + 1) * ab for k in range(n_dim - 1)] + [(n_dim - 1) * ab])
        values = [complex(v["re"], v["im"]) for v in doc.get("rows", doc.get("values"))]
        assert all(v.imag == 0.0 for v in values)
        assert max(abs(v.real - e) / e for v, e in zip(values, ladder)) <= 4 * np.finfo(np.float64).eps

    def test_b_equal_to_l_a_in_a_table_is_the_broken_regime(self, capsys):
        # B = hypot(4, 1e300) = 1e300 = L in float64, so b = B^2 - L^2 A^2 = 0 exactly: no real regime
        config = parse_config("table1 --W 4 --L 1e300 --N 10".split())
        assert config.params.b_coef == config.params.l_coef == 1e300
        assert nhosc.model._quadratic_form(config.params)[1] == 0
        assert main("table1 --W 4 --L 1e300 --N 10".split()) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: isospectral report undefined in the broken regime\n" and captured.out == ""

    def test_duality_names_an_overflowing_dual_frequency(self, capsys):
        assert main("duality --B 1e-150 --w 1e-320 --N 3".split()) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the dual's basis frequency 1/w overflows float64 (w = 1e-320)\n"
        assert captured.out == ""

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
        # a relative distance, not "-": the self-dual H at w = 1 holds its transpose to rounding
        assert float(out.split("distance/norm = ")[1].split(")")[0]) <= 1e-15

    def test_duality_solves_no_spectrum(self, monkeypatch, capsys):
        def no_solve(m):
            raise EigensolverError("duality solved a spectrum")

        monkeypatch.setattr(nhosc.analysis, "eigenvalues", no_solve)
        monkeypatch.setattr(nhosc.cli, "eigenvalues", no_solve)
        assert main(["duality", "--W", "4", "--L", "3", "--N", "150", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distance"] <= 1e-15 * doc["h_norm"]

    def test_duality_of_huge_entries(self, capsys):
        # entries near 1e299: the two builds agree bit for bit, and no band sum overflows
        assert main(["duality", "--A", "1e150", "--B", "1", "--w", "1e-3", "--N", "40", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distance"] == 0.0 and 0.0 < doc["h_norm"] < math.inf


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
    assert table and all(list(row) == header for row in table)
    assert len(rows) == len(table)
    for cells, row in zip(rows, table):
        values = list(row.values())
        assert [_CSV_PARSE[type(v)](c) for c, v in zip(cells, values)] == values

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


def _same(parsed, built) -> bool:
    """A parsed export equals the built value bit for bit, key order included."""
    if isinstance(built, dict):
        return (isinstance(parsed, dict) and list(parsed) == list(built)
                and all(_same(parsed[k], v) for k, v in built.items()))
    if isinstance(built, list):
        return isinstance(parsed, list) and len(parsed) == len(built) and all(map(_same, parsed, built))
    if isinstance(built, float):  # hex tells -0.0 from 0.0
        return isinstance(parsed, float) and parsed.hex() == built.hex()
    return type(parsed) is type(built) and parsed == built


_CSV_PARSE = {float: float, int: int, str: str, bool: {"True": True, "False": False}.__getitem__,
              type(None): lambda cell: None if cell == "" else cell}


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_exports_round_trip_bit_exactly(command):
    config = parse_config([command, *_SMALL_RUNS[command].split()])
    report = cli._BUILDERS[config.command](config)
    assert _same(json.loads(cli.render(report, Format.JSON)), report.doc)

    header, *rows = csv.reader(io.StringIO(cli.render(report, Format.CSV)))
    assert header == (report.fields or list(report.rows[0]))
    assert len(rows) == len(report.rows)
    for cells, row in zip(rows, report.rows):
        values = list(row.values())
        assert len(cells) == len(values)
        assert all(_same(_CSV_PARSE[type(v)](c), v) for c, v in zip(cells, values))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["table1", "table2", "spectrum"])
def test_exports_format_no_text(command, fmt, monkeypatch, capsys):
    def text_formatting(*args):
        pytest.fail(f"text formatting ran for --format {fmt}")

    monkeypatch.setattr(cli, "_fmt2", text_formatting)
    monkeypatch.setattr(cli, "_fmt_value", text_formatting)
    assert main([command, *_SMALL_RUNS[command].split(), "--format", fmt]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["table1", "table2", "spectrum", "duality", "sweep-w", "sweep-n"])
def test_solves_write_no_dense_matrix(command, monkeypatch, capsys):
    # every CLI solve hands H's band record to eigenvalues: no dense H is written or searched
    def dense(*args):
        pytest.fail(f"{command} wrote a dense H or searched one for its bands")

    monkeypatch.setattr(nhosc.eig.Bands, "entries", property(dense))
    monkeypatch.setattr(nhosc.eig, "_as_real_array", dense)
    assert main([command, *_SMALL_RUNS[command].split()]) == 0
    assert capsys.readouterr().out


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
