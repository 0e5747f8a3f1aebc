"""Command-line front end: configuration parsing, pipeline dispatch,
fixed-format text tables and deterministic CSV/JSON export."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import (
    Axis,
    IsospectralReport,
    Remark,
    SweepResult,
    dual_params,
    duality_check,
    isospectral_report,
    sweep,
)
from .basis import BasisSpec, TransformParams, normalized_commutator_check
from .eig import EigensolverError, _frobenius_norm, classify, eigenvalues
from .model import HamiltonianSpec, _coefficient_squares, build_hamiltonian, variational_frequency

__all__ = [
    "Command",
    "Format",
    "ConfigError",
    "RunConfig",
    "Report",
    "MAX_N",
    "parse_config",
    "run",
    "main",
]

# Largest basis size accepted on the command line.  commutator-check, the
# command with the most dense N x N arrays, holds four float64 ones (about
# 32 bytes per matrix entry) and peaks near 160 MB at N = MAX_N.
MAX_N = 2000


class Command(Enum):
    COMMUTATOR_CHECK = "commutator-check"
    SPECTRUM = "spectrum"
    TABLE_ONE = "table1"
    TABLE_TWO = "table2"
    SWEEP_W = "sweep-w"
    SWEEP_N = "sweep-n"
    DUALITY = "duality"


class Format(Enum):
    TEXT = "text"
    CSV = "csv"
    JSON = "json"


class ConfigError(ValueError):
    """Invalid or contradictory command-line configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters: the validated coupling quadruple and
    basis (whose freq is always a concrete number) and the output settings."""

    command: Command
    params: TransformParams
    basis: BasisSpec
    capital_w: float | None = None
    output_path: str | None = None
    fmt: Format = Format.TEXT
    print_count: int = 50
    sweep_values: tuple[float, ...] = ()


@dataclass(frozen=True)
class Report:
    """One command's result, rendered on demand by `render`.

    `rows` is the CSV table and holds the same dicts as the JSON document
    `doc`; their keys are the CSV header, which `fields` gives when the
    table may be empty.
    """

    text: str
    doc: dict
    rows: list[dict]
    fields: list[str] | None = None


class _Parser(argparse.ArgumentParser):
    # argparse normally exits the process; surface a typed error instead
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--N", type=int, default=100, help="basis truncation size")
    common.add_argument("--w", default=None, help="basis frequency, or 'auto' for the variational one")
    common.add_argument("--L", type=float, default=None)
    common.add_argument("--R", type=float, default=None)
    common.add_argument("--A", type=float, default=None)
    common.add_argument("--B", type=float, default=None)
    common.add_argument("--count", type=int, default=None, help="levels to print (default 50)")
    common.add_argument("--format", choices=[f.value for f in Format], default="text")
    common.add_argument("--out", default=None, help="write the rendered report to this path")

    cap_w = argparse.ArgumentParser(add_help=False)
    cap_w.add_argument("--W", type=float, default=None, help="table shorthand parameter")

    values = argparse.ArgumentParser(add_help=False)
    values.add_argument(
        "--values", required=True, help="comma-separated sweep axis values"
    )

    parser = _Parser(prog="nhosc", description="non-Hermitian oscillator spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("commutator-check", parents=[common])
    sub.add_parser("spectrum", parents=[common])
    sub.add_parser("table1", parents=[common, cap_w])
    sub.add_parser("table2", parents=[common, cap_w])
    sub.add_parser("sweep-w", parents=[common, values])
    sub.add_parser("sweep-n", parents=[common, values])
    sub.add_parser("duality", parents=[common, cap_w])
    return parser


def _resolve_table(ns, command: Command) -> tuple[TransformParams, float]:
    """The --W shorthand: the couplings and the default basis frequency.

    Table 1 is (L, R=0, A=1, B=hypot(W, L)) at w = W.  Table 2 is its
    transpose dual (L=0, R, A=hypot(W, R), B=1) at w = 1/W, so it is
    derived as table 1 with L = R, through dual_params.  duality takes
    the table 2 derivation when only --R is given, table 1 otherwise.
    """
    w_cap = ns.W
    if w_cap is None:
        raise ConfigError(f"{command.value} requires --W")
    if w_cap <= 0.0:
        raise ConfigError("--W must be positive")
    dual = command is Command.TABLE_TWO or (
        command is Command.DUALITY and ns.R is not None and ns.L is None
    )
    free = "R" if dual else "L"
    for flag in ("A", "L" if dual else "R", "B"):
        if getattr(ns, flag) is not None:
            raise ConfigError(f"--W fixes --{flag} for {command.value}; remove --{flag}")
    coef = 0.0 if getattr(ns, free) is None else getattr(ns, free)
    root, freq = math.hypot(w_cap, coef), 1.0 / w_cap if dual else w_cap
    checks = (("--W", w_cap), (f"--{free}", coef), (f"sqrt(W^2 + {free}^2)", root), ("1/W of --W", freq))
    for name, value in checks:
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite")
    params = TransformParams(l_coef=coef, b_coef=root)
    return (dual_params(params) if dual else params), freq


def _validated(cls, **fields):
    """cls(**fields), with its ValueError raised as a ConfigError."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(argv: list[str]) -> RunConfig:
    """Parse tokens into a fully resolved RunConfig (derivations and defaults applied)."""
    ns = _build_parser().parse_args(argv)
    command = Command(ns.command)
    capital_w = getattr(ns, "W", None)

    if command in (Command.TABLE_ONE, Command.TABLE_TWO) or capital_w is not None:
        params, freq = _resolve_table(ns, command)
    else:
        params = _validated(
            TransformParams,
            l_coef=0.0 if ns.L is None else ns.L,
            r_coef=0.0 if ns.R is None else ns.R,
            a_coef=1.0 if ns.A is None else ns.A,
            b_coef=1.0 if ns.B is None else ns.B,
        )
        freq = 1.0

    if ns.w == "auto":
        freq = variational_frequency(params).w_v
        if freq is None:
            _validated(_coefficient_squares, params=params)  # names an out-of-range A^2 or B^2
            raise ConfigError("--w auto: variational frequency undefined for these parameters")
    elif ns.w is not None:
        try:
            freq = float(ns.w)
        except ValueError as exc:
            raise ConfigError(f"--w expects a number or 'auto', got {ns.w!r}") from exc
    if freq <= 0.0:
        raise ConfigError(f"basis frequency must be positive, got {freq}")

    if ns.N < 2:
        raise ConfigError(f"--N must be >= 2, got {ns.N}")
    if ns.N > MAX_N:
        raise ConfigError(f"--N must be <= MAX_N = {MAX_N}, got {ns.N}")

    if ns.count is None:
        count = min(50, ns.N)
    elif not 1 <= ns.count <= ns.N:
        raise ConfigError(f"--count must be between 1 and N={ns.N}, got {ns.count}")
    else:
        count = ns.count

    sweep_values: tuple[float, ...] = ()
    if command in (Command.SWEEP_W, Command.SWEEP_N):
        try:
            sweep_values = tuple(float(tok) for tok in ns.values.split(",") if tok)
        except ValueError as exc:
            raise ConfigError(f"--values expects comma-separated numbers, got {ns.values!r}") from exc
        if not sweep_values or not all(math.isfinite(v) for v in sweep_values):
            raise ConfigError(f"--values must be one or more finite numbers, got {ns.values!r}")
        if command is Command.SWEEP_N:
            if any(v != int(v) or not 2 <= v <= MAX_N for v in sweep_values):
                raise ConfigError(f"sweep-n values must be integers from 2 to MAX_N = {MAX_N}")
            sweep_values = tuple(int(v) for v in sweep_values)

    return RunConfig(
        command=command,
        params=params,
        basis=_validated(BasisSpec, n_dim=ns.N, freq=freq),
        capital_w=capital_w,
        output_path=ns.out,
        fmt=Format(ns.format),
        print_count=count,
        sweep_values=sweep_values,
    )


# ---------------------------------------------------------------- rendering


def _fmt2(x: float) -> str:
    """Two-decimal display; integral values render bare.

    From 1e16 on, past 2**53, every float is an integer whose trailing
    digits carry no information, so the value renders in exponent form.
    """
    if abs(x) >= 1e16:
        return f"{x:.2e}"
    rounded = round(x, 2)
    if rounded == int(rounded):
        return str(int(rounded))
    return f"{x:.2f}"


def _fmt_param(x: float) -> str:
    """_fmt2 for a parameter or sweep-axis value; a nonzero one that would
    display as 0 renders in exponent form, so distinct inputs stay distinct."""
    text = _fmt2(x)
    return f"{x:.2e}" if text == "0" and x != 0.0 else text


def _fmt_value(v: complex) -> str:
    """Compact complex rendering; imaginary part shown only if it displays nonzero."""
    im = _fmt2(abs(v.imag))
    if im == "0":
        return _fmt2(v.real)
    sign = "-" if v.imag < 0 else "+"
    return f"{_fmt2(v.real)}{sign}{im}i"


def _g17(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be exported")
    return format(float(x), ".17g")


def _json_render(obj) -> str:
    """Deterministic JSON: insertion key order, 17 significant digits, no NaN/Inf."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _g17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_json_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_render(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return _g17(float(v))
    return str(v)


def _config_echo(config: RunConfig) -> dict:
    params, basis = config.params, config.basis
    echo = {
        "command": config.command.value,
        "N": basis.n_dim,
        "w": basis.freq,
        "L": params.l_coef,
        "R": params.r_coef,
        "A": params.a_coef,
        "B": params.b_coef,
        "W": config.capital_w,
        "w_v": variational_frequency(params).w_v,
        "count": config.print_count,
    }
    if config.sweep_values:
        echo["values"] = list(config.sweep_values)
    return echo


def _summary_line(summary: dict) -> str:
    return "summary: " + " ".join(
        f"{k}={'-' if v is None else v}" for k, v in summary.items()
    )


def _render_isospectral(report: IsospectralReport, config: RunConfig) -> Report:
    rows = report.rows[: config.print_count]
    if config.command is Command.TABLE_TWO:
        second_name, second_val = "R", config.params.r_coef
    else:
        second_name, second_val = "L", config.params.l_coef
    prefix = " | ".join(_fmt_param(x) for x in (config.capital_w, second_val, config.basis.freq))
    lines = [f"W | {second_name} | w | E_n -> H | eps_n | Remarks"]
    for r in rows:
        remark = "iso-spectra" if r.remark is Remark.ISO else "No iso-spectra"
        lines.append(f"{prefix} | {_fmt_value(r.computed)} | {_fmt2(r.epsilon)} | {remark}")
    summary = {
        "n_real": len(report.rows) - 2 * report.n_complex_pairs,
        "n_complex_pairs": report.n_complex_pairs,
        "first_deviation_index": report.first_deviation_index,
    }
    lines.append(_summary_line(summary))
    table = [
        {
            "level": r.level,
            "epsilon_n": r.epsilon,
            "re": r.computed.real,
            "im": r.computed.imag,
            "abs_dev": r.abs_dev,
            "remark": r.remark.value,
        }
        for r in rows
    ]
    doc = {"config": _config_echo(config), "rows": table, "summary": summary}
    return Report("\n".join(lines), doc, table)


def _render_spectrum(config: RunConfig) -> Report:
    h = build_hamiltonian(HamiltonianSpec(params=config.params, basis=config.basis))
    spec = eigenvalues(h)
    classified = classify(spec)
    values = spec.values[: config.print_count]
    lines = ["n | E_n -> H"] + [f"{n} | {_fmt_value(v)}" for n, v in enumerate(values)]
    summary = {"n_real": classified.n_real, "n_complex_pairs": classified.n_complex}
    lines.append(_summary_line(summary))
    table = [{"level": n, "re": v.real, "im": v.imag} for n, v in enumerate(values)]
    doc = {"config": _config_echo(config), "values": table, "summary": summary}
    return Report("\n".join(lines), doc, table)


def _render_commutator(config: RunConfig) -> Report:
    defect = normalized_commutator_check(config.basis, config.params)
    lines = [
        f"commutator check: N={config.basis.n_dim} "
        f"L={_fmt_param(config.params.l_coef)} R={_fmt_param(config.params.r_coef)}",
        f"max |diag - 1| over first {defect.n_dim - 1} entries: {defect.max_diag_deviation:.3e}",
        f"last diagonal entry: {_fmt2(defect.last_diag_entry)} (expected 1-N = {_fmt2(defect.expected_last)})",
        f"max off-diagonal magnitude: {defect.max_offdiag:.3e}",
    ]
    payload = {
        "n_dim": defect.n_dim,
        "max_diag_deviation": defect.max_diag_deviation,
        "last_diag_entry": defect.last_diag_entry,
        "expected_last": defect.expected_last,
        "max_offdiag": defect.max_offdiag,
    }
    return Report("\n".join(lines), {"config": _config_echo(config), "defect": payload}, [payload])


def _render_duality(config: RunConfig) -> Report:
    params, basis = config.params, config.basis
    distance = duality_check(params, basis)
    h = build_hamiltonian(HamiltonianSpec(params=params, basis=basis))
    h_norm = _frobenius_norm(h)
    # no relative distance when h_norm = 0: H = 0 (A = B = 0; the build rejects
    # an H that underflows)
    rel = f"{distance / h_norm:.3e}" if h_norm > 0.0 else "-"
    dual = dual_params(params)
    lines = [
        (
            f"duality check at N={basis.n_dim}: "
            f"(L={_fmt_param(params.l_coef)}, R={_fmt_param(params.r_coef)}, "
            f"A={_fmt_param(params.a_coef)}, B={_fmt_param(params.b_coef)}, "
            f"w={_fmt_param(basis.freq)}) vs "
            f"(L={_fmt_param(dual.l_coef)}, R={_fmt_param(dual.r_coef)}, "
            f"A={_fmt_param(dual.a_coef)}, B={_fmt_param(dual.b_coef)}, "
            f"w={_fmt_param(1.0 / basis.freq)})"
        ),
        f"max eigenvalue multiset distance: {distance:.6e}",
        f"hamiltonian norm: {h_norm:.6e} (distance/norm = {rel})",
    ]
    row = {"distance": distance, "h_norm": h_norm}
    doc = {
        "config": _config_echo(config),
        "dual": {"L": dual.l_coef, "R": dual.r_coef, "A": dual.a_coef, "B": dual.b_coef,
                 "w": 1.0 / basis.freq},
        **row,
    }
    return Report("\n".join(lines), doc, [row])


def _render_sweep(result: SweepResult, config: RunConfig, axis_name: str) -> Report:
    fields = [axis_name, "n_real", "n_complex_pairs", "first_deviation_index",
              "max_abs_dev_below_first_deviation"]
    lines = [" | ".join([*fields[:-1], "max_abs_dev_below"])]  # text shortens the last name
    table = []
    for p in result.points:
        first_dev = p.first_deviation_index
        lines.append(
            f"{_fmt_param(p.axis_value)} | {p.n_real} | {p.n_complex_pairs} | "
            f"{'-' if first_dev is None else first_dev} | {p.max_abs_dev_below_first_deviation:.3e}"
        )
        values = (p.axis_value, p.n_real, p.n_complex_pairs, first_dev,
                  p.max_abs_dev_below_first_deviation)
        table.append(dict(zip(fields, values)))
    for axis_val, msg in result.failures:
        lines.append(f"{_fmt_param(axis_val)} | failed: {msg}")
    doc = {
        "config": _config_echo(config),
        "points": table,
        "failures": [{axis_name: v, "error": msg} for v, msg in result.failures],
    }
    return Report("\n".join(lines), doc, table, fields)


def _execute(config: RunConfig) -> Report:
    if config.command is Command.COMMUTATOR_CHECK:
        return _render_commutator(config)
    if config.command is Command.SPECTRUM:
        return _render_spectrum(config)
    if config.command in (Command.TABLE_ONE, Command.TABLE_TWO):
        report = isospectral_report(config.params, config.basis)
        return _render_isospectral(report, config)
    if config.command is Command.DUALITY:
        return _render_duality(config)
    if config.command is Command.SWEEP_W:
        result = sweep(config.params, config.basis, Axis.BASIS_FREQUENCY, config.sweep_values)
        return _render_sweep(result, config, "w")
    if config.command is Command.SWEEP_N:
        result = sweep(config.params, config.basis, Axis.TRUNCATION_SIZE, config.sweep_values)
        return _render_sweep(result, config, "N")
    raise ConfigError(f"unknown command {config.command!r}")


def render(report: Report, fmt: Format) -> str:
    """Render a report in the requested output format."""
    if fmt is Format.TEXT:
        return report.text + "\n"
    if fmt is Format.JSON:
        return _json_render(report.doc) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.fields or list(report.rows[0]))
    for row in report.rows:
        writer.writerow([_csv_cell(v) for v in row.values()])
    return buf.getvalue()


def run(config: RunConfig) -> str:
    """Execute the configured pipeline and render it once; the rendered
    report is also written to the optional output path (UTF-8, LF endings)."""
    output = render(_execute(config), config.fmt)
    if config.output_path is not None:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(output)
    return output


def main(argv: list[str] | None = None) -> int:
    """Console entry point.  Exit codes: 0 ok, 2 config, 3 solver, 4 I/O."""
    tokens = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(tokens)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        output = run(config)
    except EigensolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
