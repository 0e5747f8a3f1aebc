"""Command-line front end: configuration parsing, pipeline dispatch, and one table
per command, serialised only as asked: fixed-format text, or CSV/JSON written by the
standard csv and json writers, every float as its shortest round-trip repr."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from enum import Enum

from .analysis import dual_params, duality_check, isospectral_report, sweep
from .basis import BasisSpec, TransformParams, normalized_commutator_check
from .eig import EigensolverError, Spectrum, eigenvalues
from .model import HamiltonianSpec, _quadratic_form, reality_window, variational_frequency

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
# command with the most dense N x N arrays, holds four float64 ones at its
# subtraction Z Y - Y Z (about 32 bytes per matrix entry) and peaks near
# 155 MB at N = MAX_N.
MAX_N = 2000


class Command(Enum):
    COMMUTATOR_CHECK = "commutator-check"
    SPECTRUM = "spectrum"
    TABLE_ONE = "table1"
    TABLE_TWO = "table2"
    SWEEP_W = "sweep-w"
    SWEEP_N = "sweep-n"
    DUALITY = "duality"


_SWEEPS = (Command.SWEEP_W, Command.SWEEP_N)


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
    """One command's table, serialised by `render` in the requested format only.

    `rows` is the CSV table and the table inside the JSON document `doc`;
    their keys are the CSV header, which `fields` gives when the table may
    be empty.  `lines` formats the text rendering from the same rows.
    `failed` names each sweep point that failed as `key=value: message`:
    text and JSON show failures in the table, CSV has no row for them.
    """

    doc: dict
    rows: list[dict]
    lines: Callable[[], list[str]]
    fields: list[str] | None = None
    failed: tuple[str, ...] = ()


class _Parser(argparse.ArgumentParser):
    # argparse normally exits the process; surface a typed error instead
    def error(self, message):
        raise ConfigError(message)


@functools.cache  # built on first use, not at import; parse_args leaves it unchanged
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
    with_w = (Command.TABLE_ONE, Command.TABLE_TWO, Command.DUALITY)
    for command in Command:  # declaration order is the usage order
        extra = [cap_w] if command in with_w else [values] if command in _SWEEPS else []
        sub.add_parser(command.value, parents=[common, *extra])
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
        for flag in ("L", "R", "A", "B"):
            if not math.isfinite(getattr(ns, flag) or 0.0):
                raise ConfigError(f"--{flag} must be finite")
        params = _validated(
            TransformParams,
            l_coef=0.0 if ns.L is None else ns.L,
            r_coef=0.0 if ns.R is None else ns.R,
            a_coef=1.0 if ns.A is None else ns.A,
            b_coef=1.0 if ns.B is None else ns.B,
        )
        freq = 1.0

    if ns.w == "auto":
        freq = variational_frequency(params)
        if freq is None:
            n_a, n_b, _, _ = _quadratic_form(params)
            cause = "sqrt(b/a) is outside float64" if n_a * n_b > 0 else "undefined: b/a is not positive"
            raise ConfigError(f"--w auto: variational frequency {cause}")
    elif ns.w is not None:
        try:
            freq = float(ns.w)
        except ValueError as exc:
            raise ConfigError(f"--w expects a number or 'auto', got {ns.w!r}") from exc
        if freq <= 0.0:  # auto and --W always give a positive, finite frequency
            raise ConfigError(f"--w must be positive, got {ns.w!r}")
        if not math.isfinite(freq):
            raise ConfigError(f"--w must be finite, got {ns.w!r}")

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
    if command in _SWEEPS:
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
        elif not all(v > 0.0 for v in sweep_values):
            raise ConfigError(f"--values must be positive basis frequencies for sweep-w, got {ns.values!r}")

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
        "w_v": variational_frequency(params),
        "count": config.print_count,
    }
    if config.sweep_values:
        echo["values"] = list(config.sweep_values)
    return echo


def _dash(v) -> str:
    return "-" if v is None else str(v)


def _summary_line(summary: dict) -> str:
    return "summary: " + " ".join(f"{k}={_dash(v)}" for k, v in summary.items())


def _window(params: TransformParams, freq: float) -> dict:
    """The reality window (w-, w+) and whether freq lies where the truncated
    spectrum is real at every N (w <= w- or w >= w+); None in the broken regime, and an
    edge past float64 (inf) is None, as w_v is."""
    window = reality_window(params)
    if window is None:
        return {"w_minus": None, "w_plus": None, "in_real_window": None}
    w_minus, w_plus = (edge if edge < math.inf else None for edge in window)
    return {"w_minus": w_minus, "w_plus": w_plus, "in_real_window": freq <= window[0] or freq >= window[1]}


def _summary(spectrum: Spectrum, config: RunConfig, **extra) -> dict:
    """A solve's summary: its counts, then extra, then the reality window at config's basis."""
    counts = {"n_real": spectrum.n_real, "n_complex_pairs": spectrum.n_complex}
    return {**counts, **extra, **_window(config.params, config.basis.freq)}


def _build_isospectral(config: RunConfig) -> Report:
    report = isospectral_report(config.params, config.basis)
    table = [
        {"level": n, "epsilon_n": e, "re": v.real, "im": v.imag, "abs_dev": d, "remark": "Iso" if iso else "NoIso"}
        for n, (e, v, d, iso) in enumerate(report.rows[: config.print_count].tolist())
    ]
    summary = _summary(report.spectrum, config, first_deviation_index=report.first_deviation_index)

    def lines() -> list[str]:
        dual = config.command is Command.TABLE_TWO
        second = config.params.r_coef if dual else config.params.l_coef
        prefix = " | ".join(_fmt_param(x) for x in (config.capital_w, second, config.basis.freq))
        body = [
            f"{prefix} | {_fmt_value(complex(row['re'], row['im']))} | {_fmt2(row['epsilon_n'])} | "
            + ("iso-spectra" if row["remark"] == "Iso" else "No iso-spectra")
            for row in table
        ]
        header = f"W | {'R' if dual else 'L'} | w | E_n -> H | eps_n | Remarks"
        return [header, *body, _summary_line(summary)]

    return Report({"config": _config_echo(config), "rows": table, "summary": summary}, table, lines)


def _build_spectrum(config: RunConfig) -> Report:
    spec = eigenvalues(HamiltonianSpec(params=config.params, basis=config.basis).bands)
    values = spec.values[: config.print_count].tolist()
    table = [{"level": n, "re": v.real, "im": v.imag} for n, v in enumerate(values)]
    summary = _summary(spec, config)

    def lines() -> list[str]:
        body = [f"{row['level']} | {_fmt_value(complex(row['re'], row['im']))}" for row in table]
        return ["n | E_n -> H", *body, _summary_line(summary)]

    return Report({"config": _config_echo(config), "values": table, "summary": summary}, table, lines)


def _build_commutator(config: RunConfig) -> Report:
    defect = normalized_commutator_check(config.basis, config.params)
    payload = asdict(defect)  # its fields, in order, are the exported columns

    def lines() -> list[str]:
        return [
            f"commutator check: N={config.basis.n_dim} "
            f"L={_fmt_param(config.params.l_coef)} R={_fmt_param(config.params.r_coef)}",
            f"max |diag - 1| over first {defect.n_dim - 1} entries: {defect.max_diag_deviation:.3e}",
            f"last diagonal entry: {_fmt2(defect.last_diag_entry)} (expected 1-N = {_fmt2(defect.expected_last)})",
            f"max off-diagonal magnitude: {defect.max_offdiag:.3e}",
        ]

    return Report({"config": _config_echo(config), "defect": payload}, [payload], lines)


def _fmt_quadruple(params: TransformParams, freq: float) -> str:
    values = (params.l_coef, params.r_coef, params.a_coef, params.b_coef, freq)
    return "(" + ", ".join(f"{k}={_fmt_param(v)}" for k, v in zip("LRABw", values)) + ")"


def _build_duality(config: RunConfig) -> Report:
    params, basis = config.params, config.basis
    distance = duality_check(params, basis)
    h_norm = HamiltonianSpec(params=params, basis=basis).bands.norm
    dual = dual_params(params)

    def lines() -> list[str]:
        # no relative distance when h_norm = 0: H = 0 (A = B = 0; the build
        # rejects an H that underflows or is zero)
        rel = f"{distance / h_norm:.3e}" if h_norm > 0.0 else "-"
        return [
            f"duality check at N={basis.n_dim}: "
            f"{_fmt_quadruple(params, basis.freq)} vs {_fmt_quadruple(dual, 1.0 / basis.freq)}",
            f"max band distance, dual vs transposed H: {distance:.6e}",
            f"hamiltonian norm: {h_norm:.6e} (distance/norm = {rel})",
        ]

    row = {"distance": distance, "h_norm": h_norm}
    doc = {
        "config": _config_echo(config),
        "dual": {"L": dual.l_coef, "R": dual.r_coef, "A": dual.a_coef, "B": dual.b_coef,
                 "w": 1.0 / basis.freq},
        **row,
    }
    return Report(doc, [row], lines)


def _build_sweep(config: RunConfig) -> Report:
    by_w = config.command is Command.SWEEP_W
    field, key = ("freq", "w") if by_w else ("n_dim", "N")
    result = sweep(config.params, [replace(config.basis, **{field: v}) for v in sorted(config.sweep_values)])
    fields = [key, "n_real", "n_complex_pairs", "first_deviation_index", "max_abs_dev_below_first_deviation"]
    table = []
    for basis, r in result.points:
        cutoff = r.first_deviation_index
        max_dev = float(r.rows["abs_dev"][:cutoff].max(initial=0.0))
        spec = r.spectrum
        table.append(dict(zip(fields, (getattr(basis, field), spec.n_real, spec.n_complex, cutoff, max_dev))))
        if by_w:
            table[-1]["in_real_window"] = _window(config.params, basis.freq)["in_real_window"]
    fields += ["in_real_window"] if by_w else []
    failures = [{key: getattr(basis, field), "error": msg} for basis, msg in result.failures]

    def lines() -> list[str]:
        # text shortens max_abs_dev_below_first_deviation to max_abs_dev_below
        out = [" | ".join(f.removesuffix("_first_deviation") for f in fields)]
        for value, n_real, n_pairs, first_dev, max_dev, *window in map(dict.values, table):
            cells = [_fmt_param(value), n_real, n_pairs, _dash(first_dev), f"{max_dev:.3e}", *window]
            out.append(" | ".join(map(str, cells)))
        return out + [f"{_fmt_param(f[key])} | failed: {f['error']}" for f in failures]

    failed = tuple(f"{key}={f[key]}: {f['error']}" for f in failures)
    return Report({"config": _config_echo(config), "points": table, "failures": failures}, table, lines, fields, failed)


# each command's pipeline, which builds its one table
_BUILDERS = {
    Command.COMMUTATOR_CHECK: _build_commutator,
    Command.SPECTRUM: _build_spectrum,
    Command.TABLE_ONE: _build_isospectral,
    Command.TABLE_TWO: _build_isospectral,
    Command.DUALITY: _build_duality,
    Command.SWEEP_W: _build_sweep,
    Command.SWEEP_N: _build_sweep,
}


def render(report: Report, fmt: Format) -> str:
    """Serialise a report in the requested output format, and only in it."""
    if fmt is Format.TEXT:
        return "\n".join(report.lines()) + "\n"
    if fmt is Format.JSON:
        return json.dumps(report.doc, allow_nan=False) + "\n"
    for row in report.rows:
        for v in row.values():
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} cannot be exported")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.fields or list(report.rows[0]))
    writer.writerows(row.values() for row in report.rows)
    return buf.getvalue()


def run(config: RunConfig) -> str:
    """Execute the configured pipeline and render it once; the rendered
    report is also written to the optional output path (UTF-8, LF endings).
    A CSV sweep writes each failed point to stderr as `failed: key=value: message`."""
    report = _BUILDERS[config.command](config)
    output = render(report, config.fmt)
    if config.fmt is Format.CSV:
        for cell in report.failed:
            print(f"failed: {cell}", file=sys.stderr)
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
