"""Seeded operation lists of the three workloads and their correctness checks.

A workload is a fixed *shape* (the sequence of commands, truncation sizes
and output formats of one pass) whose physical parameters are drawn from
the seed.  Pass ``k`` of a run with seed ``s`` draws from its own
``random.Random`` seeded with ``(workload, s, k)``, so the same seed always
gives the same inputs and another seed changes the parameters only.

Every check rests on a fact derived here, independently of the program:

* tables and spectra: ``n_real + 2 n_complex_pairs == N`` and levels 0-9
  real and within 1e-3 of ``(2n+1)AB``;
* duality: the reported ``h_norm`` equals the Frobenius norm of H built
  here as the real matrix ``C[-A^2 (P+Lx)^2 + B^2 (x-RP)^2]`` (``p = iP``);
* sweeps: one point per requested value, no recorded failure, and
  ``n_real + 2 n_complex_pairs == N`` at every point;
* commutator: the last diagonal entry equals ``1 - N`` and the others 1;
* diagonal expectation: the closed form
  ``C[(A^2-R^2B^2)(n+1/2)w + (B^2-L^2A^2)(n+1/2)/w]`` for interior levels,
  and the golden-section minimiser equals the variational frequency.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("solve-large", "sweep-many", "operators")

WHY = {
    "solve-large": "few large solves (N=150-225): the eigensolver layer does nearly all the work",
    "sweep-many": "many small solves (N=20-80): per-point fixed costs in balance, classify, build and render",
    "operators": "operator algebra only (N=100-800): basis and model work, no eigen-solve at all",
}

LEVEL_TOL = 1e-3
CHECKED_LEVELS = 10
GOLDEN_ITERATIONS = 40


class CheckError(AssertionError):
    """An operation's output contradicts an independent fact."""


@dataclass(frozen=True)
class CliOp:
    """One in-process ``nhosc.cli.main(argv)`` call and the facts to check it against."""

    slot: str
    argv: tuple[str, ...]
    facts: dict[str, float]  # independent inputs of the check, N included


@dataclass(frozen=True)
class SearchTask:
    """Golden-section minimisation of ``model.diagonal_expectation`` over the trial frequency.

    Every library call is one operation; the bracket is ``[w_v/4, 4 w_v]``.
    """

    slot: str
    l_coef: float
    r_coef: float
    a_coef: float
    b_coef: float
    n_dim: int
    level: int

    @property
    def w_v(self) -> float:
        num = self.b_coef**2 - (self.l_coef * self.a_coef) ** 2
        den = self.a_coef**2 - (self.r_coef * self.b_coef) ** 2
        return math.sqrt(num / den)

    def closed_form(self, w: float) -> float:
        c = 1.0 / (1.0 + self.l_coef * self.r_coef)
        half = self.level + 0.5
        p2 = self.a_coef**2 - (self.r_coef * self.b_coef) ** 2
        x2 = self.b_coef**2 - (self.l_coef * self.a_coef) ** 2
        return c * (p2 * half * w + x2 * half / w)


def _num(x: float) -> str:
    return repr(float(x))


def _cli(slot, command, n_dim, fmt, flags: dict, facts: dict, count=None, extra=()):
    argv = [command, "--N", str(n_dim), "--format", fmt]
    for flag, value in flags.items():
        argv += [f"--{flag}", value if isinstance(value, str) else _num(value)]
    if count is not None:
        argv += ["--count", str(count)]
    argv += list(extra)
    return CliOp(slot, tuple(argv), dict(facts, N=n_dim))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _solve_large(rng: random.Random) -> tuple:
    u = rng.uniform
    w1, l1 = u(3.5, 4.5), u(2.5, 3.5)
    w2, r2 = u(3.5, 4.5), u(2.5, 3.5)
    l3, b3 = u(2.5, 3.5), u(4.5, 5.5)
    w4, l4 = u(3.5, 4.5), u(2.5, 3.5)
    w5, l5 = u(3.5, 4.5), u(2.5, 3.5)
    return (
        _cli("table1-N200-text", "table1", 200, "text", {"W": w1, "L": l1},
             {"ab": math.hypot(w1, l1)}),
        _cli("table1-N200-json", "table1", 200, "json", {"W": w5, "L": l5},
             {"ab": math.hypot(w5, l5)}, count=200),
        _cli("table2-N150-csv", "table2", 150, "csv", {"W": w2, "R": r2},
             {"ab": math.hypot(w2, r2)}, count=150),
        _cli("spectrum-N225-json", "spectrum", 225, "json", {"L": l3, "B": b3, "w": "auto"},
             {"ab": b3}, count=225),
        _cli("duality-N150-json", "duality", 150, "json", {"W": w4, "L": l4},
             {"L": l4, "R": 0.0, "A": 1.0, "B": math.hypot(w4, l4), "w": w4}),
    )


def _sweep_many(rng: random.Random) -> tuple:
    u = rng.uniform
    l1, b1 = u(2.5, 3.5), u(4.5, 5.5)
    w_v = math.sqrt(b1 * b1 - l1 * l1)
    # six frequencies near the variational one, two far below and above it
    ws = [w_v * math.exp(u(-math.log(2), math.log(2))) for _ in range(6)]
    ws += [w_v * math.exp(u(-math.log(8), -math.log(4))), w_v * math.exp(u(math.log(4), math.log(8)))]
    l2, b2 = u(2.5, 3.5), u(4.5, 5.5)
    n_values = tuple(range(20, 81, 10))
    return (
        _cli("sweep-w-N60x8-json", "sweep-w", 60, "json", {"L": l1, "B": b1},
             {"points": len(ws)}, extra=("--values", ",".join(_num(w) for w in ws))),
        _cli("sweep-n-N20to80-text", "sweep-n", max(n_values), "text", {"L": l2, "B": b2, "w": "auto"},
             {"points": len(n_values)}, extra=("--values", ",".join(map(str, n_values)))),
    )


def _operators(rng: random.Random) -> tuple:
    u = rng.uniform
    ops = []
    for n_dim, fmt in ((400, "text"), (600, "json"), (800, "csv")):
        ops.append(_cli(f"commutator-N{n_dim}-{fmt}", "commutator-check", n_dim, fmt,
                        {"L": u(1.0, 4.0), "R": u(1.0, 4.0)}, {}))
    for n_dim in (100, 150, 200):
        ops.append(SearchTask(
            slot=f"diag-search-N{n_dim}",
            l_coef=u(0.1, 0.6), r_coef=u(0.1, 0.6), a_coef=u(4.0, 6.0), b_coef=u(4.0, 6.0),
            n_dim=n_dim, level=rng.randrange(0, n_dim - 1),
        ))
    return tuple(ops)


_SHAPES = {"solve-large": _solve_large, "sweep-many": _sweep_many, "operators": _operators}


def build_pass(workload: str, seed: int, index: int) -> tuple:
    """The tasks of pass ``index`` of a run with ``seed`` (deterministic)."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _SHAPES[workload](_rng(workload, seed, index))


# ------------------------------------------------------------------ oracles


def real_hamiltonian(l_coef, r_coef, a_coef, b_coef, n_dim, freq, scale=1.0) -> np.ndarray:
    """H = C[-A^2 (P+Lx)^2 + B^2 (x-RP)^2] with p = iP, built in real arithmetic."""
    m = np.sqrt(np.arange(1, n_dim, dtype=float))
    x = np.diag(m, -1) + np.diag(m, 1)
    x *= scale / math.sqrt(2.0 * freq)
    big_p = np.diag(m, -1) - np.diag(m, 1)
    big_p *= scale * math.sqrt(freq / 2.0)
    y = big_p + l_coef * x
    z = x - r_coef * big_p
    c = 1.0 / (1.0 + l_coef * r_coef)
    return c * (-(a_coef**2) * (y @ y) + b_coef**2 * (z @ z))


def h_norm(params, basis) -> float:
    """Frobenius norm of H from library argument objects (TransformParams, BasisSpec)."""
    h = real_hamiltonian(params.l_coef, params.r_coef, params.a_coef, params.b_coef,
                         basis.n_dim, basis.freq, basis.scale)
    return float(np.linalg.norm(h))


# ------------------------------------------------------------------ checks


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_levels(values: list[complex], ab: float, text: bool) -> None:
    # two-decimal text rendering widens the tolerance by half a display unit
    tol = LEVEL_TOL + (0.005 if text else 0.0)
    _require(len(values) >= CHECKED_LEVELS, f"only {len(values)} levels printed")
    for n, v in enumerate(values[:CHECKED_LEVELS]):
        ref = (2 * n + 1) * ab
        _require(abs(v.imag) <= 1e-9 * ref, f"level {n} is not real: {v}")
        _require(abs(v.real - ref) <= tol, f"level {n} = {v.real!r}, expected {ref!r}")


def _check_counts(n_real: int, n_pairs: int, n_dim: int, where: str = "") -> None:
    _require(n_real + 2 * n_pairs == n_dim,
             f"{where}n_real={n_real} + 2*n_complex_pairs={n_pairs} != N={n_dim}")


def _parse_text_value(cell: str) -> complex:
    m = re.fullmatch(r"(-?[0-9.]+)(?:([+-])([0-9.]+)i)?", cell.strip())
    _require(m is not None, f"unparsable value {cell!r}")
    im = 0.0 if m.group(2) is None else float(m.group(3)) * (1 if m.group(2) == "+" else -1)
    return complex(float(m.group(1)), im)


def _summary_counts(line: str) -> tuple[int, int]:
    m = re.search(r"n_real=(\d+) n_complex_pairs=(\d+)", line)
    _require(m is not None, f"no summary line: {line!r}")
    return int(m.group(1)), int(m.group(2))


def _csv_rows(out: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(out)))
    _require(len(rows) >= 1, "empty CSV output")
    return rows[0], rows[1:]


def _check_table(op: CliOp, fmt: str, out: str) -> None:
    n_dim, ab = op.facts["N"], op.facts["ab"]
    if fmt == "json":
        doc = json.loads(out)
        rows = doc["rows"]
        _require(len(rows) == n_dim, f"{len(rows)} rows for N={n_dim}")
        _check_counts(doc["summary"]["n_real"], doc["summary"]["n_complex_pairs"], n_dim)
        _check_levels([complex(r["re"], r["im"]) for r in rows], ab, text=False)
    elif fmt == "csv":
        header, rows = _csv_rows(out)
        _require(header[:4] == ["level", "epsilon_n", "re", "im"], f"bad CSV header {header}")
        _require(len(rows) == n_dim, f"{len(rows)} rows for N={n_dim}")
        ims = [float(r[3]) for r in rows]
        # a real matrix has a conjugate-symmetric spectrum
        n_pos, n_neg = sum(i > 0 for i in ims), sum(i < 0 for i in ims)
        _require(n_pos == n_neg, f"{n_pos} values with Im>0 vs {n_neg} with Im<0")
        _check_counts(n_dim - n_pos - n_neg, n_pos, n_dim)
        _check_levels([complex(float(r[2]), float(r[3])) for r in rows], ab, text=False)
    else:
        lines = out.strip().splitlines()
        _check_counts(*_summary_counts(lines[-1]), n_dim)
        _check_levels([_parse_text_value(ln.split(" | ")[3]) for ln in lines[1:-1]], ab, text=True)


def _check_spectrum(op: CliOp, fmt: str, out: str) -> None:
    n_dim, ab = op.facts["N"], op.facts["ab"]
    _require(fmt == "json", "spectrum ops are checked in JSON")
    doc = json.loads(out)
    values = [complex(v["re"], v["im"]) for v in doc["values"]]
    _require(len(values) == n_dim, f"{len(values)} values for N={n_dim}")
    _check_counts(doc["summary"]["n_real"], doc["summary"]["n_complex_pairs"], n_dim)
    _check_levels(values, ab, text=False)


def duality_rel_err(op: CliOp, out: str) -> float:
    """Check a duality report and return its distance / ||H||."""
    doc = json.loads(out)
    ref = float(np.linalg.norm(real_hamiltonian(
        op.facts["L"], op.facts["R"], op.facts["A"], op.facts["B"], op.facts["N"], op.facts["w"])))
    h = doc["h_norm"]
    _require(abs(h - ref) <= 1e-9 * ref, f"h_norm {h!r} differs from the real build {ref!r}")
    d = doc["distance"]
    _require(math.isfinite(d) and d >= 0.0, f"bad distance {d!r}")
    return d / h


def _check_sweep(op: CliOp, fmt: str, out: str) -> None:
    expected = op.facts["points"]
    if fmt == "json":
        doc = json.loads(out)
        _require(doc["failures"] == [], f"recorded failures {doc['failures']}")
        points = doc["points"]
        _require(len(points) == expected, f"{len(points)} points, expected {expected}")
        for p in points:
            n_dim = int(p["N"]) if "N" in p else op.facts["N"]
            _check_counts(p["n_real"], p["n_complex_pairs"], n_dim, f"point {p}: ")
    else:
        _require("failed:" not in out, "recorded failures in the sweep")
        rows = [ln.split(" | ") for ln in out.strip().splitlines()[1:]]
        _require(len(rows) == expected, f"{len(rows)} points, expected {expected}")
        for r in rows:
            _check_counts(int(r[1]), int(r[2]), int(float(r[0])), f"point N={r[0]}: ")


def _check_commutator(op: CliOp, fmt: str, out: str) -> None:
    n_dim = op.facts["N"]
    if fmt == "text":
        m = re.search(r"last diagonal entry: (-?[0-9.]+)", out)
        _require(m is not None, "no last diagonal entry")
        _require(abs(float(m.group(1)) - (1 - n_dim)) <= 0.005, f"last entry {m.group(1)}")
        return
    if fmt == "json":
        defect = json.loads(out)["defect"]
    else:
        header, rows = _csv_rows(out)
        defect = dict(zip(header, map(float, rows[0])))
    last = defect["last_diag_entry"]
    _require(abs(last - (1 - n_dim)) <= 1e-9 * n_dim, f"last entry {last!r} != 1-N")
    _require(defect["max_diag_deviation"] <= 1e-9, f"diag deviation {defect['max_diag_deviation']!r}")


def check_cli(op: CliOp, code: int, out: str) -> float | None:
    """Raise CheckError unless the CLI output holds; returns duality distance/||H|| if any."""
    _require(code == 0, f"exit code {code}")
    command = op.argv[0]
    fmt = op.argv[op.argv.index("--format") + 1]
    if command in ("table1", "table2"):
        _check_table(op, fmt, out)
    elif command == "spectrum":
        _check_spectrum(op, fmt, out)
    elif command == "duality":
        return duality_rel_err(op, out)
    elif command in ("sweep-w", "sweep-n"):
        _check_sweep(op, fmt, out)
    elif command == "commutator-check":
        _check_commutator(op, fmt, out)
    else:
        raise CheckError(f"no check for {command}")
    return None


def check_expectation(task: SearchTask, w: float, value: float) -> None:
    ref = task.closed_form(w)
    _require(abs(value - ref) <= 1e-10 * abs(ref), f"<{task.level}|H|{task.level}>({w!r}) = {value!r}, closed form {ref!r}")


def check_minimiser(task: SearchTask, w_min: float) -> None:
    _require(abs(w_min - task.w_v) <= 1e-5 * task.w_v, f"minimiser {w_min!r} != w_v {task.w_v!r}")
