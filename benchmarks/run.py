"""nhosc benchmark: time to a checked spectrum, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload solve-large --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all --seconds 55          # every workload

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Operations are in-process calls of
``nhosc.cli.main(argv)`` and of the public library, and every output is
checked against an independent fact (see ``workloads.py``).  Passes over
the workload's operation list repeat until ``--seconds`` is used up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over identical inputs and prints the per-layer
metrics; spans are written to ``benchmarks/out/`` when the run ends.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 11
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_package():
    """Import nhosc from this checkout's ``src``; exit 2 when it is missing."""
    if not (SRC / "nhosc" / "__init__.py").is_file():
        print(f"error: no nhosc package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import nhosc
    import nhosc.cli  # noqa: F401

    if Path(nhosc.__file__).resolve().parent != SRC / "nhosc":
        print(f"error: imported nhosc from {nhosc.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return nhosc


# what a check raises on output that is wrong or does not parse
_MALFORMED = (wl.CheckError, ValueError, KeyError, IndexError, TypeError)


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# ------------------------------------------------------------------ machine speed
#
# The shared virtual machine this benchmark was written on slows by 1.5-2x in
# spells lasting seconds to minutes, in CPU time as well as wall time, so a
# run that falls in a spell reads slow whatever statistic it reports.  The
# untraced run therefore times a fixed calibration unit between operations
# and scales every time metric by REF_UNIT_S / (the unit's median time
# around that moment): times are reported at the machine speed at which the
# unit takes REF_UNIT_S.  Spells slow interpreted code more than dense BLAS
# products, so each workload is scaled by the unit in the style of the layer
# that does its work.  The units are the benchmark's own code and import
# nothing from nhosc.  Raw times are printed and recorded too.

REF_UNIT_S = 0.020  # about either unit's time on the machine of README.md, quiet spell
CALIBRATE_EVERY_S = 0.5  # at most one unit per this much time: 2-5 % overhead
SPEED_WINDOW_S = 10.0  # a pass is scaled by the units within this distance of it
SPEED_UNIT = {"solve-large": "interpreted", "sweep-many": "interpreted", "operators": "dense"}
_INTERPRETED_INPUT = np.random.default_rng(20240917).random((160, 160))
_DENSE_INPUT = np.random.default_rng(20240918).random((500, 500)) / 500.0


def _interpreted_unit() -> float:
    """The solver's style: scalar-indexed Python loops over a numpy array and
    elementwise slice updates.  Calls no BLAS routine."""
    a = _INTERPRETED_INPUT.copy()
    acc = 0.0
    for _ in range(6):
        for i in range(1, 160):
            for j in range(max(0, i - 4), min(160, i + 3)):
                x, y = a[i, j], a[j, i]
                acc += abs(x) * y
                a[i, j] = 0.999 * x + 1e-3 * y
        for k in range(0, 156, 2):
            a[k + 1:, k:] -= 1e-3 * np.multiply.outer(a[k + 1:, k], a[k, k:])
            acc += float(np.abs(a[:, k]).sum())
    return acc


def _dense_unit() -> float:
    """The operator algebra's style: dense 500x500 matrix products (BLAS)."""
    a = _DENSE_INPUT
    acc = 0.0
    for _ in range(6):
        acc += float((a @ a)[0, 0])
    return acc


_UNITS = {"interpreted": _interpreted_unit, "dense": _dense_unit}


def calibration_unit(kind: str) -> float:
    """Seconds taken by one calibration unit of ``kind``."""
    t0 = time.perf_counter()
    acc = _UNITS[kind]()
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError(f"{kind} calibration unit diverged")
    return elapsed


class Speedometer:
    """Calibration samples ``(time, unit seconds)`` taken between operations."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        dt = calibration_unit(self.kind)
        self.samples.append((time.perf_counter(), dt))

    def tick(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_UNIT_S / median unit time within SPEED_WINDOW_S of ``[start, end]``
        (all samples when none is that close)."""
        near = [dt for t, dt in self.samples if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        return REF_UNIT_S / statistics.median(near or [dt for _, dt in self.samples])


@dataclass
class OpRecord:
    slot: str
    latency: float
    cpu: float
    ok: bool
    error: str | None = None
    output: object = None
    bytes_out: int = 0
    root_s: float = 0.0
    duality_rel_err: float | None = None


@dataclass
class PassResult:
    records: list[OpRecord]
    start: float  # perf_counter at the pass's first and last operation
    end: float

    @property
    def wall(self) -> float:
        return sum(r.latency for r in self.records)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.records)


class Harness:
    """Runs tasks against the package; looks every function up at call time,
    so an installed tracer sees each call."""

    def __init__(self, nhosc, tracer: tracing.Tracer | None = None,
                 speed: Speedometer | None = None):
        self.nhosc = nhosc
        self.tracer = tracer
        self.speed = speed

    def _roots_since(self, first: int) -> float:
        spans = self.tracer.spans
        return sum(s.duration for s in spans[first:] if s.parent == -1)

    def _begin_op(self) -> int:
        """Give the tracer a fresh operation id; returns the index of the op's first span."""
        if self.tracer is None:
            return 0
        self.tracer.op += 1
        return len(self.tracer.spans)

    def run_cli(self, op: wl.CliOp, checked: bool = True) -> OpRecord:
        out, err = io.StringIO(), io.StringIO()
        first = self._begin_op()
        error = None
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.nhosc.cli.main(list(op.argv))
        except Exception as exc:  # an escaped exception is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        cpu = _cpu() - c0
        text = out.getvalue()
        rec = OpRecord(op.slot, latency, cpu, error is None, error, text, len(text.encode()))
        if self.tracer:
            rec.root_s = self._roots_since(first)
        if checked and rec.ok:
            try:
                rec.duality_rel_err = wl.check_cli(op, code, text)
            except _MALFORMED as exc:
                rec.ok = False
                rec.error = f"{type(exc).__name__}: {exc} | stderr: {err.getvalue().strip()[:200]}"
        return rec

    def _expectation(self, spec, task: wl.SearchTask, w: float, checked: bool):
        first = self._begin_op()
        value, error = None, None
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            value = self.nhosc.model.diagonal_expectation(spec, task.level, w)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        rec = OpRecord(task.slot, latency, _cpu() - c0, error is None, error, value)
        if self.tracer:
            rec.root_s = self._roots_since(first)
        if checked and rec.ok:
            try:
                wl.check_expectation(task, w, value)
            except _MALFORMED as exc:
                rec.ok, rec.error = False, f"{type(exc).__name__}: {exc}"
        return rec

    def run_search(self, task: wl.SearchTask, checked: bool = True,
                   iterations: int = wl.GOLDEN_ITERATIONS) -> list[OpRecord]:
        basis = self.nhosc.basis
        spec = self.nhosc.model.HamiltonianSpec(
            params=basis.TransformParams(task.l_coef, task.r_coef, task.a_coef, task.b_coef),
            basis=basis.BasisSpec(n_dim=task.n_dim),
        )
        records: list[OpRecord] = []

        def f(w):
            rec = self._expectation(spec, task, w, checked)
            records.append(rec)
            if not rec.ok:
                raise wl.CheckError(rec.error)
            return rec.output

        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = task.w_v / 4.0, task.w_v * 4.0
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        try:
            fc, fd = f(c), f(d)
            for _ in range(iterations):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - inv_phi * (b - a)
                    fc = f(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + inv_phi * (b - a)
                    fd = f(d)
            if checked:
                wl.check_minimiser(task, 0.5 * (a + b))
        except wl.CheckError as exc:
            last = records[-1]
            if last.ok:
                last.ok, last.error = False, str(exc)
        return records

    def run_pass(self, tasks: tuple, checked: bool = True) -> PassResult:
        records: list[OpRecord] = []
        start = time.perf_counter()
        for task in tasks:
            if self.speed:
                self.speed.tick()  # between operations, outside every timed window
            if isinstance(task, wl.CliOp):
                records.append(self.run_cli(task, checked))
            else:
                records.extend(self.run_search(task, checked))
        return PassResult(records, start, time.perf_counter())

    def warm_up(self, tasks: tuple) -> None:
        """Small-N versions of every task, unchecked: imports and lazy set-up finish."""
        for task in tasks:
            if isinstance(task, wl.CliOp):
                argv = list(task.argv)
                argv[argv.index("--N") + 1] = "20"
                if "--count" in argv:
                    del argv[argv.index("--count"): argv.index("--count") + 2]
                if argv[0] == "sweep-n":
                    argv[argv.index("--values") + 1] = "10,20"
                self.run_cli(wl.CliOp(task.slot, tuple(argv), task.facts), checked=False)
            else:
                small = wl.SearchTask(task.slot, task.l_coef, task.r_coef, task.a_coef,
                                      task.b_coef, 20, 0)
                self.run_search(small, checked=False, iterations=1)


# ------------------------------------------------------------------ environment


def _blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}
    except Exception as exc:  # older numpy has no dict mode
        return {"error": f"{type(exc).__name__}: {exc}"}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nhosc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": os.uname().machine,
        "kernel": os.uname().release,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ------------------------------------------------------------------ metrics


def op_tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, latency) at the highest ladder percentile with >= 10 samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def setup_seconds(speed: Speedometer) -> tuple[float, float]:
    """Median cold start, raw and scaled by ``speed``: a fresh interpreter
    importing ``nhosc.cli`` from this checkout.  A calibration unit follows each start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    first = time.perf_counter()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nhosc.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
        speed.sample()
    raw = statistics.median(times)
    return raw, raw * speed.scale(first, time.perf_counter())


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def _until(seconds: float, unit):
    """Call ``unit()`` until the next call would likely overrun ``seconds`` (at least once)."""
    start = time.perf_counter()
    longest = 0.0
    results = []
    while not results or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        results.append(unit(len(results)))
        longest = max(longest, time.perf_counter() - t0)
    return results


def run_untraced(nhosc, workload: str, seed: int, seconds: float):
    """Time metrics are scaled to the calibration unit's REF_UNIT_S pass by pass;
    ``extra["raw"]`` holds them unscaled."""
    speed = Speedometer(SPEED_UNIT[workload])
    harness = Harness(nhosc, speed=speed)
    harness.warm_up(wl.build_pass(workload, seed, -1))

    def one(k):
        result = harness.run_pass(wl.build_pass(workload, seed, k))
        for r in result.records:
            r.output = None
        return result

    passes = _until(seconds, one)
    peak = _peak_rss_mb()
    setup_raw, setup_scaled = setup_seconds(Speedometer("interpreted"))  # starting is interpreter work
    scales = [speed.scale(p.start, p.end) for p in passes]
    records = [r for p in passes for r in p.records]
    latencies = [r.latency for r in records]
    scaled_latencies = [r.latency * f for p, f in zip(passes, scales) for r in p.records]
    metrics = {
        "wall_s": statistics.median(p.wall * f for p, f in zip(passes, scales)),
        "op_p50_s": statistics.median(scaled_latencies),
        "cpu_s": statistics.median(p.cpu * f for p, f in zip(passes, scales)),
        "peak_rss_mb": peak,
        "setup_s": setup_scaled,
    }
    raw = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_s": statistics.median(latencies),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": setup_raw,
    }
    extra = {
        "passes": len(passes), "ops": len(records), "op_tail": op_tail(scaled_latencies),
        "raw": raw, "calibration_unit": speed.kind, "calibration_units": len(speed.samples),
        "unit_median_s": statistics.median(dt for _, dt in speed.samples),
        "scale_min_max": (min(scales), max(scales)),
    }
    return metrics, records, passes, extra


def run_traced(nhosc, workload: str, seed: int, seconds: float):
    """Pairs of untraced and traced passes over the same inputs (order alternates)."""
    tracer = tracing.Tracer(nhosc)
    plain, traced = Harness(nhosc), Harness(nhosc, tracer)
    plain.warm_up(wl.build_pass(workload, seed, -1))
    per_pass: list[dict] = []
    problems: list[str] = []

    def one(k):
        tasks = wl.build_pass(workload, seed, k)
        first = len(tracer.spans)

        def traced_pass():
            with tracer:
                return traced.run_pass(tasks)

        if k % 2 == 0:
            base, result = plain.run_pass(tasks), traced_pass()
        else:
            result, base = traced_pass(), plain.run_pass(tasks)
        m = tracing.pass_layer_metrics(tracer.spans, first, result.wall, wl.h_norm)
        # the part of each operation's window outside its root spans is the
        # harness's own; with it the layers' self times must add up to the wall
        unattributed = sum(r.latency - r.root_s for r in result.records)
        self_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        if abs(self_sum + unattributed - result.wall) > 1e-9 * max(result.wall, 1.0):
            problems.append(f"pass {k}: self {self_sum!r} + unattributed {unattributed!r} != wall {result.wall!r}")
        if tracing.nesting_errors(tracer.spans, first):
            problems.append(f"pass {k}: spans outside their parent")
        if unattributed < -1e-6:
            problems.append(f"pass {k}: spans outside their operation window")
        for a, b in zip(base.records, result.records):
            if a.output != b.output and b.ok:
                b.ok, b.error = False, "tracing changed the output"
        m["trace.unattributed_s"] = unattributed
        m["trace.untraced_wall_s"] = base.wall
        m["trace.overhead_s"] = result.wall - base.wall
        m["cli.bytes_out"] = sum(r.bytes_out for r in result.records)
        per_pass.append(m)
        for r in base.records + result.records:
            r.output = None
        return base, result

    pairs = _until(seconds, one)
    metrics = tracing.aggregate(per_pass)
    points = sum(p["analysis.sweep.points"] for p in per_pass)
    attempted = points + sum(p["analysis.sweep.failures"] for p in per_pass)
    metrics["analysis.sweep.ok_ratio"] = points / attempted if attempted else 0.0
    records = [r for pair in pairs for p in pair for r in p.records]
    extra = {"pairs": len(pairs), "ops": len(records), "problems": problems}
    return metrics, records, tracer, extra


# ------------------------------------------------------------------ reporting


def _write(path: Path, obj) -> None:
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj) + "\n")


def _print_failures(records: list[OpRecord]) -> None:
    bad = [r for r in records if not r.ok]
    for r in bad[:5]:
        print(f"FAILED {r.slot}: {r.error}")
    if len(bad) > 5:
        print(f"... and {len(bad) - 5} more failed operations")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    nhosc = load_package()
    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}: {wl.WHY[args.workload]}")

    if args.trace:
        metrics, records, tracer, extra = run_traced(nhosc, args.workload, args.seed, args.seconds)
        problems = extra["problems"]
        units = declared("per_layer")
        print(f"traced run: {extra['pairs']} untraced/traced pass pairs, {extra['ops']} operations")
        for p in problems:
            print(f"TRACE CHECK FAILED {p}")
        _write(OUT / f"spans-{args.workload}-seed{args.seed}.json", {
            "fields": ["sid", "name", "start", "end", "parent", "op", "error"],
            "spans": [[s.sid, s.name, s.start, s.end, s.parent, s.op, s.error] for s in tracer.spans],
        })
    else:
        metrics, records, passes, extra = run_untraced(nhosc, args.workload, args.seed, args.seconds)
        problems = []
        units = declared("end_to_end")
        print(f"untraced run: {extra['passes']} passes, {extra['ops']} operations")

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {name: metrics[name] for name in units}
    failed = sum(not r.ok for r in records)
    attempted = len(records)
    for name, value in metrics.items():
        raw = "" if args.trace or name not in extra["raw"] else f"  (raw {extra['raw'][name]:.6g})"
        print(f"{name:<40} {value:>16.6g} {units[name]}{raw}")
    if not args.trace:
        print(f"times scaled to a {REF_UNIT_S:g} s {SPEED_UNIT[args.workload]} calibration unit; its median here was "
              f"{extra['unit_median_s']:.6g} s over {extra['calibration_units']} units")
        tail = extra["op_tail"]
        if tail is None:
            print(f"{'op_tail_s':<40} {'n/a':>16} s  (fewer than 100 operations in the run)")
        else:
            print(f"{'op_tail_s':<40} {tail[1]:>16.6g} s  (p{tail[0]:g} of {attempted} operations)")
    print(f"{'fail_frac':<40} {failed / attempted:>16.6g} ratio  ({failed}/{attempted})")
    rel = [r.duality_rel_err for r in records if r.duality_rel_err is not None]
    if rel:
        print(f"duality distance/||H|| max {max(rel):.3e} over {len(rel)} ops (known transpose-dual defect at N>=150)")
    _print_failures(records)
    correct = failed == 0 and not problems

    _write(OUT / f"result-{tag}.json", {
        "env": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "fail_frac": failed / attempted,
        "failures": [{"slot": r.slot, "error": r.error} for r in records if not r.ok][:50],
        "ops": [[r.slot, r.latency, r.cpu] for r in records],
        "slot_median_s": {
            slot: statistics.median(r.latency for r in records if r.slot == slot)
            for slot in dict.fromkeys(r.slot for r in records)
        },
    })
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; prints a combined table."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("env "):
                print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            combined[f"{workload}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
