"""In-memory span tracer that wraps the public functions of the nhosc layers.

The tracer replaces every public function of the five layer modules
(``basis``, ``model``, ``eig``, ``analysis``, ``cli``) in every namespace
that looks it up by name: the layer modules themselves (``cli`` imports
``isospectral_report`` by name, ``eig.eigenvalues`` calls ``balance``
through the ``eig`` globals) and the ``nhosc`` package.  A span records
its name, start, end, parent span and the operation it belongs to.  Spans
stay in memory until the run ends.

Self time is a span's duration minus the durations of its child spans.
Because every child lies inside its parent, the self times of a pass add
up to the summed durations of its root spans; the remainder of the timed
operation windows is ``trace.unattributed_s``.
"""

from __future__ import annotations

import inspect
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("basis", "model", "eig", "analysis", "cli")

# functions whose arguments and results feed counters; everything else
# records timing only
_RECORDED = {
    "model.build_hamiltonian",
    "eig.hessenberg_reduce",
    "eig.eigenvalues",
    "analysis.isospectral_report",
    "analysis.duality_check",
    "analysis.sweep_frequency",
    "analysis.sweep_truncation",
    "cli.main",
}

_OPERATORS = {
    "basis.position_matrix",
    "basis.momentum_matrix",
    "basis.transformed_momentum",
    "basis.transformed_position",
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    op: int
    error: bool
    args: tuple | None = None
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Tracer:
    """Wraps the layer functions while installed; spans accumulate in ``spans``."""

    package: object
    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        record = name in _RECORDED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(sid, name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False)
            spans.append(span)
            stack.append(sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if record:
                span.args, span.result = args, result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for ns in (self.package, *modules.values()):
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span], first: int = 0) -> dict[int, float]:
    """Self time of every span from index ``first`` on (duration minus children)."""
    child = {}
    for s in spans[first:]:
        if s.parent >= first:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.sid: s.duration - child.get(s.sid, 0.0) for s in spans[first:]}


def nesting_errors(spans: list[Span], first: int = 0) -> int:
    """Spans that are not inside their parent's interval (should be 0)."""
    bad = 0
    for s in spans[first:]:
        if s.end < s.start:
            bad += 1
        elif s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                bad += 1
    return bad


def _has_ancestor_in(spans: list[Span], s: Span, names: set[str]) -> bool:
    p = s.parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def _real_input(m) -> np.ndarray:
    entries = getattr(m, "entries", m)
    return np.array(np.asarray(entries).real, dtype=np.float64)


def pass_layer_metrics(spans: list[Span], first: int, op_wall_s: float, h_norm) -> dict:
    """Per-layer metrics of one traced pass (spans ``first`` onwards).

    ``op_wall_s`` is the summed latency of the pass's operations as the
    harness timed them; ``h_norm(params, basis)`` is an independent
    Frobenius norm of H used to scale the duality distance.  The plain
    LAPACK reference solve runs here, after the pass and outside every span.
    """
    own = spans[first:]
    selfs = self_times(spans, first)
    m: dict[str, float] = {}

    def total(name):
        return sum(s.duration for s in own if s.name == name)

    def self_of(name):
        return sum(selfs[s.sid] for s in own if s.name == name)

    def calls(name):
        return sum(1 for s in own if s.name == name)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.sid] for s in own if s.layer == layer)
    m["trace.wall_s"] = op_wall_s
    m["trace.spans"] = len(own)
    m["eig.self_share"] = m["eig.self_s"] / op_wall_s if op_wall_s > 0 else 0.0

    m["basis.commutator_check.s"] = total("basis.normalized_commutator_check")
    m["basis.commutator_check.calls"] = calls("basis.normalized_commutator_check")
    m["basis.operators.s"] = sum(
        s.duration for s in own
        if s.name in _OPERATORS and not _has_ancestor_in(spans, s, _OPERATORS)
    )
    m["basis.operators.calls"] = sum(1 for s in own if s.name in _OPERATORS)

    m["model.build_hamiltonian.self_s"] = self_of("model.build_hamiltonian")
    m["model.build_hamiltonian.calls"] = calls("model.build_hamiltonian")
    # dense complex N x N result, 16 bytes per entry
    m["model.build_hamiltonian.bytes_computed"] = sum(
        16 * s.args[0].basis.n_dim ** 2
        for s in own if s.name == "model.build_hamiltonian" and s.args
    )
    m["model.diagonal_expectation.self_s"] = self_of("model.diagonal_expectation")
    m["model.diagonal_expectation.calls"] = calls("model.diagonal_expectation")

    solves = [s for s in own if s.name == "eig.eigenvalues"]
    m["eig.balance.s"] = total("eig.balance")
    m["eig.hessenberg_reduce.s"] = total("eig.hessenberg_reduce")
    m["eig.eigenvalues.self_s"] = self_of("eig.eigenvalues")
    m["eig.sort_spectrum.s"] = total("eig.sort_spectrum")
    m["eig.classify.s"] = total("eig.classify")
    m["eig.solves"] = len(solves)
    m["eig.errors"] = sum(1 for s in solves if s.error)
    matrices = [_real_input(s.args[0]) for s in solves if s.args]
    m["eig.dim_sum"] = sum(a.shape[0] for a in matrices)
    m["eig.hessenberg.flops_computed"] = sum(
        10 * s.args[0].shape[0] ** 3 / 3
        for s in own if s.name == "eig.hessenberg_reduce" and s.args
    )
    lapack = 0.0
    for a in matrices:
        t0 = time.perf_counter()
        np.linalg.eigvals(a)
        lapack += time.perf_counter() - t0
    m["eig.lapack_ref.s"] = lapack

    m["analysis.isospectral_report.self_s"] = self_of("analysis.isospectral_report")
    m["analysis.isospectral_report.calls"] = calls("analysis.isospectral_report")
    reports = [s.result for s in own if s.name == "analysis.isospectral_report" and s.result]
    m["analysis.iso_levels"] = sum(
        len(r.rows) if r.first_deviation_index is None else r.first_deviation_index
        for r in reports
    )
    m["analysis.duality_check.self_s"] = self_of("analysis.duality_check")
    m["analysis.duality_check.calls"] = calls("analysis.duality_check")
    m["analysis.duality_rel_err_max"] = max(
        (s.result / h_norm(*s.args[:2])
         for s in own if s.name == "analysis.duality_check" and s.result is not None),
        default=0.0,
    )
    sweeps = [s for s in own if s.name in ("analysis.sweep_frequency", "analysis.sweep_truncation")]
    m["analysis.sweep.self_s"] = sum(selfs[s.sid] for s in sweeps)
    m["analysis.sweep.points"] = sum(len(s.result.points) for s in sweeps if s.result)
    m["analysis.sweep.failures"] = sum(len(s.result.failures) for s in sweeps if s.result)

    m["cli.parse_config.s"] = total("cli.parse_config")
    m["cli.run.self_s"] = self_of("cli.run")
    m["cli.render.s"] = total("cli.render")
    m["cli.exit_nonzero"] = sum(
        1 for s in own if s.name == "cli.main" and (s.error or s.result != 0)
    )

    # drop argument/result references so the pass's arrays can be freed
    for s in own:
        s.args = s.result = None
    return m


def aggregate(per_pass: list[dict]) -> dict:
    """Median over traced passes; maxima stay maxima."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = max(values) if key.endswith("_max") else statistics.median(values)
    return out
