"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracing
import workloads as wl

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def nhosc():
    return bench.load_package()


def small_table_op():
    # at N=60 the W=4, L=3 table is isospectral up to level 17
    return wl._cli("table1-N60-json", "table1", 60, "json", {"W": 4.0, "L": 3.0},
                   {"ab": 5.0}, count=60)


def shape(tasks):
    """What must stay fixed across seeds: task kinds, commands, sizes and formats."""
    return [
        (t.slot, t.argv[0], t.facts["N"], t.argv[t.argv.index("--format") + 1])
        if isinstance(t, wl.CliOp) else (t.slot, t.n_dim)
        for t in tasks
    ]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for k in range(3):
        assert wl.build_pass(workload, 7, k) == wl.build_pass(workload, 7, k)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_changes_parameters_not_shape(workload):
    a, b = wl.build_pass(workload, 7, 0), wl.build_pass(workload, 8, 0)
    assert a != b
    assert shape(a) == shape(b) == shape(wl.build_pass(workload, 7, 5))


def test_benchmark_json_workloads_exist():
    for w in SPEC["workloads"]:
        assert w["why"] == wl.WHY[w["name"]]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_untraced(nhosc, workload):
    metrics, records, passes, extra = bench.run_untraced(nhosc, workload, seed=3, seconds=0)
    assert len(passes) == 1
    assert records and all(r.ok for r in records), [r.error for r in records if not r.ok]
    assert set(metrics) == set(bench.declared("end_to_end"))
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_traced(nhosc, workload):
    metrics, records, tracer, extra = bench.run_traced(nhosc, workload, seed=3, seconds=0)
    assert extra["pairs"] == 1 and extra["problems"] == []
    assert all(r.ok for r in records), [r.error for r in records if not r.ok]
    assert set(metrics) == set(bench.declared("per_layer"))
    spans = tracer.spans
    assert spans and all(s.parent < s.sid for s in spans)
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    if workload == "operators":
        assert metrics["eig.self_s"] == 0 and metrics["eig.solves"] == 0
    else:
        assert metrics["eig.solves"] > 0 and metrics["eig.lapack_ref.s"] > 0


def test_tracer_wraps_every_lookup_and_restores(nhosc):
    originals = (nhosc.eig.balance, nhosc.analysis.eigenvalues, nhosc.cli.isospectral_report,
                 nhosc.model.transformed_momentum, nhosc.eigenvalues)
    with tracing.Tracer(nhosc) as tracer:
        wrapped = (nhosc.eig.balance, nhosc.analysis.eigenvalues, nhosc.cli.isospectral_report,
                   nhosc.model.transformed_momentum, nhosc.eigenvalues)
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
        nhosc.eig.eigenvalues([[2.0, 1.0], [0.0, 3.0]])
    assert (nhosc.eig.balance, nhosc.analysis.eigenvalues, nhosc.cli.isospectral_report,
            nhosc.model.transformed_momentum, nhosc.eigenvalues) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["eig.eigenvalues", "eig.balance", "eig.hessenberg_reduce"]
    assert tracer.spans[1].parent == tracer.spans[2].parent == 0


def test_clean_output_passes_its_check(nhosc):
    assert bench.Harness(nhosc).run_cli(small_table_op()).ok


def _edit(change):
    def corrupt(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _edit(lambda d: d["summary"].update(n_real=d["summary"]["n_real"] + 1)),
    _edit(lambda d: d["rows"][3].update(re=d["rows"][3]["re"] + 0.01)),
    _edit(lambda d: d["rows"][2].update(im=0.5)),
    _edit(lambda d: d["rows"].pop()),
    lambda text: text[: len(text) // 2],
])
def test_corrupted_output_counts_as_failure(nhosc, monkeypatch, corrupt):
    render = nhosc.cli.render
    monkeypatch.setattr(nhosc.cli, "render", lambda report, fmt: corrupt(render(report, fmt)))
    result = bench.Harness(nhosc).run_pass((small_table_op(),))
    assert [r.ok for r in result.records] == [False]


@pytest.mark.parametrize("wrong", [lambda v: v * (1 + 1e-6), lambda v: None])
def test_wrong_expectation_counts_as_failure(nhosc, monkeypatch, wrong):
    exact = nhosc.model.diagonal_expectation
    monkeypatch.setattr(nhosc.model, "diagonal_expectation",
                        lambda spec, level, w: wrong(exact(spec, level, w)))
    task = wl.build_pass("operators", 0, 0)[-1]
    records = bench.Harness(nhosc).run_search(task)
    assert len(records) == 1 and not records[0].ok


def test_exception_and_exit_code_count_as_failure(nhosc, monkeypatch):
    def boom(argv):
        raise RuntimeError("boom")

    harness = bench.Harness(nhosc)
    op = small_table_op()
    monkeypatch.setattr(nhosc.cli, "main", boom)
    assert not harness.run_cli(op).ok
    monkeypatch.setattr(nhosc.cli, "main", lambda argv: 3)
    assert not harness.run_cli(op).ok


def test_op_tail_needs_ten_samples_beyond():
    assert bench.op_tail([0.1] * 99) is None
    assert bench.op_tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert bench.op_tail([float(i) for i in range(1000)])[0] == 99.0


def test_speed_scale_uses_nearby_calibration_units():
    speed = bench.Speedometer("interpreted")
    ref = bench.REF_UNIT_S
    speed.samples = [(0.0, ref), (1.0, ref), (100.0, 2 * ref), (101.0, 2 * ref), (102.0, 2 * ref)]
    assert speed.scale(0.5, 2.0) == 1.0
    assert speed.scale(100.0, 103.0) == 0.5  # a slow spell halves the reported times
    assert speed.scale(500.0, 501.0) == 0.5  # nothing near: median of all units
    assert set(bench.SPEED_UNIT) == set(wl.WORKLOADS)
    assert all(bench.calibration_unit(kind) > 0 for kind in set(bench.SPEED_UNIT.values()))


def test_environment_record():
    env = bench.environment(bench.argparse.Namespace(workload="operators", seed=4, seconds=1, trace=0))
    assert env["seed"] == 4 and env["nproc"] >= 1
    assert {"python", "numpy", "blas", "thread_env", "git_commit", "src_sha256"} <= set(env)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(bench.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "operators", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
