"""Tests of the benchmark itself: tiny runs of each workload, a gate that
rejects a corrupted plan, and a trace whose counts agree with the plans."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gate import Tally, heideman_reference  # noqa: E402

lf = workloads.load_package(ROOT / "src")


def _run_ops(workload, tally, count):
    index = workload.warm(tally)
    for i in range(index, index + count):
        workload.op(i, tally)


def test_sweep_smoke():
    tally = Tally()
    inputs = workloads.SweepInputs(seed=3, index=0, ladder=(12, 16))
    assert workloads.sweep_once(lf, inputs, tally) > 0
    assert (tally.attempted, tally.failed) == (2, 0), tally.problems
    assert tally.counts == {12: (8, 126), 16: (12, 198)}


def test_stream_smoke():
    tally = Tally()
    _run_ops(workloads.Stream(lf, seed=3, n=12, pool=4), tally, 6)
    assert tally.failed == 0, tally.problems
    assert tally.attempted == workloads.STREAM_WARM + 6
    assert tally.counts == {12: (8, 126)}


def test_reload_smoke(tmp_path):
    tally = Tally()
    _run_ops(workloads.Reload(lf, seed=3, workdir=tmp_path, sizes=(12, 16),
                              picks=6), tally, 6)
    assert (tally.attempted, tally.failed) == (8, 0), tally.problems
    assert tally.counts == {12: (8, 126), 16: (12, 198)}


def test_gate_fails_a_plan_with_a_flipped_branch_sign(tmp_path):
    reload = workloads.Reload(lf, seed=3, workdir=tmp_path, sizes=(12,),
                              picks=4)
    doc = json.loads(reload.paths[12].read_text())
    doc["branches"][0]["sign"] *= -1
    reload.paths[12].write_text(json.dumps(doc))
    tally = Tally()
    _run_ops(reload, tally, 3)
    assert tally.attempted == 4
    assert tally.failed / tally.attempted > 0


def test_gate_fails_a_plan_with_a_tampered_add_count():
    stream = workloads.Stream(lf, seed=3, n=12, pool=4)
    stream.plan = dataclasses.replace(stream.plan,
                                      add_count=stream.plan.add_count + 1)
    tally = Tally()
    _run_ops(stream, tally, 2)
    assert tally.failed == tally.attempted > 0
    assert "measured (mults, adds)" in tally.problems[0]


def test_traced_counts_agree_with_the_plans():
    ladder = (12, 16, 20, 24)
    tracer = tracing.Tracer()
    tally = Tally()
    with tracer:
        workloads.sweep_once(lf, workloads.SweepInputs(3, 0, ladder), tally)
    summary = tracer.take()
    assert tally.failed == 0, tally.problems
    assert summary.absent == [] and summary.hook_errors == 0
    branches = sum(len(lf.compile_plan_for(n).branches) for n in ladder)
    assert summary.branches == branches
    assert summary.calls["rational.rank_factor"] >= branches
    assert summary.calls["decomposition.decompose"] == 2 * len(ladder)
    assert summary.calls["plan.compile_plan"] == len(ladder)
    # every wrapped span nests under one of the benchmark's own calls
    assert summary.root_ns == sum(summary.self_ns.values())
    metrics = tracing.per_layer_metrics(summary, tracing.TraceSummary(), 1,
                                        [1], [1], tally.max_err)
    assert metrics["execute.real_mults"] == sum(
        m for m, _ in tally.counts.values())
    assert 0 < metrics["rational.useful_factorization_ratio"] < 0.5


def test_tracer_restores_originals_and_reports_absent_names():
    plan_mod = sys.modules["laurentfft.plan"]
    rational_mod = sys.modules["laurentfft.rational"]
    before = (plan_mod.rank_factor,
              vars(rational_mod.RationalMatrix)["from_int_matrix"])
    tracer = tracing.Tracer(tracing.TARGETS + (
        ("ghost.gone", "laurentfft.plan", "no_such_function"),
        ("ghost.module", "laurentfft.no_such_module", "f"),
        ("ghost.method", "laurentfft.rational", "NoSuchClass.method"),
    ))
    with tracer:
        assert plan_mod.rank_factor is not before[0]
        lf.compile_plan_for(12)
    after = (plan_mod.rank_factor,
             vars(rational_mod.RationalMatrix)["from_int_matrix"])
    assert after == before
    summary = tracer.take()
    assert summary.absent == ["laurentfft.no_such_module.f",
                              "laurentfft.plan.no_such_function",
                              "laurentfft.rational.NoSuchClass.method"]
    assert "ghost.gone" not in summary.calls
    assert summary.calls["rational.from_int_matrix"] > 0


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([5, 1, 3]) == ("max", 5.0, 0)
    label, value, beyond = run.tail(list(range(1, 1001)))
    assert (label, value, beyond) == ("p99", 990.0, 10)


@pytest.mark.parametrize("n", [12, 16, 28, 32, 60, 64, 96])
def test_heideman_reference_agrees_with_the_package(n):
    assert heideman_reference(n) == lf.heideman_bound(n)


def test_metric_tables_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert set(run.PER_LAYER_UNITS) == set(tracing.per_layer_metrics(
        tracing.TraceSummary(), tracing.TraceSummary(), 1, [1], [1], 0.0))


@pytest.mark.parametrize("workload,trace,units", [
    ("stream", "0", run.END_TO_END_UNITS),
    ("reload", "1", run.PER_LAYER_UNITS),
])
def test_cli_prints_every_metric(workload, trace, units, monkeypatch, capsys):
    for var in run.THREAD_POOL_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    assert run.main(["--workload", workload, "--seed", "5",
                     "--seconds", "0.3", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_cli_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
