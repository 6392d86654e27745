"""The benchmark's own tests, at tiny sizes:  python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads  # first: puts the checkout's src/ on sys.path
from workloads import DEFAULT_SEED, WORKLOADS, check_ops, run_ops
import banachlab as bl
import run
from tracer import PER_LAYER, Tracer

BENCH = Path(__file__).resolve().parent


def tiny(name, seed=DEFAULT_SEED):
    ops = WORKLOADS[name].setup(seed, "tiny")
    results, errors, wall = run_ops(ops)
    assert not errors and wall > 0
    return ops, results


def counters(metrics):
    units = dict(PER_LAYER)
    return {name: value for name, value in metrics.items() if units[name] != "s"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_workload_runs_and_checks_at_tiny_size(name, seed):
    ops, results = tiny(name, seed)
    outputs, failed, problems = check_ops(ops, results, {}, None)
    assert failed == 0 and problems == []
    assert set(outputs) == {op.key for op in ops}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_equal_untraced_and_counters_repeat(name):
    ops, results = tiny(name)
    plain, _, _ = check_ops(ops, results, {}, None)
    seen = []
    for _ in range(2):
        with Tracer() as tracer:
            traced_ops, traced_results = tiny(name)
        traced, failed, _ = check_ops(traced_ops, traced_results, {}, None)
        assert traced == plain and failed == 0
        seen.append(counters(tracer.layer_metrics()))
    assert seen[0] == seen[1]
    assert seen[0]["norms.tdp_calls"] > 0


def test_tracer_restores_every_wrapped_name():
    before = (bl.tsirelson_norm, bl.dual.tsirelson_norm_witness, bl.SparseVec.__init__,
              bl.norms.NormEngine._evaluate, bl.simplex.StandardFormSimplex._pivot)
    with Tracer():
        assert bl.tsirelson_norm is not before[0]
        assert bl.dual.tsirelson_norm_witness is not before[1]
    after = (bl.tsirelson_norm, bl.dual.tsirelson_norm_witness, bl.SparseVec.__init__,
             bl.norms.NormEngine._evaluate, bl.simplex.StandardFormSimplex._pivot)
    assert after == before


def test_wrong_expected_value_counts_failed_operations():
    ops, results = tiny("block_c0")
    outputs, _, _ = check_ops(ops, results, {}, None)
    assert check_ops(ops, results, {}, outputs)[1] == 0
    wrong = json.loads(json.dumps(outputs))
    wrong["strict"]["max_ratio"] = "3/1"
    _, failed, problems = check_ops(ops, results, {}, wrong)
    assert failed == ops[0].count > 0 and problems
    attempted = sum(op.count for op in ops)
    assert 0 < failed / attempted < 1


def test_raising_operation_is_a_failed_operation():
    ops, results = tiny("wide_support")
    errors = {ops[0].key: "RecursionError: boom"}
    _, failed, problems = check_ops(ops, results, errors, None)
    assert failed == ops[0].count and "boom" in problems[0]


def test_frozen_expected_covers_every_full_size_operation():
    frozen = workloads.load_expected()
    assert set(frozen) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        keys = {op.key for op in workload.setup(DEFAULT_SEED, "full")}
        assert set(frozen[name]) == keys
    assert frozen["block_c0"]["strict"]["max_ratio"] == "2/1"
    assert frozen["block_c0"]["relaxed"]["max_ratio"] == "3/1"
    assert workloads.block_families(9, "strict") == 1681
    assert workloads.block_families(9, "relaxed") == 5991


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


@pytest.mark.parametrize("trace", [False, True])
def test_child_process_record(trace):
    command = [sys.executable, "-S", str(BENCH / "child.py"), "--workload", "distortion",
               "--seed", "3", "--size", "tiny", "--spawned", repr(time.monotonic())]
    done = subprocess.run(command + ["--trace"] * trace, capture_output=True, text=True,
                          timeout=120, check=True)
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["failed"] == 0 and record["ops"] == 105 + 190
    assert 0 < record["setup_s"] < 60 and record["wall_s"] > 0 and record["rss_mb"] > 0
    assert ("layers" in record) == trace


def test_run_refuses_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "distortion", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""


@pytest.mark.parametrize("trace", [False, True])
def test_run_aggregates_samples_into_the_result(monkeypatch, trace):
    layers = {name: 1 for name, _ in PER_LAYER[:-1]}
    walls = iter([2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])

    def fake_child(workload, seed, deadline, *flags):
        if "--setup-only" in flags:
            return {"setup_s": 0.1}
        record = {"setup_s": 0.1, "wall_s": next(walls), "rss_mb": 20.0, "ops": 10,
                  "failed": 0, "problems": [], "digest": "d"}
        return dict(record, layers=layers) if "--trace" in flags else record

    monkeypatch.setattr(run, "child", fake_child)
    record, result = run.run("block_c0", DEFAULT_SEED, 0, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [name for name, _ in PER_LAYER] if trace else list(run.END_TO_END)
    assert list(result["metrics"]) == names
    if trace:  # plain samples 2, 4; traced samples 3, 5
        assert result["metrics"]["trace.overhead_s"]["value"] == 1.0
    else:
        assert result["metrics"]["wall_s"]["value"] == 3.0
        assert result["metrics"]["ops_per_s"]["value"] == 10 / 3.0
