"""Smoke test of the benchmark at tiny sizes, and of its correctness checks.

    python3 -m pytest perfbench -q

Each workload runs for one second untraced and traced; the checks are fed
tampered outputs and must refuse them.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import hooks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qemc import core, graphs, harness, simulator  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    value = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in value.values())
        return
    assert value["trace.overhead_frac"] > -1
    if workload == "study256":
        assert value["simulator.probability_vjp.calls"] == value["core.train.iterations"]
        assert value["baselines.gw_solve.calls"] > 0
        assert value["harness.pool_starts"] > 0
    else:
        assert value["baselines.gw_solve.calls"] == 0
    if workload == "shots16":
        p = workloads.Shots16.SIZES["tiny"]
        params = 3 * simulator.num_qubits_for(p["nodes"]) * p["layers"]
        assert value["simulator.probability_vjp.calls"] == 0
        assert value["simulator.probabilities.calls"] == pytest.approx(
            (1 + 2 * params) * value["core.train.iterations"])
        assert value["harness.dispatch_s"] == 0
        assert value["harness.pool_starts"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "shots16", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# -- the checks refuse wrong outputs ----------------------------------------------------


@pytest.fixture(scope="module")
def record():
    graph = graphs.generate_regular(8, 3, seed=1)
    return core.train(graph, simulator.AnsatzConfig(3, 2), core.EncodingConfig.half(8),
                      core.OptimizerConfig(0.5, 6, seed=2))


def test_record_checks_pass_on_real_output(record):
    checks.check_record(record)
    checks.check_same_trial(record, dataclasses.replace(record))


@pytest.mark.parametrize("tamper", [
    lambda r: {"costs": np.where(np.arange(r.costs.size) == 2, np.nan, r.costs)},
    lambda r: {"best_cuts": np.arange(r.cuts.size, 0, -1.0),
               "cuts": np.arange(r.cuts.size, 0, -1.0)},
    lambda r: {"best_cuts": r.best_cuts + 1},
    lambda r: {"costs": r.costs[:-1]},
    lambda r: {"counters": dataclasses.replace(
        r.counters, circuit_executions=r.counters.circuit_executions + 1)},
], ids=["nan-cost", "decreasing-best", "best-not-running-max", "short-history",
        "execution-count"])
def test_record_check_refuses(record, tamper):
    with pytest.raises(checks.CheckFailed):
        checks.check_record(dataclasses.replace(record, **tamper(record)))


def test_replay_check_sees_one_flipped_bit(record):
    params = record.final_params.copy()
    params.view("u8")[0] ^= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_same_trial(record, dataclasses.replace(record, final_params=params))


@pytest.mark.parametrize("cuts,upper", [([3.0, float("nan")], 10), ([0.0], 10), ([11.0], 10),
                                        ([], 10)])
def test_cut_check_refuses(cuts, upper):
    with pytest.raises(checks.CheckFailed):
        checks.check_cuts(cuts, upper, "cuts")


@pytest.mark.parametrize("ratio", [float("nan"), 0.0, -1.0, float("inf")])
def test_ratio_check_refuses(ratio):
    with pytest.raises(checks.CheckFailed):
        checks.check_ratio(ratio)


# -- the reference kernel -----------------------------------------------------------------


@pytest.mark.parametrize("processes", [1, 2])
def test_reference_helpers_sample_and_stop(processes):
    ref = reference.Reference(processes)
    procs = list(ref._procs)
    try:
        assert len(procs) == (0 if processes == 1 else processes)
        assert all(p.is_alive() for p in procs)
        assert ref.sample() > 0
    finally:
        ref.close()
    assert not any(p.is_alive() for p in procs)


def test_local_reference_takes_three_samples_each_side():
    refs = [1.0, 9.0, 2.0, 3.0, 100.0, 4.0, 5.0]
    # refs[k] is taken just before operation k and refs[k + 1] just after it
    assert run.local_reference(refs, 0) == 2.5            # 1, 9, 2, 3
    assert run.local_reference(refs, 2) == 3.5            # 1, 9, 2, 3, 100, 4
    assert run.local_reference(refs, 5) == 4.5            # 3, 100, 4, 5


# -- tracing ------------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    span = tracing.Span
    spans = [span((1, 0), None, "bench.op", 0.0, 10.0, "op0", None),
             span((1, 1), (1, 0), "harness.grid_search", 0.0, 10.0, "op0", None),
             # two workers overlap from 4 to 6; 1 to 8 is covered
             span((2, 0), (1, 1), "core.train", 1.0, 6.0, "op0/train1", None),
             span((3, 0), (1, 1), "core.train", 4.0, 8.0, "op0/train2", None)]
    metrics = tracing.layer_metrics(spans, jobs=2)
    assert metrics["harness.grid_search.self_s"][0] == pytest.approx(3.0)
    assert metrics["harness.dispatch_s"][0] == pytest.approx(3.0)
    assert metrics["harness.worker_busy_frac"][0] == pytest.approx(9.0 / 20.0)
    assert metrics["core.train.calls"][0] == 2


def test_spawned_workers_are_checked_and_traced(tmp_path):
    graph = graphs.generate_regular(8, 3, seed=1)
    optimizers = [core.OptimizerConfig(0.5, 2, seed=s) for s in range(3)]
    hk = hooks.Hooks(tmp_path)
    hk.install()
    tracer = tracing.Tracer()
    hk.start_tracing(tracer)
    try:
        with tracer.span("bench.op", "op0"):
            with harness.ProcessPoolExecutor(
                    max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
                records = list(pool.map(core.train, [graph] * 3,
                                        [simulator.AnsatzConfig(3, 1)] * 3,
                                        [core.EncodingConfig.half(8)] * 3, optimizers))
    finally:
        hk.uninstall()
    checked, spans = hk.drain()
    assert len(records) == 3 and checked == 3
    trains = [s for s in spans if s.name == "core.train"]
    assert len(trains) == 3 and all(s.trial.startswith("op0/train") for s in trains)
