"""The benchmark's own tests: smoke runs, the correctness gate, the contract.

Run from the checkout root (about two minutes; they start real services)::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import common
import explore_cold
import pools
import serve_mix
from layers import END_TO_END, LAYER_METRICS

BENCHMARK_JSON = common.ROOT / "BENCHMARK.json"


def run_benchmark(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_names_the_catalogue():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["explore-cold", "serve-mix", "oracle-small"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["explore-cold", "serve-mix", "oracle-small"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = run_benchmark(common.ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1
    wanted = (
        {name: unit for name, unit, _ in LAYER_METRICS}
        if trace
        else {name: unit for name, unit, _, _ in END_TO_END}
    )
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "explore-cold", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _pinned_feasible_item():
    graph = pools.Graph.paper("hal")
    return graph.sweep(pools.PAPER_SLACKS[0], pools.EXPLORE_FACTORS)[-1]


def test_gate_fires_on_a_doctored_explore_record():
    from repro.api.batch import run_task
    from repro.verify.certificate import check_certificate

    expected = common.load_expected()["records"]
    item = _pinned_feasible_item()
    record = run_task(item.task, verify=True)
    assert record.feasible

    run = common.Run("explore-cold")
    assert explore_cold._check((item, 0.1, record), expected, check_certificate, run)
    assert run.problems == []

    doctored = dataclasses.replace(record, area=record.area + 1)
    assert not explore_cold._check((item, 0.1, doctored), expected, check_certificate, run)
    assert run.problems and not run.correct


def test_gate_fires_on_a_doctored_served_record():
    from repro.api.batch import run_task

    expected = common.load_expected()["records"]
    item = _pinned_feasible_item()
    record = run_task(item.task).to_dict()
    arrival = serve_mix.Arrival(0.0, b"", item.task.cache_key(), "hit", False)
    arrival.job = {"state": "done", "record": record}
    assert serve_mix._check(arrival, expected) is None
    arrival.job = {"state": "done", "record": dict(record, latency=record["latency"] + 1)}
    assert "pinned" in serve_mix._check(arrival, expected)


def test_failures_rank_as_infinitely_late():
    finished = [0.1 * k for k in range(1, 10)]
    assert common.ranked_percentile(finished, 0, 0.5) == pytest.approx(0.5)
    # one failure among ten: the 90th percentile is still a finished job
    assert common.ranked_percentile(finished, 1, 0.9) == pytest.approx(0.9)
    # ... the 99th lands on the failure and reads the slowest time seen
    assert common.ranked_percentile(finished, 1, 0.99) == pytest.approx(0.9)
