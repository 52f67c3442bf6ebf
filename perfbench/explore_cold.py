"""explore-cold: sequential cold sweeps through ``run_task`` in one process.

A run repeats one fixed block of tasks (see :func:`pools.explore_block`)
until ``--seconds`` have passed, each repetition in a seeded order
against a fresh, empty store with the default backend, through
``run_task(verify=True, cache=...)`` — the path ``repro sweep`` takes.

The host's speed drifts by a third and more over tens of seconds, and
large tasks slow down more than small ones, so a single timing of a task
mostly measures when it ran.  A task's latency is therefore the fastest
of its cold runs in the run (every run of it is the same work on an
empty store), and the percentiles and ``tasks_per_s`` are taken over the
block's tasks at those latencies.

The traced run measures every repetition twice on fresh stores, untraced
and traced in alternating order, which gives the per-layer self times and
the tracing overhead on identical work.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from collections import Counter
from typing import Dict, Optional

import common
import pools
import tracing
from layers import layer_unit, shared_layers

WORKLOAD = "explore-cold"

#: What a user's first sweep call pays before its first task: a fresh
#: interpreter importing the package and opening an empty store.
SETUP_CODE = (
    "import sys\n"
    "from repro.api.batch import run_task\n"
    "from repro.explore.cache import ResultCache\n"
    "ResultCache(sys.argv[1])\n"
)


def _run_block(items, cache, tracer: Optional[tracing.Tracer]):
    """Run one block; return [(item, seconds, record or exception)].

    Each task is a fresh copy, so no pass inherits another's memoized
    content address.
    """
    from repro.api.batch import run_task

    outcomes = []
    for item in items:
        task = dataclasses.replace(item.task)
        started = time.perf_counter()
        try:
            if tracer is None:
                record = run_task(task, verify=True, cache=cache)
            else:
                with tracer.span("task", size=item.size):
                    record = run_task(task, verify=True, cache=cache)
        except Exception as exc:  # noqa: BLE001 - a failed task is data here
            record = exc
        outcomes.append((item, time.perf_counter() - started, record))
    return outcomes


def _check(outcome, expected, certify, run: common.Run) -> bool:
    """Gate one task outcome; return True when it is correct."""
    item, _, record = outcome
    key = item.task.cache_key()
    if isinstance(record, Exception):
        run.problem(f"{key[:12]}: {type(record).__name__}: {record}")
        return False
    if record.feasible and not certify(record.result).ok:
        run.problem(f"{key[:12]}: feasible result fails check_certificate")
        return False
    reason = common.check_record(expected, key, record.to_dict())
    if reason is not None:
        run.problem(reason)
        return False
    return True


def _layer_metrics(tracer: tracing.Tracer) -> Dict[str, float]:
    # wrappers are installed only around the tasks, so every span is a task's
    roots = [span for span in tracer.spans if span.name == "task" and span.parent is None]
    layers = shared_layers([tracing.span_dict(span) for span in tracer.spans], len(roots))
    grouped = tracing.self_times_by_root(tracer.spans)
    per_task = [grouped[id(root)] for root in roots]

    def per(name: str, tasks) -> float:
        return sum(t.get(name, 0.0) for t in tasks) / (len(tasks) or 1)

    by_size = lambda size: [t for root, t in zip(roots, per_task) if root.attrs["size"] == size]
    layers["ir.graph_load_s.240"] = per("ir.graph_load", by_size(240))
    for size in (40, 120, 240):
        layers[f"api.pass.schedule_s.{size}"] = per("api.pass.schedule", by_size(size))
    layers["api.unattributed_s"] = per("task", per_task)
    # every task runs the engine scheduler, inside the schedule pass
    layers["sched.engine_s"] = layers["api.pass.schedule_s"]
    return layers


def run(seed: int, seconds: float, trace: bool) -> common.Run:
    from repro.explore.cache import ResultCache
    from repro.verify.certificate import check_certificate

    result = common.Run(WORKLOAD)
    expected = common.load_expected()["records"]
    setup_times = []

    tracer = tracing.Tracer() if trace else None
    targets = tracing.layer_targets(tracer) if trace else []
    block = pools.explore_block()
    rng = random.Random(f"explore:{seed}")
    # fastest run per task, and the tasks with a failed run; records are
    # dropped once checked, so peak RSS is the program's
    best: Dict[str, float] = {}
    wrong = set()
    feasible = set()
    runs = failed = repetitions = 0
    untraced_time = traced_time = 0.0
    started = time.perf_counter()
    while not repetitions or time.perf_counter() - started < seconds:
        items = list(block)
        rng.shuffle(items)
        if not trace:
            setup_times += common.time_interpreter_setup(SETUP_CODE, fresh_dir=True)
        if trace:
            # alternate which pass goes first, so warm-up favours neither
            for traced in ((False, True) if repetitions % 2 == 0 else (True, False)):
                cache = ResultCache(common.scratch_dir(f"{traced}{repetitions}"))
                if traced:
                    with tracing.installed(targets):
                        outcomes = _run_block(items, cache, tracer)
                    traced_time += sum(seconds_ for _, seconds_, _ in outcomes)
                else:
                    plain = _run_block(items, cache, None)
                    untraced_time += sum(seconds_ for _, seconds_, _ in plain)
        else:
            cache = ResultCache(common.scratch_dir(f"b{repetitions}"))
            outcomes = _run_block(items, cache, None)
        for outcome in outcomes:
            item, seconds_, record = outcome
            key = item.task.cache_key()
            best[key] = min(seconds_, best.get(key, seconds_))
            if not isinstance(record, Exception) and record.feasible:
                feasible.add(key)
            runs += 1
            if not _check(outcome, expected, check_certificate, result):
                failed += 1
                wrong.add(key)
        del items, outcomes, outcome
        repetitions += 1
    result.attempted = runs
    result.failed = failed

    count = len(block)
    sizes = Counter(item.size for item in block)
    common.note(
        WORKLOAD,
        f"{count} tasks x {repetitions} repetitions; "
        f"below-floor share {sum(item.below_floor for item in block) / count:.3f}; "
        f"infeasible share {1 - len(feasible) / count:.3f}; "
        "tasks per size class (paper graphs by op count) "
        + ", ".join(f"{size}:{n}" for size, n in sorted(sizes.items()))
        + "; op count quartiles "
        + "/".join(f"{q:g}" for q in statistics.quantiles([item.ops for item in block], n=4)),
    )

    if trace:
        layers = _layer_metrics(tracer)
        layers["trace.slowdown"] = traced_time / untraced_time if untraced_time else 0.0
        tracer.dump(str(common.trace_path(WORKLOAD, seed)))
        for name, value in layers.items():
            result.metric(name, value, layer_unit(name))
        return result

    latencies = [value for key, value in best.items() if key not in wrong]
    rate = count / sum(best.values())
    common.note(
        WORKLOAD,
        common.samples_note(count, len(wrong))
        + f"; each the fastest of {repetitions} runs ({runs} runs, {failed} failed)",
    )
    result.metric("setup_s", statistics.median(setup_times), "s")
    result.metric("tasks_per_s", rate, "1/s")
    result.metric("cases_per_s", rate, "1/s")
    for q, name in ((0.5, "latency_p50_s"), (0.9, "latency_p90_s"), (0.99, "latency_p99_s")):
        result.metric(name, common.ranked_percentile(latencies, len(wrong), q), "s")
    result.metric("ok_share", (runs - failed) / runs, "ratio")
    result.metric("peak_rss_mb", common.self_peak_rss_mb(), "MB")
    return result

