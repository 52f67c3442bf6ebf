"""oracle-small: the differential oracle, one killable child per case.

Every case of the draw runs ``run_fuzz`` for exactly its (family, seed)
coordinates — ``cross_check`` with the fuzzer's own per-case scheduler
choice — in a forked child that leads its own process group.  At
:data:`LIMIT_S` the whole group is killed (portfolio races fork children
of their own), the case counts as failed, and the next case starts in a
fresh child.

On two cores in a fast period of the host the pool's cases took
0.02-0.37 s (mesh-12 the slowest), or 1.24 s (mesh-6) and up (the
slowest ran for minutes); the host runs up to 1.6x slower at other
times.  The limit sits in the middle of that gap, 1.8x from the nearest
case on either side, so the same five cases are killed in every run
(at 1.3 s, mesh-6 was killed in slow periods and finished in fast
ones).  A run is a sequence of whole rounds, each the whole pool of 80
cases in a seeded order; nothing slow is filtered out.  A run of whole
rounds holds the same cases whatever the seed and however many rounds
fit in ``--seconds``; a case's latency is the fastest of its runs in the
run, so the percentiles are taken over the 80 cases and do not hang on
how fast the host was when a case ran.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import common
import pools
import tracing
from layers import layer_unit, shared_layers

WORKLOAD = "oracle-small"

#: Wall-clock limit of one case, in seconds.
LIMIT_S = 0.67

#: What a user's first ``repro fuzz`` call pays before its first case.
SETUP_CODE = "from repro.verify.fuzz import FuzzConfig, run_fuzz\nimport repro.portfolio\n"

CLASSICAL = ("asap", "alap", "list", "force_directed", "pasap", "palap", "two_step")


@dataclass
class CaseOutcome:
    name: str
    seconds: float
    killed: bool = False
    payload: Optional[Dict[str, Any]] = None
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def decided(self) -> bool:
        return not self.killed and self.payload is not None and "error" not in self.payload


def _case_payload(case, trace: bool) -> Dict[str, Any]:
    """Child side: run the case, summarize it (and its spans) as JSON."""
    from repro.verify.fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(families=(case.family,), seeds=1, base_seed=case.seed)
    tracer = tracing.Tracer()
    if not trace:
        report = run_fuzz(config)
        spans: List[Dict[str, Any]] = []
    else:
        with tracing.installed(tracing.layer_targets(tracer) + _oracle_targets(tracer)):
            with tracer.span("case"):
                report = run_fuzz(config)
        spans = [tracing.span_dict(span) for span in tracer.spans]
    (_, _, cross), = report.cases
    return {
        "violations": [v.to_dict() for v in cross.violations],
        "runs": len(cross.outcomes),
        "spans": spans,
    }


def _run_task_attrs(record: tracing.Span, result: Any) -> None:
    task_result = getattr(result, "result", None)
    record.attrs["scheduler"] = result.task.scheduler
    if task_result is not None:
        metadata = task_result.schedule.metadata
        record.attrs["ilp_nodes"] = metadata.get("ilp_nodes", 0)
        record.attrs["ilp_iterations"] = metadata.get("ilp_iterations", 0)


def _portfolio_attrs(record: tracing.Span, outcome: Any) -> None:
    record.attrs["first_certified_s"] = outcome.first_certified_s
    record.attrs["decided_s"] = outcome.elapsed


def _oracle_targets(tracer: tracing.Tracer):
    """``run_task`` per strategy pair, as ``run_batch`` looks it up."""
    from repro.api import batch
    from repro.portfolio import runner

    return [
        (batch, "run_task", tracer.wrap("api.run_task", batch.run_task, _run_task_attrs)),
        (runner, "run_portfolio", tracer.wrap("portfolio.run", runner.run_portfolio, _portfolio_attrs)),
    ]


def run_case(case, limit: float, trace: bool = False) -> CaseOutcome:
    """Run one case in a killable child; kill its process group at ``limit``."""
    read_end, write_end = os.pipe()
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never return into the benchmark's own stack
        code = 0
        try:
            os.setpgid(0, 0)
            os.close(read_end)
            try:
                payload = _case_payload(case, trace)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            data = json.dumps(payload).encode()
            while data:
                data = data[os.write(write_end, data):]
        except BaseException:  # noqa: BLE001 - the child must always exit here
            code = 1
        finally:
            os._exit(code)
    try:
        os.setpgid(pid, pid)  # also from the parent, so a kill cannot race it
    except OSError:
        pass
    os.close(write_end)
    chunks = []
    killed = False
    try:
        while True:
            remaining = started + limit - time.perf_counter()
            if remaining <= 0:
                killed = True
                break
            ready, _, _ = select.select([read_end], [], [], remaining)
            if ready:
                chunk = os.read(read_end, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        seconds = time.perf_counter() - started
    finally:
        try:  # the child and anything it forked (portfolio contenders)
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)
        os.close(read_end)
    outcome = CaseOutcome(pools.case_name(case), seconds, killed)
    if not killed:
        try:
            outcome.payload = json.loads(b"".join(chunks).decode())
        except ValueError:
            outcome.payload = {"error": "child exited without a result"}
        outcome.spans = outcome.payload.pop("spans", [])
    return outcome


def rounds(seed: int):
    """Yield the run's rounds without end: the whole pool, seeded order."""
    rng = random.Random(f"oracle:{seed}")
    cases = pools.oracle_cases()
    while True:
        batch = list(cases)
        rng.shuffle(batch)
        yield batch


def _layer_metrics(outcomes: List[CaseOutcome]) -> Dict[str, float]:
    spans = [span for outcome in outcomes for span in outcome.spans]
    layers = shared_layers(spans, len(outcomes))
    count = len(outcomes) or 1
    runs = [s for s in spans if s["name"] == "api.run_task"]
    for label, names in (
        ("exact", ("exact",)),
        ("ilp", ("ilp",)),
        ("portfolio", ("portfolio",)),
        ("engine", ("engine",)),
        ("classical", CLASSICAL),
    ):
        layers[f"sched.{label}_s"] = (
            sum(s["duration"] for s in runs if s["attrs"].get("scheduler") in names) / count
        )
    layers["lp.nodes"] = sum(s["attrs"].get("ilp_nodes", 0) for s in runs) / count
    layers["lp.iterations"] = sum(s["attrs"].get("ilp_iterations", 0) for s in runs) / count
    races = [s["attrs"] for s in spans if s["name"] == "portfolio.run" and "decided_s" in s["attrs"]]
    certified = [r["first_certified_s"] for r in races if r["first_certified_s"] is not None]
    layers["portfolio.first_certified_s"] = common.median(certified)
    layers["portfolio.decided_s"] = common.median(r["decided_s"] for r in races)
    layers["oracle.killed"] = sum(1 for o in outcomes if o.killed)
    return layers


def run(seed: int, seconds: float, trace: bool) -> common.Run:
    result = common.Run(WORKLOAD)
    setup_times = []
    by_name = {pools.case_name(case): case for case in pools.oracle_cases()}

    measured: List[CaseOutcome] = []
    untraced_time = traced_time = 0.0
    started = time.perf_counter()
    for index, batch in enumerate(rounds(seed)):
        if measured and time.perf_counter() - started >= seconds:
            break
        if not trace:
            setup_times += common.time_interpreter_setup(SETUP_CODE)
        if trace:
            # alternate which pass goes first, so warm-up favours neither
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    outcomes = [run_case(case, LIMIT_S, trace=True) for case in batch]
                    traced_time += sum(o.seconds for o in outcomes if o.decided)
                else:
                    plain = [run_case(case, LIMIT_S) for case in batch]
                    untraced_time += sum(o.seconds for o in plain if o.decided)
        else:
            outcomes = [run_case(case, LIMIT_S) for case in batch]
        measured.extend(outcomes)

    # a case's latency is the fastest of its runs (the host's speed drifts
    # from second to second; every run of a case is the same work).  A
    # killed case was given up at the limit: its latency is that time,
    # which ranks it after every decided case.  Five cases in 80 are
    # killed, so p99 always lands on one and reads the limit: it can
    # move only if the killed share changes.  A case with a wrong or
    # missing answer ranks as infinitely late.
    best: Dict[str, float] = {}
    strategy_runs: Dict[str, int] = {}
    wrong = set()
    failed = 0
    for outcome in measured:
        best[outcome.name] = min(outcome.seconds, best.get(outcome.name, outcome.seconds))
        if outcome.decided and not outcome.payload["violations"]:
            strategy_runs[outcome.name] = outcome.payload["runs"]
            continue
        failed += 1
        if outcome.killed:
            continue
        wrong.add(outcome.name)
        if "error" in outcome.payload:
            result.problem(f"{outcome.name}: {outcome.payload['error']}")
        else:
            violation = outcome.payload["violations"][0]
            result.problem(
                f"{outcome.name}: {len(outcome.payload['violations'])} cross_check "
                f"violation(s), first [{violation['kind']}] {violation['message']}"
            )
    result.attempted = len(measured)
    result.failed = failed

    cases = [by_name[o.name] for o in measured]
    share = lambda flags: sum(flags) / (len(cases) or 1)
    common.note(
        WORKLOAD,
        f"{len(cases)} cases; register-budgeted share "
        f"{share(c.task.register_budget is not None for c in cases):.3f}; portfolio-raced share "
        f"{share(c.portfolio for c in cases):.3f}; below-floor share "
        f"{share(c.below_floor for c in cases):.3f}; killed share "
        f"{share(o.killed for o in measured):.3f} (limit {LIMIT_S} s)",
    )

    if trace:
        layers = _layer_metrics(measured)
        layers["trace.slowdown"] = traced_time / untraced_time if untraced_time else 0.0
        with open(common.trace_path(WORKLOAD, seed), "w") as handle:
            for outcome in measured:
                for span in outcome.spans:
                    handle.write(json.dumps(dict(span, case=outcome.name)) + "\n")
        for name, value in layers.items():
            result.metric(name, value, layer_unit(name))
        return result

    total = sum(best.values())
    latencies = [value for name, value in best.items() if name not in wrong]
    common.note(
        WORKLOAD,
        common.samples_note(len(best), len(wrong))
        + f"; each the fastest of its {len(measured) // len(best)} runs; "
        f"{len(best) - len(strategy_runs)} cases decided in no round",
    )
    result.metric("setup_s", statistics.median(setup_times), "s")
    result.metric("tasks_per_s", sum(strategy_runs.values()) / total, "1/s")
    result.metric("cases_per_s", len(best) / total, "1/s")
    for q, name in ((0.5, "latency_p50_s"), (0.9, "latency_p90_s"), (0.99, "latency_p99_s")):
        result.metric(name, common.ranked_percentile(latencies, len(wrong), q), "s")
    result.metric("ok_share", (len(measured) - failed) / (len(measured) or 1), "ratio")
    result.metric("peak_rss_mb", common.children_peak_rss_mb(), "MB")
    return result
