"""The per-layer metric catalogue shared by every traced run.

Every traced run prints every metric below; a layer a workload never
enters reads 0 there (for example ``serve.*`` on explore-cold).  Time
metrics are seconds per operation of the workload (task, job or case)
unless the name says otherwise; ``serve.*`` times are medians per job.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("ir.graph_load_s", "s", "lower"),
    ("ir.graph_load_s.240", "s", "lower"),
    ("api.pass.select_s", "s", "lower"),
    ("api.pass.schedule_s", "s", "lower"),
    ("api.pass.bind_s", "s", "lower"),
    ("api.pass.finalize_s", "s", "lower"),
    ("api.pass.analyze_s", "s", "lower"),
    ("api.pass.schedule_s.40", "s", "lower"),
    ("api.pass.schedule_s.120", "s", "lower"),
    ("api.pass.schedule_s.240", "s", "lower"),
    ("api.cache_key_s", "s", "lower"),
    ("api.unattributed_s", "s", "lower"),
    ("verify.certify_s", "s", "lower"),
    ("verify.certify_calls", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("serve.admit_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.exec_warm_s", "s", "lower"),
    ("serve.exec_cold_s", "s", "lower"),
    ("serve.result_lag_s", "s", "lower"),
    ("serve.polls_per_job", "count", "lower"),
    ("serve.http_429", "count", "lower"),
    ("serve.worker_crashes", "count", "lower"),
    ("serve.requeues", "count", "lower"),
    ("sched.exact_s", "s", "lower"),
    ("sched.ilp_s", "s", "lower"),
    ("sched.portfolio_s", "s", "lower"),
    ("sched.engine_s", "s", "lower"),
    ("sched.classical_s", "s", "lower"),
    ("lp.nodes", "count", "lower"),
    ("lp.iterations", "count", "lower"),
    ("portfolio.first_certified_s", "s", "lower"),
    ("portfolio.decided_s", "s", "lower"),
    ("oracle.killed", "count", "lower"),
    ("gen.lag_p99_s", "s", "lower"),
    ("trace.slowdown", "ratio", "lower"),
)


#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("cases_per_s", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_p90_s", "s", "lower", 0.25),
    ("latency_p99_s", "s", "lower", 0.25),
    ("ok_share", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def zero_layers() -> Dict[str, float]:
    """Every per-layer metric at 0, for a workload to fill in."""
    return {name: 0.0 for name, _, _ in LAYER_METRICS}


def shared_layers(spans: List[Dict[str, Any]], count: int) -> Dict[str, float]:
    """The layer metrics every workload reads the same way from its spans.

    ``spans`` are span dicts (:func:`tracing.span_dict` form) and ``count``
    is the number of operations they cover: graph load, the five passes,
    content addressing, certification and store reads/writes, as self
    time per operation, plus certification calls per operation and the
    share of store reads that hit.  Every other metric reads 0.
    """
    layers = zero_layers()
    count = count or 1

    def per_op(name: str) -> float:
        return sum(s["self"] for s in spans if s["name"] == name) / count

    layers["ir.graph_load_s"] = per_op("ir.graph_load")
    for name in ("select", "schedule", "bind", "finalize", "analyze"):
        layers[f"api.pass.{name}_s"] = per_op(f"api.pass.{name}")
    layers["api.cache_key_s"] = per_op("api.cache_key")
    layers["verify.certify_s"] = per_op("verify.certify")
    layers["verify.certify_calls"] = sum(1 for s in spans if s["name"] == "verify.certify") / count
    layers["store.put_s"] = per_op("store.put")
    layers["store.get_s"] = per_op("store.get")
    gets = [s for s in spans if s["name"] == "store.get"]
    layers["store.hit_ratio"] = sum(1 for s in gets if s["attrs"].get("hit")) / (len(gets) or 1)
    return layers


def layer_unit(name: str) -> str:
    return {name: unit for name, unit, _ in LAYER_METRICS}[name]
