"""serve-mix: ``repro serve`` driven open-loop at one fixed rate.

The service runs as a subprocess with one process worker per available
core, on a store the program pre-filled itself (``run_batch`` over the
corpus, once per invocation) and that every boot gets a fresh copy of.
One generator process — this one — sends requests on a fixed schedule
over at most two keep-alive connections: a submitter that POSTs each job
when it is due, and a poller that follows every outstanding job with
``GET /jobs/<id>`` at the cadence of the program's own ``Client.wait``
(once right after admission, then every 50 ms).  Latency runs from when a
job was *due* to when the service finished it (the job's ``finished_at``),
so a stall also delays every job behind it; the further 0-50 ms until a
poll delivers the result is the client's poll cadence, reported as
``serve.result_lag_s``.  A run whose generator fell behind or whose
backlog grew is reported invalid instead of scored.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import common
import pools
from layers import layer_unit, shared_layers

WORKLOAD = "serve-mix"

#: Offered load in jobs per second.  It keeps the two process workers of a
#: two-core machine about 30% busy (printed with every run as "workers
#: busy").  The cores are shared with the service's front and the
#: generator, and on a shared machine they can run half as fast for
#: minutes: at twice this rate (60-80% busy) such a slowdown drove the
#: service into a growing backlog.
RATE = 34.0
#: Share of arrivals that are fresh (cold) tasks; the rest repeat corpus
#: points.  Twice 10%, so p90 falls near the middle of the fresh tasks,
#: whose time is synthesis; at 12% it fell where the fastest fresh tasks
#: meet the hits queued behind them, and moved by a quarter between runs.
COLD_SHARE = 0.2
#: Cold arrivals submitted twice back to back (single-flight pairs).
PAIRS = 5
#: Skew of the repeat draw over the corpus (Zipf exponent over a seeded order).
ZIPF_EXPONENT = 0.5
#: Seconds between polls of one outstanding job: ``Client.wait``'s default.
POLL_S = 0.05
#: Boots per run; the median boot time is ``setup_s``, the last boot is measured.
BOOTS = 5
#: Backlog bound handed to the service (beyond it: HTTP 429).
MAX_QUEUE_DEPTH = 256
#: How long outstanding jobs may take to finish after the last submission.
DRAIN_S = 20.0
#: Validity: the generator's p99 lateness and the backlog growth allowed.
MAX_GEN_LAG_P99_S = 0.05
MAX_BACKLOG_GROWTH = 8


def cores() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Arrival:
    due: float  # seconds after the start of the schedule
    body: bytes
    key: str
    kind: str  # "hit" or "cold"
    inline: bool
    pair: bool = False
    sent: float = 0.0
    status: int = 0
    job_id: str = ""
    admit_s: float = 0.0
    finished: float = 0.0  # the job's finished_at, on this process's clock
    observed_epoch: float = 0.0
    polls: int = 0
    job: Optional[Dict[str, Any]] = None
    error: str = ""


def _groups(items, *, by_factor: bool = False) -> Dict[str, list]:
    """Items grouped by graph (benchmark name or inline op count), and by
    power factor too with ``by_factor``."""
    groups: Dict[str, list] = {}
    for item in items:
        label = item.task.graph if isinstance(item.task.graph, str) else f"inline{item.ops}"
        if by_factor:
            label += f"@{item.factor:g}"
        groups.setdefault(label, []).append(item)
    return groups


def _labels(rng: random.Random, groups: Dict[str, list], count: int) -> List[str]:
    """``count`` group labels in exact proportion to group size, shuffled.

    Every seed then sends the same graph mix; only which points of each
    graph, and their order, change.
    """
    total = sum(len(members) for members in groups.values())
    quotas = {label: count * len(members) / total for label, members in groups.items()}
    counts = {label: int(quota) for label, quota in quotas.items()}
    by_remainder = sorted(quotas, key=lambda label: counts[label] - quotas[label])
    for label in by_remainder[: count - sum(counts.values())]:
        counts[label] += 1
    labels = [label for label in sorted(counts) for _ in range(counts[label])]
    rng.shuffle(labels)
    return labels


def schedule(seed: int, seconds: float, corpus, cold_pool) -> List[Arrival]:
    """The seeded open-loop schedule: one arrival every 1/RATE seconds.

    Repeats pick their graph in exact proportion to the corpus and a point
    of that graph by a Zipf draw over a seeded order; fresh tasks pick
    their graph and power factor in exact proportion to the cold pool and
    a point of that group without replacement.
    """
    rng = random.Random(f"serve:{seed}")
    count = int(RATE * seconds)
    # fresh tasks evenly spaced (seeded phase), so no seed clumps them
    step = 1 / COLD_SHARE
    phase = rng.random() * step
    cold_slots = {int(phase + k * step) for k in range(round(COLD_SHARE * count))}
    pair_slots = set(rng.sample(sorted(cold_slots), min(PAIRS, len(cold_slots))))
    hits = _groups(corpus)
    for members in hits.values():
        rng.shuffle(members)
    weights = {label: pools.zipf_cumulative(len(m), ZIPF_EXPONENT) for label, m in hits.items()}
    fresh = _groups(cold_pool, by_factor=True)
    for members in fresh.values():
        rng.shuffle(members)
    hit_labels = iter(_labels(rng, hits, count - len(cold_slots)))
    cold_labels = _labels(rng, fresh, len(cold_slots))
    if any(cold_labels.count(label) > len(fresh[label]) for label in fresh):
        raise ValueError(f"{seconds:g} s at {RATE:g}/s needs more fresh tasks than the pool holds")
    cold_labels = iter(cold_labels)
    arrivals: List[Arrival] = []
    for index in range(count):
        if index in cold_slots:
            item = fresh[next(cold_labels)].pop()
            kind = "cold"
        else:
            label = next(hit_labels)
            item = hits[label][pools.skewed_index(rng, weights[label])]
            kind = "hit"
        body = json.dumps({"tasks": [item.task.to_dict()]}).encode()
        inline = not isinstance(item.task.graph, str)
        copies = 2 if index in pair_slots else 1
        for copy in range(copies):
            arrivals.append(Arrival(index / RATE, body, item.task.cache_key(), kind, inline, pair=copy == 1))
    return arrivals


class Connection:
    """One keep-alive HTTP connection that reconnects after a close."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, Any]:
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            try:
                headers = {"Content-Type": "application/json"} if body else {}
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                raw = response.read()
                if response.getheader("Connection", "").lower() == "close":
                    self.close()
                return response.status, json.loads(raw.decode() or "null")
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# --------------------------------------------------------------------------- #
# The service process
# --------------------------------------------------------------------------- #
class Service:
    """One ``repro serve`` subprocess on a fresh copy of the pre-filled store."""

    def __init__(self, template: Path, state: Path, trace_dir: Optional[Path]) -> None:
        shutil.copytree(template, state)
        args = [
            "serve", "--port", "0", "--workers", str(cores()),
            "--state-dir", str(state), "--max-queue-depth", str(MAX_QUEUE_DEPTH),
        ]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_traced.py"
            argv = [sys.executable, str(launcher), str(trace_dir), *args]
        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, env=env, cwd=str(common.ROOT),
            start_new_session=True, text=True,
            # a benchmark started in the background may ignore SIGINT; the
            # service would inherit that and ignore stop()'s graceful SIGINT
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            line = self.process.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            address = line.rsplit("http://", 1)[1].strip()
            host, port = address.rsplit(":", 1)
            self.host, self.port = host, int(port)
            probe = Connection(self.host, self.port)
            while True:  # ready once /healthz reports the worker pool alive
                status, payload = probe.request("GET", "/healthz")
                if status == 200 and payload.get("status") == "ok":
                    break
                time.sleep(0.005)
            probe.close()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the service process and its worker children."""
        pids = [self.process.pid] + common.proc_children(self.process.pid)
        return sum(common.proc_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGINT (graceful), then kill the whole session's process group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


# --------------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------------- #
def _poller(service: Service, outstanding: Dict[str, Arrival], cond: threading.Condition,
            done: threading.Event) -> None:
    conn = Connection(service.host, service.port)
    next_poll: Dict[str, float] = {}
    try:
        while True:
            with cond:
                while not outstanding and not done.is_set():
                    cond.wait(0.05)
                if not outstanding and done.is_set():
                    return
                now = time.perf_counter()
                for job_id in outstanding:
                    next_poll.setdefault(job_id, now)
                job_id = min(outstanding, key=lambda j: next_poll[j])
                wait = next_poll[job_id] - now
                if wait > 0:
                    cond.wait(wait)
                    continue
                arrival = outstanding[job_id]
            status, payload = conn.request("GET", f"/jobs/{job_id}")
            arrival.polls += 1
            now = time.perf_counter()
            if status == 200 and payload["state"] in ("done", "failed"):
                arrival.observed_epoch = time.time()
                arrival.job = payload
                with cond:
                    del outstanding[job_id]
                    next_poll.pop(job_id, None)
            else:
                next_poll[job_id] = now + POLL_S
    finally:
        conn.close()


def drive(service: Service, arrivals: List[Arrival]) -> Dict[str, Any]:
    """Send the schedule, follow every job to its end, return run facts."""
    submit = Connection(service.host, service.port)
    depth_start = submit.request("GET", "/healthz")[1]["queue_depth"]
    outstanding: Dict[str, Arrival] = {}
    cond = threading.Condition()
    done = threading.Event()
    poller = threading.Thread(target=_poller, args=(service, outstanding, cond, done), daemon=True)
    poller.start()
    origin = time.perf_counter() + 0.05
    # the service stamps jobs with time.time(); this maps them onto the schedule's clock
    epoch_offset = time.time() - time.perf_counter()
    try:
        for arrival in arrivals:
            delay = origin + arrival.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            arrival.sent = time.perf_counter()
            try:
                status, payload = submit.request("POST", "/tasks", arrival.body)
            except (http.client.HTTPException, OSError) as exc:
                arrival.error = f"submit: {exc}"
                continue
            arrival.admit_s = time.perf_counter() - arrival.sent
            arrival.status = status
            if status == 202:
                arrival.job_id = payload["jobs"][0]["id"]
                with cond:
                    outstanding[arrival.job_id] = arrival
                    cond.notify()
            else:
                arrival.error = f"HTTP {status}"
        depth_end = submit.request("GET", "/healthz")[1]["queue_depth"]
        deadline = time.perf_counter() + DRAIN_S
        while time.perf_counter() < deadline:
            with cond:
                if not outstanding:
                    break
            time.sleep(0.01)
        stats = submit.request("GET", "/stats")[1]
    finally:
        done.set()
        with cond:
            outstanding.clear()
            cond.notify()
        poller.join(timeout=30)
        submit.close()
    for arrival in arrivals:
        arrival.due += origin
        if arrival.job is not None and arrival.job.get("finished_at"):
            arrival.finished = arrival.job["finished_at"] - epoch_offset
    return {"depth_start": depth_start, "depth_end": depth_end, "stats": stats}


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #
def prefill(template: Path, corpus, expected, result: common.Run) -> None:
    """The program fills the store itself: ``run_batch`` over the corpus."""
    from repro.api.batch import run_batch
    from repro.explore.cache import ResultCache

    records = run_batch([item.task for item in corpus], jobs=cores(),
                        cache=ResultCache(template / "cache"))
    for item, record in zip(corpus, records):
        reason = common.check_record(expected, item.task.cache_key(), record.to_dict())
        if reason is not None:
            result.problem(f"pre-fill {reason}")


def _check(arrival: Arrival, expected) -> Optional[str]:
    """Why the job failed, or ``None`` when it returned the pinned record."""
    if arrival.error:
        return arrival.error
    if arrival.job is None:
        return "not finished by the end of the drain"
    if arrival.job["state"] != "done" or arrival.job.get("record") is None:
        return f"job failed: {arrival.job.get('error_type')}: {arrival.job.get('error')}"
    return common.check_record(expected, arrival.key, arrival.job["record"])


def run(seed: int, seconds: float, trace: bool) -> common.Run:
    result = common.Run(WORKLOAD)
    expected = common.load_expected()["records"]
    corpus = pools.serve_corpus()
    template = common.scratch_dir("template")
    prefill(template, corpus, expected, result)
    arrivals = schedule(seed, seconds, corpus, pools.serve_cold_pool())
    trace_dir = common.scratch_dir("spans") if trace else None

    boots = []
    service = None
    try:
        for boot in range(BOOTS):
            if service is not None:
                service.stop()
            service = Service(template, common.scratch_dir("state") / "s", trace_dir if boot == BOOTS - 1 else None)
            boots.append(service.boot_s)
        facts = drive(service, arrivals)
        peak_rss = service.peak_rss_mb()
    finally:
        if service is not None:
            service.stop()

    latencies: List[float] = []
    failed = 0
    for arrival in arrivals:
        reason = _check(arrival, expected)
        if reason is None:
            latencies.append(arrival.finished - arrival.due)
        else:
            failed += 1
            if not arrival.error.startswith("HTTP 429"):
                result.problem(f"{arrival.key[:12]} ({arrival.kind}): {reason}")
    result.attempted = len(arrivals)
    result.failed = failed

    lags = [a.sent - a.due for a in arrivals]
    lag_p99 = common.ranked_percentile(lags, 0, 0.99)
    finished = [a for a in arrivals if a.job is not None and a.job.get("record")]
    hits = [a for a in finished if a.job["record"].get("cached")]
    seen = set()
    first_hits = 0
    for arrival in sorted(finished, key=lambda a: a.due):
        if arrival.job["record"].get("cached") and arrival.key not in seen:
            first_hits += 1
        seen.add(arrival.key)
    pairs = [a for a in arrivals if a.pair]
    twins = {a.key: [b for b in arrivals if b.key == a.key] for a in pairs}
    for key, jobs in twins.items():
        computed = sum(1 for b in jobs if b.job and b.job.get("record") and not b.job["record"].get("cached"))
        if computed > 1:
            result.problem(f"{key[:12]}: single-flight pair synthesized {computed} times")
    common.note(
        WORKLOAD,
        f"{len(arrivals)} jobs at {RATE:g}/s on {cores()} workers; hit share "
        f"{len(hits) / (len(finished) or 1):.3f}; first-in-service hit share "
        f"{first_hits / (len(hits) or 1):.3f} (a lower bound on first-lookup-per-child); "
        f"cold share {sum(a.kind == 'cold' for a in arrivals) / len(arrivals):.3f}; "
        f"inline share {sum(a.inline for a in arrivals) / len(arrivals):.3f}; "
        f"{len(pairs)} single-flight pairs",
    )
    # from the first job's due time to the last job the service finished
    window = max([a.finished for a in arrivals], default=0.0) - arrivals[0].due
    timed = [a for a in arrivals if a.job is not None and a.job.get("started_at") and a.finished]
    busy = sum(a.job["finished_at"] - a.job["started_at"] for a in timed)
    polls = sum(a.polls for a in arrivals)
    common.note(
        WORKLOAD,
        f"queue depth {facts['depth_start']} at start, {facts['depth_end']} at end; "
        f"generator lag p99 {lag_p99 * 1000:.2f} ms; workers busy "
        f"{busy / (window * cores()) if window > 0 else 0.0:.3f}; {polls / (len(arrivals) or 1):.2f} "
        f"polls per job, {polls / (polls + len(arrivals)):.3f} of the generator's requests",
    )
    if lag_p99 > MAX_GEN_LAG_P99_S:
        result.invalid = f"generator fell behind (lag p99 {lag_p99:.3f} s)"
    elif facts["depth_end"] - facts["depth_start"] > MAX_BACKLOG_GROWTH:
        result.invalid = f"backlog grew from {facts['depth_start']} to {facts['depth_end']}"

    if trace:
        layers = _layer_metrics(arrivals, facts, trace_dir, lag_p99)
        with open(common.trace_path(WORKLOAD, seed), "w") as out:
            for path in sorted(trace_dir.glob("spans-*.jsonl")):
                out.write(path.read_text())
        for name, value in layers.items():
            result.metric(name, value, layer_unit(name))
        return result

    common.note(WORKLOAD, f"{common.samples_note(len(arrivals), failed)}; boots {[round(b, 3) for b in boots]} s")
    result.metric("setup_s", statistics.median(boots), "s")
    # Inert here: at a fixed offered rate, throughput reads that rate and
    # moves only when jobs fail.  Printed because every workload prints
    # every metric; latency is serve-mix's measure of speed.
    completed = len(arrivals) - failed
    total = max(window, 0.0)
    result.metric("tasks_per_s", completed / total if total else 0.0, "1/s")
    result.metric("cases_per_s", completed / total if total else 0.0, "1/s")
    for q, name in ((0.5, "latency_p50_s"), (0.9, "latency_p90_s"), (0.99, "latency_p99_s")):
        result.metric(name, common.ranked_percentile(latencies, failed, q), "s")
    result.metric("ok_share", completed / len(arrivals), "ratio")
    result.metric("peak_rss_mb", peak_rss, "MB")
    return result


def _layer_metrics(arrivals: List[Arrival], facts, trace_dir: Path, lag_p99: float) -> Dict[str, float]:
    jobs = [a for a in arrivals if a.job is not None]
    spans = []
    for path in trace_dir.glob("spans-*.jsonl"):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    layers = shared_layers(spans, len(jobs))
    count = len(jobs) or 1
    gets = [s for s in spans if s["name"] == "store.get"]

    def med(values):
        return common.median(list(values))

    done = [a for a in jobs if a.job.get("started_at") and a.job.get("finished_at")]
    cached = lambda a: bool((a.job.get("record") or {}).get("cached"))
    layers["serve.admit_s"] = med(a.admit_s for a in arrivals if a.status == 202)
    layers["serve.queue_wait_s"] = med(a.job["started_at"] - a.job["submitted_at"] for a in done)
    layers["serve.exec_warm_s"] = med(a.job["finished_at"] - a.job["started_at"] for a in done if cached(a))
    layers["serve.exec_cold_s"] = med(a.job["finished_at"] - a.job["started_at"] for a in done if not cached(a))
    layers["serve.result_lag_s"] = med(a.observed_epoch - a.job["finished_at"] for a in done)
    layers["serve.polls_per_job"] = sum(a.polls for a in jobs) / count
    layers["serve.http_429"] = sum(1 for a in arrivals if a.status == 429)
    layers["serve.worker_crashes"] = facts["stats"].get("worker_crashes", 0)
    layers["serve.requeues"] = sum(a.job.get("requeues", 0) for a in jobs)
    layers["gen.lag_p99_s"] = lag_p99
    hits = sum(1 for a in jobs if cached(a))
    first = sum(1 for s in gets if s["attrs"].get("hit"))
    common.note(WORKLOAD, f"first-lookup-per-child hit share {first / (hits or 1):.3f} ({first} of {hits} hits reached ResultStore.get)")
    return layers
