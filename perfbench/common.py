"""Shared plumbing of the benchmark: paths, statistics, result lines, checks.

Every workload module builds a :class:`Run`, fills in its operations and
metrics, and hands it to :func:`emit`, which prints the one JSON line the
benchmark contract asks for as the last line of standard output.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: The program under test, imported from source.
SRC = ROOT / "src"

#: Pinned results of every input the benchmark can generate.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Scratch space for stores and service state; removed when a run ends.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Where traced runs write their spans.
TRACE_DIR = ROOT / ".perfbench_trace"


def require_program() -> None:
    """Put ``src/`` on the import path, or exit non-zero without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(name: str) -> Path:
    """A fresh, empty directory under this process's scratch space."""
    path = TMP_ROOT / str(os.getpid()) / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def trace_path(workload: str, seed: int) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    return TRACE_DIR / f"{workload}-seed{seed}.jsonl"


def clean_scratch() -> None:
    shutil.rmtree(TMP_ROOT / str(os.getpid()), ignore_errors=True)
    try:
        TMP_ROOT.rmdir()
    except OSError:  # other runs still own entries, or it is gone already
        pass


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def ranked_percentile(finished: Sequence[float], failed: int, q: float) -> float:
    """The ``q``-quantile latency with failures ranked as infinitely late.

    ``finished`` holds the latencies of operations that finished; the
    ``failed`` ones rank after all of them.  When the quantile lands on a
    failure, the slowest finished-or-given-up latency is reported instead
    of infinity (JSON has none) — callers pass the give-up times of failed
    operations in ``finished`` only when there was a limit to give up at.
    """
    values = sorted(finished)
    total = len(values) + failed
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))  # nearest-rank definition
    if rank > len(values):
        return values[-1] if values else 0.0
    return values[rank - 1]


def samples_note(total: int, failed: int) -> str:
    """Sample count, failures, and how many samples lie above p90 and p99."""
    above = lambda q: total - max(1, math.ceil(q * total)) if total else 0
    return (
        f"latency samples {total} ({failed} failed); "
        f"{above(0.9)} above p90, {above(0.99)} above p99"
    )


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_peak_rss_mb() -> float:
    """Peak RSS of this process in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among waited-for child processes, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak RSS) of a live process in MB, 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_children(pid: int) -> List[int]:
    """Direct children of a live process, forked by any of its threads."""
    children: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children.extend(int(t) for t in (task / "children").read_text().split())
        except OSError:
            pass
    return children


# --------------------------------------------------------------------------- #
# Set-up timing
# --------------------------------------------------------------------------- #
#: Set-up measurements taken before each repetition or round of a run;
#: spread over the run like this, their median does not hang on how fast
#: the host was in the run's first seconds.
SETUP_REPEATS = 2


def time_interpreter_setup(code: str, *, fresh_dir: bool = False) -> List[float]:
    """Seconds for a fresh interpreter to run ``code`` and exit, per repeat.

    ``code`` imports what a user's first call needs and opens what it
    opens; its exit is the moment the first operation could start.  With
    ``fresh_dir`` it receives an empty scratch directory as ``argv[1]``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for repeat in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", code]
        if fresh_dir:
            argv.append(str(scratch_dir(f"setup{repeat}")))
        started = time.perf_counter()
        subprocess.run(argv, env=env, check=True, cwd=str(ROOT))
        times.append(time.perf_counter() - started)
    return times


# --------------------------------------------------------------------------- #
# Pinned results
# --------------------------------------------------------------------------- #
#: Record fields compared against the pinned file, in stored order.
PINNED_FIELDS = ("feasible", "area", "latency", "peak_power", "error_type")


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def pinned(record: Dict[str, Any]) -> List[Any]:
    """The compared fields of a record dict (``TaskResult.to_dict`` form)."""
    return [record.get(name) for name in PINNED_FIELDS]


def check_record(
    expected: Dict[str, List[Any]], key: str, record: Dict[str, Any]
) -> Optional[str]:
    """``None`` when ``record`` matches the pinned outcome of ``key``.

    Otherwise a one-line reason: the address is unknown, or a field
    differs (a changed schedule shows up as a changed area or latency).
    """
    want = expected.get(key)
    if want is None:
        return f"{key[:12]}: no pinned result"
    got = pinned(record)
    if got != want:
        return f"{key[:12]}: got {got}, pinned {want}"
    return None


# --------------------------------------------------------------------------- #
# The result line
# --------------------------------------------------------------------------- #
@dataclass
class Run:
    """What one invocation measured, plus the problems it found."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    invalid: Optional[str] = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def problem(self, message: str) -> None:
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.invalid is None


def note(workload: str, message: str) -> None:
    """One human-readable line on standard output (before the result)."""
    print(f"[{workload}] {message}", flush=True)


def emit(run: Run) -> None:
    """Print the problems, then the contract's JSON result as the last line."""
    for message in run.problems[:20]:
        note(run.workload, f"WRONG {message}")
    if len(run.problems) > 20:
        note(run.workload, f"... {len(run.problems) - 20} more wrong outputs")
    if run.invalid is not None:
        note(run.workload, f"INVALID RUN (not scored): {run.invalid}")
    for name, entry in run.metrics.items():
        note(run.workload, f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": int(run.attempted),
                "failed": int(run.failed),
                "metrics": run.metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )
