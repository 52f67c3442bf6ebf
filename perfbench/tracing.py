"""Spans recorded from outside the program, around its public entry points.

The traced run of a workload installs wrappers on the functions each
layer exposes (see :func:`layer_targets`) for the duration of the run,
keeps every span in memory, and restores the originals afterwards.
Nothing under ``src/`` is edited: the wrappers replace module and class
attributes the program looks up at call time.

A span's *self time* is its duration minus the time its child spans
cover; summing self times over every span of a task therefore accounts
for the task's whole wall time.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    parent: Optional["Span"] = None
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """An in-memory span recorder scoped by :mod:`contextvars`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._current.get()
        record = Span(name, time.perf_counter(), parent, attrs=attrs)
        token = self._current.set(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)
            if parent is not None:
                parent.child_time += record.duration
            self.spans.append(record)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Span, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``on_result`` may add attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(record, result)
                return result

        return traced

    def clear(self) -> None:
        self.spans = []

    def dump(self, path: str) -> None:
        """Write the spans out (one JSON object per line)."""
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(span_dict(record)) + "\n")


def span_dict(record: Span) -> Dict[str, Any]:
    return {
        "name": record.name,
        "parent": record.parent.name if record.parent is not None else None,
        "start": record.start,
        "duration": record.duration,
        "self": record.self_time,
        "attrs": record.attrs,
    }


def _store_get_result(record: Span, payload: Any) -> None:
    record.attrs["hit"] = payload is not None


def _certificate_result(record: Span, report: Any) -> None:
    record.attrs["ok"] = bool(getattr(report, "ok", False))


def layer_targets(tracer: Tracer) -> List[Tuple[Any, str, Callable]]:
    """(owner, attribute, wrapper) for every traced public entry point.

    * ``SynthesisTask.resolve_graph`` — graph load (``ir``), called by
      ``Pipeline.context``;
    * ``SynthesisTask.cache_key`` — content addressing (``api``);
    * every ``DEFAULT_PASSES`` callable (``api.pass.<name>``);
    * ``check_certificate`` as its callers import it at call time, and as
      the differential oracle bound it at import (``verify``);
    * ``get``/``put`` of both store backends (``store``);
    * ``run_portfolio`` as ``run_task`` imports it at call time.
    """
    from repro.api import pipeline
    from repro.api.task import SynthesisTask
    from repro.portfolio import runner
    from repro.store.columnar import ColumnarStore
    from repro.store.legacy import LegacyStore
    from repro.verify import certificate, differential

    targets: List[Tuple[Any, str, Callable]] = [
        (SynthesisTask, "resolve_graph", tracer.wrap("ir.graph_load", SynthesisTask.resolve_graph)),
        (SynthesisTask, "cache_key", tracer.wrap("api.cache_key", SynthesisTask.cache_key)),
        (
            pipeline,
            "DEFAULT_PASSES",
            tuple(
                (name, tracer.wrap(f"api.pass.{name}", fn))
                for name, fn in pipeline.DEFAULT_PASSES
            ),
        ),
        (
            certificate,
            "check_certificate",
            tracer.wrap("verify.certify", certificate.check_certificate, _certificate_result),
        ),
        (
            differential,
            "check_certificate",
            tracer.wrap("verify.certify", differential.check_certificate, _certificate_result),
        ),
        (runner, "run_portfolio", tracer.wrap("portfolio.run", runner.run_portfolio)),
    ]
    for backend in (LegacyStore, ColumnarStore):
        targets.append(
            (backend, "get", tracer.wrap("store.get", backend.get, _store_get_result))
        )
        targets.append((backend, "put", tracer.wrap("store.put", backend.put)))
    return targets


@contextmanager
def installed(targets: List[Tuple[Any, str, Callable]]) -> Iterator[None]:
    """Swap the wrappers in for the block; always restore the originals."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times_by_root(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Self time per span name, grouped by top-level span (keyed by ``id``)."""
    grouped: Dict[int, Dict[str, float]] = {}
    for record in spans:
        root = record
        while root.parent is not None:
            root = root.parent
        totals = grouped.setdefault(id(root), {})
        totals[record.name] = totals.get(record.name, 0.0) + record.self_time
    return grouped
