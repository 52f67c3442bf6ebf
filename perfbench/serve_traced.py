"""``repro serve`` with the benchmark's span wrappers installed.

The traced serve-mix run starts the service through this launcher instead
of ``python -m repro serve``.  Spans are recorded in the service process
and in every worker child it forks, kept in memory, and written to
``<trace-dir>/spans-<pid>.jsonl`` when each process ends::

    python3 perfbench/serve_traced.py TRACE_DIR serve --port 0 ...
"""

from __future__ import annotations

import os
import sys

import common
import tracing


def main() -> int:
    common.require_program()
    from repro import cli
    from repro.serve import workers

    trace_dir = sys.argv[1]
    tracer = tracing.Tracer()

    def dump() -> None:
        tracer.dump(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"))

    child_main = workers._child_main

    def traced_child_main(*args, **kwargs):
        tracer.clear()  # spans the parent recorded before this fork
        try:
            child_main(*args, **kwargs)
        finally:
            dump()

    targets = tracing.layer_targets(tracer)
    targets.append((workers, "_child_main", traced_child_main))
    with tracing.installed(targets):
        try:
            return cli.main(sys.argv[2:])
        finally:
            dump()


if __name__ == "__main__":
    sys.exit(main())
