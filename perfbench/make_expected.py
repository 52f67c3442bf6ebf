"""Regenerate ``expected.json``: the pinned outcome of every pool input.

Run from the checkout root (takes a minute or two on two cores)::

    python3 perfbench/make_expected.py

``records`` maps the content address of every task explore-cold and
serve-mix can submit to its ``(feasible, area, latency, peak_power,
error_type)``, so a run that changes any schedule shows failures.

Regenerate only when a change is *meant* to alter results, and say so.
"""

from __future__ import annotations

import json
import sys

import common


def main() -> int:
    common.require_program()
    import pools
    from repro.api.batch import run_batch

    tasks = pools.all_pinned_tasks()
    keys = sorted(tasks)
    records = run_batch([tasks[key] for key in keys], jobs=2)
    pinned = {key: common.pinned(record.to_dict()) for key, record in zip(keys, records)}
    print(f"pinned {len(pinned)} task outcomes", flush=True)

    with open(common.EXPECTED_PATH, "w") as handle:
        json.dump({"records": pinned}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
