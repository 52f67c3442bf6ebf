"""Run one benchmark workload against the ``repro`` sources of this checkout.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload explore-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separately traced run.  Human-readable lines (workload
property shares, sample counts, wrong outputs) come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``src/repro`` next to this directory
the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("explore-cold", "serve-mix", "oracle-small")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_program()

    import explore_cold
    import oracle_small
    import serve_mix

    module = {
        "explore-cold": explore_cold,
        "serve-mix": serve_mix,
        "oracle-small": oracle_small,
    }[args.workload]
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        common.clean_scratch()
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
