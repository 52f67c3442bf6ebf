"""The finite input pools every workload draws from.

A run's ``--seed`` picks the order of its inputs and, on serve-mix, which
pool members it draws; the pools themselves are fixed, so every input any
seed can produce has a pinned outcome in ``expected.json`` (see
``make_expected.py``).  Graphs come from the program's own generators
(``repro.suite``), which is only input generation and not on any
measured path.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

# The five graphs of the paper's evaluation (Figure 2 plus fir/ar).
PAPER_GRAPHS = ("hal", "cosine", "elliptic", "fir", "ar")

# --------------------------------------------------------------------------- #
# explore-cold: the Figure-2 user's cold design-space sweep.
# --------------------------------------------------------------------------- #
# Why: a designer sweeps power budgets over fresh graphs with an empty
# store, so every task misses and graph load, the schedule pass,
# certification and store *writes* do the work.  Sizes span 40-240 ops
# (the schedule pass grows ~n^2.2, so 240 dominates time while the small
# sizes dominate counts), and every graph is swept from below the
# analytic power floor (cheap typed infeasibility, where graph load is
# most of the cost) up to generous budgets (full synthesis) so a gain in
# scheduling cannot hide a regression in graph load.
# A run repeats one fixed block of tasks, each repetition in a seeded
# order on a fresh store.  Each size class holds one pool graph per power
# factor, spread evenly over +-15% of its size (all but the largest), and
# the factors are paired with the graphs by a shift from class to class,
# so task times form a continuum and the median does not sit on a gap
# between classes.  Each paper graph runs three factors at one of three
# slacks, so paper graphs stay a minority of the tasks.  The block is the
# same whatever the seed and however many repetitions fit in --seconds.
EXPLORE_SIZES = (40, 80, 120, 160, 240)
EXPLORE_FACTORS = (0.6, 0.9, 1.3, 2.0, 3.0)
PAPER_FACTORS = (0.6, 1.3, 3.0)
EXPLORE_SLACK = 8
PAPER_SLACKS = (2, 4, 6)

# --------------------------------------------------------------------------- #
# serve-mix: many users sharing one warm service.
# --------------------------------------------------------------------------- #
# Why: repeat submissions of points someone already computed, drawn with
# a mild skew over a corpus far larger than one worker child sees in a
# run, so most hits are a child's first lookup of that key and reach
# ResultStore.get rather than the child's in-memory layer.  A minority of
# fresh small tasks keeps the engine's cold path and store writes in the
# mix, and a few back-to-back identical pairs exercise single-flight.
# HTTP admission, the queue, worker IPC, claims and store reads do the
# work; the engine does little.
CORPUS_SLACKS = tuple(range(30))
CORPUS_LOW_FACTORS = (0.5, 0.6, 0.75, 0.9, 1.0, 1.25)
CORPUS_HIGH = {"hal": (tuple(range(20)), (1.8, 2.4, 3.0))}
CORPUS_HIGH_DEFAULT = (tuple(range(5)), (2.4, 3.0))
# Fresh tasks are budgets generous enough to synthesize, on graphs whose
# op counts run through every size from 20 to 60, so their times form a
# continuum (about 15-150 ms) and the percentiles that fall among them do
# not sit on a gap.  The pool holds 546 tasks, enough for 60 s at
# serve-mix's rate.
COLD_SLACKS = tuple(range(30))
COLD_FACTORS = (2.1, 2.7)
COLD_INLINE_SIZES = tuple(range(20, 61))
COLD_INLINE_PER_SIZE = 6
COLD_INLINE_FACTORS = (2.2,)

# --------------------------------------------------------------------------- #
# oracle-small: the differential fuzz oracle.
# --------------------------------------------------------------------------- #
# Why: cross_check runs every scheduler x binder pair plus the two exact
# oracles on ~10-op graphs, so lp, exact, portfolio and the classical
# schedulers do the work while the engine at scale, the store and serve
# do none.  The pool is the default FuzzConfig mix over seeds 0-15 of all
# five families: register-budgeted, below-floor and portfolio-raced cases
# each appear at their default share, and the heavy-tailed ILP cases
# (seconds to minutes) stay in it.
ORACLE_SEEDS = 16


def _min_power_view(cdfg):
    """(critical path, delays, powers) under the min-power module selection."""
    from repro.ir.analysis import critical_path_length
    from repro.library.library import default_library
    from repro.library.selection import (
        MinPowerSelection,
        selection_delays,
        selection_powers,
    )

    selection = MinPowerSelection().select(cdfg, default_library())
    delays = selection_delays(selection, cdfg)
    powers = selection_powers(selection, cdfg)
    return critical_path_length(cdfg, delays), delays, powers


def layered_graph(operations: int, index: int):
    """Pool member ``index`` of the random layered graphs of one size."""
    from repro.suite.generators import GeneratorConfig, random_cdfg

    config = GeneratorConfig(
        operations=operations,
        inputs=4,
        levels=max(3, operations // 6),
        mul_fraction=0.3,
        sub_fraction=0.2,
        outputs=3,
        seed=1000 * operations + index,
    )
    return random_cdfg(config, name=f"layered{operations}_{index}")


def explore_graph(size: int, index: int):
    """Pool member ``index`` of size class ``size`` (0.85x-1.15x its ops).

    The largest class stays at exactly its size: its feasible tasks are
    the slowest of a run and set p99, so they should be alike.
    """
    if size == EXPLORE_SIZES[-1]:
        return layered_graph(size, index)
    spread = 0.3 * index / (len(EXPLORE_FACTORS) - 1)
    return layered_graph(round(size * (0.85 + spread)), index)


@dataclass
class Item:
    """One generated task plus the properties the run reports shares of.

    ``size`` is the graph's size class (its op count for fixed graphs);
    ``factor`` is the budget as a multiple of the analytic power floor.
    """

    task: Any
    ops: int
    below_floor: bool
    size: int = 0
    factor: float = 0.0


class Graph:
    """A pool graph, its min-power view and how tasks spell it."""

    def __init__(self, cdfg, name: Optional[str] = None, size: Optional[int] = None) -> None:
        self.cdfg = cdfg
        self.name = name  # registered benchmark name; ``None`` = inline
        self.critical, self.delays, self.powers = _min_power_view(cdfg)
        self.ops = sum(1 for op in cdfg.operations() if not op.is_io)
        self.size = self.ops if size is None else size

    @classmethod
    def paper(cls, name: str) -> "Graph":
        from repro.suite.registry import build_benchmark

        return cls(build_benchmark(name), name)

    def sweep(self, slack: int, factors) -> List[Item]:
        """Tasks at ``critical + slack`` over ``factors`` x the power floor."""
        from repro.api.task import SynthesisTask
        from repro.scheduling.constraints import minimum_feasible_power

        latency = self.critical + slack
        floor = minimum_feasible_power(self.powers, self.delays, latency)
        items = []
        for factor in factors:
            budget = round(floor * factor, 3)
            if self.name is None:
                task = SynthesisTask.of(self.cdfg, latency=latency, power_budget=budget)
            else:
                task = SynthesisTask(graph=self.name, latency=latency, power_budget=budget)
            items.append(Item(task, self.ops, budget < floor - 1e-9, self.size, factor))
        return items


# --------------------------------------------------------------------------- #
# Seeded draws
# --------------------------------------------------------------------------- #
def explore_block() -> List[Item]:
    """The block of tasks explore-cold repeats.

    In every size class but the largest, factor ``f`` runs on pool graph
    ``(f + class) mod 5`` of that class; the largest class runs its five
    pool graphs, one per factor, in order; paper graph ``g`` runs the
    three :data:`PAPER_FACTORS` at slack ``PAPER_SLACKS[g mod 3]``.
    """
    width = len(EXPLORE_FACTORS)
    items: List[Item] = []
    for rank, size in enumerate(EXPLORE_SIZES):
        for slot, factor in enumerate(EXPLORE_FACTORS):
            # the largest class is fixed work: its feasible tasks are the
            # slowest of a run and set p99
            index = slot if size == EXPLORE_SIZES[-1] else (slot + rank) % width
            graph = Graph(explore_graph(size, index), size=size)
            items.extend(graph.sweep(EXPLORE_SLACK, (factor,)))
    for position, name in enumerate(PAPER_GRAPHS):
        slack = PAPER_SLACKS[position % len(PAPER_SLACKS)]
        items.extend(Graph.paper(name).sweep(slack, PAPER_FACTORS))
    return items


def serve_corpus() -> List[Item]:
    """The points the store is pre-filled with (the hit population).

    ~1000 points: every paper graph at 30 latency bounds up to 1.25x its
    power floor (mostly infeasible, so cheap to pre-fill), plus feasible
    points at generous budgets.
    """
    items: List[Item] = []
    for name in PAPER_GRAPHS:
        graph = Graph.paper(name)
        for slack in CORPUS_SLACKS:
            items.extend(graph.sweep(slack, CORPUS_LOW_FACTORS))
        slacks, factors = CORPUS_HIGH.get(name, CORPUS_HIGH_DEFAULT)
        for slack in slacks:
            items.extend(graph.sweep(slack, factors))
    return items


def serve_cold_pool() -> List[Item]:
    """Fresh small tasks: paper graphs at budgets the corpus never holds,
    and inline layered graphs of every size from 20 to 60 ops."""
    items: List[Item] = []
    for name in PAPER_GRAPHS:
        graph = Graph.paper(name)
        for slack in COLD_SLACKS:
            items.extend(graph.sweep(slack, COLD_FACTORS))
    for size in COLD_INLINE_SIZES:
        for index in range(COLD_INLINE_PER_SIZE):
            items.extend(Graph(layered_graph(size, index)).sweep(4, COLD_INLINE_FACTORS))
    return items


def oracle_cases():
    """The differential-oracle pool: the default FuzzConfig mix."""
    from repro.verify.fuzz import FuzzConfig, fuzz_case_tasks

    return list(fuzz_case_tasks(FuzzConfig(seeds=ORACLE_SEEDS)))


def case_name(case) -> str:
    return f"{case.family}-{case.seed}"


def all_pinned_tasks() -> Dict[str, Any]:
    """Every task a run of explore-cold or serve-mix can submit, by key."""
    items: List[Item] = []
    for size in EXPLORE_SIZES:
        for index in range(len(EXPLORE_FACTORS)):
            items.extend(Graph(explore_graph(size, index)).sweep(EXPLORE_SLACK, EXPLORE_FACTORS))
    for name in PAPER_GRAPHS:
        for slack in PAPER_SLACKS:
            items.extend(Graph.paper(name).sweep(slack, PAPER_FACTORS))
    items.extend(serve_corpus())
    items.extend(serve_cold_pool())
    return {item.task.cache_key(): item.task for item in items}


def skewed_index(rng: random.Random, weights_cum: List[float]) -> int:
    """Draw an index from cumulative weights (bisect on a uniform draw)."""
    return bisect_left(weights_cum, rng.random() * weights_cum[-1])


def zipf_cumulative(count: int, exponent: float) -> List[float]:
    total = 0.0
    cumulative: List[float] = []
    for rank in range(count):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    return cumulative

