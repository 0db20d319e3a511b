"""ND and PND: Sariyuce et al.'s peeling-based nucleus algorithms.

* **ND** (Sariyuce et al. 2017 [57]) is the serial global algorithm: count
  s-cliques per r-clique, then repeatedly peel the single r-clique with the
  minimum count, decrementing its surviving co-members.  Being serial, its
  span equals its work; its clique enumeration scans full neighborhoods
  (``deg(v)^{s-r}``-style work) instead of oriented ones, which is the
  work-inefficiency the paper's appendix analyzes.

* **PND** (Sariyuce et al. 2018 [56]) parallelizes the counting phase and
  each peel's updates, but --- as the paper stresses (Section 6.3) --- does
  *not* parallelize within a count class: r-cliques sharing the minimum
  count are peeled one by one to dodge synchronization, so PND performs
  thousands of times more rounds (barriers) than ARB-NUCLEUS-DECOMP; the
  paper measures 5,608--84,170x.

Both are implemented over the shared :class:`Incidence`, whose storage is
charged to the algorithm's memory footprint (space proportional to the
number of s-cliques --- their large-space variant).

The peel tracks the current minimum count with a level/sub-frontier
structure (one scan of the live counts per level, like the bucketing of
arXiv:2502.08042) instead of the earlier lazy binary heap, whose
heap-size-dependent ``log2`` pop charges also billed stale entries.
Within a sub-frontier the r-cliques still peel strictly one at a time in
ascending id order --- one round and one sequential dependence per peel,
which is the round blowup the paper measures.  The inner loop comes in
two engines: the scalar oracle :func:`_peel_frontier_scalar` and the
vectorized :func:`repro.baselines.batchnd.peel_frontier_batch` (the
production path), with bit-for-bit simulated-cost parity enforced by
tests/test_batch_baselines.py and rule PAR007.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.runtime import CostTracker, _log2, use_batch
from ..sanitize.racecheck import maybe_shadow
from .common import BaselineResult, Incidence


def _peel_one_at_a_time(graph: CSRGraph, r: int, s: int, name: str,
                        parallel_updates: bool,
                        tracker: CostTracker) -> BaselineResult:
    with tracker.phase("count"):
        inc = Incidence(graph, r, s, tracker)
        # Their counting scans full neighborhoods; charge the degree-based
        # (unoriented) enumeration cost on top of the shared listing.
        degs = graph.degrees
        extra = sum(float(degs[v]) ** max(1, s - r)
                    for clique in inc.r_cliques for v in clique[:1])
        tracker.add_work(extra)
        if not parallel_updates:
            tracker.add_span(extra)
    # ND/PND peel one r-clique at a time, so count updates are ordered;
    # shadow them as plain accesses to let the race detector confirm it.
    counts = maybe_shadow(inc.initial_counts.copy(), tracker,
                          label="nd_counts")
    batch = use_batch(tracker)
    s_alive = np.ones(inc.n_s, dtype=bool)
    alive = np.ones(inc.n_r, dtype=bool)
    # queued marks r-cliques that have already entered a sub-frontier, so
    # a clique dropping to the level is scheduled exactly once.
    queued = np.zeros(inc.n_r, dtype=bool)
    core = {}
    visits = 0
    rounds = 0
    level = 0
    with tracker.phase("peel"):
        # Seeding the level structure: one pass over the r-clique counts
        # (replaces the old heap build; charged in-phase, PAR008).
        tracker.add_work(float(inc.n_r))
        remaining = inc.n_r
        while remaining:
            # One scan of the live cliques finds the next level and its
            # first sub-frontier.
            live = np.flatnonzero(alive)
            level = max(level, int(counts[live].min()))
            tracker.add_work(float(live.size))
            tracker.add_span(_log2(live.size + 2))
            frontier = live[counts[live] <= level]
            queued[frontier] = True
            while frontier.size:
                for i in frontier:
                    core[inc.r_cliques[int(i)]] = level
                # Every single peel is a sequential dependence: PND
                # synchronizes lightly after each one (constant span), ND
                # is fully serial.
                rounds += int(frontier.size)
                remaining -= int(frontier.size)
                if batch:
                    from .batchnd import peel_frontier_batch
                    sub_visits, frontier = peel_frontier_batch(
                        frontier, inc, counts, alive, s_alive, queued,
                        level, parallel_updates, tracker)
                else:
                    sub_visits, frontier = _peel_frontier_scalar(
                        frontier, inc, counts, alive, s_alive, queued,
                        level, parallel_updates, tracker)
                visits += sub_visits
        if not parallel_updates:
            # ND is entirely serial: its critical path is its total work.
            # The correction is part of the peel (same value as at the
            # phase boundary; work and span are already final here).
            tracker.add_span(max(0.0, tracker.work - tracker.span))
    return BaselineResult(name, r, s, core, tracker, rounds, 1, visits,
                          memory_words=inc.words + 2 * inc.n_r)


def _peel_frontier_scalar(frontier, inc: Incidence, counts, alive, s_alive,
                          queued, level: int, parallel_updates: bool,
                          tracker: CostTracker):
    """Peel one sub-frontier's r-cliques one at a time, ascending id.

    The batch engine's registered oracle (PAR007).  Returns
    ``(s_clique_kills, next_frontier)`` where the next frontier is the
    ascending array of live cliques first dropping to the level here.
    """
    visits = 0
    drops: list[int] = []
    for i in frontier:
        i = int(i)
        alive[i] = False
        if parallel_updates:
            tracker.add_span(16.0)
        touched = 0
        for j in inc.incident[i]:
            if not s_alive[j]:
                continue
            s_alive[j] = False
            visits += 1
            tracker.add_cliques(1)
            for other in inc.members[j]:
                touched += 1
                if alive[other]:
                    counts[other] -= 1
                    if counts[other] <= level and not queued[other]:
                        queued[other] = True
                        drops.append(other)
        tracker.add_work(float(touched + 1))
        if parallel_updates:
            tracker.add_span(_log2(touched + 2))
        else:
            tracker.add_span(float(touched + 1))
    return visits, np.asarray(sorted(drops), dtype=np.int64)


def nd_decomposition(graph: CSRGraph, r: int, s: int,
                     tracker: CostTracker | None = None) -> BaselineResult:
    """Sariyuce et al.'s serial ND."""
    return _peel_one_at_a_time(graph, r, s, "ND", parallel_updates=False,
                               tracker=tracker or CostTracker())


def pnd_decomposition(graph: CSRGraph, r: int, s: int,
                      tracker: CostTracker | None = None) -> BaselineResult:
    """Sariyuce et al.'s PND: parallel counting/updates, sequential peels."""
    return _peel_one_at_a_time(graph, r, s, "PND", parallel_updates=True,
                               tracker=tracker or CostTracker())
