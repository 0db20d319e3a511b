"""REC-LIST-CLIQUES: the recursive parallel clique-listing algorithm.

This is Algorithm 1 of the paper (after Shi et al. [60]): grow a clique one
vertex at a time, maintaining the candidate set ``I`` of vertices adjacent
to everything chosen so far, pruning ``I`` by intersecting with each new
vertex's directed out-neighborhood.  Because the graph is O(alpha)-oriented,
each intersection costs O(alpha) work, giving O(m * alpha^{c-2}) work for
listing all c-cliques, with O(c log n) span.

Two entry points:

* :func:`list_cliques` -- list every c-clique of an oriented graph (used to
  enumerate r-cliques and to count s-cliques, Algorithm 2 lines 21--22);
* :func:`rec_list_cliques` -- the raw recursion, also called by ``UPDATE``
  (Algorithm 2 line 17) to complete s-cliques from a peeled r-clique.

The callback ``f`` receives each discovered clique as a tuple of vertex ids
in *discovery order*, which is orientation-rank order.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import DirectedGraph
from ..parallel.primitives import intersect_sorted
from ..parallel.runtime import CostTracker, _log2, use_batch


def rec_list_cliques(dg: DirectedGraph, candidates: np.ndarray, levels: int,
                     base: tuple, f, tracker: CostTracker | None = None) -> int:
    """Complete cliques from ``base`` using ``levels`` more vertices.

    ``candidates`` holds the vertices adjacent (in the undirected sense,
    and ahead in the orientation where applicable) to everything in
    ``base``; each completion extends ``base`` with ``levels`` vertices
    drawn from successive out-neighborhood intersections.  Returns the
    number of cliques emitted.
    """
    if levels <= 0:
        f(base)
        if tracker is not None:
            tracker.add_cliques(1)
        return 1
    if levels == 1:
        if tracker is not None:
            tracker.add_work(float(candidates.size))
            tracker.add_cliques(int(candidates.size))
        for v in candidates:
            f(base + (int(v),))
        return int(candidates.size)
    total = 0
    for v in candidates:
        pruned = intersect_sorted(candidates, dg.out_neighbors(int(v)), tracker)
        if pruned.size >= levels - 1:
            total += rec_list_cliques(dg, pruned, levels - 1, base + (int(v),),
                                      f, tracker)
    return total


def list_cliques(dg: DirectedGraph, c: int, f,
                 tracker: CostTracker | None = None) -> int:
    """List every c-clique of the oriented graph ``dg``; returns the count.

    Equivalent to ``REC-LIST-CLIQUES(DG, V, c, {}, f)`` but skips the
    trivial first-level intersection (``V`` intersected with an
    out-neighborhood is just the out-neighborhood).
    """
    if c < 1:
        raise ValueError("c must be at least 1")
    if tracker is not None:
        # Analytic span charge: c levels of intersections, log n span each.
        tracker.add_span(c * _log2(dg.n))
    if c == 1:
        total = dg.n
        if tracker is not None:
            tracker.add_work(float(dg.n))
            tracker.add_cliques(dg.n)
        for v in range(dg.n):
            f((v,))
        return total
    total = 0
    for v in range(dg.n):
        out = dg.out_neighbors(v)
        if tracker is not None:
            tracker.add_work(float(out.size) + 1.0)
        if out.size >= c - 1:
            total += rec_list_cliques(dg, out, c - 1, (v,), f, tracker)
    return total


def count_cliques(dg: DirectedGraph, c: int,
                  tracker: CostTracker | None = None) -> int:
    """Count c-cliques without materializing them."""
    if use_batch(tracker):
        from .batchlist import batch_list_cliques
        return batch_list_cliques(dg, c, tracker)
    counter = [0]

    def bump(_clique):
        counter[0] += 1

    list_cliques(dg, c, bump, tracker)
    return counter[0]


class _CliqueBuffer:
    """A preallocated (cap, c) int64 buffer grown by amortized doubling.

    The accumulation structure behind :func:`collect_cliques` (the Python
    list of tuples it replaced re-boxed every vertex id and then paid a
    full conversion pass).  Growth copies are real simulated work --- the
    same amortized-doubling charge the batch peeling engine's
    ``SimpleArrayAggregator`` fix established --- so each doubling charges
    ``rows_copied * c`` work.  The scalar append path and the batch block
    path charge identically: doublings depend only on how many rows have
    arrived, never on the arrival grain.
    """

    __slots__ = ("_rows", "_count", "_c", "_tracker")

    _INITIAL_CAP = 256

    def __init__(self, c: int, tracker: CostTracker | None) -> None:
        self._rows = np.empty((self._INITIAL_CAP, c), dtype=np.int64)
        self._count = 0
        self._c = c
        self._tracker = tracker

    def _grow_to(self, needed: int) -> None:
        cap = self._rows.shape[0]
        while cap < needed:
            if self._tracker is not None:
                # The doubling copy moves every occupied row once.
                self._tracker.add_work_int(cap * self._c)
            cap *= 2
        if cap != self._rows.shape[0]:
            grown = np.empty((cap, self._c), dtype=np.int64)
            grown[:self._count] = self._rows[:self._count]
            self._rows = grown

    def append(self, clique) -> None:
        if self._count == self._rows.shape[0]:
            self._grow_to(self._count + 1)
        self._rows[self._count] = clique
        self._count += 1

    def extend(self, block: np.ndarray) -> None:
        end = self._count + block.shape[0]
        if end > self._rows.shape[0]:
            self._grow_to(end)
        self._rows[self._count:end] = block
        self._count = end

    def finish(self) -> np.ndarray:
        return self._rows[:self._count].copy()


def collect_cliques(dg: DirectedGraph, c: int,
                    tracker: CostTracker | None = None) -> np.ndarray:
    """All c-cliques as an (count, c) array, rows in discovery order.

    Each row's vertices appear in orientation-rank order (ascending ids iff
    the graph was relabeled by rank, Section 5.4).  The frontier engine
    (:mod:`repro.cliques.batchlist`) fills the buffer block-wise unless
    :func:`~repro.parallel.runtime.use_batch` picks the scalar recursion;
    simulated charges are identical either way.
    """
    buffer = _CliqueBuffer(c, tracker)
    if use_batch(tracker):
        from .batchlist import batch_list_cliques
        batch_list_cliques(dg, c, tracker, sink=buffer.extend)
    else:
        list_cliques(dg, c, buffer.append, tracker)
    return buffer.finish()
