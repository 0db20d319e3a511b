"""k-core decomposition: the (1,2) specialization of the nucleus problem.

The paper frames k-core as the k-(1,2) nucleus (Section 3).  This module
offers both routes:

* :func:`k_core` -- a direct bucket-peeling implementation (Matula--Beck),
  the classic O(n + m) algorithm, with a scalar oracle loop and a
  vectorized batch engine that reproduces the oracle's simulated costs
  bit for bit;
* :func:`k_core_via_nucleus` -- the same answer through the full
  ARB-NUCLEUS-DECOMP machinery, useful for cross-checking and for
  consistent cost accounting.

Both return the coreness of every vertex.

The peel is charged inside a ``"peel"`` phase: one unit per vertex for the
initial bucket fill, one unit per empty-bucket cursor advance, one unit
per bucket entry scanned (live or stale), ``deg(v) + 1`` per peeled vertex
(its full neighbor scan), and per processed bucket one peeling round plus
``log2(frontier + 2)`` span --- the bulk-synchronous view in which each
bucket's vertices peel concurrently (cf. the parallel bucketing structure
of arXiv:2502.08042).  Summed over a run the work is the classic
``O(n + m)`` total the old lump charge approximated, but it is now
attributed per level and per phase.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.runtime import CostTracker, _log2, use_batch
from .config import NucleusConfig
from .decomp import arb_nucleus_decomp


def k_core(graph: CSRGraph,
           tracker: CostTracker | None = None) -> np.ndarray:
    """Coreness of every vertex by direct bucket peeling (O(n + m)).

    Runs the vectorized peel
    (:func:`repro.core.batchcore.k_core_peel_batch`) unless
    :func:`~repro.parallel.runtime.use_batch` picks the scalar oracle;
    simulated charges are bit-for-bit identical either way.
    """
    tracker = tracker or CostTracker()
    n = graph.n
    core = np.zeros(n, dtype=np.int64)
    if n == 0:
        return core
    with tracker.phase("peel"):
        # Initial bucket fill: one pass over the degree array.
        tracker.add_work(float(n))
        if use_batch(tracker):
            from .batchcore import k_core_peel_batch
            k_core_peel_batch(graph, core, tracker)
        else:
            _peel_scalar(graph, core, tracker)
    return core


def _peel_scalar(graph: CSRGraph, core: np.ndarray,
                 tracker: CostTracker) -> None:
    """The Matula--Beck bucket peel; the batch engine's registered oracle.

    Buckets hold lazily-invalidated entries: a vertex is re-pushed at
    every degree it reaches, and snapshots filter entries whose vertex is
    already peeled or has since dropped to a lower bucket (each filtered
    entry still costs its scan unit, in both engines).
    """
    n = graph.n
    deg0 = graph.degrees.astype(np.int64)
    degree = deg0.copy()
    max_deg = int(degree.max())
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    removed = np.zeros(n, dtype=bool)
    level = 0
    cursor = 0
    processed = 0
    while processed < n:
        while cursor <= max_deg and not buckets[cursor]:
            cursor += 1
            tracker.add_work(1.0)
        if cursor > max_deg:
            raise RuntimeError(
                "k_core: bucket cursor overran the maximum degree with "
                f"{n - processed} vertices unprocessed")
        entries = buckets[cursor]
        buckets[cursor] = []
        # Scanning the snapshot costs one unit per entry, stale or not.
        tracker.add_work(float(len(entries)))
        frontier = sorted(v for v in entries
                          if not removed[v] and degree[v] == cursor)
        if not frontier:
            continue
        level = max(level, cursor)
        # One bulk-synchronous round per processed bucket: the frontier's
        # vertices peel concurrently behind a reduction-tree barrier.
        tracker.add_round()
        tracker.add_span(_log2(len(frontier) + 2))
        min_drop = cursor
        for v in frontier:
            removed[v] = True
            core[v] = level
            processed += 1
            for u in graph.neighbors(v):
                u = int(u)
                if not removed[u]:
                    degree[u] -= 1
                    buckets[degree[u]].append(u)
                    if degree[u] < min_drop:
                        min_drop = degree[u]
            tracker.add_work(float(deg0[v] + 1))
        cursor = min_drop


def k_core_via_nucleus(graph: CSRGraph,
                       tracker: CostTracker | None = None) -> np.ndarray:
    """Coreness via the generic (1,2) nucleus decomposition."""
    result = arb_nucleus_decomp(graph, 1, 2, NucleusConfig.optimal(1, 2),
                                tracker)
    core = np.zeros(graph.n, dtype=np.int64)
    for (v,), value in result.as_dict().items():
        core[v] = value
    return core


def degeneracy_core(graph: CSRGraph) -> int:
    """The graph's degeneracy: the maximum coreness over all vertices."""
    core = k_core(graph)
    return int(core.max()) if core.size else 0
