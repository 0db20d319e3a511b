"""Graph contraction for (2,3) nucleus (truss) decomposition (Section 5.6).

When many edges have been peeled, iterating over them during neighborhood
intersections is wasted work.  The paper periodically filters peeled edges
out of adjacency lists, using two heuristics chosen on real graphs:

* contract only when the number of edges peeled since the previous
  contraction is at least ``2 n``;
* rebuild only the adjacency lists of vertices that lost at least a
  quarter of their neighbors since the previous contraction.

This optimization is specific to r = 2: a peeled r-clique for r > 2 has no
natural edge to remove, since its edges may support other live r-cliques.
"""

from __future__ import annotations

import numpy as np

from ..parallel.runtime import CostTracker, _log2
from ..parallel.primitives import segment_gather, segment_offsets
from .csr import CSRGraph


class WorkingGraph:
    """A mutable CSR adjacency view over a :class:`CSRGraph`.

    Vertex ``v``'s live neighbors are ``adj[offsets[v] : offsets[v] +
    lengths[v]]``.  ``adj`` aliases the graph's ``targets`` until the
    first contraction copies it; contraction then compacts each rebuilt
    list in place at the front of its segment, so lists stay sorted and
    ``offsets`` never move.
    """

    def __init__(self, graph: CSRGraph):
        self.n = graph.n
        self.offsets = graph.offsets
        self.adj = graph.targets
        self.lengths = np.diff(graph.offsets)
        self._owns_adj = False

    def neighbors(self, v: int) -> np.ndarray:
        start = self.offsets[v]
        return self.adj[start:start + self.lengths[v]]

    def degree(self, v: int) -> int:
        return int(self.lengths[v])

    def gather(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """The live neighbor lists of ``vertices``, flattened in order:
        ``(values, lens)``."""
        lens = self.lengths[vertices]
        return segment_gather(self.adj, self.offsets[vertices], lens), lens

    def _writable_adj(self) -> np.ndarray:
        if not self._owns_adj:
            self.adj = self.adj.copy()
            self._owns_adj = True
        return self.adj

    def replace(self, v: int, neighbors: np.ndarray) -> None:
        """Shrink ``v``'s list to ``neighbors`` (a sorted subset of it)."""
        if neighbors.size > self.lengths[v]:
            raise ValueError("a working adjacency list can only shrink")
        start = self.offsets[v]
        self._writable_adj()[start:start + neighbors.size] = neighbors
        self.lengths[v] = neighbors.size

    def compact(self, vertices: np.ndarray, keep: np.ndarray) -> None:
        """Keep, for each of ``vertices``, the neighbors that ``keep`` marks
        (a mask over :meth:`gather`'s flat values for ``vertices``)."""
        values, lens = self.gather(vertices)
        seg = np.repeat(np.arange(vertices.size, dtype=np.int64), lens)
        kept_lens = np.bincount(seg[keep], minlength=vertices.size)
        self._writable_adj()[np.repeat(self.offsets[vertices], kept_lens)
                             + segment_offsets(kept_lens)] = values[keep]
        self.lengths[vertices] = kept_lens


class ContractionManager:
    """Implements the Section 5.6 heuristics over a :class:`WorkingGraph`."""

    #: Contract when peeled-since-last >= PEEL_FACTOR * n.
    PEEL_FACTOR = 2
    #: Rebuild a vertex that lost >= its degree / LOSS_DIVISOR neighbors.
    LOSS_DIVISOR = 4

    def __init__(self, working: WorkingGraph, tracker: CostTracker | None = None):
        self.working = working
        self.tracker = tracker
        self._peeled_since = 0
        self._lost_since = np.zeros(working.n, dtype=np.int64)
        self.contractions = 0

    def note_peeled_edge(self, u: int, v: int) -> None:
        """Record that edge (u, v) was peeled this round."""
        self._peeled_since += 1
        self._lost_since[u] += 1
        self._lost_since[v] += 1

    def note_peeled_edges(self, edges: np.ndarray) -> None:
        """:meth:`note_peeled_edge` for every row of an ``(m, 2)`` array."""
        edges = np.asarray(edges, dtype=np.int64)
        self._peeled_since += edges.shape[0]
        np.add.at(self._lost_since, edges.reshape(-1), 1)

    def maybe_contract(self, edge_alive, edges_alive_many=None) -> bool:
        """Contract if the heuristics fire.

        ``edge_alive(u, v)`` must report whether the undirected edge still
        carries a live (unpeeled) 2-clique.  ``edges_alive_many``, if given,
        answers the same question for an ``(m, 2)`` batch of edges at once
        (returning a boolean mask) and must charge the identical simulated
        costs in the identical order as ``m`` ``edge_alive`` calls --- the
        batch engine supplies one built on ``CliqueTable.lookup_many``.
        Rebuild decisions only read each vertex's own adjacency list, so
        batching the liveness checks cannot change which vertices rebuild.
        Returns True if a contraction happened.
        """
        if self._peeled_since < self.PEEL_FACTOR * self.working.n:
            return False
        self.contractions += 1
        working = self.working
        if edges_alive_many is not None:
            lengths = working.lengths
            rebuild = np.flatnonzero(
                (lengths > 0)
                & (self._lost_since * self.LOSS_DIVISOR >= lengths))
            nbrs, sizes = working.gather(rebuild)
            rebuilt_work = int(sizes.sum())
            if rebuild.size:
                pairs = np.empty((rebuilt_work, 2), dtype=np.int64)
                pairs[:, 0] = np.repeat(rebuild, sizes)
                pairs[:, 1] = nbrs
                working.compact(rebuild, edges_alive_many(pairs))
                self._lost_since[rebuild] = 0
        else:
            # Charged in aggregate below: n for the scan + rebuilt_work
            # for the filters (same totals as the batched branch).
            rebuilt_work = 0
            for v in range(working.n):
                degree = working.degree(v)
                if degree == 0 or \
                        self._lost_since[v] * self.LOSS_DIVISOR < degree:
                    continue
                nbrs = working.neighbors(v)
                kept = np.asarray(
                    [w for w in nbrs if edge_alive(int(v), int(w))],
                    dtype=np.int64)
                working.replace(v, kept)
                rebuilt_work += degree
                self._lost_since[v] = 0
        if self.tracker is not None:
            # Checking every vertex plus the parallel filters that rebuilt.
            self.tracker.add_work(float(working.n + rebuilt_work))
            self.tracker.add_span(_log2(working.n + rebuilt_work))
        self._peeled_since = 0
        return True
