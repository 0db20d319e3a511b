"""Clique counting conveniences built on REC-LIST-CLIQUES.

Per-vertex and per-edge counts are what the nucleus algorithm's special
cases consume: per-vertex triangle counts drive (1,2)/(1,3)-style
decompositions and per-edge triangle counts (edge *support*) drive k-truss,
including the PKT-family baselines.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph, DirectedGraph
from ..parallel.primitives import intersect_segments, segment_gather
from ..parallel.runtime import CostTracker, use_batch
from .batchlist import batch_list_cliques
from .listing import list_cliques
from .orient import orient


def total_clique_count(graph: CSRGraph, c: int, method: str = "goodrich_pszona",
                       tracker: CostTracker | None = None) -> int:
    """Number of c-cliques in an undirected graph."""
    if c == 1:
        return graph.n
    if c == 2:
        return graph.m
    dg, _ = orient(graph, method, tracker)
    if use_batch(tracker):
        return batch_list_cliques(dg, c, tracker)
    counter = [0]
    list_cliques(dg, c, lambda _clique: counter.__setitem__(0, counter[0] + 1),
                 tracker)
    return counter[0]


def per_vertex_clique_counts(graph: CSRGraph, c: int,
                             method: str = "goodrich_pszona",
                             tracker: CostTracker | None = None) -> np.ndarray:
    """``out[v]`` = number of c-cliques containing vertex ``v``.

    This is the quantity ``ct_c(v)`` in the paper's appendix comparison with
    Sariyuce et al.'s bounds.  Each discovered clique increments ``c``
    per-vertex counters, charged as ``c`` work per clique (the callback
    used to run uncharged); the batch path applies the same increments
    as one scatter per block with the identical bulk charge.
    """
    counts = np.zeros(graph.n, dtype=np.int64)
    if c == 1:
        counts[:] = 1
        return counts
    if c == 2:
        return graph.degrees.astype(np.int64)
    dg, _ = orient(graph, method, tracker)

    if use_batch(tracker):
        def sink(rows: np.ndarray) -> None:
            if tracker is not None:
                tracker.add_work_int(rows.size)
            np.add.at(counts, rows.reshape(-1), 1)

        batch_list_cliques(dg, c, tracker, sink=sink)
        return counts

    def bump(clique):
        if tracker is not None:
            tracker.add_work(float(len(clique)))
        for v in clique:
            counts[v] += 1

    list_cliques(dg, c, bump, tracker)
    return counts


def triangle_count(graph: CSRGraph, tracker: CostTracker | None = None) -> int:
    """Total number of triangles (3-cliques)."""
    return total_clique_count(graph, 3, tracker=tracker)


def edge_support(graph: CSRGraph, tracker: CostTracker | None = None,
                 dg: DirectedGraph | None = None) -> dict[tuple[int, int], int]:
    """Triangle count of each edge, keyed by ``(min(u,v), max(u,v))``.

    The k-truss baselines start from exactly this map.  Uses the directed
    node-iterator: for each directed edge (u, v), every common directed
    out-neighbor w closes the triangle {u, v, w} exactly once.

    Charging: one unit per undirected edge to initialize the support map,
    one ``min(|N+(u)|, |N+(v)|) + 1`` intersection per directed edge, and
    three support increments per triangle.  The inner loops run batched:
    all directed-edge intersections in one keyed merge
    (:func:`~repro.parallel.primitives.intersect_segments`) and the
    increments as one scatter over packed edge keys.
    """
    if dg is None:
        dg, _ = orient(graph, tracker=tracker)
    edges = graph.edges()  # (m, 2) with u < v
    m = edges.shape[0]
    if tracker is not None:
        # Initializing one support counter per edge.
        tracker.add_work_int(m)
    if m == 0:
        return {}
    n = graph.n
    edge_keys = edges[:, 0] * n + edges[:, 1]
    key_order = np.argsort(edge_keys, kind="stable")
    sorted_keys = edge_keys[key_order]

    # One intersection row per directed edge (u, v): N+(u) against N+(v).
    out_degs = dg.out_degrees
    u_of = np.repeat(np.arange(dg.n, dtype=np.int64), out_degs)
    v_of = dg.targets
    a_vals = segment_gather(dg.targets, dg.offsets[u_of], out_degs[u_of])
    b_vals = segment_gather(dg.targets, dg.offsets[v_of], out_degs[v_of])
    common, common_lens = intersect_segments(
        a_vals, out_degs[u_of], b_vals, out_degs[v_of], tracker)

    counts = np.zeros(m, dtype=np.int64)
    n_triangles = int(common_lens.sum())
    if n_triangles:
        if tracker is not None:
            # Three per-edge support increments per closed triangle.
            tracker.add_work_int(3 * n_triangles)
        tri_u = np.repeat(u_of, common_lens)
        tri_v = np.repeat(v_of, common_lens)
        tri_w = common
        keys = np.concatenate([
            np.minimum(tri_u, tri_v) * n + np.maximum(tri_u, tri_v),
            np.minimum(tri_u, tri_w) * n + np.maximum(tri_u, tri_w),
            np.minimum(tri_v, tri_w) * n + np.maximum(tri_v, tri_w)])
        np.add.at(counts, key_order[np.searchsorted(sorted_keys, keys)], 1)
    return {(int(u), int(v)): int(c)
            for (u, v), c in zip(edges, counts)}
