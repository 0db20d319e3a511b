"""Charged, level-batched nucleus-hierarchy construction.

:func:`repro.analysis.hierarchy.build_hierarchy` is the *post-hoc*
definition of the hierarchy: for every core level it rescans all
s-cliques, re-tests survival, and regroups from scratch.  Correct, and
retained as the differential oracle, but quadratic in the number of
levels and off the simulated machine.  This module is the first-class
engine (after the parallel dendrogram construction of Sariyuce--Pinar
hierarchies, arXiv:2306.08623): every step is tracker-charged, the
s-clique enumeration reuses the decomposition's lister (the batch
frontier engine), and connectivity is built
*incrementally* down the levels instead of per-level from scratch.

The key observation is that an s-clique "dies" at a single level --- the
minimum core number among its C(s, r) member r-cliques --- and survives
at every level up to it.  Processing levels in descending order, the
level-c connectivity is the level-(c+1) connectivity plus the star edges
of the s-cliques whose death level is exactly c, so each s-clique is
unioned exactly once overall.  Per level the new star edges (mapped
through the current component labels) feed one Shiloach--Vishkin
hook-and-compress pass (:func:`repro.parallel.connectivity
.connected_components`), and the resulting relabeling is composed into a
persistent label array over the growing set of alive r-cliques.

Three phases land in the tracker (and in ``phase_wall``, which the bench
trajectory's ``--min-hierarchy-speedup`` gate reads):

``hier_list``
    s-clique enumeration plus the subset-to-r-clique-index mapping
    (shared between the kernel pairs; the batch and scalar listers differ
    only in host wall-clock, never in simulated charges).
``hier_levels``
    the descending level sweep --- the registered batch/scalar kernel
    pair (:func:`_levels_scalar` here, ``batch_levels`` in
    :mod:`repro.analysis.batchhier`; rule PAR007 pins their parity).
``hier_emit``
    materializing :class:`~repro.analysis.hierarchy.Nucleus` records
    from the per-level label snapshots, reproducing the oracle's node
    ids and parent links exactly (groups ordered by minimum member
    index, ids assigned ascending by level).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..cliques.encode import CliqueEncoder, KeyWidthError
from ..cliques.listing import collect_cliques
from ..cliques.orient import orient
from ..core.decomp import NucleusResult
from ..graph.csr import CSRGraph
from ..parallel.connectivity import connected_components
from ..parallel.runtime import CostTracker, _log2, use_batch
from .hierarchy import Nucleus, NucleusHierarchy


def nucleus_hierarchy(graph: CSRGraph, result: NucleusResult,
                      tracker: CostTracker | None = None,
                      s_cliques=None) -> NucleusHierarchy:
    """Build the connected-nucleus hierarchy on the simulated machine.

    The level sweep and the s-clique lister run their batch kernels
    unless :func:`~repro.parallel.runtime.use_batch` picks the scalar
    oracles for ``tracker``; by the kernels' cost-parity contract the
    simulated charges are the same either way --- only host wall-clock
    differs.  Pass ``s_cliques`` (an iterable of vertex tuples) to skip
    the enumeration, e.g. when the caller already holds the list.

    Returns the same :class:`~repro.analysis.hierarchy.NucleusHierarchy`
    (bit-identical node ids, members, and parent links) as the post-hoc
    :func:`~repro.analysis.hierarchy.build_hierarchy` oracle.
    """
    if tracker is None:
        tracker = CostTracker()

    with tracker.phase("hier_list"):
        cliques, cores, members = _prepare(graph, result, tracker, s_cliques)
    with tracker.phase("hier_levels"):
        if use_batch(tracker):
            from .batchhier import batch_levels
            levels_data = batch_levels(cores, members, tracker)
        else:
            levels_data = _levels_scalar(cores, members, tracker)
    with tracker.phase("hier_emit"):
        hierarchy = _emit(result.r, result.s, cliques, levels_data,
                          tracker)
    return hierarchy


def _prepare(graph: CSRGraph, result: NucleusResult, tracker: CostTracker,
             s_cliques) -> tuple[list, np.ndarray, np.ndarray]:
    """Sorted r-clique list, core array, and the (m_s, C(s,r)) member
    matrix mapping every s-clique to its r-subset indices.

    Shared between the kernels: the simulated charges here are identical
    whichever lister runs (the lister's own parity contract)
    and of whether the vectorized key-packing path or the dict fallback
    resolves the subsets (both charge the same closed forms).
    """
    r, s = result.r, result.s
    cores_dict = result.as_dict()
    cliques = sorted(cores_dict)
    n_r = len(cliques)
    # Semisort the r-cliques by key and build the core array.
    tracker.add_work(float(n_r) * _log2(max(n_r, 2)))
    tracker.add_work_int(n_r)
    cores = np.fromiter((cores_dict[clique] for clique in cliques),
                        dtype=np.int64, count=n_r)
    if s_cliques is None:
        dg, _ = orient(graph, "degeneracy", tracker)
        raw = collect_cliques(dg, s, tracker)
    else:
        raw = np.asarray([tuple(int(v) for v in clique)
                          for clique in s_cliques],
                         dtype=np.int64).reshape(-1, s)
    rows = np.sort(raw, axis=1)
    m_s = int(rows.shape[0])
    # Per-row sort into ascending vertex order (s log s comparisons).
    tracker.add_work_frac_repeated(float(s) * _log2(s), m_s)
    combs = list(combinations(range(s), r))
    n_sub = len(combs)
    if m_s:
        subs = np.stack([rows[:, comb] for comb in combs], axis=1)
    else:
        subs = np.empty((0, n_sub, r), dtype=np.int64)
    members = _map_subsets(graph.n, subs, cliques, tracker)
    return cliques, cores, members


def _map_subsets(n_vertices: int, subs: np.ndarray, cliques: list,
                 tracker: CostTracker) -> np.ndarray:
    """Map every r-subset row to its index in the sorted r-clique list.

    Packs subsets into integer keys and binary-searches the (already
    lexicographically sorted) clique key array; falls back to a dict
    probe when the keys overflow 63 bits.  Charges r units to pack plus
    a log-time sorted probe per subset, identically on both paths.
    """
    m_s, n_sub, r = (int(subs.shape[0]), int(subs.shape[1]),
                     int(subs.shape[2]))
    n_r = len(cliques)
    tracker.add_work_int(m_s * n_sub * r)
    tracker.add_work_frac_repeated(_log2(max(n_r, 2)), m_s * n_sub)
    if m_s == 0 or n_r == 0:
        return np.empty((m_s, n_sub), dtype=np.int64)
    try:
        encoder = CliqueEncoder(max(n_vertices, 2), r)
    except KeyWidthError:
        index = {clique: i for i, clique in enumerate(cliques)}
        out = np.empty((m_s, n_sub), dtype=np.int64)
        for j in range(m_s):
            for k in range(n_sub):
                out[j, k] = index[tuple(int(v) for v in subs[j, k])]
        return out
    clique_keys = encoder.encode_many(
        np.asarray(cliques, dtype=np.int64).reshape(n_r, r))
    sub_keys = encoder.encode_many(subs.reshape(m_s * n_sub, r))
    idx = np.minimum(np.searchsorted(clique_keys, sub_keys), n_r - 1)
    if not bool(np.all(clique_keys[idx] == sub_keys)):
        raise ValueError("an s-clique has an r-subset that is not in "
                         "the decomposition's r-clique table")
    return idx.reshape(m_s, n_sub).astype(np.int64)


def _levels_scalar(cores: np.ndarray, members: np.ndarray,
                   tracker: CostTracker | None = None) -> list:
    """The scalar level-sweep kernel (and the batch engine's oracle).

    ``cores[i]`` is the core number of r-clique ``i`` (ids index the
    lexicographically sorted clique list); ``members[j]`` holds the
    C(s, r) r-subset ids of s-clique ``j``.  Returns, ascending by
    level, one ``(level, active_ids, labels)`` triple per present core
    value: the alive r-cliques (ordered by descending core, ties by
    ascending id --- the accumulation order of the descending sweep) and
    their connected-component label under s-clique connectivity at that
    level.

    Charge model (mirrored exactly by ``batch_levels``): ``width`` per
    s-clique death-level min, 1 per bucketed item, ``3(width-1)`` per
    dying s-clique's star-edge build-and-map, the shared
    :func:`connected_components` charges per level, 1 per alive r-clique
    for the label composition (levels with new edges only), 1 per alive
    r-clique for the snapshot, plus one round and a log-span per level.
    """
    n = int(cores.size)
    count = int(members.shape[0])
    width = int(members.shape[1])
    death = np.empty(count, dtype=np.int64)
    for j in range(count):
        row = members[j]
        low = int(cores[row[0]])
        for k in range(1, width):
            core = int(cores[row[k]])
            if core < low:
                low = core
        death[j] = low
        if tracker is not None:
            tracker.add_work(float(width))
    r_buckets: dict[int, list[int]] = {}
    for i in range(n):
        r_buckets.setdefault(int(cores[i]), []).append(i)
        if tracker is not None:
            tracker.add_work(1.0)
    s_buckets: dict[int, list[int]] = {}
    for j in range(count):
        s_buckets.setdefault(int(death[j]), []).append(j)
        if tracker is not None:
            tracker.add_work(1.0)
    label = np.arange(n, dtype=np.int64)
    active: list[int] = []
    out: list[tuple[int, np.ndarray, np.ndarray]] = []
    for level in sorted(r_buckets, reverse=True):
        if tracker is not None:
            tracker.add_round()
        for i in r_buckets[level]:
            active.append(i)
        edges: list[tuple[int, int]] = []
        for j in s_buckets.get(level, ()):
            row = members[j]
            first = int(label[row[0]])
            for k in range(1, width):
                edges.append((first, int(label[row[k]])))
            if tracker is not None:
                tracker.add_work(float(3 * (width - 1)))
        if edges:
            relabel = connected_components(n, edges, tracker)
            for a in active:
                label[a] = relabel[label[a]]
            if tracker is not None:
                tracker.add_work(float(len(active)))
        snapshot = np.empty(len(active), dtype=np.int64)
        for pos in range(len(active)):
            snapshot[pos] = label[active[pos]]
        if tracker is not None:
            tracker.add_work(float(len(active)))
            tracker.add_span(_log2(len(active) + len(edges)))
        out.append((int(level), np.array(active, dtype=np.int64),
                    snapshot))
    out.reverse()
    return out


def _emit(r: int, s: int, cliques: list, levels_data: list,
          tracker: CostTracker) -> NucleusHierarchy:
    """Materialize Nucleus records from the per-level label snapshots.

    Shared by both engines (same inputs by the kernels' parity contract,
    so same charges).  Reproduces the post-hoc oracle's numbering
    exactly: levels ascending, groups within a level ordered by their
    minimum member index, members sorted, parent looked up through the
    previous level's membership of the group's minimum member.
    """
    hierarchy = NucleusHierarchy(r, s)
    previous_node: dict[int, int] = {}
    next_id = 0
    for level, active, labels in levels_data:
        groups: dict[int, list[int]] = {}
        for pos in range(active.size):
            groups.setdefault(int(labels[pos]), []).append(int(active[pos]))
        # One pass to group plus one to emit; group-by-label is a
        # semisort (linear work in the level's alive count).
        tracker.add_work(float(2 * active.size))
        tracker.add_span(_log2(active.size + 1))
        current_node: dict[int, int] = {}
        for group in sorted(groups.values(), key=min):
            group.sort()
            nucleus = Nucleus(level=int(level),
                              members=tuple(cliques[i] for i in group),
                              node_id=next_id,
                              parent_id=previous_node.get(group[0], -1))
            hierarchy.nuclei.append(nucleus)
            for i in group:
                current_node[i] = next_id
            next_id += 1
        previous_node = current_node
    return hierarchy
