"""ARB-NUCLEUS-DECOMP: the paper's parallel (r,s) nucleus decomposition.

Algorithm 2, with every Section 5 optimization available through
:class:`~repro.core.config.NucleusConfig`:

1. orient the graph with an O(alpha)-orientation (optionally relabeling
   vertices by rank, Section 5.4);
2. enumerate all r-cliques and build the clique table ``T``
   (one/two/multi-level, Sections 5.1--5.3);
3. count the s-cliques incident on every r-clique with REC-LIST-CLIQUES
   (``COUNT-FUNC`` increments C(s,r) cells per discovered s-clique);
4. bucket r-cliques by count and peel: each round extracts the minimum
   bucket ``A``, re-discovers the s-cliques incident to each peeled
   r-clique, and applies ``UPDATE-FUNC`` --- subtracting ``1/a`` per
   discovery so simultaneously-peeled r-cliques never over-count --- while
   aggregating the updated set ``U`` (Section 5.5) to re-bucket.

The bucket value at extraction is the r-clique's (r,s)-clique-core number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from ..bucketing import make_bucketing
from ..cliques.batchlist import batch_count_phase, batch_list_cliques
from ..cliques.listing import list_cliques, rec_list_cliques
from ..cliques.orient import orientation_rank
from ..graph.contraction import ContractionManager, WorkingGraph
from ..graph.csr import CSRGraph, DirectedGraph
from ..graph.relabel import relabel_by_rank
from ..machine.cache import AddressSpace
from ..parallel.atomics import ContentionMeter
from ..parallel.primitives import intersect_many
from ..parallel.runtime import CostTracker, _log2, use_batch
from ..sanitize.racecheck import maybe_shadow
from .aggregation import make_aggregator
from .batchpeel import peel_batch
from .config import NucleusConfig
from .tables import CliqueTable

_ALIVE, _PEELING, _PEELED = 0, 1, 2


class CoreReport:
    """Core-number reporting shared by every decomposition result.

    Reads the result's ``_cells`` (occupied cells, ascending), ``_cores``
    (their core numbers), ``_table`` and ``_original_of``; cliques are
    reported in *original* vertex ids, ascending within each clique.  The
    table's tracker is detached once a run finishes, so none of these
    queries charges the simulated machine.
    """

    def as_dict(self) -> dict[tuple[int, ...], int]:
        """Map every r-clique to its (r,s)-clique-core number."""
        cliques, _, _ = self._table.decode_many(self._cells)
        original = np.sort(self._original_of[cliques], axis=1)
        return dict(zip(map(tuple, original.tolist()),
                        self._cores.tolist()))

    def core_of(self, clique) -> int:
        """Core number of one r-clique given in original vertex ids."""
        rank = np.empty_like(self._original_of)
        rank[self._original_of] = np.arange(self._original_of.size)
        working = tuple(sorted(int(rank[v]) for v in clique))
        cell = self._table.cell_of(working)
        if cell < 0:
            raise KeyError(f"{tuple(clique)} is not an {self.r}-clique")
        position = np.searchsorted(self._cells, cell)
        return int(self._cores[position])

    def core_histogram(self) -> dict[int, int]:
        """Number of r-cliques at each core value."""
        values, counts = np.unique(self._cores, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


@dataclass
class NucleusResult(CoreReport):
    """Output of one nucleus decomposition run.

    ``core_of`` / ``as_dict`` (from :class:`CoreReport`) report cliques in
    *original* vertex ids (ascending within each clique), regardless of
    relabeling.
    """

    r: int
    s: int
    n_r_cliques: int
    n_s_cliques: int
    rho: int  # peeling rounds (the paper's rho_{(r,s)})
    max_core: int
    table_memory_units: int
    tracker: CostTracker
    config: NucleusConfig
    #: Per-round trace: (core level, r-cliques peeled, r-cliques updated).
    round_log: list[tuple[int, int, int]] = field(default_factory=list)
    _cells: np.ndarray = field(repr=False, default=None)
    _cores: np.ndarray = field(repr=False, default=None)
    _table: CliqueTable = field(repr=False, default=None)
    _original_of: np.ndarray = field(repr=False, default=None)


@dataclass
class PreparedDecomposition:
    """Phases 1--3 of ARB-NUCLEUS-DECOMP, packaged for a peeling driver.

    Both the single-node driver (:func:`arb_nucleus_decomp`) and the
    sharded multi-node driver
    (:func:`repro.distributed.peel.sharded_nucleus_decomp`) consume this:
    the oriented graph, the populated clique table with its s-clique
    counts, and the bookkeeping needed to report results in original
    vertex ids.  All charges land on :attr:`tracker` in the same phases
    (``orient`` / ``relabel`` / ``enumerate_r`` / ``build_table`` /
    ``count_s``) and the same order as before the extraction, so the
    pinned bench trajectory is unchanged.
    """

    config: NucleusConfig
    tracker: CostTracker
    work_graph: CSRGraph
    dg: DirectedGraph
    original_of: np.ndarray
    table: CliqueTable
    n_r: int
    n_s: int


def prepare_decomposition(graph: CSRGraph, r: int, s: int,
                          config: NucleusConfig | None = None,
                          tracker: CostTracker | None = None
                          ) -> PreparedDecomposition:
    """Run phases 1--3 (orient, enumerate r-cliques + build T, count
    s-cliques) and return the shared state every peeling driver needs."""
    if config is None:
        config = NucleusConfig.optimal(r, s)
    config = config.validated(graph.n, r, s)
    if tracker is None:
        tracker = CostTracker()

    # -- Phase 1: orientation (Algorithm 2, line 20) and relabeling (5.4).
    with tracker.phase("orient"):
        rank = orientation_rank(graph, config.orientation, tracker)
    if config.relabel:
        with tracker.phase("relabel"):
            work_graph, original_of = relabel_by_rank(graph, rank, tracker)
            work_rank = np.arange(graph.n)
    else:
        work_graph = graph
        original_of = np.arange(graph.n)
        work_rank = rank
    dg = DirectedGraph.orient(work_graph, work_rank)

    batch = use_batch(tracker)

    # -- Phase 2: enumerate r-cliques and build T (line 21).
    with tracker.phase("enumerate_r"):
        if r == 1:
            n_r = graph.n
            cliques = np.arange(graph.n, dtype=np.int64)[:, np.newaxis]
        elif batch:
            blocks: list[np.ndarray] = []
            n_r = batch_list_cliques(dg, r, tracker, sink=blocks.append)
            cliques = np.concatenate(blocks, axis=0)
        else:
            rows: list[tuple] = []
            n_r = list_cliques(dg, r, rows.append, tracker)
            cliques = np.asarray(rows, dtype=np.int64).reshape(n_r, r)
        cliques = cliques.reshape(n_r, r)
        if not config.relabel and n_r:
            # Discovery order is rank order; keys need ascending ids.
            tracker.add_work(n_r * r * _log2(r))
            cliques = np.sort(cliques, axis=1)
    with tracker.phase("build_table"):
        table = CliqueTable(
            work_graph.n, r, cliques, levels=config.levels,
            style=config.table_style, contiguous=config.contiguous,
            inverse_map=config.inverse_map, tracker=tracker,
            address_space=AddressSpace())

    if n_r == 0:
        return PreparedDecomposition(config, tracker, work_graph, dg,
                                     original_of, table, 0, 0)

    # -- Phase 3: count s-cliques per r-clique (COUNT-FUNC, line 22).
    relabeled = config.relabel
    with tracker.phase("count_s"):
        if batch:
            n_s = batch_count_phase(dg, table, r, s, relabeled, tracker)
        else:
            n_s = _count_scalar(dg, table, r, s, relabeled, tracker)
    return PreparedDecomposition(config, tracker, work_graph, dg,
                                 original_of, table, n_r, n_s)


def arb_nucleus_decomp(graph: CSRGraph, r: int, s: int,
                       config: NucleusConfig | None = None,
                       tracker: CostTracker | None = None) -> NucleusResult:
    """Compute the (r, s) nucleus decomposition of ``graph``.

    Parameters
    ----------
    graph:
        The undirected input graph.
    r, s:
        Nucleus parameters, ``1 <= r < s``; (1,2) is k-core, (2,3) k-truss.
    config:
        Optimization knobs; defaults to :meth:`NucleusConfig.optimal`.
    tracker:
        Optional cost tracker (a fresh one is created otherwise); attach a
        cache simulator to it *before* calling to model cache behavior.
    """
    prep = prepare_decomposition(graph, r, s, config, tracker)
    config, tracker = prep.config, prep.tracker
    work_graph, dg, table = prep.work_graph, prep.dg, prep.table
    original_of, n_r, n_s = prep.original_of, prep.n_r, prep.n_s

    if n_r == 0:
        return NucleusResult(r, s, 0, 0, 0, 0, table.memory_units, tracker,
                             config, [], np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64), table, original_of)

    # -- Phase 4: bucket and peel (lines 23-29).
    cells = table.occupied_cells()
    counts0 = np.rint(table.counts[cells]).astype(np.int64)
    with tracker.phase("bucket"):
        buckets = make_bucketing(config.bucketing, cells, counts0,
                                 tracker=tracker, window=config.bucket_window)
    # Shared peeling state.  Under race checking (repro.sanitize) the
    # arrays are shadow-wrapped: ``status``/``cores`` are written only at
    # round barriers and read inside tasks (plain accesses), while the
    # first-touch stamp ``last_round`` is test-and-set state that the real
    # implementation mediates with a CAS, hence ``atomic=True``.
    status = maybe_shadow(np.zeros(table.total_cells, dtype=np.int8),
                          tracker, label="status")
    last_round = maybe_shadow(np.full(table.total_cells, -1, dtype=np.int64),
                              tracker, atomic=True, label="last_round")
    cores = maybe_shadow(np.zeros(table.total_cells, dtype=np.int64),
                         tracker, label="cores")
    meter = ContentionMeter(detector=tracker.race_detector)
    aggregator = make_aggregator(
        config.aggregation, table.total_cells, threads=config.threads,
        tracker=tracker, meter=meter, buffer_size=config.buffer_size)

    working = WorkingGraph(work_graph)
    contraction = None
    if config.contraction and (r, s) == (2, 3):
        contraction = ContractionManager(working, tracker)

    fractional = config.update_arithmetic == "fractional"
    with tracker.phase("peel"):
        if use_batch(tracker):
            rho, max_core, round_log = peel_batch(
                graph=graph, dg=dg, working=working, table=table,
                buckets=buckets, aggregator=aggregator, meter=meter,
                status=status, last_round=last_round, cores=cores,
                contraction=contraction, config=config, tracker=tracker,
                n_r=n_r, r=r, s=s, fractional=fractional)
        else:
            rho, max_core, round_log = _peel_scalar(
                graph, dg, working, table, buckets, aggregator, meter,
                status, last_round, cores, contraction, config, tracker,
                n_r, r, s, fractional)

    table.tracker = None  # post-run queries should not keep charging
    order = np.argsort(cells, kind="stable")
    return NucleusResult(
        r=r, s=s, n_r_cliques=n_r, n_s_cliques=n_s, rho=rho,
        max_core=max_core, table_memory_units=table.memory_units,
        tracker=tracker, config=config, round_log=round_log,
        _cells=cells[order], _cores=cores[cells[order]], _table=table,
        _original_of=original_of)


def _count_scalar(dg, table, r: int, s: int, relabeled: bool,
                  tracker) -> int:
    """Algorithm 2's s-clique count (COUNT-FUNC, line 22), one clique at a
    time --- the scalar oracle whose charges
    :func:`repro.cliques.batchlist.batch_count_phase` replays in bulk."""
    sort_charge = s * _log2(s)

    def count_func(clique):
        if relabeled:
            ordered = clique
        else:
            ordered = tuple(sorted(clique))
            # Charge the sort only when one actually happens: without
            # relabeling, discovery order often *is* ascending-id order
            # (e.g. when orientation rank coincides with vertex id), and
            # sorted() on a sorted tuple is a linear verification already
            # covered by the per-clique work below.
            if ordered != clique:
                tracker.add_work(sort_charge)
        for subset in combinations(ordered, r):
            table.add_count(subset, 1.0)

    return list_cliques(dg, s, count_func, tracker)


def _peel_scalar(graph, dg, working, table, buckets, aggregator, meter,
                 status, last_round, cores, contraction, config,
                 tracker: CostTracker, n_r: int, r: int, s: int,
                 fractional: bool) -> tuple[int, int, list]:
    """The per-clique peeling loop (Algorithm 2, lines 23-29).

    This is the oracle the batch engine (:mod:`repro.core.batchpeel`) must
    match cost-for-cost; keep the two in lockstep when changing charges.
    """
    subsets_per_s = comb(s, r)
    finished = 0
    rho = 0
    round_id = 0
    max_core = 0
    round_log: list[tuple[int, int, int]] = []

    while finished < n_r:
        level, peel_cells = buckets.next_bucket()
        rho += 1
        tracker.add_round()
        max_core = max(max_core, level)
        cores[peel_cells] = level
        status[peel_cells] = _PEELING
        finished += peel_cells.size
        estimate = int(peel_cells.size) * max(1, level) * \
            max(1, subsets_per_s - 1)
        aggregator.begin_round(int(peel_cells.size), estimate)

        with tracker.parallel(int(peel_cells.size)) as region:
            for task, cell in enumerate(peel_cells):
                thread = task % config.threads
                with region.task():
                    clique = table.decode(int(cell))
                    _update_one(table, dg, working, clique, r, s, status,
                                last_round, round_id, aggregator, thread,
                                fractional, tracker)
                    # One O(log n) intersection per completion level.
                    tracker.add_span(_log2(graph.n) * (s - r + 1))

        meter.settle(tracker)
        updated = aggregator.finish_round()
        round_log.append((level, int(peel_cells.size), int(updated.size)))
        status[peel_cells] = _PEELED
        if updated.size:
            new_values = np.rint(table.counts[updated]).astype(np.int64)
            buckets.update(updated, new_values)
        if contraction is not None:
            for cell in peel_cells:
                u, v = table.decode(int(cell))
                contraction.note_peeled_edge(u, v)
            contraction.maybe_contract(
                lambda a, b: status[table.cell_of(
                    (a, b) if a < b else (b, a))] != _PEELED)
        round_id += 1
    return rho, max_core, round_log


def _update_one(table: CliqueTable, dg: DirectedGraph, working: WorkingGraph,
                clique: tuple, r: int, s: int, status: np.ndarray,
                last_round: np.ndarray, round_id: int, aggregator,
                thread: int, fractional: bool,
                tracker: CostTracker) -> None:
    """UPDATE for one peeled r-clique (Algorithm 2, lines 13-18)."""

    def apply(alive_cells: list, share: int) -> None:
        delta = -1.0 / share
        # PAR010 waiver: the fractional delta (-1/a) makes the atomic
        # accumulation order-dependent in float arithmetic, but every
        # consumer re-rounds (np.rint at the bucket update and at result
        # extraction), and the fractional-vs-exact agreement gate in
        # tests/test_decomp.py pins the re-rounded totals; interleaving
        # noise cannot reach a reported number.
        for cell in alive_cells:
            table.add_count_at(cell, delta)  # parlint: disable=PAR010
            if last_round[cell] != round_id:
                last_round[cell] = round_id
                aggregator.record(int(cell), thread)

    _rediscover(table, dg, working, clique, r, s, status, fractional, apply,
                tracker)


def _rediscover(table: CliqueTable, dg: DirectedGraph, working: WorkingGraph,
                clique: tuple, r: int, s: int, status: np.ndarray,
                fractional: bool, apply, tracker: CostTracker) -> None:
    """UPDATE's rediscover-and-classify half for one peeled r-clique.

    Re-lists the s-cliques incident to ``clique`` (Algorithm 2, lines
    13-17) and runs UPDATE-FUNC's status walk on each (lines 5-11): an
    s-clique with a PEELED r-subset was already handled in an earlier
    round, one without an ALIVE r-subset has nothing to update.  The
    rest call ``apply(alive_cells, share)`` --- the driver-specific half:
    count updates plus aggregation on one node, ownership routing across
    shards --- where each ALIVE cell loses ``1 / share``: ``share`` is
    the number of PEELING r-subsets in fractional arithmetic, and 1 in
    representative arithmetic, where only the s-clique's least PEELING
    subset applies.  The scalar oracle of
    :func:`repro.core.batchpeel.rediscover_round`.
    """
    if r == 1:
        candidates = working.neighbors(clique[0])
        tracker.add_work(1.0)
    else:
        candidates = intersect_many(
            [working.neighbors(v) for v in clique], tracker)
    if candidates.size < s - r:
        return

    def classify(s_clique):
        ordered = tuple(sorted(s_clique))
        tracker.add_work(float(len(s_clique)))
        alive_cells = []
        peeling = []
        for subset in combinations(ordered, r):
            cell = table.cell_of(subset)
            state = status[cell]
            if state == _PEELED:
                return  # an r-clique of this s-clique was peeled earlier
            if state == _PEELING:
                peeling.append(subset)
            else:
                alive_cells.append(cell)
        if not alive_cells:
            return
        if fractional:
            apply(alive_cells, len(peeling))
        # Exact-integer mode: only the least peeling subset subtracts 1;
        # the recursion passes the peeled r-clique as the s-clique's prefix.
        elif tuple(sorted(s_clique[:r])) == min(peeling):
            apply(alive_cells, 1)

    rec_list_cliques(dg, candidates, s - r, clique, classify, tracker)
