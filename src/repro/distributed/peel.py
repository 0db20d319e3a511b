"""Sharded (r,s) nucleus peeling with batched cross-shard exchanges.

The distributed execution model (docs/sharding.md):

* the graph itself is replicated read-only on every shard; the clique
  table's *count cells* are partitioned by owner --- the shard of the
  r-clique's minimum vertex under the chosen vertex partition;
* peeling proceeds in BSP super-rounds that mirror the single-node
  bucket rounds exactly: each shard re-discovers the s-cliques incident
  to the peeled r-cliques *it owns* (``local_peel`` phase), applying
  count decrements for owned cells directly and buffering decrements for
  remote cells in a per-shard outbox;
* between rounds, one batched ``exchange`` ships every outbox to the
  owning shards --- one message per (source, destination) pair, priced by
  the charged communication term (:meth:`MachineModel.comm_cost`) --- and
  the owners apply the deltas before re-bucketing.

Because the driver forces ``update_arithmetic="representative"`` (exact
integer deltas, so the floating-point count sums are independent of
application order) and replays the oracle's bucket rounds verbatim, the
resulting core numbers are **bit-for-bit identical** to the single-node
:func:`~repro.core.decomp.arb_nucleus_decomp` --- the differential suite
in tests/test_distributed.py pins this on every graph/(r,s)/shard-count
combination it runs.

:func:`_local_round` and :func:`_exchange_scalar` are the scalar oracles;
the vectorized :func:`repro.distributed.batchpeel.local_round_batch` and
:func:`repro.distributed.batchexchange.exchange_batch` kernels must match
them charge-for-charge on every tracker (``PARLINT_PARITY``).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from ..bucketing import make_bucketing
from ..core.config import NucleusConfig
from ..core.decomp import (_PEELED, _PEELING, CoreReport, _rediscover,
                           prepare_decomposition)
from ..core.tables import CliqueTable
from ..graph.contraction import WorkingGraph
from ..graph.csr import CSRGraph
from ..observe.trace import TraceRecorder
from ..parallel.runtime import CostTracker, _log2, use_batch
from ..sanitize.racecheck import maybe_shadow
from .batchexchange import exchange_batch
from .batchpeel import ExchangeBuffer, UpdateLedger, local_round_batch
from .model import ENTRY_BYTES
from .partition import PARTITIONERS, Partition


@dataclass
class ShardedResult(CoreReport):
    """Output of one sharded nucleus decomposition run.

    Core numbers (``as_dict`` / ``core_of``) are reported exactly like
    :class:`~repro.core.decomp.NucleusResult`, in original vertex ids.
    ``tracker`` is the coordinator (setup + partition + bucketing +
    barriers); per-shard peel and exchange charges live on
    ``shard_trackers`` and are priced by
    :class:`~repro.distributed.model.DistributedMachineModel`.
    """

    r: int
    s: int
    n_shards: int
    n_r_cliques: int
    n_s_cliques: int
    rho: int
    max_core: int
    tracker: CostTracker
    shard_trackers: list[CostTracker]
    partition: Partition
    config: NucleusConfig
    #: Per-round trace: (core level, r-cliques peeled, r-cliques updated).
    round_log: list[tuple[int, int, int]] = field(default_factory=list)
    #: Per-round exchange record: round / level / messages / bytes.
    exchange_log: list[dict] = field(default_factory=list)
    #: Per-round, per-shard (work delta, span delta) for the BSP max.
    round_compute: list[list[tuple[float, float]]] = \
        field(default_factory=list)
    comm_messages: int = 0
    comm_bytes: int = 0
    shard_traces: list[TraceRecorder] | None = None
    _cells: np.ndarray = field(repr=False, default=None)
    _cores: np.ndarray = field(repr=False, default=None)
    _table: CliqueTable = field(repr=False, default=None)
    _original_of: np.ndarray = field(repr=False, default=None)


def _exchange_scalar(cells, deltas, owner_of, ledger, dst_trackers,
                     tracker: CostTracker) -> tuple[int, int]:
    """Ship one shard's outbox to the owning shards, one entry at a time.

    The oracle for :func:`repro.distributed.batchexchange.exchange_batch`
    --- keep the two in lockstep when changing charges.  Entries are
    sorted by (destination, cell) and grouped into one message per
    destination shard; the *sender* pays the sort, the per-entry
    serialization work, and the communication charge (one
    ``add_comm(1, entries * ENTRY_BYTES)`` per message, so the total comm
    volume is exactly the sum of per-shard batch sizes --- nothing is
    double-charged); each *receiver* pays one work unit and one atomic
    per entry to apply the delta at the owned cell.

    Returns ``(messages, bytes)`` sent.
    """
    k = int(cells.size)
    if k == 0:
        return 0, 0
    tracker.add_work(k * _log2(k))  # sort the outbox by (dst, cell)
    order = sorted(range(k),
                   key=lambda i: (int(owner_of[cells[i]]), int(cells[i])))
    messages = 0
    total_bytes = 0
    start = 0
    while start < k:
        dst = int(owner_of[cells[order[start]]])
        end = start
        while end < k and int(owner_of[cells[order[end]]]) == dst:
            end += 1
        entries = end - start
        tracker.add_work_int(entries)  # serialize the batch
        tracker.add_comm(1, entries * ENTRY_BYTES)
        receiver = dst_trackers[dst]
        for i in order[start:end]:
            cell = int(cells[i])
            receiver.add_work_int(1)  # deserialize + locate the cell
            receiver.add_atomic(1)  # the owner's fetch-and-subtract
            ledger.counts[cell] -= int(deltas[i])
            if ledger.stamp[cell] != ledger.round_id:
                ledger.stamp[cell] = ledger.round_id
                ledger.updated.append(cell)
        messages += 1
        total_bytes += entries * ENTRY_BYTES
        start = end
    return messages, total_bytes


def _local_round(shard: int, mine: np.ndarray, r: int, s: int, graph_n: int,
                 table, dg, working, status, owner_of, ledger, outbox,
                 tracker: CostTracker) -> None:
    """One shard's local peel work for one super-round.

    The scalar oracle of
    :func:`repro.distributed.batchpeel.local_round_batch`: per peeled
    r-clique the shared rediscover-and-classify walk
    (:func:`repro.core.decomp._rediscover`, "representative" arithmetic),
    with the surviving decrements routed by cell owner --- owned cells
    apply through the ledger, remote cells buffer into the shard's outbox
    for the next exchange.
    """

    def route(alive_cells: list, _share: int) -> None:
        for cell in alive_cells:
            if owner_of[cell] == shard:
                ledger.fetch_sub(cell, 1, tracker)
            else:
                outbox.buffer_remote(cell, tracker)

    with tracker.phase("local_peel"):
        tracker.add_round()
        with tracker.parallel(int(mine.size)) as region:
            for cell in mine:
                with region.task():
                    clique = table.decode(int(cell))
                    _rediscover(table, dg, working, clique, r, s, status,
                                False, route, tracker)
                    # One O(log n) intersection per completion level.
                    tracker.add_span(_log2(graph_n) * (s - r + 1))


def _exchange_round(sts, outboxes, owner_of, ledger,
                    batch: bool) -> tuple[int, int]:
    """Run the batched exchange for every shard's outbox.

    Every shard's ``exchange`` phase is open for the duration (the BSP
    communication step involves all nodes), entered dynamically so the
    per-shard phase bookkeeping stays symmetric.
    """
    total_messages = 0
    total_bytes = 0
    with ExitStack() as stack:
        for st in sts:
            stack.enter_context(st.phase("exchange"))
        for src, outbox in enumerate(outboxes):
            cells, deltas = outbox.drain()
            if batch:
                messages, n_bytes = exchange_batch(
                    cells, deltas, owner_of, ledger, sts, sts[src])
            else:
                messages, n_bytes = _exchange_scalar(
                    cells, deltas, owner_of, ledger, sts, sts[src])
            total_messages += messages
            total_bytes += n_bytes
    return total_messages, total_bytes


def _peel_sharded(graph_n: int, dg, working, table, buckets, ledger,
                  outboxes, status, cores, owner_of, sts,
                  tracker: CostTracker, n_r: int, r: int, s: int):
    """The BSP super-round loop (the sharded Algorithm 2, lines 23-29)."""
    n_shards = len(sts)
    batch = use_batch(tracker)
    comb_cols = np.asarray(list(combinations(range(s), r)), dtype=np.int64)
    finished = 0
    rho = 0
    round_id = 0
    max_core = 0
    round_log: list[tuple[int, int, int]] = []
    exchange_log: list[dict] = []
    round_compute: list[list[tuple[float, float]]] = []

    while finished < n_r:
        level, peel_cells = buckets.next_bucket()
        rho += 1
        tracker.add_round()
        max_core = max(max_core, level)
        cores[peel_cells] = level
        status[peel_cells] = _PEELING
        finished += peel_cells.size
        ledger.begin_round(round_id)
        starts = [(st.total.work, st.span) for st in sts]
        peel_owner = owner_of[peel_cells]
        for shard in range(n_shards):
            outboxes[shard].begin_round(round_id)
            mine = peel_cells[peel_owner == shard]
            if mine.size == 0:
                continue
            table.tracker = sts[shard]
            if batch:
                local_round_batch(shard, mine, comb_cols, r, s, graph_n,
                                  table, dg, working, status, owner_of,
                                  ledger, outboxes[shard], sts[shard])
            else:
                _local_round(shard, mine, r, s, graph_n, table, dg, working,
                             status, owner_of, ledger, outboxes[shard],
                             sts[shard])
        table.tracker = None
        messages, n_bytes = _exchange_round(sts, outboxes, owner_of, ledger,
                                            batch)
        exchange_log.append({"round": round_id, "level": int(level),
                             "messages": messages, "bytes": n_bytes})
        round_compute.append(
            [(st.total.work - w0, st.span - s0)
             for st, (w0, s0) in zip(sts, starts)])
        updated = np.asarray(ledger.updated, dtype=np.int64)
        round_log.append((int(level), int(peel_cells.size),
                          int(updated.size)))
        status[peel_cells] = _PEELED
        if updated.size:
            new_values = np.rint(ledger.counts[updated]).astype(np.int64)
            buckets.update(updated, new_values)
        round_id += 1
    return rho, max_core, round_log, exchange_log, round_compute


def sharded_nucleus_decomp(graph: CSRGraph, r: int, s: int, n_shards: int,
                           partitioner: str = "mincut",
                           config: NucleusConfig | None = None,
                           tracker: CostTracker | None = None,
                           partition: Partition | None = None
                           ) -> ShardedResult:
    """Compute the (r, s) nucleus decomposition on ``n_shards`` nodes.

    Setup (orientation, enumeration, table build, counting) runs on the
    coordinator ``tracker`` exactly as on one node; peeling runs as BSP
    super-rounds with per-shard trackers and batched exchanges.  The
    output is bit-for-bit identical to
    :func:`~repro.core.decomp.arb_nucleus_decomp` on the same graph.

    ``update_arithmetic`` is forced to ``"representative"`` (exact
    integer deltas commute across shards) and ``contraction`` off (a
    shared-memory-only optimization).  The local round and the exchange
    run their batch kernels
    (:func:`~repro.distributed.batchpeel.local_round_batch` and
    :func:`~repro.distributed.batchexchange.exchange_batch`) unless
    :func:`~repro.parallel.runtime.use_batch` picks the scalar oracles
    (:func:`_local_round`, :func:`_exchange_scalar`) for ``tracker``;
    the shard trackers inherit its ``oracle`` flag and race detector.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if partitioner not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {partitioner!r}; "
                         f"choose from {sorted(PARTITIONERS)}")
    if config is None:
        config = NucleusConfig.optimal(r, s)
    config = replace(config, update_arithmetic="representative",
                     contraction=False)
    prep = prepare_decomposition(graph, r, s, config, tracker)
    config, tracker = prep.config, prep.tracker
    work_graph, dg, table = prep.work_graph, prep.dg, prep.table
    original_of, n_r, n_s = prep.original_of, prep.n_r, prep.n_s

    with tracker.phase("partition"):
        if partition is None:
            partition = PARTITIONERS[partitioner](graph, n_shards, tracker)
        elif partition.n_shards != n_shards:
            raise ValueError("partition.n_shards != n_shards")

    shard_trackers = [CostTracker() for _ in range(n_shards)]
    shard_traces = None
    for st in shard_trackers:
        st.oracle = tracker.oracle
        st.race_detector = tracker.race_detector
    if tracker.trace is not None:
        shard_traces = [TraceRecorder(task_limit=tracker.trace.task_limit,
                                      lanes=tracker.trace.lanes, shard=k)
                        for k in range(n_shards)]
        for st, recorder in zip(shard_trackers, shard_traces):
            st.trace = recorder

    if n_r == 0:
        return ShardedResult(
            r, s, n_shards, 0, 0, 0, 0, tracker, shard_trackers, partition,
            config, [], [], [], 0, 0, shard_traces,
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            table, original_of)

    cells = table.occupied_cells()
    with tracker.phase("shard_map"):
        # Cell ownership: the shard of the r-clique's minimum vertex (in
        # original ids).  decode_many charges the coordinator for the
        # one-time ownership scan.
        cliques, _, _ = table.decode_many(cells)
        shard_of_work = partition.shard_of[original_of]
        owner_of = np.full(table.total_cells, -1, dtype=np.int64)
        owner_of[cells] = shard_of_work[np.min(cliques, axis=1)]
    counts0 = np.rint(table.counts[cells]).astype(np.int64)
    with tracker.phase("bucket"):
        buckets = make_bucketing(config.bucketing, cells, counts0,
                                 tracker=tracker, window=config.bucket_window)

    status = maybe_shadow(np.zeros(table.total_cells, dtype=np.int8),
                          tracker, label="status")
    cores = maybe_shadow(np.zeros(table.total_cells, dtype=np.int64),
                         tracker, label="cores")
    ledger = UpdateLedger(table.counts)
    outboxes = [ExchangeBuffer(table.total_cells) for _ in range(n_shards)]
    working = WorkingGraph(work_graph)

    # Per-shard charges are explicit during peeling; the table's own
    # tracker is re-pointed at the active shard inside each local round.
    table.tracker = None
    with tracker.phase("peel"):
        rho, max_core, round_log, exchange_log, round_compute = \
            _peel_sharded(graph.n, dg, working, table, buckets, ledger,
                          outboxes, status, cores, owner_of, shard_trackers,
                          tracker, n_r, r, s)

    table.tracker = None  # post-run queries should not keep charging
    order = np.argsort(cells, kind="stable")
    return ShardedResult(
        r=r, s=s, n_shards=n_shards, n_r_cliques=n_r, n_s_cliques=n_s,
        rho=rho, max_core=max_core, tracker=tracker,
        shard_trackers=shard_trackers, partition=partition, config=config,
        round_log=round_log,
        exchange_log=exchange_log, round_compute=round_compute,
        comm_messages=sum(st.total.comm_messages for st in shard_trackers),
        comm_bytes=sum(st.total.comm_bytes for st in shard_trackers),
        shard_traces=shard_traces,
        _cells=cells[order], _cores=cores[cells[order]], _table=table,
        _original_of=original_of)
