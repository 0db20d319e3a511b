"""The sharded driver's batch local round (the production local round).

:func:`local_round_batch` is the vectorized twin of the scalar local round
(:func:`repro.distributed.peel._local_round`): one shard's UPDATE work for
one BSP super-round, over flat arrays instead of one Python-level
decode / intersection / status walk per peeled r-clique.  The
rediscover-and-classify half is the single-node engine's
:func:`repro.core.batchpeel.rediscover_round`, called unchanged; only the
apply step differs --- updates split by cell owner into
:meth:`UpdateLedger.fetch_sub_many` (owned cells) and
:meth:`ExchangeBuffer.buffer_remote_many` (remote cells, shipped by the
next exchange).

The owner-side ledger and the per-shard outbox live here with both of
their forms side by side, so the parity registry below can pin each bulk
method against its scalar one.  The contract is the single-node engine's
(docs/cost-model.md): every shard tracker sees the same charges, the
ledger's updated set and the outbox's touched list grow in the scalar
loop's first-touch order (``ledger.updated`` order feeds
``buckets.update``), and tests/test_distributed.py pins all of it.
"""

from __future__ import annotations

import numpy as np

from ..core.batchpeel import rediscover_round
from ..parallel.runtime import CostTracker, _log2

#: Batch<->scalar parity contract, verified statically by ``repro lint
#: --strict`` (rule PAR007); see :data:`repro.core.batchpeel.PARLINT_PARITY`.
#: ``"Class.method"`` keys register bulk methods against their scalar
#: forms.
PARLINT_PARITY = {
    "UpdateLedger.fetch_sub_many": {
        "oracle": "repro.distributed.batchpeel.UpdateLedger.fetch_sub",
        "fingerprint": {
            "add_atomic": 1,
            "add_work_int": 1,
        },
    },
    "ExchangeBuffer.buffer_remote_many": {
        "oracle": "repro.distributed.batchpeel.ExchangeBuffer.buffer_remote",
        "fingerprint": {
            "add_atomic": 1,
            "add_work_int": 1,
        },
    },
    "local_round_batch": {
        "oracle": "repro.distributed.peel._local_round",
        "fingerprint": {
            "add_round": 1,
            "buffer_remote_many": 1,
            "fetch_sub_many": 1,
            "rediscover_round": 1,
            "task_span": 1,
        },
    },
}


def _first_touch(cells: np.ndarray, stamp: np.ndarray,
                 round_id: int) -> np.ndarray:
    """Cells of ``cells`` not yet stamped this round, each once, in order of
    first occurrence --- the cells a scalar loop of first-touch CAS stamps
    would append --- and stamp them."""
    fresh = stamp[cells] != round_id
    _, first_index = np.unique(cells, return_index=True)
    first = np.zeros(cells.size, dtype=bool)
    first[first_index] = True
    new_cells = cells[fresh & first]
    stamp[new_cells] = round_id
    return new_cells


class UpdateLedger:
    """The owner-side count store plus the per-round updated set ``U``.

    ``counts`` aliases the clique table's raw count array, so applying a
    delta here is applying it to the table.  ``fetch_sub`` simulates the
    owning shard's atomic fetch-and-subtract combined with a first-touch
    stamp (the same CAS pattern as the single-node ``last_round`` array)
    so each cell enters ``U`` at most once per super-round.
    """

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.stamp = np.full(counts.shape[0], -1, dtype=np.int64)
        self.updated: list[int] = []
        self.round_id = -1

    def begin_round(self, round_id: int) -> None:
        self.round_id = round_id
        self.updated = []

    def fetch_sub(self, cell: int, amount: int, tracker: CostTracker) -> None:
        tracker.add_work_int(1)
        tracker.add_atomic(1)
        self.counts[cell] -= amount
        if self.stamp[cell] != self.round_id:
            self.stamp[cell] = self.round_id
            self.updated.append(int(cell))

    def fetch_sub_many(self, cells: np.ndarray, amount: int,
                       tracker: CostTracker) -> None:
        """:meth:`fetch_sub` for each of ``cells`` in order, in bulk."""
        if cells.size == 0:
            return
        tracker.add_work_int(cells.size)
        tracker.add_atomic(cells.size)
        np.subtract.at(self.counts, cells, amount)
        self.updated.extend(
            _first_touch(cells, self.stamp, self.round_id).tolist())


class ExchangeBuffer:
    """One shard's outbox of cross-shard count decrements.

    Decrements for the same remote cell coalesce locally (``pending``
    accumulates, ``touched`` records each cell once per round), so the
    wire carries one entry per distinct remote cell --- the batching that
    amortizes the per-message latency.
    """

    def __init__(self, n_cells: int):
        self.pending = np.zeros(n_cells, dtype=np.int64)
        self.touched: list[int] = []
        self.stamp = np.full(n_cells, -1, dtype=np.int64)
        self.round_id = -1

    def begin_round(self, round_id: int) -> None:
        self.round_id = round_id

    def buffer_remote(self, cell: int, tracker: CostTracker) -> None:
        tracker.add_work_int(1)
        tracker.add_atomic(1)
        self.pending[cell] += 1
        if self.stamp[cell] != self.round_id:
            self.stamp[cell] = self.round_id
            self.touched.append(int(cell))

    def buffer_remote_many(self, cells: np.ndarray,
                           tracker: CostTracker) -> None:
        """:meth:`buffer_remote` for each of ``cells`` in order, in bulk."""
        if cells.size == 0:
            return
        tracker.add_work_int(cells.size)
        tracker.add_atomic(cells.size)
        np.add.at(self.pending, cells, 1)
        self.touched.extend(
            _first_touch(cells, self.stamp, self.round_id).tolist())

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Pop the buffered (cells, deltas), clearing the outbox."""
        cells = np.asarray(self.touched, dtype=np.int64)
        if cells.size:
            deltas = self.pending[cells].copy()
            self.pending[cells] = 0
        else:
            deltas = np.zeros(0, dtype=np.int64)
        self.touched = []
        return cells, deltas


def local_round_batch(shard: int, mine: np.ndarray, comb_cols: np.ndarray,
                      r: int, s: int, graph_n: int, table, dg, working,
                      status, owner_of, ledger: UpdateLedger,
                      outbox: ExchangeBuffer, tracker: CostTracker) -> None:
    """One shard's local peel work for one super-round, batched.

    Same phase, round, region and charges as the scalar
    :func:`repro.distributed.peel._local_round`.  Shard trackers carry
    no cache simulator, so no address stream is collected.
    """
    with tracker.phase("local_peel"):
        tracker.add_round()
        with tracker.parallel(int(mine.size)) as region:
            classified = rediscover_round(
                mine, comb_cols, dg, working, table, status, False, False,
                r, s, tracker)
            if classified is not None:
                cells = classified.update_cells
                owned = owner_of[cells] == shard
                ledger.fetch_sub_many(cells[owned], 1, tracker)
                outbox.buffer_remote_many(cells[~owned], tracker)
            # One O(log n) intersection per completion level.
            region.task_span(_log2(graph_n) * (s - r + 1))
