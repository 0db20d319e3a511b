"""Aggregating the set ``U`` of r-cliques with updated counts (Section 5.5).

Each peeling round must collect the distinct r-cliques whose s-clique
counts changed, to re-bucket them.  The paper offers three strategies with
different contention/clearing trade-offs, all implemented here behind one
interface:

* **simple array** -- one shared cursor advanced by fetch-and-add for every
  stored r-clique; compact, nothing to clear, but every insertion contends
  on the cursor;
* **list buffer** -- each of the P simulated threads owns a cursor into its
  private block of the output array, contending only when a block fills
  and a fresh one must be reserved; unused slots are filtered out at the
  end of the round;
* **hash table** -- a parallel hash table sized per round from the number
  of peeled r-cliques; no reservation contention at all, but the table
  must be cleared (work proportional to its capacity) every round.

First-touch detection (an r-clique enters ``U`` only on its first count
update of the round) is the caller's job --- the decomposition keeps a
per-cell round stamp --- so ``record`` is only called once per (cell, round).

Contention flows through a :class:`~repro.parallel.atomics.ContentionMeter`
settled by the caller at the end of each round, so the simple array's
serialized fetch-and-adds lengthen the simulated critical path exactly as
the paper describes.

Race checking: when the tracker carries a
:class:`~repro.sanitize.racecheck.RaceDetector`, every insertion
shadow-logs its accesses --- cursor reservations as mediated fetch-and-adds,
the reserved slot as a plain write (safe because reservation makes the slot
private), and the list buffer's per-thread state under a ``("thread", t)``
owner, since tasks multiplexed onto one simulated worker run sequentially.
"""

from __future__ import annotations

import numpy as np

from ..parallel.atomics import ContentionMeter
from ..parallel.hashtable import ParallelHashTable
from ..parallel.runtime import CostTracker

#: Simulated address of the shared cursor (arbitrary, distinct per purpose).
_CURSOR_ADDRESS = -1
_BLOCK_CURSOR_ADDRESS = -2


class SimpleArrayAggregator:
    """Section 5.5's first option: a flat array with one shared cursor."""

    name = "array"

    def __init__(self, capacity: int, threads: int = 1,
                 tracker: CostTracker | None = None,
                 meter: ContentionMeter | None = None,
                 buffer_size: int = 64):
        del threads, buffer_size
        self._slots = np.zeros(max(1, capacity), dtype=np.int64)
        self._cursor = 0
        self.tracker = tracker
        self.meter = meter
        self._slot_base = None  # lazily race-detector-allocated

    def begin_round(self, peeled: int, update_estimate: int) -> None:
        del peeled, update_estimate
        self._cursor = 0  # no clearing needed: the cursor bounds validity

    def _grow_to(self, needed: int) -> None:
        """Double the slot array until ``needed`` records fit.

        Each doubling charges the copy of the live prefix, so a sequence of
        records costs amortized O(1) extra work; without this, recording
        past the initial capacity was an opaque ``IndexError``.
        """
        size = self._slots.size
        if needed <= size:
            return
        new_size = size
        while new_size < needed:
            new_size *= 2
        if self.tracker is not None and self._cursor:
            self.tracker.add_work(float(self._cursor))
        grown = np.zeros(new_size, dtype=np.int64)
        grown[:self._cursor] = self._slots[:self._cursor]
        self._slots = grown
        self._slot_base = None  # shadow region is stale after realloc

    def record(self, cell: int, thread: int = 0) -> None:
        del thread
        self._grow_to(self._cursor + 1)
        detector = None
        if self.tracker is not None:
            self.tracker.add_work(1.0)
            self.tracker.add_atomic()
            detector = self.tracker.race_detector
        if self.meter is not None:
            self.meter.record(_CURSOR_ADDRESS)  # every insert hits the cursor
        if detector is not None:
            # fetch-and-add on the shared cursor, then a plain write to the
            # privately reserved slot.
            detector.log(_CURSOR_ADDRESS, write=True, atomic=True)
            if self._slot_base is None:
                self._slot_base = detector.allocate(
                    self._slots.size, "U_array")
            detector.log(self._slot_base + self._cursor, write=True)
        self._slots[self._cursor] = cell
        self._cursor += 1

    def record_many(self, cells, threads=None, capture: bool = False) -> None:
        """Batch :meth:`record`: charges exactly what the per-cell calls
        would (1 work + 1 atomic + 1 cursor collision each).  Records touch
        no simulated cache line, so ``capture`` has nothing to return."""
        del threads, capture
        cells = np.asarray(cells, dtype=np.int64)
        n = cells.size
        if n == 0:
            return
        if self.tracker is not None and self.tracker.race_detector is not None:
            for cell in cells.tolist():
                self.record(cell)
            return
        self._grow_to(self._cursor + n)
        if self.tracker is not None:
            self.tracker.add_work_int(n)
            self.tracker.add_atomic(n)
        if self.meter is not None:
            self.meter.record(_CURSOR_ADDRESS, n)
        self._slots[self._cursor:self._cursor + n] = cells
        self._cursor += n

    def finish_round(self) -> np.ndarray:
        return self._slots[:self._cursor].copy()


class ListBufferAggregator:
    """Section 5.5's list buffer: per-thread cursors over private blocks."""

    name = "list_buffer"

    def __init__(self, capacity: int, threads: int = 60,
                 tracker: CostTracker | None = None,
                 meter: ContentionMeter | None = None,
                 buffer_size: int = 64):
        self.threads = max(1, threads)
        self.buffer_size = max(1, buffer_size)
        # Worst case: every thread wastes all but one slot of its last block.
        self._slots = np.full(
            max(1, capacity) + self.threads * self.buffer_size, -1,
            dtype=np.int64)
        self.tracker = tracker
        self.meter = meter
        self._slot_base = None  # lazily race-detector-allocated
        self._next_block = 0
        self._thread_cursor = np.zeros(self.threads, dtype=np.int64)
        self._thread_remaining = np.zeros(self.threads, dtype=np.int64)
        self._allocated = 0

    def begin_round(self, peeled: int, update_estimate: int) -> None:
        del peeled, update_estimate
        # Reusing the buffer needs no clearing: resetting cursors suffices.
        self._next_block = 0
        self._thread_remaining.fill(0)
        self._allocated = 0

    def record(self, cell: int, thread: int = 0) -> None:
        thread %= self.threads
        detector = (self.tracker.race_detector
                    if self.tracker is not None else None)
        if self._thread_remaining[thread] == 0:
            # Reserve the next block with a fetch-and-add on the shared
            # block cursor -- the only contended operation.
            if self.meter is not None:
                self.meter.record(_BLOCK_CURSOR_ADDRESS)
            if self.tracker is not None:
                self.tracker.add_atomic()
            if detector is not None:
                detector.log(_BLOCK_CURSOR_ADDRESS, write=True, atomic=True)
            self._thread_cursor[thread] = self._next_block
            self._thread_remaining[thread] = self.buffer_size
            self._next_block += self.buffer_size
            self._allocated += self.buffer_size
        if self.tracker is not None:
            self.tracker.add_work(1.0)
        if detector is not None:
            # Slots inside a reserved block (and the cursors themselves)
            # belong to the worker thread, not the task: tasks sharing a
            # worker run sequentially, so attribute accesses to the worker.
            if self._slot_base is None:
                self._slot_base = detector.allocate(
                    self._slots.size, "U_list_buffer")
            owner = ("thread", int(thread))
            detector.log(self._slot_base + int(self._thread_cursor[thread]),
                         write=True, owner=owner)
        self._slots[self._thread_cursor[thread]] = cell
        self._thread_cursor[thread] += 1
        self._thread_remaining[thread] -= 1

    def record_many(self, cells, threads=None, capture: bool = False) -> None:
        """Batch :meth:`record` with exact slot placement and charges.

        Replays the per-thread block-cursor arithmetic in closed form: the
        k-th record of a thread (counting from its current block fill)
        reserves a fresh block iff ``k % buffer_size == 0``, and blocks are
        handed out in global record order --- so slot contents, reservation
        count (atomics + block-cursor collisions), and the round's filtered
        output come out identical to per-cell calls.  Records touch no
        simulated cache line, so ``capture`` has nothing to return.
        """
        del capture
        cells = np.asarray(cells, dtype=np.int64)
        n = cells.size
        if n == 0:
            return
        if threads is None:
            th = np.zeros(n, dtype=np.int64)
        else:
            th = np.asarray(threads, dtype=np.int64) % self.threads
        if self.tracker is not None and self.tracker.race_detector is not None:
            for cell, t in zip(cells.tolist(), th.tolist()):
                self.record(cell, t)
            return
        size = self.buffer_size
        order = np.argsort(th, kind="stable")
        sorted_th = th[order]
        first_of_group = np.ones(n, dtype=bool)
        first_of_group[1:] = sorted_th[1:] != sorted_th[:-1]
        group_starts = np.flatnonzero(first_of_group)
        group_ids = np.cumsum(first_of_group) - 1
        # k: how many records this thread has placed since its current
        # block's start, including carried-over fill from earlier calls.
        within = np.arange(n, dtype=np.int64) - group_starts[group_ids]
        base_fill = (size - self._thread_remaining) % size
        k_sorted = base_fill[sorted_th] + within
        k = np.empty(n, dtype=np.int64)
        k[order] = k_sorted
        need_new = (k % size) == 0
        n_reservations = int(need_new.sum())
        # Blocks are reserved in global record order.
        reservation_rank = np.cumsum(need_new) - 1
        new_block_start = self._next_block + size * reservation_rank
        fill_sorted = np.where(need_new[order], new_block_start[order], -1)
        current_block_start = self._thread_cursor \
            - (size - self._thread_remaining)
        for g, start in enumerate(group_starts):
            end = group_starts[g + 1] if g + 1 < group_starts.size else n
            segment = fill_sorted[start:end]
            if segment[0] < 0:
                segment[0] = current_block_start[sorted_th[start]]
            # Block starts are monotone within a thread, so a running max
            # forward-fills each record's owning block.
            np.maximum.accumulate(segment, out=segment)
        slots = np.empty(n, dtype=np.int64)
        slots[order] = fill_sorted + k_sorted % size
        self._slots[slots] = cells
        if self.meter is not None and n_reservations:
            self.meter.record(_BLOCK_CURSOR_ADDRESS, n_reservations)
        if self.tracker is not None:
            self.tracker.add_atomic(n_reservations)
            self.tracker.add_work_int(n)
        # Per-thread cursor state after the batch.
        present = sorted_th[group_starts]
        group_ends = np.empty(group_starts.size, dtype=np.int64)
        group_ends[:-1] = group_starts[1:]
        group_ends[-1] = n
        last_slot = fill_sorted + k_sorted % size  # sorted order
        self._thread_cursor[present] = last_slot[group_ends - 1] + 1
        last_k = k_sorted[group_ends - 1]
        self._thread_remaining[present] = size - 1 - (last_k % size)
        self._next_block += size * n_reservations
        self._allocated += size * n_reservations

    def finish_round(self) -> np.ndarray:
        # Parallel-filter unused slots out of the allocated prefix.
        used = self._slots[:self._next_block]
        if self.tracker is not None:
            self.tracker.add_work(float(self._allocated))
        result = used[used >= 0].copy()
        used.fill(-1)
        return result


class HashTableAggregator:
    """Section 5.5's hash table: contention-free inserts, per-round clears."""

    name = "hash"

    def __init__(self, capacity: int, threads: int = 1,
                 tracker: CostTracker | None = None,
                 meter: ContentionMeter | None = None,
                 buffer_size: int = 64):
        del threads, meter, buffer_size
        self.capacity = max(1, capacity)
        self.tracker = tracker
        self._table: ParallelHashTable | None = None
        self._slot_base = None  # lazily race-detector-allocated

    def begin_round(self, peeled: int, update_estimate: int) -> None:
        # Size the table from this round's peel: fewer peeled r-cliques
        # means less space and therefore less clearing work afterwards.
        hint = max(4, min(self.capacity, update_estimate))
        self._table = ParallelHashTable(hint, tracker=self.tracker)

    def _log_claim(self, cell: int) -> None:
        """Race-log one insert: hash-table inserts are CAS-mediated slot
        claims."""
        detector = self.tracker.race_detector
        if self._slot_base is None:
            self._slot_base = detector.allocate(self.capacity, "U_hash")
        detector.log(self._slot_base + int(cell) % self.capacity,
                     write=True, atomic=True)

    def record(self, cell: int, thread: int = 0) -> None:
        del thread
        if self.tracker is not None and self.tracker.race_detector is not None:
            self._log_claim(cell)
        self._table.insert_or_add(cell, 0.0)

    def record_many(self, cells, threads=None, capture: bool = False):
        """Batch :meth:`record` through
        :meth:`~repro.parallel.hashtable.ParallelHashTable.insert_many`.

        With ``capture`` set, returns the simulated probe addresses the
        records would feed the cache as ``(addresses, lens)`` (one segment
        per record) instead of feeding them, so the batch engine can splice
        them into the full update stream at the scalar loop's position.
        """
        del threads
        cells = np.asarray(cells, dtype=np.int64)
        if self.tracker is not None and self.tracker.race_detector is not None:
            for cell in cells.tolist():
                self._log_claim(cell)
        addresses, lens = self._table.insert_many(cells, capture=capture)
        return (addresses, lens) if capture else None

    def finish_round(self) -> np.ndarray:
        table = self._table
        cells = np.sort(
            table.keys[table.occupied_slots()].astype(np.int64))
        # The entire table must be cleared before reuse.
        table.clear()
        return cells


AGGREGATORS = {
    "array": SimpleArrayAggregator,
    "list_buffer": ListBufferAggregator,
    "hash": HashTableAggregator,
}


def make_aggregator(kind: str, capacity: int, threads: int = 60,
                    tracker: CostTracker | None = None,
                    meter: ContentionMeter | None = None,
                    buffer_size: int = 64):
    """Instantiate an update-aggregation strategy by name."""
    if kind not in AGGREGATORS:
        raise ValueError(
            f"unknown aggregation {kind!r}; options: {sorted(AGGREGATORS)}")
    return AGGREGATORS[kind](capacity, threads=threads, tracker=tracker,
                             meter=meter, buffer_size=buffer_size)
