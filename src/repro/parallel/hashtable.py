"""Open-addressing parallel hash table (the paper's workhorse structure).

The paper assumes parallel hash tables supporting ``n`` inserts / deletes /
queries in ``O(n)`` work and ``O(log n)`` span w.h.p. (Section 3), and uses
them for adjacency intersection, the clique-count table ``T``, and the
updated-set ``U``.  This implementation is a linear-probing table over numpy
arrays, mirroring the layout of the C++ original closely enough that the
paper's layout-sensitive optimizations (contiguous allocation, stored
pointers, the reserved top bit distinguishing empty cells, Section 5.3) can
be reproduced on top of it.

Cost accounting: each probe charges one unit of work to the attached
tracker, and each touched slot is reported to the cache simulator as an
address ``base_address + slot`` so that probe locality is visible to the
machine model.
"""

from __future__ import annotations

import numpy as np

from .runtime import CostTracker

#: Sentinel key marking an empty cell.  The paper reserves the top bit of
#: each key to flag emptiness (Section 5.3); all-ones is the canonical
#: empty pattern under that convention.
EMPTY_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)

_MASK64 = (1 << 64) - 1


def hash64(key: int) -> int:
    """A splitmix64-style finalizer: deterministic, well-mixing, 64-bit."""
    h = (key + 0x9E3779B97F4A7C15) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (h ^ (h >> 31)) & _MASK64


def hash64_many(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hash64` over a ``uint64`` array.

    Unsigned 64-bit arithmetic wraps in numpy's C ufuncs, so the masking
    the scalar version does explicitly is implicit here; the outputs agree
    element for element.
    """
    h = np.asarray(keys, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _next_power_of_two(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


#: Batch<->scalar parity contract, verified statically by ``repro lint
#: --strict`` (rule PAR007); see :data:`repro.core.batchpeel.PARLINT_PARITY`.
#: The bulk insert is pinned against the scalar atomic-add insert.
PARLINT_PARITY = {
    "ParallelHashTable.insert_many": {
        "oracle": "repro.parallel.hashtable.ParallelHashTable.insert_or_add",
        "fingerprint": {
            "access_sequence": 1,
            "add_atomic": 1,
            "add_probes": 1,
            "add_work_int": 1,
        },
    },
}


def place_by_arrival(holder: np.ndarray, home: np.ndarray, cells_of,
                     first_id: int = 0) -> np.ndarray:
    """Linear-probing placement of new keys in arrival order, in bulk.

    ``holder`` is the slot array (``uint64``): :data:`EMPTY_KEY` marks a
    free slot, and any occupant must compare below ``first_id`` so that
    it is never displaced.  Row ``i`` (arrival id ``first_id + i``) probes
    from ``home[i]``; ``cells_of(rows, slots)`` maps probe positions of
    the given rows to holder indices (wrapping inside each row's table).

    Keys are placed by arrival-priority displacement rounds: every
    unplaced row claims its current slot, the earliest row wins it (even
    against a later row already holding it), and losing and displaced
    rows move one slot forward.  A row is only ever blocked by earlier
    rows and a slot once held stays held by an earlier row, so each row
    ends at the first slot from its home not taken by earlier rows ---
    the sequential linear-probing layout.  On return each row's slot
    holds its arrival id; returns the per-row displacement (probes - 1).
    The rows' keys must be distinct and absent from the table.
    """
    disp = np.zeros(home.size, dtype=np.int64)
    active = np.arange(home.size, dtype=np.int64)
    while active.size:
        cells = cells_of(active, home[active] + disp[active])
        ids = (active + first_id).astype(np.uint64)
        before = holder[cells]
        np.minimum.at(holder, cells, ids)
        after = holder[cells]
        displaced = np.unique(before[(before != EMPTY_KEY)
                                     & (after != before)])
        active = np.concatenate([active[after != ids],
                                 displaced.astype(np.int64) - first_id])
        disp[active] += 1
    return disp


class ParallelHashTable:
    """Linear-probing hash table with integer keys and numeric values.

    Parameters
    ----------
    capacity_hint:
        Expected number of entries; the table allocates the next power of
        two at least ``capacity_hint / max_load``.
    tracker:
        Optional :class:`CostTracker` charged one work unit per probe.
    base_address:
        Simulated base address of slot 0 (for the cache model).
    resizable:
        When False the capacity is frozen -- required when the table is a
        slab inside a contiguous multi-level layout (Section 5.2), whose
        slots' global indices must stay stable.
    """

    def __init__(self, capacity_hint: int = 8, tracker: CostTracker | None = None,
                 base_address: int = 0, max_load: float = 0.7,
                 resizable: bool = True):
        n_slots = _next_power_of_two(max(4, int(capacity_hint / max_load) + 1))
        # PAR005 waiver: allocating the slots is free in the cost model;
        # what Section 5.5 charges is the per-round :meth:`clear`.
        self.keys = np.full(  # parlint: disable=PAR005
            n_slots, EMPTY_KEY, dtype=np.uint64)
        self.values = np.zeros(n_slots, dtype=np.float64)
        self.size = 0
        self.max_load = max_load
        self.tracker = tracker
        self.base_address = base_address
        self.resizable = resizable

    @property
    def n_slots(self) -> int:
        return self.keys.shape[0]

    # -- internals ----------------------------------------------------------

    def _charge(self, probes: int, first_slot: int) -> None:
        if self.tracker is not None:
            self.tracker.add_work(float(probes))
            self.tracker.add_probes(probes)
            self.tracker.access(self.base_address + first_slot)

    def _probe(self, key: int) -> tuple[int, bool]:
        """Find the slot holding ``key`` or the empty slot where it belongs.

        Returns ``(slot, found)``.
        """
        mask = self.n_slots - 1
        slot = hash64(key) & mask
        first = slot
        probes = 1
        keys = self.keys
        empty = EMPTY_KEY
        key_u = np.uint64(key)
        while True:
            k = keys[slot]
            if k == key_u:
                self._charge(probes, first)
                return slot, True
            if k == empty:
                self._charge(probes, first)
                return slot, False
            slot = (slot + 1) & mask
            probes += 1

    def _grow(self) -> None:
        if not self.resizable:
            raise RuntimeError("hash table slab is full and frozen (resizable=False)")
        old_keys, old_values = self.keys, self.values
        self.keys = np.full(self.n_slots * 2, EMPTY_KEY, dtype=np.uint64)
        self.values = np.zeros(self.n_slots * 2, dtype=np.float64)
        self.size = 0
        for k, v in zip(old_keys, old_values):
            if k != EMPTY_KEY:
                slot, found = self._probe(int(k))
                self.keys[slot] = k
                self.values[slot] = v
                self.size += 1

    # -- public API ----------------------------------------------------------

    def insert_or_add(self, key: int, delta: float = 1.0) -> int:
        """Insert ``key`` with value ``delta``, or add ``delta`` to its value.

        This is the atomic-add insert used by ``COUNT-FUNC`` (Algorithm 2,
        line 4).  Returns the slot index.
        """
        if (self.size + 1) / self.n_slots > self.max_load:
            self._grow()
        slot, found = self._probe(key)
        if found:
            self.values[slot] += delta
        else:
            self.keys[slot] = np.uint64(key)
            self.values[slot] = delta
            self.size += 1
        if self.tracker is not None:
            self.tracker.add_atomic()
        return slot

    def insert_many(self, keys, capture: bool = False
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``insert_or_add(key, 0.0)`` for each of ``keys`` in order, in bulk.

        New keys store 0.0 and present keys keep their value: the
        membership insert the hash aggregator makes.  Returns
        ``(addresses, address_lens)``: the simulated addresses each
        record's scalar call would feed the cache (its home slot, preceded
        by every re-probe of a growth it triggers), flattened per record.
        Those addresses go to the tracker unless ``capture`` is set, in
        which case they are only returned, for a caller that splices them
        into a larger stream.  Layout, size, growth points, probes, work,
        atomics and the address stream all equal the scalar loop's: the
        batch is split at each record where the table would grow, existing
        keys are found by a vectorized probe, and new ones placed by
        :func:`place_by_arrival`.
        """
        keys = np.asarray(keys, dtype=np.int64).astype(np.uint64)
        n = keys.size
        address_lens = np.zeros(n, dtype=np.int64)
        pieces = []
        tracker = self.tracker
        start = 0
        grew = False
        while start < n:
            seg = keys[start:]
            mask = self.n_slots - 1
            home = (hash64_many(seg) & np.uint64(mask)).astype(np.int64)
            found_at, probes = self._find_many(seg, home)
            absent = found_at < 0
            _, first_index, copy_of = np.unique(
                seg, return_index=True, return_inverse=True)
            is_new = np.zeros(seg.size, dtype=bool)
            is_new[first_index] = True
            is_new &= absent
            size_before = self.size + np.cumsum(is_new) - is_new
            over = (size_before + 1) / self.n_slots > self.max_load
            # A record checks the load bound once, before its probe.
            over[0] &= not grew
            stop = int(np.argmax(over)) if over.any() else seg.size
            is_new[stop:] = False
            new_rows = np.flatnonzero(is_new)
            holder = np.where(self.keys == EMPTY_KEY, EMPTY_KEY,
                              np.uint64(0))
            disp = place_by_arrival(holder, home[new_rows],
                                    lambda rows, at: at & mask, first_id=1)
            new_slots = (home[new_rows] + disp) & mask
            probes[new_rows] = disp + 1
            # Later copies of a new key find it after the first copy's probes.
            copies = absent & ~is_new
            probes[copies] = probes[first_index[copy_of[copies]]]
            probes = probes[:stop]
            self.keys[new_slots] = seg[new_rows]
            self.values[new_slots] = 0.0
            self.size += new_rows.size
            if tracker is not None:
                address_lens[start:start + stop] += 1
                total = int(probes.sum())
                tracker.add_work_int(total)
                tracker.add_probes(total)
                tracker.add_atomic(stop)
                addresses = self.base_address + home[:stop]
                if capture:
                    pieces.append(addresses)
                else:
                    tracker.access_sequence(addresses)
            start += stop
            grew = start < n
            if grew:
                if capture and tracker is not None:
                    tracker.begin_access_capture()
                    self._grow()
                    grown = np.asarray(tracker.end_access_capture(),
                                       dtype=np.int64)
                    pieces.append(grown)
                    address_lens[start] += grown.size
                else:
                    self._grow()
        addresses = np.concatenate(pieces).astype(np.int64) if pieces \
            else np.empty(0, dtype=np.int64)
        return addresses, address_lens

    def _find_many(self, keys: np.ndarray, home: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_probe` for presence, charging nothing:
        ``(slot or -1, probes)`` per key."""
        slots = np.full(keys.size, -1, dtype=np.int64)
        probes = np.ones(keys.size, dtype=np.int64)
        if self.size == 0:
            return slots, probes
        mask = self.n_slots - 1
        at = home.copy()
        active = np.arange(keys.size, dtype=np.int64)
        while active.size:
            held = self.keys[at[active]]
            hit = held == keys[active]
            slots[active[hit]] = at[active[hit]]
            active = active[~hit & (held != EMPTY_KEY)]
            at[active] = (at[active] + 1) & mask
            probes[active] += 1
        return slots, probes

    def set(self, key: int, value: float) -> int:
        """Insert or overwrite; returns the slot index."""
        if (self.size + 1) / self.n_slots > self.max_load:
            self._grow()
        slot, found = self._probe(key)
        if not found:
            self.keys[slot] = np.uint64(key)
            self.size += 1
        self.values[slot] = value
        return slot

    def get(self, key: int, default: float | None = None) -> float | None:
        slot, found = self._probe(key)
        if found:
            return float(self.values[slot])
        return default

    def slot_of(self, key: int) -> int:
        """The slot holding ``key``, or -1.  Slots are the paper's implicit
        r-clique indices when the table is laid out contiguously (5.3)."""
        slot, found = self._probe(key)
        return slot if found else -1

    def key_at(self, slot: int) -> int | None:
        k = self.keys[slot]
        return None if k == EMPTY_KEY else int(k)

    def __contains__(self, key: int) -> bool:
        _, found = self._probe(key)
        return found

    def __len__(self) -> int:
        return self.size

    def items(self):
        """Iterate over (key, value) pairs in slot order."""
        occupied = np.flatnonzero(self.keys != EMPTY_KEY)
        for slot in occupied:
            yield int(self.keys[slot]), float(self.values[slot])

    def occupied_slots(self) -> np.ndarray:
        return np.flatnonzero(self.keys != EMPTY_KEY)

    def clear(self) -> None:
        """Reset the table; charges work proportional to capacity (the cost
        the hash-table aggregation option pays every round, Section 5.5)."""
        if self.tracker is not None:
            self.tracker.add_work(float(self.n_slots))
        self.keys.fill(EMPTY_KEY)
        self.values.fill(0.0)
        self.size = 0
