"""Tests for the open-addressing parallel hash table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import CacheSimulator
from repro.parallel.hashtable import EMPTY_KEY, ParallelHashTable, hash64
from repro.parallel.runtime import CostTracker


class TestHash64:
    def test_deterministic(self):
        assert hash64(12345) == hash64(12345)

    def test_spreads_consecutive_keys(self):
        values = {hash64(i) & 0xFF for i in range(100)}
        assert len(values) > 50

    def test_in_range(self):
        assert 0 <= hash64(2**63) < 2**64


class TestBasicOperations:
    def test_insert_and_get(self):
        t = ParallelHashTable(8)
        t.insert_or_add(42, 3.0)
        assert t.get(42) == 3.0
        assert len(t) == 1

    def test_insert_or_add_accumulates(self):
        t = ParallelHashTable(8)
        t.insert_or_add(7, 1.0)
        t.insert_or_add(7, 1.0)
        assert t.get(7) == 2.0
        assert len(t) == 1

    def test_get_missing_returns_default(self):
        t = ParallelHashTable(8)
        assert t.get(99) is None
        assert t.get(99, -1.0) == -1.0

    def test_set_overwrites(self):
        t = ParallelHashTable(8)
        t.set(5, 1.0)
        t.set(5, 9.0)
        assert t.get(5) == 9.0

    def test_contains(self):
        t = ParallelHashTable(8)
        t.insert_or_add(1, 1.0)
        assert 1 in t
        assert 2 not in t

    def test_items_and_slots(self):
        t = ParallelHashTable(16)
        for k in (10, 20, 30):
            t.insert_or_add(k, float(k))
        assert dict(t.items()) == {10: 10.0, 20: 20.0, 30: 30.0}
        assert t.occupied_slots().size == 3

    def test_slot_of_and_key_at(self):
        t = ParallelHashTable(8)
        slot = t.insert_or_add(77, 1.0)
        assert t.slot_of(77) == slot
        assert t.key_at(slot) == 77
        assert t.slot_of(78) == -1

    def test_clear(self):
        t = ParallelHashTable(8)
        t.insert_or_add(1, 1.0)
        t.clear()
        assert len(t) == 0
        assert 1 not in t


class TestGrowth:
    def test_grows_past_load_factor(self):
        t = ParallelHashTable(4)
        for k in range(100):
            t.insert_or_add(k, 1.0)
        assert len(t) == 100
        assert all(t.get(k) == 1.0 for k in range(100))

    def test_frozen_slab_refuses_growth(self):
        t = ParallelHashTable(4, resizable=False)
        with pytest.raises(RuntimeError):
            for k in range(1000):
                t.insert_or_add(k, 1.0)

    def test_power_of_two_capacity(self):
        t = ParallelHashTable(100)
        assert t.n_slots & (t.n_slots - 1) == 0


class TestAccounting:
    def test_probes_charged(self):
        tr = CostTracker()
        t = ParallelHashTable(64, tracker=tr)
        t.insert_or_add(5, 1.0)
        assert tr.total.table_probes >= 1
        assert tr.total.atomic_ops == 1

    def test_clear_charges_capacity(self):
        tr = CostTracker()
        t = ParallelHashTable(64, tracker=tr)
        before = tr.work
        t.clear()
        assert tr.work - before == t.n_slots


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**40), st.floats(-100, 100)),
                max_size=200))
def test_model_equivalence(pairs):
    """The table behaves exactly like a dict under insert_or_add."""
    table = ParallelHashTable(4)
    model: dict[int, float] = {}
    for key, delta in pairs:
        table.insert_or_add(key, delta)
        model[key] = model.get(key, 0.0) + delta
    assert len(table) == len(model)
    for key, value in model.items():
        assert table.get(key) == pytest.approx(value)


def test_empty_key_reserved():
    t = ParallelHashTable(8)
    assert np.uint64(EMPTY_KEY) == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert (t.keys == EMPTY_KEY).all()


def _insert_run(keys, bulk, *, hint=4, capture=False, preload=(),
                resizable=True):
    """Insert ``keys`` one by one with ``insert_or_add(key, 0.0)`` or with
    ``insert_many`` on a fresh cache-simulated table; returns everything
    the two must agree on."""
    tracker = CostTracker()
    tracker.cache = CacheSimulator(sample=1)
    table = ParallelHashTable(hint, tracker=tracker, base_address=1000,
                              resizable=resizable)
    for key in preload:
        table.insert_or_add(int(key), 1.0)
    captured = None
    if bulk:
        addresses, lens = table.insert_many(keys, capture=capture)
        if capture:
            captured = (addresses.tolist(), lens.tolist())
    else:
        addresses, lens = [], []
        for key in keys:
            if capture:
                tracker.begin_access_capture()
            table.insert_or_add(int(key), 0.0)
            if capture:
                record = tracker.end_access_capture()
                addresses += record
                lens.append(len(record))
        if capture:
            captured = (addresses, lens)
    return (table.keys.tolist(), table.values.tolist(), table.size,
            table.n_slots, tracker.total.work, tracker.total.table_probes,
            tracker.total.atomic_ops, tracker.cache.accesses,
            tracker.cache.misses, captured)


class TestInsertMany:
    """``insert_many`` against a loop of ``insert_or_add(key, 0.0)``
    calls: keys, values, size, probes, work, atomics and the address
    stream."""

    @pytest.mark.parametrize("capture", [False, True])
    def test_batch_crossing_grow_threshold(self, capture):
        keys = np.arange(0, 300, 7)  # 43 keys: several doublings from 8
        scalar = _insert_run(keys, False, capture=capture)
        bulk = _insert_run(keys, True, capture=capture)
        assert bulk == scalar
        assert scalar[3] > ParallelHashTable(4).n_slots

    def test_duplicates_and_preloaded_keys(self):
        keys = np.array([5, 9, 5, 300, 9, 9, 41, 300, 5])
        for preload in ((), (9, 41), (1, 2, 3, 41, 77)):
            assert _insert_run(keys, True, preload=preload) == \
                _insert_run(keys, False, preload=preload)

    def test_captured_segments_per_record(self):
        keys = np.arange(40)
        addresses, lens = ParallelHashTable(
            4, tracker=CostTracker()).insert_many(keys, capture=True)
        assert lens.size == keys.size and int(lens.sum()) == addresses.size
        assert (lens >= 1).all() and (lens > 1).any()  # growth re-probes

    def test_untracked_table_returns_no_addresses(self):
        table = ParallelHashTable(4)
        table.insert_or_add(4, 2.0)
        addresses, lens = table.insert_many([3, 4, 3])
        assert addresses.size == 0 and not lens.any()
        assert table.get(3) == 0.0 and table.get(4) == 2.0
        assert len(table) == 2

    def test_frozen_slab_stops_where_the_loop_does(self):
        keys = np.arange(20)
        for bulk in (False, True):
            table = ParallelHashTable(4, resizable=False)
            with pytest.raises(RuntimeError):
                if bulk:
                    table.insert_many(keys)
                else:
                    for key in keys:
                        table.insert_or_add(int(key), 0.0)
            assert len(table) == 5

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 120), max_size=60),
           st.lists(st.integers(0, 400), max_size=8),
           st.integers(1, 40), st.booleans())
    def test_matches_scalar_loop(self, keys, preload, hint, capture):
        keys = np.asarray(keys, dtype=np.int64)
        assert _insert_run(keys, True, hint=hint, capture=capture,
                           preload=preload) == \
            _insert_run(keys, False, hint=hint, capture=capture,
                        preload=preload)
