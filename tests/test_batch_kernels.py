"""Unit tests for the vectorized kernels behind the batch peeling engine.

Each kernel's contract is exact equivalence with its scalar counterpart:
same outputs, same simulated charges, same order-sensitive side effects.
Also hosts the regression tests for the two hot-path overflow bugs fixed
alongside the engine (clique-table probe overflow, simple-array
aggregator growth).
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketing.julienne import JulienneBucketing
from repro.cliques.encode import CliqueEncoder
from repro.cliques.listing import collect_cliques
from repro.cliques.orient import orient
from repro.core.aggregation import (HashTableAggregator, ListBufferAggregator,
                                    SimpleArrayAggregator)
from repro.core.batchpeel import rediscover_round
from repro.core.decomp import _PEELED, _PEELING, _rediscover
from repro.core.tables import CliqueTable
from repro.graph.contraction import WorkingGraph
from repro.graph.generators import planted_partition
from repro.machine.cache import AddressSpace, CacheSimulator
from repro.parallel.atomics import ContentionMeter
from repro.parallel.hashtable import EMPTY_KEY, hash64, hash64_many
from repro.parallel.primitives import (interleave_segments, intersect_many,
                                       intersect_segments, segment_offsets)
from repro.parallel.runtime import CostTracker


def build_table(r=2, s=3, **layout):
    dg, _ = orient(planted_partition(40, 4, 0.5, 0.03, seed=5), "degeneracy")
    cliques = np.sort(collect_cliques(dg, r), axis=1)
    return CliqueTable(40, r, cliques, tracker=CostTracker(),
                       address_space=AddressSpace(), **layout), cliques


class TestCacheAccessMany:
    @pytest.mark.parametrize("sample", [1, 3, 13])
    def test_equivalent_to_scalar_loop(self, sample):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 50_000, size=700)
        a = CacheSimulator(sample=sample)
        b = CacheSimulator(sample=sample)
        for x in addrs:
            a.access(int(x))
        b.access_many(addrs)
        assert a.misses == b.misses
        assert a.accesses == b.accesses
        assert np.array_equal(a._tags, b._tags)
        assert np.array_equal(a._stamp, b._stamp)

    @pytest.mark.parametrize("sample", [1, 4])
    def test_interleaved_with_scalar_accesses(self, sample):
        """Batched and scalar accesses mix freely: sampling phase and LRU
        clocks carry across the boundary."""
        rng = np.random.default_rng(1)
        chunks = [rng.integers(0, 9_000, size=k) for k in (7, 1, 120, 3)]
        a = CacheSimulator(sample=sample)
        b = CacheSimulator(sample=sample)
        for i, chunk in enumerate(chunks):
            for x in chunk:
                a.access(int(x))
            if i % 2:
                b.access_many(chunk)
            else:
                for x in chunk:
                    b.access(int(x))
        assert a.misses == b.misses
        assert np.array_equal(a._stamp, b._stamp)

    def test_empty_batch(self):
        sim = CacheSimulator()
        assert sim.access_many(np.empty(0, dtype=np.int64)) == 0
        assert sim.accesses == 0

    # The batch replay collapses runs of consecutive same-line accesses in
    # a set's stream; these streams are built to contain long runs.

    @staticmethod
    def _assert_same_state(a, b):
        assert a.misses == b.misses
        assert a.accesses == b.accesses
        assert np.array_equal(a._tags, b._tags)
        assert np.array_equal(a._stamp, b._stamp)
        assert a._clock == b._clock
        assert a._skip == b._skip

    @staticmethod
    def _run_stream(batches, geometry, reset_between=False):
        scalar = CacheSimulator(**geometry)
        batch = CacheSimulator(**geometry)
        for chunk in batches:
            if reset_between:
                scalar.reset_counters()
                batch.reset_counters()
            expected = scalar.misses
            for x in chunk:
                scalar.access(int(x))
            raw = batch.access_many(chunk)
            assert raw * batch.sample == scalar.misses - expected
        return scalar, batch

    @pytest.mark.parametrize("sample", [1, 3, 13])
    @pytest.mark.parametrize("geometry", [
        dict(), dict(n_sets=1, ways=1, line_words=1),
        dict(n_sets=1, ways=2, line_words=1),
        dict(n_sets=1, ways=2, line_words=8),
        dict(n_sets=4, ways=1, line_words=1),
        dict(n_sets=2, ways=2, line_words=2)])
    def test_same_line_runs(self, sample, geometry):
        rng = np.random.default_rng(4)
        batches = [
            # narrow address ranges: neighbours share a line or a set
            np.repeat(rng.integers(0, 24, size=150),
                      rng.integers(1, 9, size=150)),
            rng.integers(0, 16, size=400),
            np.repeat(np.arange(40), 11),
            np.full(37, 5),
        ]
        scalar, batch = self._run_stream(batches, dict(geometry,
                                                       sample=sample))
        self._assert_same_state(scalar, batch)

    @pytest.mark.parametrize("sample", [1, 3, 13])
    @pytest.mark.parametrize("ways", [1, 2, 8])
    def test_reset_counters_between_batches(self, sample, ways):
        # After a reset every stamp is 0, so the first misses of the next
        # batch break the tie by the lowest way index.
        rng = np.random.default_rng(9)
        batches = [np.repeat(rng.integers(0, 64, size=60),
                             rng.integers(1, 6, size=60))
                   for _ in range(4)]
        scalar, batch = self._run_stream(
            batches, dict(n_sets=2, ways=ways, line_words=2, sample=sample),
            reset_between=True)
        self._assert_same_state(scalar, batch)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1, 1, 1), (1, 2, 1), (2, 2, 4), (4, 3, 2)]),
           st.sampled_from([1, 3, 13]),
           st.lists(st.tuples(st.sampled_from(["scalar", "batch", "reset"]),
                              st.lists(st.integers(0, 40), max_size=30),
                              st.integers(1, 6)),
                    max_size=8))
    def test_random_batch_scalar_interleavings(self, geometry, sample, ops):
        n_sets, ways, line_words = geometry
        params = dict(n_sets=n_sets, ways=ways, line_words=line_words,
                      sample=sample)
        oracle = CacheSimulator(**params)
        mixed = CacheSimulator(**params)
        for kind, addresses, repeat in ops:
            stream = np.repeat(np.asarray(addresses, dtype=np.int64), repeat)
            if kind == "reset":
                oracle.reset_counters()
                mixed.reset_counters()
                continue
            for x in stream:
                oracle.access(int(x))
            if kind == "batch":
                mixed.access_many(stream)
            else:
                for x in stream:
                    mixed.access(int(x))
        self._assert_same_state(oracle, mixed)


class TestHashAndEncodeMany:
    def test_hash64_many_matches_scalar(self):
        keys = np.arange(0, 4000, 7, dtype=np.uint64)
        batch = hash64_many(keys)
        assert batch.dtype == np.uint64
        assert all(int(h) == hash64(int(k)) for k, h in zip(keys, batch))

    def test_encode_decode_many_roundtrip(self):
        enc = CliqueEncoder(97, 3)
        rng = np.random.default_rng(2)
        rows = np.sort(rng.integers(0, 97, size=(50, 3)), axis=1)
        keys = enc.encode_many(rows)
        assert all(int(k) == enc.encode(tuple(row)) for row, k in
                   zip(rows.tolist(), keys))
        assert np.array_equal(enc.decode_many(keys), rows)


class TestTableBatchKernels:
    def test_lookup_many_matches_cell_of(self):
        table, cliques = build_table()
        cells, probes, slot_addrs, route_addrs = table.lookup_many(cliques)
        for row, cell in zip(cliques.tolist(), cells):
            assert table.cell_of(tuple(row)) == int(cell)
        assert probes.min() >= 1
        assert route_addrs.shape == (cliques.shape[0],
                                     table.route_charge_profile()[2])
        assert slot_addrs.shape == (cliques.shape[0],)

    def test_lookup_many_missing_raises(self):
        table, _ = build_table()
        with pytest.raises(KeyError):
            table.lookup_many(np.array([[38, 39]]))

    @pytest.mark.parametrize("layout", [
        dict(levels=2, style="array", contiguous=True,
             inverse_map="stored_pointers"),
        dict(levels=2, style="array", contiguous=False,
             inverse_map="binary_search"),
        dict(levels=1, style="hash", contiguous=False,
             inverse_map="binary_search"),
    ])
    def test_decode_many_matches_decode_and_charges(self, layout):
        table, cliques = build_table(**layout)
        cells = table.occupied_cells()
        base_work = table.tracker.total.work
        decoded, addrs, lens = table.decode_many(cells,
                                                 collect_addresses=True)
        bulk_work = table.tracker.total.work - base_work
        scalar = [table.decode(int(c)) for c in cells]
        scalar_work = table.tracker.total.work - base_work - bulk_work
        assert [tuple(row) for row in decoded.tolist()] == scalar
        assert bulk_work == scalar_work
        assert addrs.size == int(lens.sum())

    def test_add_count_at_many_matches_scalar(self):
        table_a, cliques = build_table()
        table_b, _ = build_table()
        cells = table_a.occupied_cells()[:10]
        deltas = np.full(10, -0.25)
        for cell, delta in zip(cells, deltas):
            table_a.add_count_at(int(cell), float(delta))
        table_b.add_count_at_many(cells, deltas)
        assert np.array_equal(table_a.counts, table_b.counts)
        assert table_a.tracker.total.work == table_b.tracker.total.work
        assert table_a.tracker.total.atomic_ops == \
            table_b.tracker.total.atomic_ops


def _scalar_replay(table, cliques):
    """Empty ``table``'s sub-tables and re-insert every row, in the build's
    lexicographic order, through the scalar ``_insert`` on a fresh tracker.
    Returns the bulk build's keys and the replay's tracker."""
    built = table._keys.copy()
    table._keys[:] = EMPTY_KEY
    table.tracker = CostTracker()
    prefix_w = table.levels - 1
    order = np.lexsort(tuple(cliques[:, c]
                             for c in range(table.r - 1, -1, -1)))
    for row in cliques[order].tolist():
        tid = table._path_to_tid[tuple(row[:prefix_w])]
        table._insert(tid, table._encoder.encode(row[prefix_w:]))
    return built, table.tracker


def _build_layouts(r):
    for levels in range(1, r + 1):
        for style in (("hash", "array") if levels == 2 else ("hash",)):
            for contiguous in (False, True):
                yield dict(levels=levels, style=style, contiguous=contiguous)


class TestBulkTableBuild:
    """The bulk build equals a replay through the scalar ``_insert``: same
    ``_keys`` layout, same probe count, same work."""

    @staticmethod
    def _cliques(r):
        dg, _ = orient(planted_partition(40, 2, 0.6, 0.05, seed=5),
                       "degeneracy")
        return np.sort(collect_cliques(dg, r), axis=1)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("max_load", [0.7, 0.9999, 1.0])
    def test_matches_scalar_replay(self, r, max_load):
        cliques = self._cliques(r)
        assert cliques.shape[0] > 20
        for layout in _build_layouts(r):
            build = CostTracker()
            table = CliqueTable(40, r, cliques, tracker=build,
                                max_load=max_load, **layout)
            built, replay = _scalar_replay(table, cliques)
            assert np.array_equal(built, table._keys), layout
            assert build.total.table_probes == replay.total.table_probes
            assert build.work == replay.work
            assert build.total.table_probes >= cliques.shape[0]

    def test_near_full_tables_chain_and_wrap(self):
        # 127 keys in one 128-cell sub-table: long probe chains, and keys
        # hashed near the end of the table wrap around to its start.
        cliques = self._cliques(2)[:127]
        build = CostTracker()
        table = CliqueTable(40, 2, cliques, levels=1, tracker=build,
                            max_load=1.0)
        cap = int(table._caps[0])
        assert cap == 128
        keys = table._keys
        homes = (hash64_many(keys[keys != EMPTY_KEY])
                 & np.uint64(cap - 1)).astype(np.int64)
        cells = np.flatnonzero(keys != EMPTY_KEY)
        assert (cells < homes).any()                 # wrapped around
        assert build.total.table_probes > 2 * cliques.shape[0]
        built, replay = _scalar_replay(table, cliques)
        assert np.array_equal(built, table._keys)
        assert build.total.table_probes == replay.total.table_probes

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_duplicate_rows_find_their_key(self, levels):
        cliques = self._cliques(3)
        rows = np.concatenate([cliques, cliques[::3], cliques[:5]])
        build = CostTracker()
        table = CliqueTable(40, 3, rows, levels=levels, tracker=build,
                            max_load=0.95)
        assert len(table.occupied_cells()) == cliques.shape[0]
        built, replay = _scalar_replay(table, rows)
        assert np.array_equal(built, table._keys)
        assert build.total.table_probes == replay.total.table_probes
        assert build.work == replay.work

    def test_insert_many_returns_scalar_cells(self):
        table, cliques = build_table(levels=2, style="hash")
        cells = [table.cell_of(tuple(row)) for row in cliques.tolist()]
        order = np.lexsort(tuple(cliques[:, c] for c in (1, 0)))
        table._keys[:] = EMPTY_KEY
        got = table._insert_many(table._route_many(cliques[order]),
                                 table._encoder.encode_many(
                                     cliques[order][:, 1:]))
        assert got.tolist() == np.asarray(cells)[order].tolist()

    def test_overfull_subtable_raises(self):
        cliques = self._cliques(2)
        with pytest.raises(RuntimeError,
                           match=r"sub-table 0 is full: probed all 4 slots"):
            CliqueTable(40, 2, cliques, levels=1, max_load=1e9)
        with pytest.raises(RuntimeError, match="is full"):
            CliqueTable(40, 2, cliques, levels=2, style="array",
                        max_load=4.0)


class TestInsertProbeOverflow:
    """Satellite: a full sub-table must fail loudly, not probe forever."""

    def test_full_subtable_raises(self):
        table, _ = build_table(levels=1, style="hash", contiguous=False,
                               inverse_map="binary_search")
        # Forge a full sub-table: every slot occupied by keys that never
        # match the probe key.  The old unbounded linear probe spun forever
        # here; the bound turns it into a diagnosable RuntimeError.
        table._keys[:] = np.uint64(1) << np.uint64(60)
        with pytest.raises(RuntimeError, match="sub-table 0 is full"):
            table._insert(0, 12345)

    def test_error_names_capacity(self):
        table, _ = build_table(levels=1, style="hash", contiguous=False,
                               inverse_map="binary_search")
        table._keys[:] = np.uint64(1) << np.uint64(60)
        cap = int(table._caps[0])
        with pytest.raises(RuntimeError, match=f"probed all {cap} slots"):
            table._insert(0, 99)


class TestAggregatorGrowth:
    """Satellite: SimpleArrayAggregator must grow, not IndexError."""

    def test_records_past_initial_capacity(self):
        tracker = CostTracker()
        agg = SimpleArrayAggregator(4, tracker=tracker)
        agg.begin_round(4, 4)
        for cell in range(50):  # old code: IndexError at the 5th record
            agg.record(cell)
        assert sorted(agg.finish_round().tolist()) == list(range(50))

    def test_growth_charges_copy_work(self):
        tracker = CostTracker()
        agg = SimpleArrayAggregator(2, tracker=tracker)
        agg.begin_round(2, 2)
        for cell in range(3):
            agg.record(cell)
        # 3 records charge 1 work each; the doubling from 2 to 4 copies the
        # 2 live entries.
        assert tracker.total.work == 3 + 2

    def test_zero_capacity_never_breaks(self):
        agg = SimpleArrayAggregator(0)
        agg.begin_round(0, 0)
        agg.record(7)
        assert agg.finish_round().tolist() == [7]


AGGREGATORS = [SimpleArrayAggregator, ListBufferAggregator,
               HashTableAggregator]


class TestRecordMany:
    @pytest.mark.parametrize("cls", AGGREGATORS)
    def test_matches_scalar_records(self, cls):
        rng = np.random.default_rng(4)
        cells = rng.choice(500, size=120, replace=False)
        threads = rng.integers(0, 8, size=120)
        runs = []
        for batched in (False, True):
            tracker = CostTracker()
            meter = ContentionMeter()
            agg = cls(500, threads=8, tracker=tracker, meter=meter,
                      buffer_size=16)
            agg.begin_round(60, 120)
            if batched:
                agg.record_many(cells, threads)
            else:
                for cell, thread in zip(cells, threads):
                    agg.record(int(cell), int(thread))
            out = agg.finish_round()
            meter.settle(tracker)
            runs.append((out.tolist(), tracker.total.work,
                         tracker.total.atomic_ops,
                         tracker.total.contention))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cls", AGGREGATORS)
    def test_multi_round_state_carries(self, cls):
        """Batched and scalar recording interleave across rounds (the list
        buffer's per-thread cursors persist between rounds)."""
        rng = np.random.default_rng(5)
        trackers = [CostTracker(), CostTracker()]
        aggs = [cls(300, threads=4, tracker=t, meter=ContentionMeter(),
                    buffer_size=8) for t in trackers]
        for round_no in range(3):
            cells = rng.choice(300, size=40, replace=False)
            threads = rng.integers(0, 4, size=40)
            outs = []
            for k, agg in enumerate(aggs):
                agg.begin_round(20, 40)
                if k:
                    agg.record_many(cells, threads)
                else:
                    for cell, thread in zip(cells, threads):
                        agg.record(int(cell), int(thread))
                outs.append(agg.finish_round().tolist())
            assert outs[0] == outs[1]
        assert trackers[0].total.work == trackers[1].total.work

    def test_hash_record_many_address_sink(self):
        """The hash aggregator's captured per-record address segments,
        replayed in order, reproduce the scalar run's cache stream."""
        rng = np.random.default_rng(6)
        cells = rng.choice(200, size=50, replace=False)
        caches = []
        for batched in (False, True):
            tracker = CostTracker()
            tracker.cache = CacheSimulator(sample=1)
            agg = HashTableAggregator(200, threads=4, tracker=tracker,
                                      meter=ContentionMeter())
            agg.begin_round(25, 50)
            if batched:
                addresses, lens = agg.record_many(cells, capture=True)
                assert lens.size == cells.size
                assert int(lens.sum()) == addresses.size
                tracker.access_sequence(addresses)
            else:
                for cell in cells:
                    agg.record(int(cell))
            caches.append((tracker.cache.accesses, tracker.cache.misses))
        assert caches[0] == caches[1]


class TestJulienneFastPath:
    def _pair(self, n=400, window=16):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 60, size=n)
        ids = np.arange(n, dtype=np.int64)
        fast = JulienneBucketing(ids, values, window=window)
        slow = JulienneBucketing(ids, values, window=window)
        slow._update_fast = lambda *_: False  # force the per-id loop
        return fast, slow

    def test_update_matches_slow_loop(self):
        fast, slow = self._pair()
        rng = np.random.default_rng(8)
        for structure in (fast, slow):
            structure.next_bucket()
        updated = rng.choice(400, size=150, replace=False)
        new_values = np.maximum(
            rng.integers(-5, 55, size=150), 0)
        fast.update(updated, new_values)
        slow.update(updated, new_values)
        assert np.array_equal(fast.values, slow.values)
        # Identical extraction sequences afterwards (bucket order and
        # per-bucket append order both preserved).
        while len(slow):
            level_f, ids_f = fast.next_bucket()
            level_s, ids_s = slow.next_bucket()
            assert level_f == level_s
            assert np.array_equal(ids_f, ids_s)

    def test_duplicate_ids_fall_back(self):
        fast, slow = self._pair(n=50, window=8)
        ids = np.array([3, 3, 7])
        values = np.array([40, 41, 42])
        fast.update(ids, values)
        slow.update(ids, values)
        assert np.array_equal(fast.values, slow.values)

    def test_below_window_batch_still_raises(self):
        bucketing = JulienneBucketing(np.arange(20), np.arange(20),
                                      window=8)
        bucketing.next_bucket()  # extracts only the value-0 bucket
        with pytest.raises(ValueError, match="below the current window"):
            # Force still-alive ids below base to simulate protocol
            # breakage; the batch fast path must defer to the loop's error.
            bucketing.base = 50
            bucketing.update(np.array([1, 2]), np.array([31, 32]))

    def test_unknown_id_raises_keyerror(self):
        bucketing = JulienneBucketing(np.arange(10), np.arange(10),
                                      window=4)
        with pytest.raises(KeyError):
            bucketing.update(np.array([3, 99]), np.array([1, 1]))


class TestSegmentPrimitives:
    def test_segment_offsets(self):
        assert segment_offsets([3, 0, 2]).tolist() == [0, 1, 2, 0, 1]
        assert segment_offsets([]).tolist() == []

    def test_interleave_segments(self):
        a = np.array([1, 2, 3, 40, 50])
        b = np.array([9, 8])
        merged = interleave_segments(a, [3, 2], b, [1, 1])
        assert merged.tolist() == [1, 2, 3, 9, 40, 50, 8]

    def test_interleave_empty_side(self):
        a = np.array([5, 6])
        merged = interleave_segments(a, [1, 1], np.empty(0, np.int64),
                                     [0, 0])
        assert merged.tolist() == [5, 6]

    def test_mismatched_segment_counts(self):
        with pytest.raises(ValueError):
            interleave_segments(np.array([1]), [1], np.array([2]), [1, 0])


def _flatten(segments):
    lens = np.asarray([seg.size for seg in segments], dtype=np.int64)
    values = np.concatenate(segments).astype(np.int64) if segments \
        else np.empty(0, dtype=np.int64)
    return values, lens


def _per_row_intersect(a_rows, b_rows):
    return [np.intersect1d(a, b, assume_unique=True)
            for a, b in zip(a_rows, b_rows)]


def _assert_rows_equal(values, lens, expected):
    assert lens.tolist() == [row.size for row in expected]
    want = np.concatenate(expected) if expected else np.empty(0)
    assert values.tolist() == want.tolist()


#: A sorted unique segment: small ids, so rows often share elements.
_segment = st.lists(st.integers(0, 40), max_size=15).map(
    lambda xs: np.unique(np.asarray(xs, dtype=np.int64)))


class TestIntersectSegmentsRows:
    """The flat segment intersection the batch engines chain over whole
    rounds, against per-row intersections (and per-row charges)."""

    def test_matches_per_row_results(self):
        # The three-column chain rediscover_round runs; its charge is
        # checked against the scalar loop in TestRediscoverRoundCharge.
        rng = np.random.default_rng(9)
        rows = []
        for _ in range(40):
            row = [np.unique(rng.choice(80, size=rng.integers(0, 25)))
                   for _ in range(3)]
            rows.append(row)
        values, lens = _flatten([row[0] for row in rows])
        for j in (1, 2):
            other, other_lens = _flatten([row[j] for row in rows])
            values, lens = intersect_segments(values, lens, other,
                                              other_lens)
        _assert_rows_equal(values, lens, [intersect_many(row)
                                          for row in rows])

    def test_negative_values_fall_back(self):
        a, a_lens = _flatten([np.array([-3, 1, 5])])
        b, b_lens = _flatten([np.array([-3, 5])])
        values, lens = intersect_segments(a, a_lens, b, b_lens,
                                          CostTracker())
        assert values.tolist() == [-3, 5]
        assert lens.tolist() == [2]

    def test_single_row_charge_equals_intersect_many(self):
        a = np.array([1, 4, 9])
        b = np.array([4, 9, 11, 20])
        t1, t2 = CostTracker(), CostTracker()
        one = intersect_many([a, b], t1)
        values, lens = intersect_segments(a, [a.size], b, [b.size], t2)
        assert np.array_equal(one, values)
        assert lens.tolist() == [one.size]
        assert t1.total.work == t2.total.work

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_segment, _segment), max_size=12))
    def test_matches_per_row_intersect1d(self, pairs):
        a_rows = [a for a, _ in pairs]
        b_rows = [b for _, b in pairs]
        a, a_lens = _flatten(a_rows)
        b, b_lens = _flatten(b_rows)
        tracker = CostTracker()
        values, lens = intersect_segments(a, a_lens, b, b_lens, tracker)
        _assert_rows_equal(values, lens, _per_row_intersect(a_rows, b_rows))
        assert tracker.total.work == sum(
            min(x.size, y.size) + 1 for x, y in pairs)

    @settings(max_examples=60, deadline=None)
    @given(_segment, _segment, st.integers(-50, -1))
    def test_negative_rows_match_per_row(self, a, b, shift):
        a_rows = [a + shift, np.empty(0, dtype=np.int64), a]
        b_rows = [b + shift, b, b]
        a_flat, a_lens = _flatten(a_rows)
        b_flat, b_lens = _flatten(b_rows)
        values, lens = intersect_segments(a_flat, a_lens, b_flat, b_lens)
        _assert_rows_equal(values, lens, _per_row_intersect(a_rows, b_rows))

    def test_empty_segments_and_no_rows(self):
        values, lens = intersect_segments([], [], [], [])
        assert values.size == 0 and lens.size == 0
        values, lens = intersect_segments([1, 2], [0, 2], [], [0, 0])
        assert values.size == 0 and lens.tolist() == [0, 0]
        values, lens = intersect_segments([], [0, 0, 0], [5], [0, 1, 0])
        assert lens.tolist() == [0, 0, 0]

    def test_stride_overflow_falls_back(self):
        big = 2 ** 61
        a_rows = [np.array([1, big]), np.array([big]), np.array([3, big])]
        b_rows = [np.array([big]), np.array([2, big]), np.array([3])]
        a, a_lens = _flatten(a_rows)
        b, b_lens = _flatten(b_rows)
        values, lens = intersect_segments(a, a_lens, b, b_lens)
        _assert_rows_equal(values, lens, _per_row_intersect(a_rows, b_rows))

    def test_mismatched_segment_counts(self):
        with pytest.raises(ValueError):
            intersect_segments([1], [1], [1], [1, 0])


class TestRediscoverRoundCharge:
    """``rediscover_round`` against the scalar loop it replaces: a
    ``decode`` plus a ``_rediscover`` per peeled cell.  Same updates, and
    the same work and probes, with the closed-form intersection charge
    included."""

    @pytest.mark.parametrize("r, s", [(1, 2), (2, 3), (2, 4), (3, 4)])
    @pytest.mark.parametrize("fractional", [True, False])
    def test_matches_scalar_rediscover(self, r, s, fractional):
        graph = planted_partition(40, 4, 0.5, 0.03, seed=5)
        dg, _ = orient(graph, "degeneracy")
        cliques = np.sort(collect_cliques(dg, r), axis=1)
        tracker = CostTracker()
        table = CliqueTable(graph.n, r, cliques, tracker=tracker,
                            address_space=AddressSpace())
        working = WorkingGraph(graph)
        cells = table.lookup_many(cliques)[0]
        rng = np.random.default_rng(10 * r + s)
        order = cells[rng.permutation(cells.size)]
        n_peeled, n_peel = cells.size // 5, cells.size // 4
        status = np.zeros(table.total_cells, dtype=np.int8)
        status[order[:n_peeled]] = _PEELED
        peel_cells = np.sort(order[n_peeled:n_peeled + n_peel])
        status[peel_cells] = _PEELING

        totals = tracker.total
        before = (totals.work, totals.table_probes)
        updates = []
        for cell in peel_cells:
            clique = table.decode(int(cell))
            _rediscover(table, dg, working, clique, r, s, status,
                        fractional,
                        lambda alive, share: updates.append(
                            (tuple(alive), share)),
                        tracker)
        scalar = (totals.work, totals.table_probes)
        comb_cols = np.asarray(list(combinations(range(s), r)),
                               dtype=np.int64)
        classified = rediscover_round(peel_cells, comb_cols, dg, working,
                                      table, status, fractional, False, r,
                                      s, tracker)
        batch = (totals.work, totals.table_probes)

        assert scalar[0] - before[0] == batch[0] - scalar[0]
        assert scalar[1] - before[1] == batch[1] - scalar[1]
        assert updates, "the round should apply some updates"
        rows = np.unique(classified.update_row_of)
        assert [(tuple(int(c) for c in classified.update_cells[
                    classified.update_row_of == row]),
                 int(classified.row_share[row])) for row in rows] == updates
