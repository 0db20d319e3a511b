"""Tests for the dynamic race detector (repro.sanitize.racecheck)."""

import numpy as np
import pytest

from repro.baselines.nd import nd_decomposition
from repro.baselines.pkt import pkt_decomposition
from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.core.kcore import k_core
from repro.graph.generators import figure1_graph
from repro.parallel.runtime import CostTracker
from repro.sanitize.racecheck import (RaceDetector, RaceError, ShadowArray,
                                      maybe_shadow)

# Static->dynamic coverage stamps for rule PAR011: each qualname names an
# entry point whose parallel regions the tests in this file drive under a
# live RaceDetector.  The static effect analyzer
# (repro.sanitize.effects) cross-references every shared-writing parallel
# region against these stamps; engine kernels must be stamped directly
# because they fall back to their scalar oracles whenever a detector is
# attached (see TestBatchEnginesRaceSmoke for what that stamp asserts).
RACECHECK_COVERS = [
    "repro.core.decomp.arb_nucleus_decomp",
    "repro.core.batchpeel.peel_batch",
]


def tracked_detector():
    tracker = CostTracker()
    detector = RaceDetector()
    tracker.race_detector = detector
    return tracker, detector


class TestOwnershipModel:
    def test_serial_accesses_never_race(self):
        detector = RaceDetector()
        detector.log(7, write=True)
        detector.log(7, write=True)
        assert detector.settle() == []

    def test_sibling_tasks_write_write(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as region:
            for _ in range(2):
                with region.task():
                    detector.log(7, write=True)
        races = detector.settle()
        assert len(races) == 1
        assert races[0].kind == "write-write"
        assert races[0].address == 7

    def test_task_vs_enclosing_serial_is_ordered(self):
        # The serial (empty-path) context is an ancestor of every task.
        tracker, detector = tracked_detector()
        detector.log(7, write=True)
        with tracker.parallel(2) as region:
            with region.task():
                detector.log(7, write=True)
        assert detector.settle() == []

    def test_nested_task_vs_its_parent_is_ordered(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as outer:
            with outer.task():
                detector.log(7, write=True)  # parent frame
                with tracker.parallel(2) as inner:
                    with inner.task():
                        detector.log(7, write=True)  # its own child
        assert detector.settle() == []

    def test_nested_tasks_of_different_parents_race(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as outer:
            for _ in range(2):
                with outer.task():
                    with tracker.parallel(1) as inner:
                        with inner.task():
                            detector.log(7, write=True)
        races = detector.settle()
        assert len(races) == 1
        assert races[0].kind == "write-write"

    def test_read_write_across_tasks(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as region:
            with region.task():
                detector.log(7, write=False)
            with region.task():
                detector.log(7, write=True)
        races = detector.settle()
        assert len(races) == 1
        assert races[0].kind == "read-write"

    def test_concurrent_reads_are_fine(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as region:
            for _ in range(2):
                with region.task():
                    detector.log(7, write=False)
        assert detector.settle() == []

    def test_explicit_owner_attribution(self):
        # Thread-owned state: tasks multiplexed onto one worker do not race.
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as region:
            for _ in range(2):
                with region.task():
                    detector.log(7, write=True, owner=("thread", 0))
        assert detector.settle() == []


class TestMediation:
    def test_atomics_never_race_with_atomics(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as region:
            for _ in range(2):
                with region.task():
                    detector.log(7, write=True, atomic=True)
        assert detector.settle() == []

    def test_plain_write_vs_atomic_write_races(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as region:
            with region.task():
                detector.log(7, write=True, atomic=True)
            with region.task():
                detector.log(7, write=True)
        races = detector.settle()
        assert len(races) == 1
        assert races[0].kind == "write-write"

    def test_plain_read_vs_atomic_write_races(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as region:
            with region.task():
                detector.log(7, write=False)
            with region.task():
                detector.log(7, write=True, atomic=True)
        races = detector.settle()
        assert len(races) == 1
        assert races[0].kind == "read-write"


class TestBarrierSemantics:
    def test_region_close_is_a_barrier(self):
        # A write in one region cannot race with a write in the next.
        tracker, detector = tracked_detector()
        for _ in range(2):
            with tracker.parallel(2) as region:
                with region.task():
                    detector.log(7, write=True)
        assert detector.settle() == []

    def test_inner_region_close_is_not_a_barrier(self):
        # Only the *outermost* close flushes: two sibling outer tasks still
        # race even when each wrapped its write in an inner region.
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as outer:
            for _ in range(2):
                with outer.task():
                    with tracker.parallel(1) as inner:
                        with inner.task():
                            detector.log(7, write=True)
        assert len(detector.settle()) == 1


class TestSettle:
    def test_strict_raises_with_description(self):
        tracker, detector = tracked_detector()
        base = detector.allocate(4, "shared")
        with tracker.parallel(2) as region:
            for _ in range(2):
                with region.task():
                    detector.log(base + 2, write=True)
        with pytest.raises(RaceError) as excinfo:
            detector.settle(strict=True)
        assert "shared[2]" in str(excinfo.value)
        assert "write-write" in str(excinfo.value)

    def test_settle_keeps_races_for_inspection(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(2) as region:
            for _ in range(2):
                with region.task():
                    detector.log(7, write=True)
        assert detector.settle() == detector.settle()

    def test_stats_counters(self):
        tracker, detector = tracked_detector()
        with tracker.parallel(3) as region:
            for _ in range(3):
                with region.task():
                    detector.log(1, write=False)
                    detector.log(2, write=False)
        detector.settle()
        assert detector.stats.logged == 6
        assert detector.stats.addresses_seen == 2
        assert detector.stats.regions == 1
        assert detector.stats.tasks == 3
        assert detector.stats.races == 0

    def test_allocate_separates_structures(self):
        detector = RaceDetector()
        a = detector.allocate(10, "a")
        b = detector.allocate(10, "b")
        assert b >= a + 10


class TestShadowArray:
    def test_reads_and_writes_are_logged(self):
        tracker, detector = tracked_detector()
        arr = ShadowArray(np.zeros(4, dtype=np.int64), detector)
        with tracker.parallel(2) as region:
            with region.task():
                arr[1] = 5
            with region.task():
                _ = arr[1]
        races = detector.settle()
        assert len(races) == 1
        assert races[0].kind == "read-write"

    def test_values_pass_through(self):
        arr = ShadowArray(np.arange(5), RaceDetector())
        assert arr[3] == 3
        arr[3] = 9
        assert arr.values[3] == 9
        assert len(arr) == 5 and arr.size == 5

    def test_slice_and_mask_and_fancy_indices(self):
        detector = RaceDetector()
        arr = ShadowArray(np.arange(6), detector)
        _ = arr[1:4]
        _ = arr[np.array([True, False, True, False, False, False])]
        arr[np.array([0, 5])] = 7
        assert detector.stats.logged == 3 + 2 + 2
        assert list(arr.values) == [7, 1, 2, 3, 4, 7]

    def test_atomic_shadow_never_races(self):
        tracker, detector = tracked_detector()
        arr = ShadowArray(np.zeros(4, dtype=np.int64), detector, atomic=True)
        with tracker.parallel(2) as region:
            for _ in range(2):
                with region.task():
                    arr[0] = 1
        assert detector.settle() == []

    def test_label_in_race_report(self):
        tracker, detector = tracked_detector()
        arr = ShadowArray(np.zeros(4, dtype=np.int64), detector,
                          label="status")
        with tracker.parallel(2) as region:
            for _ in range(2):
                with region.task():
                    arr[3] = 1
        (race,) = detector.settle()
        assert race.describe().startswith("write-write race at status[3]")


class TestMaybeShadow:
    def test_no_detector_returns_raw_array(self):
        values = np.zeros(4)
        assert maybe_shadow(values, CostTracker()) is values
        assert maybe_shadow(values, None) is values

    def test_with_detector_wraps(self):
        tracker, detector = tracked_detector()
        wrapped = maybe_shadow(np.zeros(4), tracker, label="x")
        assert isinstance(wrapped, ShadowArray)
        assert wrapped.detector is detector


class TestBatchEnginesRaceSmoke:
    """Every batch engine, driven end-to-end with a detector attached.

    The batch engines fall back to their scalar oracles whenever a race
    detector is present (vectorized kernels replay whole rounds and
    cannot interleave), so the dynamic property checked here is fallback
    losslessness: a batch-engine run under the detector must produce the
    same answer as the uninstrumented batch run, and the detector must
    certify the replayed schedule race-free.  Together with the
    bit-for-bit batch/scalar cost-parity gates (tests/test_batch_*.py,
    rule PAR007) this is what the ``RACECHECK_COVERS`` stamp for
    ``peel_batch`` asserts.
    """

    ENGINES = {
        "batchpeel": staticmethod(lambda t: arb_nucleus_decomp(
            figure1_graph(), 2, 3, NucleusConfig.optimal(2, 3), t)),
        "batchlist": staticmethod(lambda t: arb_nucleus_decomp(
            figure1_graph(), 2, 4, NucleusConfig.optimal(2, 4), t)),
        "batchcore": staticmethod(lambda t: k_core(figure1_graph(), t)),
        "batchnd": staticmethod(lambda t: nd_decomposition(
            figure1_graph(), 2, 3, t)),
        "batchtruss": staticmethod(lambda t: pkt_decomposition(
            figure1_graph(), t)),
    }

    @staticmethod
    def _comparable(result):
        if isinstance(result, np.ndarray):
            return result.tolist()
        if hasattr(result, "as_dict"):
            return result.as_dict()
        return (result.core, result.rounds)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_race_free_and_lossless_fallback(self, name):
        run = self.ENGINES[name].__func__
        tracker, detector = tracked_detector()
        checked = run(tracker)
        assert detector.settle(strict=False) == []
        plain = run(CostTracker())
        assert self._comparable(checked) == self._comparable(plain)

    @pytest.mark.parametrize("name", ["batchpeel", "batchlist"])
    def test_shadow_arrays_engage(self, name):
        # The nucleus engines route their peeling state through
        # maybe_shadow, so the fallback run must actually log accesses
        # --- a silent no-op detector would make the smoke test
        # meaningless.
        run = self.ENGINES[name].__func__
        tracker, detector = tracked_detector()
        run(tracker)
        detector.settle(strict=False)
        assert detector.stats.logged > 0
        assert detector.stats.tasks > 0
