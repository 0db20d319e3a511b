"""Host-time spans for the traced benchmark run, and profiler shares.

:class:`SpanRecorder` records two kinds of span in one tree:

* benchmark spans, opened by the benchmark's own code around each public
  call (``generate``, ``decompose``, ``extract``, ``hierarchy``, ``index``,
  ``query``, ``sharded``, ``verify``) with :meth:`SpanRecorder.span`;
* phase spans, reported by the program itself through the documented
  ``CostTracker.trace`` hook: a recorder attached as ``tracker.trace``
  receives ``begin_phase`` / ``end_phase`` for every ``tracker.phase(...)``
  block and parents it to the innermost open span.  Region and task events
  are no-ops, so the recorder costs a few calls per phase.

Each span also gets a ``tracemalloc`` peak: the highest traced allocation
above the level at which the span began.  Spans stay in memory; the
benchmark turns them into metrics when the run ends.

The recorder only reads clocks and allocator statistics; it never charges a
tracker, so the simulated counters of a traced job equal those of an
untraced one (the benchmark checks this).

:func:`profile_shares` runs one job under ``cProfile`` and attributes self
time to the accounting layer and to the cache simulator.
"""

from __future__ import annotations

import cProfile
import pstats
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

MB = float(1 << 20)


@dataclass
class Span:
    name: str
    kind: str  # "bench" or "phase"
    parent: int  # index into SpanRecorder.spans, -1 for a root
    start: float
    end: float = 0.0
    base_bytes: int = 0
    peak_bytes: int = 0
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def peak_mb(self) -> float:
        return max(0, self.peak_bytes - self.base_bytes) / MB


class SpanRecorder:
    """Benchmark spans plus tracker phases, with per-span memory peaks.

    Attach to a tracker with ``tracker.trace = recorder``.
    ``sharded_nucleus_decomp`` builds a recorder of its own per shard and
    copies :attr:`task_limit` and :attr:`lanes` from this one.
    """

    task_limit = 0
    lanes = 1

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    # -- spans -------------------------------------------------------------

    def _begin(self, name: str, kind: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        parent = self._open[-1] if self._open else -1
        if parent >= 0:
            # Fold the peak reached so far into the parent before the
            # child resets the allocator's peak counter.
            outer = self.spans[parent]
            outer.peak_bytes = max(outer.peak_bytes, peak)
            outer.children.append(len(self.spans))
        tracemalloc.reset_peak()
        self._open.append(len(self.spans))
        self.spans.append(Span(name, kind, parent, time.perf_counter(),
                               base_bytes=current, peak_bytes=current))

    def _end(self) -> None:
        end = time.perf_counter()
        span = self.spans[self._open.pop()]
        span.end = end
        span.peak_bytes = max(span.peak_bytes,
                              tracemalloc.get_traced_memory()[1])
        if span.parent >= 0:
            outer = self.spans[span.parent]
            outer.peak_bytes = max(outer.peak_bytes, span.peak_bytes)

    @contextmanager
    def span(self, name: str):
        self._begin(name, "bench")
        try:
            yield
        finally:
            self._end()

    # -- the CostTracker.trace hook ------------------------------------------

    def begin_phase(self, tracker, name: str) -> None:
        self._begin(name, "phase")

    def end_phase(self, tracker, name: str) -> None:
        self._end()

    def begin_region(self, tracker, n_tasks: int) -> None:
        pass

    def end_region(self, tracker, max_task_span: float) -> None:
        pass

    def begin_task(self, tracker, task_index: int) -> None:
        pass

    def end_task(self, tracker, task_index: int) -> None:
        pass

    # -- reading -------------------------------------------------------------

    def self_time(self, index: int) -> float:
        """Duration of a span minus the part its children cover."""
        span = self.spans[index]
        covered = 0.0
        cursor = span.start
        for child in sorted((self.spans[c] for c in span.children),
                            key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def named(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span.name == name]


class NullSpans:
    """The untraced stand-in: every span is a no-op context."""

    @contextmanager
    def span(self, name: str):
        yield


@contextmanager
def tracing_memory():
    """Keep ``tracemalloc`` running for the duration of the block."""
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _accounting(filename: str, function: str) -> bool:
    path = filename.replace("\\", "/")
    if path.endswith("repro/parallel/runtime.py"):
        return True
    return function.startswith("_charge") and (
        path.endswith("repro/parallel/hashtable.py")
        or path.endswith("repro/core/tables.py"))


def profile_shares(job) -> tuple[dict[str, float], object]:
    """Run ``job()`` under cProfile; return profiler-attributed shares.

    ``accounting.share`` is the self time of ``repro.parallel.runtime``
    plus the ``_charge`` helpers of ``repro.parallel.hashtable`` and
    ``repro.core.tables``; ``cache.share`` is the self time of
    ``repro.machine.cache``.  Both are fractions of the job's total
    profiled self time, so they carry the profiler's per-call distortion.
    """
    profiler = cProfile.Profile()
    out = profiler.runcall(job)
    stats = pstats.Stats(profiler).stats
    total = accounting = cache = 0.0
    for (filename, _, function), (_, _, tottime, _, _) in stats.items():
        total += tottime
        if _accounting(filename, function):
            accounting += tottime
        elif filename.replace("\\", "/").endswith("repro/machine/cache.py"):
            cache += tottime
    total = total or 1.0
    return {"accounting.share": accounting / total,
            "cache.share": cache / total}, out
