"""Cost-accounted parallel sequence primitives (Section 3 of the paper).

These are the building blocks the paper assumes: prefix sum, filter, pack,
reduce, and histogram, each taking ``O(n)`` work and ``O(log n)`` span.  The
real computation is done with numpy (sequentially); the work-span charges
flow to a :class:`~repro.parallel.runtime.CostTracker` so that simulated
parallel running times reflect their use.

All functions accept ``tracker=None`` for plain (un-accounted) use.
"""

from __future__ import annotations

import numpy as np

from .runtime import CostTracker, _log2


def _charge(tracker: CostTracker | None, n: int) -> None:
    # Each primitive is one bulk-synchronous step of the simulated machine:
    # O(n) work, O(log n) span, and one global barrier (round).  Without
    # the round, code built from primitives under-counted its barriers.
    if tracker is not None:
        tracker.add_work(float(n))
        tracker.add_span(_log2(n))
        tracker.add_round(1)


def prefix_sum(values, tracker: CostTracker | None = None, exclusive: bool = True):
    """Parallel scan: returns prefix sums (exclusive by default) and the total.

    ``O(n)`` work, ``O(log n)`` span.
    """
    arr = np.asarray(values, dtype=np.int64)
    _charge(tracker, arr.size)
    inclusive = np.cumsum(arr)
    total = int(inclusive[-1]) if arr.size else 0
    if exclusive and arr.size:
        out = np.empty_like(inclusive)
        out[0] = 0
        out[1:] = inclusive[:-1]
        return out, total
    return inclusive, total


def parallel_filter(values, predicate_mask, tracker: CostTracker | None = None):
    """Parallel filter: keep ``values[i]`` where ``predicate_mask[i]`` is true.

    Order-preserving; ``O(n)`` work, ``O(log n)`` span.
    """
    arr = np.asarray(values)
    mask = np.asarray(predicate_mask, dtype=bool)
    _charge(tracker, arr.size)
    return arr[mask]


def pack_indices(predicate_mask, tracker: CostTracker | None = None):
    """Return the indices at which ``predicate_mask`` is true (parallel pack)."""
    mask = np.asarray(predicate_mask, dtype=bool)
    _charge(tracker, mask.size)
    return np.flatnonzero(mask)


def parallel_reduce(values, tracker: CostTracker | None = None, op=np.add):
    """Parallel reduction with an associative operator (default: sum)."""
    arr = np.asarray(values)
    _charge(tracker, arr.size)
    if arr.size == 0:
        return 0
    return op.reduce(arr)


def parallel_max(values, tracker: CostTracker | None = None):
    """Parallel maximum; returns ``None`` on empty input."""
    arr = np.asarray(values)
    _charge(tracker, arr.size)
    if arr.size == 0:
        return None
    return arr.max()


def parallel_min(values, tracker: CostTracker | None = None):
    """Parallel minimum; returns ``None`` on empty input."""
    arr = np.asarray(values)
    _charge(tracker, arr.size)
    if arr.size == 0:
        return None
    return arr.min()


def histogram(keys, n_buckets: int, tracker: CostTracker | None = None):
    """Count occurrences of integer keys in ``[0, n_buckets)``.

    Used to size buckets before a semisort-style grouping.  ``O(n)`` work,
    ``O(log n)`` span.
    """
    arr = np.asarray(keys, dtype=np.int64)
    _charge(tracker, arr.size + n_buckets)
    return np.bincount(arr, minlength=n_buckets)


def intersect_sorted(a, b, tracker: CostTracker | None = None):
    """Intersect two sorted integer arrays.

    Charged at ``O(min(|a|, |b|))`` work and ``O(log(|a|+|b|))`` span, the
    hash-table intersection bound the paper assumes (Section 3); the actual
    computation uses a merge for exactness.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if tracker is not None:
        # Work only: intersection span is charged analytically by callers
        # (one O(log n) term per recursion level), because intersections
        # inside a parallel region run concurrently, not back to back.
        tracker.add_work(float(min(a.size, b.size)) + 1.0)
    if a.size == 0 or b.size == 0:
        return a[:0]
    return np.intersect1d(a, b, assume_unique=True)


def intersect_many(arrays, tracker: CostTracker | None = None):
    """Intersect several sorted arrays; cost ``O(min_i |a_i|)`` work.

    Implements the multi-table intersection bound of Section 3 by probing
    the smallest array against the others.  The batch engines intersect
    whole frontiers with :func:`intersect_segments` instead, charging the
    same per-row ``min + 1`` totals.
    """
    arrays = [np.asarray(a) for a in arrays]
    if not arrays:
        raise ValueError("intersect_many requires at least one array")
    if tracker is not None:
        tracker.add_work(float(min(a.size for a in arrays)) + 1.0)
    result = arrays[0]
    for other in arrays[1:]:
        if result.size == 0:
            break
        result = np.intersect1d(result, other, assume_unique=True)
    return result


def segment_gather(source, starts, lengths) -> np.ndarray:
    """Concatenate ``source[starts[i] : starts[i] + lengths[i]]`` segments.

    The gather building block of the frontier kernels: one fancy index
    materializes many variable-length slices of a flat array (CSR
    neighborhoods, frontier candidate lists) in segment order.
    """
    source = np.asarray(source)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum()) if lengths.size else 0
    if total == 0:
        return source[:0]
    # Element k of segment i sits at ``starts[i] + (k - out_start[i])``.
    shift = starts.copy()
    shift[1:] -= np.cumsum(lengths[:-1])
    return source[np.repeat(shift, lengths)
                  + np.arange(total, dtype=np.int64)]


def intersect_segments(a_values, a_lens, b_values, b_lens,
                       tracker: CostTracker | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Intersect two flattened segment lists row by row.

    Segment ``i`` of the result is ``intersect(a_i, b_i)`` where ``a_i`` /
    ``b_i`` are the ``i``-th segments of the flattened inputs (each sorted,
    unique, non-negative).  Returns ``(values, lengths)`` flattened the same
    way.  Charges exactly what one :func:`intersect_sorted` call per row
    would: ``min(|a_i|, |b_i|) + 1`` work each, no span, no rounds.

    Row ``i``'s element ``x`` is keyed ``i * stride + x``, so both key
    arrays are sorted and unique and one :func:`numpy.intersect1d` merge
    serves every row.  The batch engines expand a whole frontier level, or
    intersect the r neighborhoods of a whole peeled round, this way instead
    of one Python call per row.
    """
    a_values = np.asarray(a_values, dtype=np.int64)
    b_values = np.asarray(b_values, dtype=np.int64)
    a_lens = np.asarray(a_lens, dtype=np.int64)
    b_lens = np.asarray(b_lens, dtype=np.int64)
    if a_lens.size != b_lens.size:
        raise ValueError("segment count mismatch")
    n_rows = a_lens.size
    if tracker is not None:
        tracker.add_work_int(int(np.minimum(a_lens, b_lens).sum()) + n_rows)
    if a_values.size == 0 or b_values.size == 0:
        return np.empty(0, dtype=np.int64), np.zeros(n_rows, dtype=np.int64)
    if int(a_values.min()) < 0 or int(b_values.min()) < 0:
        return _intersect_segments_loop(a_values, a_lens, b_values, b_lens)
    stride = max(int(a_values.max()), int(b_values.max())) + 1
    if n_rows > (2 ** 62) // stride:
        # Row keys would overflow int64; fall back to the per-row loop.
        return _intersect_segments_loop(a_values, a_lens, b_values, b_lens)
    row_base = np.arange(n_rows, dtype=np.int64) * stride
    a_keys = np.repeat(row_base, a_lens)
    a_keys += a_values
    b_keys = np.repeat(row_base, b_lens)
    b_keys += b_values
    keys = np.intersect1d(a_keys, b_keys, assume_unique=True)
    rows = keys // stride
    return keys - rows * stride, np.bincount(rows, minlength=n_rows)


def _intersect_segments_loop(a_values, a_lens, b_values, b_lens
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row fallback of :func:`intersect_segments` (charging-free: the
    caller has already charged the per-row totals)."""
    a_off = np.zeros(a_lens.size + 1, dtype=np.int64)
    b_off = np.zeros(b_lens.size + 1, dtype=np.int64)
    np.cumsum(a_lens, out=a_off[1:])
    np.cumsum(b_lens, out=b_off[1:])
    pieces = []
    lengths = np.zeros(a_lens.size, dtype=np.int64)
    for i in range(a_lens.size):
        piece = np.intersect1d(a_values[a_off[i]:a_off[i + 1]],
                               b_values[b_off[i]:b_off[i + 1]],
                               assume_unique=True)
        lengths[i] = piece.size
        if piece.size:
            pieces.append(piece)
    values = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    return values.astype(np.int64), lengths


def segment_offsets(lengths) -> np.ndarray:
    """``[0..l0), [0..l1), ...`` concatenated: within-segment offsets for a
    flattened array of variable-length segments (a pack building block)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def interleave_segments(a, a_lens, b, b_lens) -> np.ndarray:
    """Merge two flattened segment lists so segment ``i`` of the result is
    ``a``'s segment ``i`` followed by ``b``'s segment ``i``.

    Both inputs must have the same number of segments.  This is how the
    batch engine reassembles per-task address streams (decode addresses,
    then per-row probe/update addresses) into the exact order the scalar
    loop would have produced.
    """
    a = np.asarray(a)
    b = np.asarray(b, dtype=a.dtype) if np.asarray(b).size else \
        np.zeros(0, dtype=a.dtype)
    a_lens = np.asarray(a_lens, dtype=np.int64)
    b_lens = np.asarray(b_lens, dtype=np.int64)
    if a_lens.size != b_lens.size:
        raise ValueError("segment count mismatch")
    seg_lens = a_lens + b_lens
    seg_starts = np.zeros(seg_lens.size, dtype=np.int64)
    if seg_lens.size:
        np.cumsum(seg_lens[:-1], out=seg_starts[1:])
    out = np.empty(a.size + b.size, dtype=a.dtype)
    a_pos = np.repeat(seg_starts, a_lens) + segment_offsets(a_lens)
    b_pos = np.repeat(seg_starts + a_lens, b_lens) + segment_offsets(b_lens)
    out[a_pos] = a
    out[b_pos] = b
    return out
