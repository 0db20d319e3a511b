"""Vectorized k-core bucket peel (the production k-core peel).

The scalar Matula--Beck loop in :mod:`repro.core.kcore` walks one Python
iteration per bucket entry and per neighbor; this engine processes each
bucket snapshot as flat numpy arrays instead: one gather of all frontier
neighborhoods, one vectorized liveness mask, one ``np.unique`` to turn
decrement events into per-vertex counts, and one difference-array update
of the pending-entry histogram that stands in for the scalar bucket lists
(cf. the parallel bucketing structure of arXiv:2502.08042).

The contract --- enforced by tests/test_batch_baselines.py and the bench
gate --- is that a batch run's *simulated* metrics are bit-for-bit
identical to the scalar oracle's.  Every charge on this path is
integer-valued except the per-bucket ``log2`` span, which is charged once
per processed bucket in both engines, so parity reduces to three facts
(full rules in docs/cost-model.md):

* the non-stale entries of the bucket at ``cursor`` are exactly the live
  vertices whose current degree equals ``cursor`` (a vertex is re-pushed
  whenever its degree drops, degrees only decrease, and stale entries are
  filtered at snapshot time), so the frontier needs no bucket lists;
* the scalar loop peels a bucket's frontier in ascending id order, so a
  frontier vertex is decremented by exactly its earlier-position frontier
  neighbors (plus nothing else peeled this round), which the liveness
  mask expresses positionally;
* bucket *lists* only ever surface through their lengths (the per-entry
  scan charge) and emptiness (cursor advances), so a pending-entry count
  per bucket --- maintained with one difference-array cumsum per round,
  one entry per decrement at its event-time degree --- reproduces the
  scalar charge stream exactly.

The engine requires plain ndarray peeling state, so :func:`~
repro.core.kcore.k_core` falls back to the scalar oracle when a race
detector is attached.
"""

from __future__ import annotations

import numpy as np

from ..parallel.primitives import segment_gather
from ..parallel.runtime import CostTracker, _log2

#: Batch<->scalar parity contract, verified statically by ``repro lint
#: --strict`` (rule PAR007); regenerate fingerprints with
#: ``repro lint --strict --emit-registry`` after editing charges.
PARLINT_PARITY = {
    "k_core_peel_batch": {
        "oracle": "repro.core.kcore._peel_scalar",
        "fingerprint": {
            "add_round": 1,
            "add_span": 1,
            "add_work_int": 3,
        },
    },
}


def k_core_peel_batch(graph, core: np.ndarray,
                      tracker: CostTracker) -> None:
    """Run the bucket peel in batch mode, filling ``core`` in place.

    Mirrors the scalar loop bucket for bucket: same cursor trajectory,
    same per-entry scan charges, same rounds and span, same coreness.
    """
    n = graph.n
    deg0 = graph.degrees.astype(np.int64)
    degree = deg0.copy()
    max_deg = int(degree.max())
    offsets = graph.offsets
    targets = graph.targets
    #: Pending (possibly stale) entries per bucket; stands in for the
    #: scalar engine's bucket lists, whose contents only matter through
    #: their lengths and emptiness.
    pending = np.bincount(degree, minlength=max_deg + 1).astype(np.int64)
    #: Live vertices per current degree: lets stale-only snapshots (all
    #: entries invalid) skip the O(n) frontier scan entirely.
    live_at = pending.copy()
    #: Peeled vertices drop to degree -1, making liveness one comparison.
    removed = np.zeros(n, dtype=bool)
    pos = np.full(n, -1, dtype=np.int64)
    level = 0
    cursor = 0
    processed = 0
    while processed < n:
        advanced = 0
        while cursor <= max_deg and pending[cursor] == 0:
            cursor += 1
            advanced += 1
        tracker.add_work_int(advanced)
        if cursor > max_deg:
            raise RuntimeError(
                "k_core: bucket cursor overran the maximum degree with "
                f"{n - processed} vertices unprocessed")
        tracker.add_work_int(int(pending[cursor]))
        pending[cursor] = 0
        if live_at[cursor] == 0:
            continue  # every pending entry was stale
        frontier = np.flatnonzero(degree == cursor)
        level = max(level, cursor)
        tracker.add_round()
        tracker.add_span(_log2(frontier.size + 2))
        pos[frontier] = np.arange(frontier.size, dtype=np.int64)
        lens = deg0[frontier]
        nbrs = segment_gather(targets, offsets[frontier], lens)
        owner_pos = np.repeat(np.arange(frontier.size, dtype=np.int64),
                              lens)
        # A neighbor absorbs the decrement iff the scalar loop would have
        # seen it un-removed: peeled in an earlier bucket -> dead; peeled
        # this bucket -> dead only for earlier-position owners.
        tpos = pos[nbrs]
        live = np.where(tpos >= 0, owner_pos < tpos, ~removed[nbrs])
        hit = nbrs[live]
        uniq, kcnt = np.unique(hit, return_counts=True)
        if uniq.size:
            d_start = degree[uniq]
            # Each decrement re-pushes its vertex at the event-time
            # degree: buckets d-1 .. d-k gain one entry each.
            diff = np.zeros(max_deg + 2, dtype=np.int64)
            np.add.at(diff, d_start - kcnt, 1)
            np.add.at(diff, d_start, -1)
            pending += np.cumsum(diff)[:max_deg + 1]
            np.add.at(live_at, d_start, -1)
            degree[uniq] -= kcnt
            np.add.at(live_at, degree[uniq], 1)
            cursor = min(cursor, int(degree[uniq].min()))
        removed[frontier] = True
        core[frontier] = level
        pos[frontier] = -1
        # Frontier members may themselves have been decremented above, so
        # deduct each at its current (possibly dropped) degree.
        np.add.at(live_at, degree[frontier], -1)
        degree[frontier] = -1
        processed += int(frontier.size)
        tracker.add_work_int(int((deg0[frontier] + 1).sum()))
