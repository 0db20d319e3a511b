"""Graph partitioners for the sharded execution model.

Both partitioners assign every vertex to one of ``n_shards`` shards and
are fully deterministic (no RNG, no iteration-order dependence), so the
partition -- and therefore the simulated communication volume of the
distributed peel -- is reproducible bit for bit:

* :func:`hash_partition` -- the cheap baseline: a multiplicative hash of
  the vertex id, oblivious to structure.  Expected cut fraction is
  ``1 - 1/n_shards``.
* :func:`mincut_partition` -- greedy label-propagation refinement of the
  hash seed: sweep vertices in id order and move each to the shard
  holding the plurality of its neighbors, subject to a balance cap.
  Minimizing cut edges keeps s-cliques shard-local, which directly cuts
  the cross-shard count-decrement traffic (docs/sharding.md).

Partition quality is measured by
:func:`repro.graph.stats.partition_statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.runtime import CostTracker

#: Knuth's multiplicative hash constant (golden ratio of 2^32).
_HASH_MULT = 2654435761
_HASH_MOD = 1 << 32


@dataclass(frozen=True)
class Partition:
    """A vertex -> shard assignment (``shard_of[v]`` in ``[0, n_shards)``)."""

    n_shards: int
    shard_of: np.ndarray
    partitioner: str

    def shard_sizes(self) -> np.ndarray:
        """Vertices per shard."""
        return np.bincount(self.shard_of, minlength=self.n_shards)


def hash_partition(graph: CSRGraph, n_shards: int,
                   tracker: CostTracker | None = None) -> Partition:
    """Structure-oblivious baseline: shard by multiplicative vertex hash."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    ids = np.arange(graph.n, dtype=np.uint64)
    shard = ((ids * _HASH_MULT) % _HASH_MOD) % n_shards
    if tracker is not None:
        tracker.add_work_int(graph.n)
    return Partition(n_shards, shard.astype(np.int64), "hash")


def mincut_partition(graph: CSRGraph, n_shards: int,
                     tracker: CostTracker | None = None,
                     sweeps: int = 4, slack: float = 1.1) -> Partition:
    """Greedy label propagation minimizing cut edges.

    Starting from :func:`hash_partition`, run up to ``sweeps`` passes over
    the vertices in ascending id order; move a vertex to the shard owning
    strictly more of its neighbors than its current shard does, unless the
    target shard is already at the balance cap
    ``ceil(n / n_shards * slack)``.  Ties break toward the lowest shard
    id, and sweeps stop early once a full pass moves nothing -- both
    choices keep the result deterministic.
    """
    seed = hash_partition(graph, n_shards, tracker)
    if n_shards == 1 or graph.n == 0:
        return Partition(n_shards, seed.shard_of.copy(), "mincut")
    # The sweep is inherently sequential (each move changes later
    # tallies), so it runs over Python lists: one small-int tally per
    # vertex instead of a bincount/argmax round trip.
    offsets = graph.offsets.tolist()
    targets = graph.targets.tolist()
    shard = seed.shard_of.tolist()
    sizes = np.bincount(seed.shard_of, minlength=n_shards).tolist()
    cap = int(ceil(graph.n / n_shards * slack))
    for _ in range(sweeps):
        if tracker is not None:
            # 1 + deg(v) per visited vertex.
            tracker.add_work_int(graph.n + len(targets))
        moved = 0
        for v in range(graph.n):
            lo, hi = offsets[v], offsets[v + 1]
            if lo == hi:
                continue
            tallies = [0] * n_shards
            for w in targets[lo:hi]:
                tallies[shard[w]] += 1
            current = shard[v]
            top = max(tallies)
            best = tallies.index(top)  # lowest shard id among ties
            if best == current or top <= tallies[current]:
                continue
            if sizes[best] >= cap:
                continue
            shard[v] = best
            sizes[best] += 1
            sizes[current] -= 1
            moved += 1
        if moved == 0:
            break
    return Partition(n_shards, np.asarray(shard, dtype=np.int64), "mincut")


PARTITIONERS = {
    "hash": hash_partition,
    "mincut": mincut_partition,
}
