"""Set-associative LRU cache simulator.

The practical optimizations of Section 5 are, at heart, cache optimizations:
contiguous slabs for the last-level tables (5.2), stored up-pointers instead
of binary searches (5.3), and orientation-order relabeling (5.4) all change
*which simulated addresses are touched in what order* when the clique table
``T`` is accessed.  Since we cannot observe a real machine's caches from
Python, this module simulates one: data structures map their cells into a
flat simulated address space, and every access is fed through a classic
set-associative LRU model.  Miss counts then feed the
:class:`~repro.parallel.runtime.MachineModel` time estimate.

The default geometry is a small L2-like cache; the figures only compare
configurations against each other, so the geometry's role is to make
locality differences visible, not to match Cascade Lake byte-for-byte.
"""

from __future__ import annotations

import numpy as np


class CacheSimulator:
    """A ``n_sets x ways`` LRU cache over a flat word-addressed space.

    Parameters
    ----------
    line_words:
        Words (table cells) per cache line; must be a power of two.
    n_sets:
        Number of sets; must be a power of two.
    ways:
        Associativity.
    sample:
        Simulate only every ``sample``-th access (1 = all).  Miss and access
        counts are scaled back up so ratios remain comparable.
    """

    def __init__(self, line_words: int = 8, n_sets: int = 256, ways: int = 8,
                 sample: int = 1):
        for name, value in (("line_words", line_words), ("n_sets", n_sets)):
            if value < 1 or value & (value - 1):
                raise ValueError(
                    f"{name} must be a positive power of two, got {value}")
        if ways < 1:
            raise ValueError(f"ways must be at least 1, got {ways}")
        self.line_bits = line_words.bit_length() - 1
        self.set_mask = n_sets - 1
        self.ways = ways
        self.sample = max(1, sample)
        self._tags = np.full((n_sets, ways), -1, dtype=np.int64)
        self._stamp = np.zeros((n_sets, ways), dtype=np.int64)
        self._clock = 0
        self._skip = 0
        self._raw_accesses = 0
        self._raw_misses = 0

    @property
    def accesses(self) -> int:
        return self._raw_accesses * self.sample

    @property
    def misses(self) -> int:
        return self._raw_misses * self.sample

    @property
    def miss_rate(self) -> float:
        return self._raw_misses / self._raw_accesses if self._raw_accesses else 0.0

    def access(self, address: int) -> bool | None:
        """Touch ``address``.

        Returns True on a simulated hit, False on a simulated miss, and
        ``None`` when the access was skipped by sampling (``sample > 1``).
        Skipped accesses are *not* hits --- callers attributing misses (e.g.
        per-phase profiling) must only act on an explicit False.
        """
        if self.sample > 1:
            self._skip += 1
            if self._skip < self.sample:
                return None
            self._skip = 0
        self._raw_accesses += 1
        self._clock += 1
        line = address >> self.line_bits
        set_idx = line & self.set_mask
        tags = self._tags[set_idx]
        hit = np.flatnonzero(tags == line)
        if hit.size:
            self._stamp[set_idx, hit[0]] = self._clock
            return True
        self._raw_misses += 1
        victim = int(np.argmin(self._stamp[set_idx]))
        tags[victim] = line
        self._stamp[set_idx, victim] = self._clock
        return False

    def access_many(self, addresses) -> int:
        """Touch an ordered batch of addresses; returns the raw miss count.

        Exactly equivalent to calling :meth:`access` once per element in
        order --- same sampling phase, same LRU clock values, same
        first-minimum victim choice --- but grouped per cache set so the
        Python-level work is proportional to the number of *simulated*
        accesses rather than paying numpy dispatch per call.  Accesses to
        different sets never interact (each set has its own tag/stamp rows
        and the global clock values are preserved per access), which is what
        makes the per-set replay legal.

        Within one set's stream, a repeat of the line just touched is always
        a hit on the same way whose only effect is to move that way's stamp
        to the later clock.  Each run of consecutive same-line accesses
        therefore collapses to its head carrying the clock of the run's last
        access, and the LRU loop walks run heads only.
        """
        addrs = np.asarray(addresses, dtype=np.int64).ravel()
        n = addrs.size
        if n == 0:
            return 0
        if self.sample > 1:
            # access() simulates every call where the incremented _skip
            # reaches sample; element i (0-based) is therefore simulated
            # iff (_skip + i + 1) % sample == 0, and the final phase is
            # (_skip + n) % sample regardless of how many fired.
            offsets = np.arange(1, n + 1, dtype=np.int64)
            simulated = np.flatnonzero((self._skip + offsets) % self.sample == 0)
            self._skip = (self._skip + n) % self.sample
            addrs = addrs[simulated]
            n = addrs.size
            if n == 0:
                return 0
        lines = addrs >> self.line_bits
        order = np.argsort(lines & self.set_mask, kind="stable")
        lines = lines[order]
        # A line fixes its set, so equal neighbours in the set-sorted stream
        # are a same-line run inside one set's stream.
        heads = np.flatnonzero(np.concatenate(([True],
                                               lines[1:] != lines[:-1])))
        last = np.append(heads[1:], n) - 1
        run_lines = lines[heads]
        run_clocks = (self._clock + 1 + order[last]).tolist()
        run_sets = run_lines & self.set_mask
        self._clock += n
        self._raw_accesses += n
        set_starts = np.flatnonzero(np.concatenate(
            ([True], run_sets[1:] != run_sets[:-1])))
        touched = run_sets[set_starts]
        bounds = np.append(set_starts, run_lines.size).tolist()
        run_lines = run_lines.tolist()
        tag_rows = self._tags[touched].tolist()
        stamp_rows = self._stamp[touched].tolist()
        misses = 0
        for g, tags in enumerate(tag_rows):
            stamps = stamp_rows[g]
            for i in range(bounds[g], bounds[g + 1]):
                line = run_lines[i]
                if line in tags:
                    way = tags.index(line)
                else:
                    misses += 1
                    way = stamps.index(min(stamps))
                    tags[way] = line
                stamps[way] = run_clocks[i]
        self._tags[touched] = tag_rows
        self._stamp[touched] = stamp_rows
        self._raw_misses += misses
        return misses

    def reset_counters(self) -> None:
        """Zero the counters *and* the sampling/recency state.

        Resetting must not let the sampling phase (``_skip``) or the LRU
        clock bleed from one measured region into the next, otherwise two
        identical access streams measured back to back disagree.  Cache
        *contents* (the tags) survive --- only measurement state resets; the
        recency stamps are re-zeroed with the clock so stamp comparisons
        stay consistent.
        """
        self._raw_accesses = 0
        self._raw_misses = 0
        self._skip = 0
        self._clock = 0
        self._stamp[:] = 0

    def reset(self) -> None:
        """Full reset: counters, sampling state, and cache contents."""
        self.reset_counters()
        self._tags[:] = -1


class AddressSpace:
    """Allocates disjoint simulated address ranges to data structures.

    Non-contiguous allocations are deliberately spread out (separated by a
    random-ish stride) the way independent ``malloc`` blocks are, while
    contiguous allocation packs ranges back to back --- reproducing the
    §5.2 distinction the cache simulator is meant to observe.
    """

    #: Gap inserted between independently-allocated blocks, mimicking heap
    #: fragmentation between separate allocations.
    SCATTER_GAP = 4096 + 64

    def __init__(self) -> None:
        self._next = 0

    def alloc(self, words: int, contiguous_with_previous: bool = False) -> int:
        """Reserve ``words`` cells; returns the base address."""
        if not contiguous_with_previous:
            self._next += self.SCATTER_GAP
        base = self._next
        self._next += int(words)
        return base

    def alloc_many(self, words) -> np.ndarray:
        """Bulk :meth:`alloc` of independent blocks; returns their bases.

        Equal to one non-contiguous :meth:`alloc` per element in order.
        """
        words = np.asarray(words, dtype=np.int64)
        ends = self._next + self.SCATTER_GAP * np.arange(
            1, words.size + 1, dtype=np.int64) + np.cumsum(words)
        if words.size:
            self._next = int(ends[-1])
        return ends - words
