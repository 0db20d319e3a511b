"""Configuration of ARB-NUCLEUS-DECOMP's optimization knobs.

Every practical optimization of Section 5 is a switch here, so the tuning
experiments of Section 6.2 (Figures 8--11) are sweeps over
:class:`NucleusConfig` values.  Two factory methods encode the paper's
findings: :meth:`NucleusConfig.unoptimized` is the baseline configuration
of Section 6.2, and :meth:`NucleusConfig.optimal` is the best setting the
paper lands on (which differs between (2,3) and general (r,s)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cliques.encode import min_levels


@dataclass(frozen=True)
class NucleusConfig:
    """All knobs of the nucleus decomposition implementation.

    Attributes
    ----------
    levels:
        Levels of the clique table ``T`` (Section 5.1); 1 = one-level.
    table_style:
        ``"array"`` = the two-level array+hash combination; ``"hash"`` =
        l-multi-level nested hash tables.  Ignored when ``levels == 1``.
    contiguous:
        Allocate last-level tables in one contiguous slab (Section 5.2).
    inverse_map:
        ``"binary_search"`` or ``"stored_pointers"`` (Section 5.3).
    relabel:
        Rename vertices by orientation rank before building ``T``
        (Section 5.4), making discovery order equal sorted order.
    aggregation:
        ``"array"``, ``"list_buffer"``, or ``"hash"`` for the updated-set
        ``U`` (Section 5.5).
    contraction:
        Periodically filter peeled edges out of adjacency lists; only legal
        for (r,s) = (2,3) (Section 5.6).
    bucketing:
        ``"julienne"`` (practical default), ``"fibonacci"`` (Theorem 4.2's
        structure), or ``"dense"`` (appendix variant).
    orientation:
        O(alpha)-orientation algorithm (see :mod:`repro.cliques.orient`).
    update_arithmetic:
        ``"fractional"`` -- the paper's atomic ``-1/a`` updates;
        ``"representative"`` -- exact-integer equivalent where only the
        least peeled r-clique of an s-clique subtracts 1.
    threads:
        Simulated thread count (drives the list buffer's cursor count and
        contention accounting).
    buffer_size:
        Block size of the list buffer.
    bucket_window:
        Number of low buckets Julienne materializes at once.
    """

    levels: int = 2
    table_style: str = "array"
    contiguous: bool = True
    inverse_map: str = "stored_pointers"
    relabel: bool = True
    aggregation: str = "list_buffer"
    contraction: bool = False
    bucketing: str = "julienne"
    orientation: str = "goodrich_pszona"
    update_arithmetic: str = "fractional"
    threads: int = 60
    buffer_size: int = 64
    bucket_window: int = 64

    @classmethod
    def unoptimized(cls) -> "NucleusConfig":
        """Section 6.2's baseline: one-level T, no relabeling, simple-array
        aggregation, no contraction."""
        return cls(levels=1, table_style="hash", contiguous=False,
                   inverse_map="binary_search", relabel=False,
                   aggregation="array", contraction=False)

    @classmethod
    def optimal(cls, r: int, s: int) -> "NucleusConfig":
        """The best overall setting found in Section 6.2.

        For (2,3): two-level T with contiguous space and stored pointers,
        hash-table aggregation, graph contraction, no relabeling.  For all
        other (r,s): the same T, list-buffer aggregation, graph relabeling.
        """
        if (r, s) == (2, 3):
            return cls(aggregation="hash", contraction=True, relabel=False)
        return cls(aggregation="list_buffer", relabel=True)

    def validated(self, n: int, r: int, s: int) -> "NucleusConfig":
        """Check the configuration against a concrete problem instance.

        Raises on impossible combinations; widens the table automatically
        when one-level keys cannot fit (the paper's infeasibility point for
        large r), returning a possibly-adjusted copy.
        """
        if not 1 <= r < s:
            raise ValueError(f"need 1 <= r < s, got r={r}, s={s}")
        if self.update_arithmetic not in ("fractional", "representative"):
            raise ValueError(f"unknown update_arithmetic "
                             f"{self.update_arithmetic!r}; options: "
                             "'fractional', 'representative'")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.contraction and (r, s) != (2, 3):
            raise ValueError("graph contraction only applies to (2,3) "
                             "nucleus decomposition (Section 5.6)")
        if self.inverse_map == "stored_pointers" and not self.contiguous:
            raise ValueError("stored pointers require contiguous memory")
        cfg = self
        if cfg.levels > r:
            cfg = replace(cfg, levels=r,
                          table_style="hash" if r != 2 else cfg.table_style)
        needed = min_levels(n, r)
        if cfg.levels < needed:
            cfg = replace(cfg, levels=needed,
                          table_style="hash" if needed != 2 else "array")
        if cfg.levels == 1:
            cfg = replace(cfg, inverse_map="binary_search", contiguous=False)
        if cfg.levels != 2 and cfg.table_style == "array":
            cfg = replace(cfg, table_style="hash")
        return cfg
