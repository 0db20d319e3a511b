"""Reading and writing graphs in SNAP edge-list format.

The paper's inputs are SNAP graphs distributed as whitespace-separated
edge lists with ``#`` comment lines (often gzip-compressed).  This module
parses that format (and writes it back), compacting arbitrary vertex ids
to ``0..n-1``.
"""

from __future__ import annotations

import gzip

import numpy as np

from .csr import CSRGraph


def _open_text(path, mode: str = "rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode.rstrip("t") or "r")


def read_edge_list(path, relabel: bool = True) -> CSRGraph:
    """Read a SNAP-style edge list file into a :class:`CSRGraph`.

    Lines starting with ``#`` or ``%`` are comments.  Each remaining line
    holds two integer ids (any extra columns, e.g. weights, are ignored).
    With ``relabel=True`` (default) ids are compacted to ``0..n-1`` in
    sorted order of the original ids; with ``relabel=False`` they are
    used as-is and must be non-negative.  Files ending in ``.gz`` are
    decompressed transparently (SNAP's distribution format).

    Raises ``ValueError`` naming the file and line number for a line with
    fewer than two columns, a non-integer id, or (``relabel=False``) a
    negative id.
    """
    sources, targets = [], []
    with _open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            parts = line.split()
            where = f"{path}:{lineno}"
            if len(parts) < 2:
                raise ValueError(f"{where}: expected two vertex ids, "
                                 f"got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{where}: vertex ids must be integers, "
                                 f"got {line!r}") from None
            if not relabel and min(u, v) < 0:
                raise ValueError(f"{where}: negative vertex id in {line!r} "
                                 f"(only allowed with relabel=True)")
            sources.append(u)
            targets.append(v)
    if not sources:
        return CSRGraph.from_edges(0 if relabel else 1, [])
    u = np.asarray(sources, dtype=np.int64)
    v = np.asarray(targets, dtype=np.int64)
    if relabel:
        ids = np.unique(np.concatenate([u, v]))
        u = np.searchsorted(ids, u)
        v = np.searchsorted(ids, v)
        n = ids.size
    else:
        n = int(max(u.max(), v.max())) + 1
    return CSRGraph.from_edges(n, np.column_stack([u, v]))


def write_edge_list(graph: CSRGraph, path, header: str | None = None) -> None:
    """Write ``graph`` as a SNAP-style edge list (each edge once, u < v);
    a ``.gz`` suffix selects gzip compression."""
    with _open_text(path, "wt") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# n={graph.n} m={graph.m}\n")
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\n")
