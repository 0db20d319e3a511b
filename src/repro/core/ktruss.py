"""k-truss decomposition: the (2,3) specialization of the nucleus problem.

The paper frames k-truss as the k-(2,3) nucleus (Section 3) and reports it
under the *triangle-core* convention: the core number of an edge is the
maximum c such that the edge lives in a subgraph where every edge is in at
least c triangles (classic k-truss membership corresponds to c >= k - 2).

* :func:`k_truss` -- the tuned (2,3) path through ARB-NUCLEUS-DECOMP,
  using the paper's optimal configuration for (2,3): hash-table update
  aggregation plus graph contraction;
* :func:`trussness` -- convenience alias returning classical k-truss
  numbers (triangle-core + 2);
* :func:`max_truss_subgraph` -- the edge set of the innermost truss.
"""

from __future__ import annotations

from ..graph.csr import CSRGraph
from ..parallel.runtime import CostTracker
from .config import NucleusConfig
from .decomp import NucleusResult, arb_nucleus_decomp


def k_truss(graph: CSRGraph, tracker: CostTracker | None = None,
            config: NucleusConfig | None = None) -> NucleusResult:
    """Triangle-core numbers of every edge via (2,3) nucleus peeling."""
    return arb_nucleus_decomp(graph, 2, 3,
                              config or NucleusConfig.optimal(2, 3), tracker)


def trussness(graph: CSRGraph) -> dict[tuple[int, int], int]:
    """Classical k-truss numbers: triangle-core + 2 per edge."""
    result = k_truss(graph)
    return {edge: core + 2 for edge, core in result.as_dict().items()}


def max_truss_subgraph(graph: CSRGraph) -> tuple[CSRGraph, list]:
    """The innermost (maximum) truss as an induced structure.

    Returns ``(subgraph, vertices)`` where ``subgraph`` contains exactly
    the edges at the maximum triangle-core, relabeled to ``0..k-1``, and
    ``vertices`` maps the subgraph's ids back to the input graph's.
    """
    result = k_truss(graph)
    cores = result.as_dict()
    top_edges = [edge for edge, core in cores.items()
                 if core == result.max_core]
    vertices = sorted({v for edge in top_edges for v in edge})
    local = {v: i for i, v in enumerate(vertices)}
    sub = CSRGraph.from_edges(
        len(vertices), [(local[u], local[v]) for u, v in top_edges])
    return sub, vertices
