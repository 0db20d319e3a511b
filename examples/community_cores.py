"""Dense-community recovery: why nuclei beat k-cores (the paper's pitch).

The nucleus decomposition generalizes k-core and k-truss because cliques
capture *higher-order* density.  The classic failure mode of the k-core is
a dense **bipartite** block: every vertex has high degree (so high
coreness) but the block contains no triangles at all, let alone cliques.

This example plants two things into a sparse background:

* three clique-like communities (the structure we want to find), and
* one dense bipartite block (a decoy: high-degree but trianglefree).

It then flags, for each decomposition level, the vertices in the top core,
and measures precision against the clique-like communities.  The k-core is
fooled by the decoy; (2,3) and (3,4) nuclei are not.

Run with:  python examples/community_cores.py
"""

import numpy as np

from repro import CSRGraph, arb_nucleus_decomp
from repro.analysis import HierarchyIndex, nucleus_hierarchy
from repro.graph.generators import erdos_renyi


def build_graph(seed: int = 7):
    rng = np.random.default_rng(seed)
    n = 400
    background = erdos_renyi(n, 900, seed=seed)
    edges = [tuple(e) for e in background.edges()]
    communities: set[int] = set()
    for _ in range(3):
        members = rng.choice(200, size=14, replace=False)
        communities.update(int(v) for v in members)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if rng.random() < 0.85:  # near-clique, not perfect
                    edges.append((int(u), int(v)))
    # The decoy: a dense bipartite block among vertices 300..379.
    left = list(range(300, 340))
    right = list(range(340, 380))
    decoy = set(left) | set(right)
    for u in left:
        for v in right:
            if rng.random() < 0.45:
                edges.append((u, v))
    return CSRGraph.from_edges(n, edges), communities, decoy


def top_core_vertices(graph, r, s):
    result = arb_nucleus_decomp(graph, r, s)
    cores = result.as_dict()
    vertices = {v for clique, c in cores.items()
                if c == result.max_core for v in clique}
    return vertices, result.max_core


def main() -> None:
    graph, communities, decoy = build_graph()
    print(f"graph: n={graph.n}, m={graph.m}")
    print(f"planted: {len(communities)} community vertices, "
          f"{len(decoy)} decoy (bipartite) vertices\n")
    print(f"{'decomposition':>14}  {'max core':>8}  {'|top|':>6}  "
          f"{'precision':>9}  {'decoy hits':>10}")
    for r, s in ((1, 2), (2, 3), (3, 4)):
        vertices, max_core = top_core_vertices(graph, r, s)
        hits = len(vertices & communities)
        precision = hits / len(vertices) if vertices else 0.0
        print(f"{f'({r},{s})':>14}  {max_core:>8}  {len(vertices):>6}  "
              f"{precision:>9.2f}  {len(vertices & decoy):>10}")
    print("\nThe k-core's top level is the triangle-free bipartite decoy;")
    print("the (2,3) and (3,4) nuclei land on the planted communities,")
    print("because their density requirement is clique-based.")

    # The flat top level lumps all communities into one vertex set; the
    # query service over the connected-nucleus hierarchy separates them.
    result = arb_nucleus_decomp(graph, 2, 3)
    hierarchy = nucleus_hierarchy(graph, result)
    index = HierarchyIndex(hierarchy)
    top = max(index.levels())
    tops = index.at_level(top)
    print(f"\nquery service on the 2-3 nucleus hierarchy "
          f"[{len(hierarchy)} nuclei]: {len(tops)} separate "
          f"nucleus(es) at top level {top}")
    for nucleus in tops:
        vertices = nucleus.vertices
        print(f"  node {nucleus.node_id}: {len(vertices)} vertices, "
              f"{len(vertices & communities)} of them planted")
    probe = min(tops[0].vertices & communities)
    deepest = index.densest_containing_vertex(probe)
    print(f"densest nucleus containing vertex {probe}: node "
          f"{deepest.node_id} at level {deepest.level}, "
          f"{len(deepest.vertices)} vertices")


if __name__ == "__main__":
    main()
