"""Fraud-ring detection in a synthetic transaction graph.

Collusive fraud (fake reviews, money muling, bot farms) shows up as small,
unusually dense subgraphs: every participant interacts with most others.
Spam/fraud detection is one of the dense-subgraph applications motivating
the paper's introduction (Gibson et al.; Angel et al.).

This example builds a transaction graph where honest users transact along
a heavy-tailed random pattern while fraud rings transact among themselves,
then ranks vertices by their maximum (2,4)-core number --- edges inside a
ring participate in many 4-cliques, honest edges almost never do --- and
reports detection quality at each threshold.

Run with:  python examples/fraud_rings.py
"""

from collections import defaultdict

import numpy as np

from repro import CSRGraph, arb_nucleus_decomp
from repro.analysis import HierarchyIndex, nucleus_hierarchy
from repro.graph.generators import rmat_graph


def build_transaction_graph(seed: int = 11):
    rng = np.random.default_rng(seed)
    base = rmat_graph(9, 5, seed=seed)  # heavy-tailed honest traffic
    n = base.n
    edges = [tuple(e) for e in base.edges()]
    rings = []
    for _ in range(4):
        members = rng.choice(n, size=9, replace=False)
        rings.append({int(v) for v in members})
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if rng.random() < 0.9:
                    edges.append((int(u), int(v)))
    fraud = set().union(*rings)
    return CSRGraph.from_edges(n, edges), fraud, rings


def vertex_scores(result) -> dict[int, int]:
    """Score each vertex by the max (2,4)-core of any incident edge."""
    score: dict[int, int] = defaultdict(int)
    for (u, v), core in result.as_dict().items():
        score[u] = max(score[u], core)
        score[v] = max(score[v], core)
    return score


def ring_drilldown(graph, result, rings) -> None:
    """Drill into each planted ring through the nucleus query service.

    The hierarchy refines the threshold sweep: instead of one global
    cutoff, each ring is recovered as the *connected* nucleus around any
    one of its transactions --- the "densest nucleus containing edge
    (u, v)" query, answered from the precomputed indexes.
    """
    hierarchy = nucleus_hierarchy(graph, result)
    index = HierarchyIndex(hierarchy)
    print("\nring drill-down via the nucleus query service "
          f"[{len(hierarchy)} nuclei, top level "
          f"{max(index.levels())}]:")
    for number, ring in enumerate(rings):
        u, v = sorted(ring)[:2]
        nucleus = index.densest_containing_edge(u, v)
        if nucleus is None:
            print(f"  ring {number}: transaction ({u}, {v}) is in no "
                  f"nucleus")
            continue
        vertices = nucleus.vertices
        caught = len(vertices & ring)
        print(f"  ring {number}: densest nucleus around transaction "
              f"({u}, {v}) sits at level {nucleus.level}, covers "
              f"{caught}/{len(ring)} members with "
              f"{len(vertices) - caught} outsiders")


def main() -> None:
    graph, fraud, rings = build_transaction_graph()
    print(f"transaction graph: n={graph.n}, m={graph.m}, "
          f"{len(rings)} rings, {len(fraud)} fraudulent accounts")
    result = arb_nucleus_decomp(graph, r=2, s=4)
    score = vertex_scores(result)
    thresholds = sorted({c for c in score.values() if c > 0})
    print(f"\n{'threshold':>9}  {'flagged':>7}  {'precision':>9}  "
          f"{'recall':>7}")
    for threshold in thresholds:
        flagged = {v for v, c in score.items() if c >= threshold}
        hits = len(flagged & fraud)
        precision = hits / len(flagged) if flagged else 0.0
        recall = hits / len(fraud)
        print(f"{threshold:>9}  {len(flagged):>7}  {precision:>9.2f}  "
              f"{recall:>7.2f}")
    best = max(thresholds,
               key=lambda t: min(
                   len({v for v, c in score.items() if c >= t} & fraud)
                   / max(1, len({v for v, c in score.items() if c >= t})),
                   len({v for v, c in score.items() if c >= t} & fraud)
                   / len(fraud)))
    ring_drilldown(graph, result, rings)
    flagged = {v for v, c in score.items() if c >= best}
    print(f"\nbest threshold {best}: flags {len(flagged)} accounts, "
          f"{len(flagged & fraud)} of them truly fraudulent")


if __name__ == "__main__":
    main()
