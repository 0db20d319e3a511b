"""Tests for graph contraction (Section 5.6) and relabeling (Section 5.4)."""

import numpy as np
import pytest

from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.core.verify import brute_force_nucleus
from repro.graph.contraction import ContractionManager, WorkingGraph
from repro.graph.generators import complete_graph, erdos_renyi
from repro.graph.relabel import relabel_by_rank
from repro.cliques.orient import orientation_rank
from repro.parallel.runtime import CostTracker


class TestWorkingGraph:
    def test_starts_as_views(self, fig1):
        w = WorkingGraph(fig1)
        assert list(w.neighbors(6)) == [2, 3]
        assert w.degree(0) == 5

    def test_replace(self, fig1):
        w = WorkingGraph(fig1)
        w.replace(0, np.array([1, 2], dtype=np.int64))
        assert w.degree(0) == 2
        # Other vertices untouched.
        assert w.degree(1) == 5

    def test_replace_only_shrinks(self, fig1):
        w = WorkingGraph(fig1)
        with pytest.raises(ValueError):
            w.replace(6, np.array([0, 1, 2], dtype=np.int64))

    def test_aliases_targets_until_first_write(self, fig1):
        w = WorkingGraph(fig1)
        assert w.adj is fig1.targets
        w.replace(0, np.array([1, 2], dtype=np.int64))
        assert w.adj is not fig1.targets
        assert list(fig1.neighbors(0)) == [1, 2, 3, 4, 5]


def _gather_matches_neighbors(working, vertices):
    values, lens = working.gather(np.asarray(vertices, dtype=np.int64))
    expected = [working.neighbors(int(v)) for v in vertices]
    assert lens.tolist() == [e.size for e in expected]
    flat = np.concatenate(expected) if expected else np.empty(0)
    assert values.tolist() == flat.tolist()


def _peel_and_contract(g, rounds, batched):
    """Peel each round's edges, then offer a contraction, through one of
    the two paths; returns the working graph, the manager and the
    tracker."""
    tracker = CostTracker()
    w = WorkingGraph(g)
    manager = ContractionManager(w, tracker)
    dead = set()

    def alive(u, v):
        return (min(u, v), max(u, v)) not in dead

    def alive_many(pairs):
        return np.array([alive(int(u), int(v)) for u, v in pairs],
                        dtype=bool)

    for peeled in rounds:
        dead.update((int(u), int(v)) for u, v in peeled)
        if batched:
            manager.note_peeled_edges(peeled)
            manager.maybe_contract(alive, edges_alive_many=alive_many)
        else:
            for u, v in peeled:
                manager.note_peeled_edge(int(u), int(v))
            manager.maybe_contract(alive)
    return w, manager, tracker


class TestArrayContraction:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_rounds", [1, 3, 8])
    def test_matches_edge_alive_path(self, seed, n_rounds):
        g = erdos_renyi(30, 160, seed=seed)
        order = np.random.default_rng(seed).permutation(g.m)
        rounds = [g.edges()[chunk]
                  for chunk in np.array_split(order, n_rounds)]
        runs = []
        for batched in (False, True):
            w, manager, tracker = _peel_and_contract(g, rounds, batched)
            runs.append(([w.neighbors(v).tolist() for v in range(g.n)],
                         manager.contractions, manager._lost_since.tolist(),
                         tracker.total.work, tracker.span))
        assert runs[0] == runs[1]
        assert runs[0][1] >= 1

    def test_note_peeled_edges_matches_loop(self):
        g = complete_graph(7)
        edges = g.edges()[:12]
        single, bulk = (ContractionManager(WorkingGraph(g)) for _ in range(2))
        for u, v in edges:
            single.note_peeled_edge(int(u), int(v))
        bulk.note_peeled_edges(edges)
        assert single._peeled_since == bulk._peeled_since == 12
        assert single._lost_since.tolist() == bulk._lost_since.tolist()


class TestGather:
    def test_matches_neighbors_before_and_after_contraction(self):
        g = erdos_renyi(40, 220, seed=3)
        peeled = g.edges()[::2]
        for batched in (False, True):
            w = WorkingGraph(g)
            _gather_matches_neighbors(w, range(g.n))
            _gather_matches_neighbors(w, [5, 5, 0, 39, 17])
            w, manager, _ = _peel_and_contract(g, [peeled], batched)
            assert manager.contractions == 1
            _gather_matches_neighbors(w, range(g.n))
            _gather_matches_neighbors(w, [39, 0, 0, 12])
            dead = {(int(u), int(v)) for u, v in peeled}
            for v in range(g.n):
                live = [int(x) for x in g.neighbors(v)
                        if (min(v, int(x)), max(v, int(x))) not in dead]
                kept = w.neighbors(v).tolist()
                # A rebuilt list holds exactly the live neighbors; an
                # untouched one still holds all of them.
                assert kept == live or kept == g.neighbors(v).tolist()

    def test_empty_selection(self, fig1):
        values, lens = WorkingGraph(fig1).gather(
            np.empty(0, dtype=np.int64))
        assert values.size == 0 and lens.size == 0


class TestContractionManager:
    def test_does_not_fire_below_threshold(self, fig1):
        w = WorkingGraph(fig1)
        manager = ContractionManager(w)
        manager.note_peeled_edge(0, 1)
        assert not manager.maybe_contract(lambda u, v: True)

    def test_fires_after_enough_peels(self):
        g = complete_graph(8)
        w = WorkingGraph(g)
        manager = ContractionManager(w)
        peeled = set()
        for u, v in g.edges()[:2 * g.n + 1]:
            manager.note_peeled_edge(int(u), int(v))
            peeled.add((int(u), int(v)))
        fired = manager.maybe_contract(
            lambda u, v: ((u, v) if u < v else (v, u)) not in peeled)
        assert fired
        assert manager.contractions == 1

    def test_contraction_filters_dead_edges(self):
        g = complete_graph(6)
        w = WorkingGraph(g)
        manager = ContractionManager(w)
        # Peel every edge of vertex 0 (it loses all 5 = more than 1/4).
        for v in range(1, 6):
            manager.note_peeled_edge(0, v)
        for u, v in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]:
            manager.note_peeled_edge(u, v)
        dead = {(0, v) for v in range(1, 6)} | {
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)}
        manager.maybe_contract(lambda u, v: ((min(u, v), max(u, v))
                                             not in dead))
        assert w.degree(0) == 0

    def test_charges_tracker(self):
        g = complete_graph(8)
        tracker = CostTracker()
        w = WorkingGraph(g)
        manager = ContractionManager(w, tracker)
        for u, v in g.edges()[:17]:
            manager.note_peeled_edge(int(u), int(v))
        manager.maybe_contract(lambda u, v: False)
        assert tracker.work >= g.n


class TestContractionInDecomposition:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_uncontracted(self, seed):
        g = erdos_renyi(50, 350, seed=seed)
        expected = brute_force_nucleus(g, 2, 3)
        cfg = NucleusConfig(contraction=True, aggregation="hash",
                            relabel=False)
        assert arb_nucleus_decomp(g, 2, 3, cfg).as_dict() == expected

    def test_contraction_happens_on_peel_heavy_graph(self):
        g = erdos_renyi(40, 500, seed=9)  # dense: many peeled edges
        tracker = CostTracker()
        cfg = NucleusConfig(contraction=True, aggregation="hash",
                            relabel=False)
        result = arb_nucleus_decomp(g, 2, 3, cfg, tracker=tracker)
        assert result.as_dict() == brute_force_nucleus(g, 2, 3)


class TestRelabel:
    def test_round_trip(self, fig1):
        rank = orientation_rank(fig1, "degeneracy")
        relabeled, original_of = relabel_by_rank(fig1, rank)
        assert relabeled.m == fig1.m
        for u, v in relabeled.edges():
            assert fig1.has_edge(int(original_of[u]), int(original_of[v]))

    def test_identity_rank(self, fig1):
        relabeled, original_of = relabel_by_rank(fig1, np.arange(7))
        assert np.array_equal(relabeled.edges(), fig1.edges())
        assert list(original_of) == list(range(7))

    def test_decomposition_reports_original_ids(self, fig1):
        with_r = arb_nucleus_decomp(fig1, 3, 4, NucleusConfig(relabel=True))
        without = arb_nucleus_decomp(fig1, 3, 4, NucleusConfig(relabel=False))
        assert with_r.as_dict() == without.as_dict()
