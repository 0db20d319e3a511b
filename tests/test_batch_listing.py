"""Differential tests: the batch listing engine vs the scalar recursion.

The frontier engine's contract (docs/cost-model.md) mirrors the batch
peeling engine's: for any graph, the frontier engine (the default) must
discover the same cliques in the same order and charge bit-for-bit
identical simulated costs --- work (both bins), span, rounds, atomics,
contention, table probes, cliques, and cache misses --- as the scalar
recursion a ``CostTracker(oracle=True)`` runs, whether it runs
standalone, inside the count phase, or inside the batch peeling engine's
UPDATE path.
"""

import numpy as np
import pytest

import repro.cliques.listing as listing
import repro.core.decomp as decomp
from repro.cliques.batchlist import batch_list_cliques, expand_cliques
from repro.cliques.counting import (edge_support, per_vertex_clique_counts,
                                    total_clique_count)
from repro.cliques.listing import collect_cliques, count_cliques
from repro.cliques.orient import orient
from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.graph.generators import complete_graph, erdos_renyi
from repro.machine.cache import CacheSimulator
from repro.parallel.runtime import CostTracker
from repro.sanitize.racecheck import RaceDetector

RS_PAIRS = [(1, 2), (2, 3), (2, 4), (3, 4)]
ORIENTATIONS = ["goodrich_pszona", "degeneracy"]


def _metrics(tracker: CostTracker) -> dict:
    totals = tracker.total
    out = {
        "work_int": totals.work_int, "work_frac": totals.work_frac,
        "span": tracker.span, "rounds": totals.rounds,
        "atomic": totals.atomic_ops, "contention": totals.contention,
        "probes": totals.table_probes, "cliques": totals.cliques_enumerated,
    }
    if tracker.cache is not None:
        out["cache_accesses"] = tracker.cache.accesses
        out["cache_misses"] = tracker.cache.misses
    return out


# -- kernel level: listing one oriented graph --------------------------------

class TestListingKernelParity:
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("method", ORIENTATIONS)
    def test_counts_and_charges(self, community60, c, method):
        dg, _ = orient(community60, method)
        t_scalar, t_batch = CostTracker(oracle=True), CostTracker()
        n_scalar = count_cliques(dg, c, t_scalar)
        n_batch = batch_list_cliques(dg, c, t_batch)
        assert n_scalar == n_batch
        assert _metrics(t_scalar) == _metrics(t_batch)

    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("method", ORIENTATIONS)
    def test_discovery_order(self, sparse100, c, method):
        """Block emission preserves the scalar DFS discovery order
        row for row, and the buffer-backed collector charges alike."""
        dg, _ = orient(sparse100, method)
        t_scalar, t_batch = CostTracker(oracle=True), CostTracker()
        rows_scalar = collect_cliques(dg, c, t_scalar)
        rows_batch = collect_cliques(dg, c, t_batch)
        assert rows_scalar.shape == rows_batch.shape
        assert np.array_equal(rows_scalar, rows_batch)
        assert _metrics(t_scalar) == _metrics(t_batch)

    def test_collect_growth_charges_match(self):
        """More cliques than the initial buffer capacity: both paths pay
        the same amortized-doubling copy charges."""
        graph = complete_graph(14)  # C(14,3) = 364 > the 256-row buffer
        dg, _ = orient(graph)
        t_scalar, t_batch = CostTracker(oracle=True), CostTracker()
        rows_scalar = collect_cliques(dg, 3, t_scalar)
        rows_batch = collect_cliques(dg, 3, t_batch)
        assert rows_scalar.shape[0] == 364
        assert np.array_equal(rows_scalar, rows_batch)
        assert _metrics(t_scalar) == _metrics(t_batch)
        # The growth copies are real work on top of the bare listing.
        t_bare = CostTracker()
        count_cliques(dg, 3, t_bare)
        assert t_scalar.total.work_int > t_bare.total.work_int

    def test_empty_result_keeps_width(self, star9):
        """A star has no triangles; the frontier drains before the
        emission level but the result keeps the full clique width."""
        dg, _ = orient(star9)
        blocks = []
        n = batch_list_cliques(dg, 3, sink=blocks.append)
        assert n == 0
        assert all(b.shape[1] == 3 for b in blocks)

    def test_expand_cliques_levels_zero(self, fig1):
        dg, _ = orient(fig1)
        bases = np.array([[0, 1], [2, 3]], dtype=np.int64)
        tracker = CostTracker()
        rows, base_of = expand_cliques(
            dg, bases, np.empty(0, dtype=np.int64),
            np.zeros(2, dtype=np.int64), 0, tracker)
        assert np.array_equal(rows, bases)
        assert np.array_equal(base_of, [0, 1])
        assert tracker.total.cliques_enumerated == 2


# -- counting conveniences ---------------------------------------------------

class TestCountingParity:
    @pytest.mark.parametrize("c", [3, 4])
    def test_total_clique_count(self, community60, c):
        t_scalar, t_batch = CostTracker(oracle=True), CostTracker()
        n_scalar = total_clique_count(community60, c, tracker=t_scalar)
        n_batch = total_clique_count(community60, c, tracker=t_batch)
        assert n_scalar == n_batch
        assert _metrics(t_scalar) == _metrics(t_batch)

    @pytest.mark.parametrize("c", [3, 4])
    def test_per_vertex_counts(self, community60, c):
        t_scalar, t_batch = CostTracker(oracle=True), CostTracker()
        scalar = per_vertex_clique_counts(community60, c, tracker=t_scalar)
        batch = per_vertex_clique_counts(community60, c, tracker=t_batch)
        assert np.array_equal(scalar, batch)
        assert _metrics(t_scalar) == _metrics(t_batch)

    def test_per_vertex_bump_charged(self, community60):
        """Satellite: each discovered clique increments c per-vertex
        counters --- exactly c extra work per clique over a bare count."""
        c = 3
        t_count, t_vertex = CostTracker(), CostTracker()
        n = total_clique_count(community60, c, tracker=t_count)
        per_vertex_clique_counts(community60, c, tracker=t_vertex)
        assert t_vertex.total.work_int - t_count.total.work_int == c * n

    def test_edge_support_values(self, fig1):
        """The vectorized edge_support reproduces the triangle-per-edge
        map (cross-checked against total triangle counts)."""
        support = edge_support(fig1)
        assert set(support) == {(int(u), int(v)) for u, v in fig1.edges()}
        n_triangles = total_clique_count(fig1, 3)
        assert sum(support.values()) == 3 * n_triangles

    def test_edge_support_charges_pinned(self, fig1):
        """Satellite regression: dict build (one per edge), one
        min+1 intersection per directed edge, three increments per
        triangle --- nothing more, nothing less."""
        dg, _ = orient(fig1)
        tracker = CostTracker()
        support = edge_support(fig1, tracker=tracker, dg=dg)
        degs = dg.out_degrees
        expected = fig1.m
        for u in range(dg.n):
            for v in dg.out_neighbors(u):
                expected += min(degs[u], degs[int(v)]) + 1
        expected += sum(support.values())  # 3 per triangle
        assert tracker.total.work_int == expected
        assert tracker.total.work_frac == 0.0


# -- end to end through the decomposition ------------------------------------

def _run_decomp(graph, r, s, oracle, orientation, relabel, cache=False,
                detector=False):
    config = NucleusConfig(**{
        **NucleusConfig.optimal(r, s).__dict__,
        "orientation": orientation, "relabel": relabel,
        "contraction": False})
    tracker = CostTracker(oracle=oracle)
    if cache:
        tracker.cache = CacheSimulator(sample=1)
    if detector:
        tracker.race_detector = RaceDetector()
    result = arb_nucleus_decomp(graph, r, s, config, tracker)
    return result, _metrics(tracker)


def assert_oracle_agrees(graph, r, s, orientation, relabel, cache=False):
    scalar, m_scalar = _run_decomp(graph, r, s, True, orientation, relabel,
                                   cache)
    batch, m_batch = _run_decomp(graph, r, s, False, orientation, relabel,
                                 cache)
    assert m_scalar == m_batch
    assert scalar.n_r_cliques == batch.n_r_cliques
    assert scalar.n_s_cliques == batch.n_s_cliques
    assert scalar.rho == batch.rho
    assert scalar.round_log == batch.round_log
    assert np.array_equal(scalar._cells, batch._cells)
    assert np.array_equal(scalar._cores, batch._cores)


class TestDecompListingParity:
    """The whole decomposition, oracle tracker vs default tracker, across
    the orientation and relabeling choices that change the listers'
    discovery order."""

    @pytest.mark.parametrize("rs", RS_PAIRS)
    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    @pytest.mark.parametrize("relabel", [True, False])
    def test_scalar_peel(self, sparse100, rs, orientation, relabel):
        r, s = rs
        assert_oracle_agrees(sparse100, r, s, orientation, relabel)

    @pytest.mark.parametrize("rs", RS_PAIRS)
    @pytest.mark.parametrize("relabel", [True, False])
    def test_batch_peel(self, community60, rs, relabel):
        """A clique-rich graph: the batch UPDATE path expands many
        s-cliques per peeled r-clique through the frontier engine."""
        r, s = rs
        assert_oracle_agrees(community60, r, s, "goodrich_pszona", relabel)

    @pytest.mark.parametrize("rs", [(2, 3), (2, 4), (3, 4)])
    def test_cache_stream_parity(self, rs):
        """The order-sensitive cache simulator sees the identical address
        stream from both listers."""
        graph = erdos_renyi(50, 220, seed=11)
        r, s = rs
        assert_oracle_agrees(graph, r, s, "goodrich_pszona", False,
                             cache=True)

    def test_all_batch_vs_all_scalar(self, community60):
        """Fully batched run reproduces the fully scalar run exactly."""
        scalar, m_scalar = _run_decomp(community60, 2, 4, True,
                                       "goodrich_pszona", True, cache=True)
        batch, m_batch = _run_decomp(community60, 2, 4, False,
                                     "goodrich_pszona", True, cache=True)
        assert m_scalar == m_batch
        assert scalar.round_log == batch.round_log
        assert np.array_equal(scalar._cores, batch._cores)


class TestListingEngineSelection:
    def test_unknown_listing_engine_rejected(self, fig1):
        """Kernel choice is not a keyword: ``listing_engine`` /
        ``engine`` raise instead of being ignored."""
        with pytest.raises(TypeError, match="listing_engine"):
            NucleusConfig(listing_engine="batch")
        dg, _ = orient(fig1)
        with pytest.raises(TypeError, match="engine"):
            collect_cliques(dg, 3, CostTracker(), engine="batch")

    def test_falls_back_under_race_detector(self, fig1):
        """A race detector forces the scalar recursion; results still
        match a plain oracle run."""
        plain, _ = _run_decomp(fig1, 2, 3, True, "goodrich_pszona", True)
        checked, _ = _run_decomp(fig1, 2, 3, False, "goodrich_pszona",
                                 True, detector=True)
        assert plain.rho == checked.rho
        assert np.array_equal(plain._cores, checked._cores)

    def test_no_scalar_recursion_during_batch_peel(self, community60,
                                                   monkeypatch):
        """A default run (enumerate, count and peel) never enters the
        scalar recursion rec_list_cliques."""
        def _forbidden(*_args, **_kwargs):
            raise AssertionError(
                "rec_list_cliques called on the batch path")

        monkeypatch.setattr(listing, "rec_list_cliques", _forbidden)
        monkeypatch.setattr(decomp, "rec_list_cliques", _forbidden)
        result = arb_nucleus_decomp(community60, 2, 4)
        assert result.n_s_cliques > 0  # the (2,4) run really listed cliques
