"""Differential tests for the batched baseline engines.

Every baseline's batch engine must reproduce its scalar oracle's
simulated costs **bit-for-bit**: the integer work bin exactly, the
fractional work bin as the same binary64 accumulation order, span,
rounds, atomics, contention, and clique visits, per phase.  These tests
run each entry point on a ``CostTracker(oracle=True)`` (the scalar
oracle) and on a default tracker (the batch engine) and compare full
tracker snapshots, plus the results themselves.

Also hosts the regression tests for the accounting bugs fixed alongside
the batching: the PKT frontier-duplication bug (one frontier entry per
decrement instead of per dropped edge) and the densest-subgraph scan
phase that ran its suffix re-listings without a tracker.
"""

import numpy as np
import pytest

from repro.baselines.msp import msp_decomposition
from repro.baselines.nd import nd_decomposition, pnd_decomposition
from repro.baselines.pkt import pkt_decomposition, pkt_opt_cpu_decomposition
from repro.core.densest import k_clique_densest
from repro.core.kcore import k_core
from repro.core.ktruss import k_truss
from repro.graph.generators import (erdos_renyi, figure1_graph,
                                    planted_partition)
from repro.parallel.runtime import CostTracker

_PHASE_FIELDS = ("work_int", "work_frac", "span", "rounds", "atomic_ops",
                 "contention")


def snapshot(tracker):
    """Full simulated-cost state of a tracker, int/frac bins separate."""
    return {
        "work_int": tracker.total.work_int,
        "work_frac": tracker.total.work_frac,
        "span": tracker.span,
        "rounds": tracker.total.rounds,
        "atomic_ops": tracker.total.atomic_ops,
        "contention": tracker.total.contention,
        "cliques": tracker.total.cliques_enumerated,
        "phases": {
            name: tuple(getattr(stats, field) for field in _PHASE_FIELDS)
            for name, stats in tracker.phases.items()
        },
    }


def both_engines(run):
    """Run ``run(tracker)`` on an oracle and on a default tracker; return
    ``((scalar_result, scalar_snap), (batch_result, batch_snap))``."""
    out = []
    for oracle in (True, False):
        tracker = CostTracker(oracle=oracle)
        result = run(tracker)
        out.append((result, snapshot(tracker)))
    return out


def graphs():
    return {
        "fig1": figure1_graph(),
        "pp40": planted_partition(40, 4, 0.5, 0.03, seed=5),
        "er48": erdos_renyi(48, 200, seed=11),
    }


GRAPHS = graphs()


class TestNDFamily:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("rs", [(1, 2), (2, 3)])
    def test_nd_parity(self, name, rs):
        r, s = rs
        (res_s, snap_s), (res_b, snap_b) = both_engines(
            lambda t: nd_decomposition(GRAPHS[name], r, s, t))
        assert snap_s == snap_b
        assert res_s.core == res_b.core
        assert res_s.rounds == res_b.rounds
        assert res_s.s_clique_visits == res_b.s_clique_visits

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_pnd_parity(self, name):
        (res_s, snap_s), (res_b, snap_b) = both_engines(
            lambda t: pnd_decomposition(GRAPHS[name], 2, 3, t))
        assert snap_s == snap_b
        assert res_s.core == res_b.core
        assert res_s.rounds == res_b.rounds


class TestTrussFamily:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("algo", [pkt_decomposition,
                                      pkt_opt_cpu_decomposition,
                                      msp_decomposition])
    def test_parity(self, name, algo):
        (res_s, snap_s), (res_b, snap_b) = both_engines(
            lambda t: algo(GRAPHS[name], t))
        assert snap_s == snap_b
        assert res_s.core == res_b.core
        assert res_s.rounds == res_b.rounds
        assert res_s.s_clique_visits == res_b.s_clique_visits

    def test_pkt_agrees_with_msp(self):
        """Independent algorithms, same triangle-core numbers."""
        graph = GRAPHS["pp40"]
        pkt = pkt_decomposition(graph, CostTracker())
        msp = msp_decomposition(graph, CostTracker())
        assert pkt.core == msp.core


class TestPKTFrontierDedup:
    """Satellite regression: a triangle decrement used to append one
    frontier entry per decrement, so an edge losing two triangles in one
    sub-round was scheduled (and its intersection re-charged) twice."""

    def test_frontier_entries_unique_per_subround(self, monkeypatch):
        import repro.baselines.pkt as pkt_mod
        seen = []
        orig = pkt_mod._pkt_subround_scalar

        def spy(frontier, *args, **kwargs):
            seen.append(np.asarray(frontier))
            return orig(frontier, *args, **kwargs)

        monkeypatch.setattr(pkt_mod, "_pkt_subround_scalar", spy)
        pkt_decomposition(GRAPHS["pp40"], CostTracker(oracle=True))
        assert seen, "peel never ran a sub-round"
        for frontier in seen:
            assert np.unique(frontier).size == frontier.size

    def test_round_count_pinned(self):
        """Deduped sub-round count on the Figure 1 graph; the duplicated
        frontier inflated this (and the work charged per sub-round)."""
        result = pkt_decomposition(figure1_graph(), CostTracker(oracle=True))
        batch = pkt_decomposition(figure1_graph(), CostTracker())
        assert result.rounds == batch.rounds == 3


class TestKCore:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_parity(self, name):
        (core_s, snap_s), (core_b, snap_b) = both_engines(
            lambda t: k_core(GRAPHS[name], t))
        assert snap_s == snap_b
        assert np.array_equal(core_s, core_b)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_parity_random(self, seed):
        graph = erdos_renyi(60, 240, seed=seed)
        (core_s, snap_s), (core_b, snap_b) = both_engines(
            lambda t: k_core(graph, t))
        assert snap_s == snap_b
        assert np.array_equal(core_s, core_b)


class TestKTruss:
    def test_engine_routing_parity(self):
        graph = GRAPHS["pp40"]
        (res_s, snap_s), (res_b, snap_b) = both_engines(
            lambda t: k_truss(graph, t))
        assert snap_s == snap_b
        assert res_s.as_dict() == res_b.as_dict()


class TestDensest:
    @pytest.mark.parametrize("k", [3, 4])
    def test_parity(self, k):
        graph = GRAPHS["pp40"]
        (res_s, snap_s), (res_b, snap_b) = both_engines(
            lambda t: k_clique_densest(graph, k, t))
        assert snap_s == snap_b
        assert res_s.density == res_b.density
        assert res_s.clique_count == res_b.clique_count
        assert sorted(res_s.vertices) == sorted(res_b.vertices)

    def test_scan_phase_is_charged(self):
        """Satellite regression: the threshold scan used to orient and
        re-list each suffix without a tracker --- zero charged work."""
        tracker = CostTracker()
        k_clique_densest(GRAPHS["pp40"], 3, tracker)
        scan = tracker.phases["scan"]
        assert scan.work_int + scan.work_frac > 0
        assert scan.span > 0


class TestParityRegistry:
    """The new batch kernels are registered for PAR007 with resolvable
    scalar oracles and non-empty charge fingerprints."""

    MODULES = ("repro.baselines.batchnd", "repro.baselines.batchtruss",
               "repro.core.batchcore")

    @pytest.mark.parametrize("module_name", MODULES)
    def test_oracles_resolve(self, module_name):
        import importlib
        module = importlib.import_module(module_name)
        registry = module.PARLINT_PARITY
        assert registry, f"{module_name} registers no kernels"
        for kernel, entry in registry.items():
            assert hasattr(module, kernel)
            oracle_module, oracle_name = entry["oracle"].rsplit(".", 1)
            oracle = getattr(importlib.import_module(oracle_module),
                             oracle_name)
            assert callable(oracle)
            assert entry["fingerprint"], f"{kernel}: empty fingerprint"


class TestChargeSequences:
    """add_work_sequence / add_span_sequence replay a scalar charge
    stream: integer-valued amounts land in the exact bin, fractional
    ones accumulate in the same binary64 order as call-by-call."""

    AMOUNTS = [3.0, 0.35 * 7 + 1.0, 2.0, np.log2(12), 1.0, 0.1, 5.0]

    def test_work_sequence_matches_loop(self):
        loop, seq = CostTracker(), CostTracker()
        with loop.phase("p"):
            for amount in self.AMOUNTS:
                loop.add_work(amount)
        with seq.phase("p"):
            seq.add_work_sequence(np.asarray(self.AMOUNTS))
        assert loop.total.work_int == seq.total.work_int
        assert loop.total.work_frac == seq.total.work_frac
        assert loop.phases["p"].work_int == seq.phases["p"].work_int
        assert loop.phases["p"].work_frac == seq.phases["p"].work_frac

    def test_work_sequence_seeds_from_current_bin(self):
        loop, seq = CostTracker(), CostTracker()
        for t in (loop, seq):
            t.add_work(0.125)
        for amount in self.AMOUNTS:
            loop.add_work(amount)
        seq.add_work_sequence(np.asarray(self.AMOUNTS))
        assert loop.total.work_frac == seq.total.work_frac

    def test_span_sequence_matches_loop(self):
        loop, seq = CostTracker(), CostTracker()
        amounts = [np.log2(5), 1.0, 0.25, np.log2(9)]
        with loop.phase("p"):
            for amount in amounts:
                loop.add_span(amount)
        with seq.phase("p"):
            seq.add_span_sequence(np.asarray(amounts))
        assert loop.span == seq.span
        assert loop.phases["p"].span == seq.phases["p"].span

    def test_empty_sequences_are_noops(self):
        tracker = CostTracker()
        tracker.add_work_sequence(np.empty(0))
        tracker.add_span_sequence(np.empty(0))
        assert tracker.total.work_int == 0
        assert tracker.total.work_frac == 0.0
        assert tracker.span == 0.0
