"""Differential tests: the batch peeling engine vs the scalar oracle.

The batch engine's contract (docs/cost-model.md) is *exact* cost parity:
for any graph and configuration, a default tracker (the batch kernels)
must produce the same core numbers, the same round log, and bit-for-bit
identical simulated metrics --- work, span, rounds, atomics, contention,
table probes, and cache misses --- as ``CostTracker(oracle=True)`` (the
scalar kernels).  These tests sweep (r, s) pairs,
aggregation/bucketing/table layouts, update arithmetic, and cache
simulation, comparing the two paths run for run.
"""

import numpy as np
import pytest

import repro.analysis.construct as construct
import repro.core.decomp as decomp
import repro.distributed.peel as peel
from repro.analysis.construct import nucleus_hierarchy
from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.core.kcore import k_core
from repro.distributed import sharded_nucleus_decomp
from repro.graph.generators import erdos_renyi, planted_partition
from repro.machine.cache import CacheSimulator
from repro.parallel.runtime import CostTracker
from repro.sanitize.racecheck import RaceDetector

RS_PAIRS = [(1, 2), (2, 3), (2, 4), (3, 4)]

CONFIGS = {
    "optimal": None,  # NucleusConfig.optimal(r, s), resolved per pair
    "unoptimized": NucleusConfig.unoptimized(),
    "array_representative": NucleusConfig(
        aggregation="array", update_arithmetic="representative"),
    "one_level_hash_agg": NucleusConfig(
        levels=1, table_style="hash", contiguous=False,
        inverse_map="binary_search", aggregation="hash"),
    "no_relabel_binary": NucleusConfig(
        relabel=False, inverse_map="binary_search", contiguous=False,
        aggregation="list_buffer", bucket_window=4),
}


def _config_for(name: str, r: int, s: int) -> NucleusConfig:
    config = CONFIGS[name]
    if config is None:
        config = NucleusConfig.optimal(r, s)
    if config.contraction and (r, s) != (2, 3):
        config = NucleusConfig(**{**config.__dict__, "contraction": False})
    return config


def _run(graph, r, s, config, oracle, cache=False, detector=False):
    tracker = CostTracker(oracle=oracle)
    if cache:
        tracker.cache = CacheSimulator(sample=1)
    if detector:
        tracker.race_detector = RaceDetector()
    result = arb_nucleus_decomp(graph, r, s, config, tracker)
    totals = tracker.total
    metrics = {
        "work": totals.work, "span": tracker.span,
        "rounds": totals.rounds, "atomic": totals.atomic_ops,
        "contention": totals.contention, "probes": totals.table_probes,
        "misses": totals.cache_misses,
        "cliques": totals.cliques_enumerated,
    }
    return result, metrics


def assert_engines_agree(graph, r, s, config, cache=False):
    scalar, m_scalar = _run(graph, r, s, config, True, cache)
    batch, m_batch = _run(graph, r, s, config, False, cache)
    assert m_scalar == m_batch
    assert scalar.rho == batch.rho
    assert scalar.max_core == batch.max_core
    assert scalar.round_log == batch.round_log
    assert np.array_equal(scalar._cores, batch._cores)
    assert np.array_equal(scalar._cells, batch._cells)


class TestEngineParity:
    @pytest.mark.parametrize("rs", RS_PAIRS)
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_sparse_random(self, sparse100, rs, name):
        r, s = rs
        assert_engines_agree(sparse100, r, s, _config_for(name, r, s))

    @pytest.mark.parametrize("rs", RS_PAIRS)
    def test_clique_rich_optimal(self, community60, rs):
        r, s = rs
        assert_engines_agree(community60, r, s, _config_for("optimal", r, s))

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_fig1_all_configs(self, fig1, rs):
        r, s = rs
        for name in sorted(CONFIGS):
            assert_engines_agree(fig1, r, s, _config_for(name, r, s))

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (2, 4)])
    @pytest.mark.parametrize(
        "name", ["optimal", "unoptimized", "one_level_hash_agg"])
    def test_cache_stream_parity(self, rs, name):
        """The order-sensitive cache simulator sees the identical address
        stream from both engines (misses are equal, not just counts of
        accesses)."""
        graph = erdos_renyi(50, 220, seed=11)
        r, s = rs
        assert_engines_agree(graph, r, s, _config_for(name, r, s),
                             cache=True)

    def test_dense_bucketing_and_fibonacci(self, sparse100):
        for bucketing in ("dense", "fibonacci"):
            config = NucleusConfig(**{
                **NucleusConfig.optimal(2, 3).__dict__,
                "contraction": False, "bucketing": bucketing})
            assert_engines_agree(sparse100, 2, 3, config)

    def test_many_random_graphs(self):
        for seed in range(6):
            graph = erdos_renyi(35, 140, seed=seed) if seed % 2 else \
                planted_partition(36, 4, 0.5, 0.03, seed=seed)
            r, s = RS_PAIRS[seed % len(RS_PAIRS)]
            assert_engines_agree(graph, r, s, _config_for("optimal", r, s))


class TestEngineSelection:
    def test_unknown_engine_rejected(self, fig1):
        """Kernel choice is not a keyword: ``engine`` raises instead of
        being ignored."""
        with pytest.raises(TypeError, match="engine"):
            NucleusConfig(engine="batch")
        with pytest.raises(TypeError, match="engine"):
            k_core(fig1, CostTracker(), engine="batch")

    def test_batch_falls_back_under_race_detector(self, fig1):
        """A race detector forces the scalar oracle; results still match a
        plain oracle run."""
        config = NucleusConfig.optimal(2, 3)
        plain, _ = _run(fig1, 2, 3, config, True)
        checked, _ = _run(fig1, 2, 3, config, False, detector=True)
        assert plain.rho == checked.rho
        assert np.array_equal(plain._cores, checked._cores)

    def test_default_is_batch_and_oracle_is_scalar(self, fig1, monkeypatch):
        """The default tracker never enters a scalar kernel; an oracle
        tracker reaches each one (single-node peel, hierarchy level
        sweep, sharded local round)."""
        def _scalar_called(*_args, **_kwargs):
            raise AssertionError("scalar kernel called")

        for module, name in ((decomp, "_peel_scalar"),
                             (construct, "_levels_scalar"),
                             (peel, "_local_round")):
            monkeypatch.setattr(module, name, _scalar_called)
        result = arb_nucleus_decomp(fig1, 2, 3)
        nucleus_hierarchy(fig1, result)
        sharded_nucleus_decomp(fig1, 2, 3, 2)
        with pytest.raises(AssertionError, match="scalar kernel"):
            arb_nucleus_decomp(fig1, 2, 3, tracker=CostTracker(oracle=True))
        with pytest.raises(AssertionError, match="scalar kernel"):
            nucleus_hierarchy(fig1, result, CostTracker(oracle=True))
        with pytest.raises(AssertionError, match="scalar kernel"):
            sharded_nucleus_decomp(fig1, 2, 3, 2,
                                   tracker=CostTracker(oracle=True))


class TestCountFuncSortCharge:
    """Satellite: COUNT-FUNC must not charge a sort when discovery order
    already yields ascending tuples."""

    @staticmethod
    def _count_phase(graph, orientation, relabel):
        config = NucleusConfig(orientation=orientation, relabel=relabel,
                               aggregation="array", contraction=False)
        tracker = CostTracker()
        arb_nucleus_decomp(graph, 2, 3, config, tracker)
        return tracker.phases["count_s"]

    def test_identity_rank_charges_no_sorts(self, community60):
        """With the identity orientation, relabeling is a no-op and every
        discovered clique is already ascending --- so the count_s phase must
        charge identical work with and without relabeling.  (The old code
        charged s*log2(s) per s-clique in the non-relabeled run anyway.)"""
        with_relabel = self._count_phase(community60, "identity", True)
        without = self._count_phase(community60, "identity", False)
        assert with_relabel.work == without.work
        # The sort charge s*log2(s) is the only fractional-valued charge on
        # the counting path, so the exact fractional bin pins it to zero.
        assert without.work_frac == 0.0

    def test_unsorted_discovery_still_charged(self, community60):
        """Degeneracy rank scrambles discovery order, so the non-relabeled
        run must still pay a sort charge for every actually-unsorted
        tuple --- visible as a non-empty fractional work bin."""
        phase = self._count_phase(community60, "degeneracy", False)
        sort_charge = 3 * np.log2(3)
        assert phase.work_frac > 0.0
        # ... and it is an exact multiple of the per-clique sort charge.
        multiples = phase.work_frac / sort_charge
        assert abs(multiples - round(multiples)) < 1e-9
