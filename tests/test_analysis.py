"""Tests for the analysis package (nucleus navigation + serialization)."""

import numpy as np
import pytest

from repro.analysis import (core_level_subgraph, core_spectrum,
                            density_profile, hierarchy_to_payload,
                            load_result_json, nucleus_hierarchy,
                            nucleus_members, overlap_matrix,
                            payload_to_hierarchy, result_to_records,
                            save_result_json)
from repro.core.decomp import arb_nucleus_decomp
from repro.graph.generators import figure1_graph, planted_partition


@pytest.fixture(scope="module")
def fig1_result():
    return arb_nucleus_decomp(figure1_graph(), 3, 4)


@pytest.fixture(scope="module")
def community_result():
    graph = planted_partition(60, 5, 0.5, 0.02, seed=3)
    return graph, arb_nucleus_decomp(graph, 2, 3)


class TestMembers:
    def test_level_zero_covers_all_clique_vertices(self, fig1_result):
        # Vertices of any triangle: everyone in Figure 1.
        assert nucleus_members(fig1_result, 0) == set(range(7))

    def test_top_level_excludes_peripherals(self, fig1_result):
        # Core 2 excludes f and g (only abf/aef/bef/cdg touch them).
        assert nucleus_members(fig1_result, 2) == {0, 1, 2, 3, 4}

    def test_above_max_is_empty(self, fig1_result):
        assert nucleus_members(fig1_result, 99) == set()


class TestSubgraph:
    def test_top_subgraph_is_the_5_clique(self, fig1_result):
        sub, originals = core_level_subgraph(figure1_graph(), fig1_result, 2)
        assert sub.n == 5
        assert sub.m == 10
        assert list(originals) == [0, 1, 2, 3, 4]

    def test_empty_level(self, fig1_result):
        sub, originals = core_level_subgraph(figure1_graph(), fig1_result,
                                             99)
        assert originals.size == 0


class TestSpectrum:
    def test_figure1(self, fig1_result):
        spectrum = core_spectrum(fig1_result)
        assert spectrum == {0: 14, 1: 13, 2: 10}

    def test_monotone_decreasing(self, community_result):
        _, result = community_result
        spectrum = core_spectrum(result)
        values = [spectrum[level] for level in sorted(spectrum)]
        assert values == sorted(values, reverse=True)


class TestDensityProfile:
    def test_density_is_monotone_nondecreasing(self, community_result):
        graph, result = community_result
        profile = density_profile(graph, result)
        densities = [row["density"] for row in profile]
        assert all(b >= a - 1e-9 for a, b in zip(densities, densities[1:]))

    def test_figure1_top_density(self, fig1_result):
        profile = density_profile(figure1_graph(), fig1_result)
        assert profile[-1]["density"] == pytest.approx(1.0)  # the 5-clique


class TestOverlap:
    def test_self_overlap_is_one(self, community_result):
        graph, result = community_result
        matrix = overlap_matrix([result, result])
        assert np.allclose(matrix, 1.0)

    def test_cross_rs_overlap(self):
        graph = planted_partition(60, 5, 0.5, 0.02, seed=3)
        results = [arb_nucleus_decomp(graph, 1, 2),
                   arb_nucleus_decomp(graph, 2, 3)]
        matrix = overlap_matrix(results)
        assert matrix.shape == (2, 2)
        assert 0.0 <= matrix[0, 1] <= 1.0

    def test_two_empty_top_sets_score_zero(self):
        # A path has no triangles: the (3,4) decomposition is empty, so
        # two empty top sets carry no evidence of agreement --- 0.0 off
        # the diagonal (never Jaccard(0/0) = 1.0), 1.0 on it.
        from repro.graph.csr import CSRGraph
        graph = CSRGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4),
                                        (4, 5)])
        result = arb_nucleus_decomp(graph, 3, 4)
        assert nucleus_members(result, 0) == set()
        matrix = overlap_matrix([result, result])
        assert matrix[0, 1] == matrix[1, 0] == 0.0
        assert matrix[0, 0] == matrix[1, 1] == 1.0

    def test_zero_core_top_set_degenerates_to_covered_vertices(self):
        # max_core == 0 makes the threshold 0: the "top" is every
        # edge-covered vertex (the documented uninformative case), and
        # overlapping it with an empty decomposition still reads 0.0.
        from repro.graph.csr import CSRGraph
        graph = CSRGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4),
                                        (4, 5)])
        edge_result = arb_nucleus_decomp(graph, 2, 3)
        assert edge_result.max_core == 0
        assert nucleus_members(edge_result, 0) == set(range(6))
        matrix = overlap_matrix([edge_result,
                                 arb_nucleus_decomp(graph, 3, 4)])
        assert matrix[0, 1] == 0.0


class TestSerialization:
    def test_round_trip(self, fig1_result, tmp_path):
        path = tmp_path / "result.json"
        save_result_json(fig1_result, path)
        loaded = load_result_json(path)
        assert loaded["r"] == 3 and loaded["s"] == 4
        assert loaded["rho"] == 3
        assert loaded["cores"] == fig1_result.as_dict()
        assert loaded["stats"]["work"] > 0

    def test_hierarchy_payload_round_trip(self):
        graph = figure1_graph()
        hierarchy = nucleus_hierarchy(graph, arb_nucleus_decomp(graph, 2, 3))
        rebuilt = payload_to_hierarchy(hierarchy_to_payload(hierarchy))
        assert rebuilt.nuclei == hierarchy.nuclei

    @pytest.mark.parametrize("field", ["level", "node_id", "parent_id",
                                       "members"])
    def test_hierarchy_payload_names_missing_field(self, field):
        graph = figure1_graph()
        payload = hierarchy_to_payload(
            nucleus_hierarchy(graph, arb_nucleus_decomp(graph, 2, 3)))
        del payload["nuclei"][1][field]
        with pytest.raises(ValueError, match=rf"nuclei\[1\].*'{field}'"):
            payload_to_hierarchy(payload)

    @pytest.mark.parametrize("payload,field", [
        ({"s": 3, "nuclei": []}, "'r'"),
        ({"r": 2, "s": 3}, "'nuclei'"),
        ({"r": "2", "s": 3, "nuclei": []}, "'r'"),
        ({"r": 2, "s": 3, "nuclei": [{"level": 1.5, "node_id": 0,
                                      "parent_id": -1, "members": []}]},
         "'level'"),
        ({"r": 2, "s": 3, "nuclei": [{"level": 1, "node_id": 0,
                                      "parent_id": -1,
                                      "members": [[0, "x"]]}]},
         "'members'"),
        ([1, 2], "'r'"),
    ])
    def test_hierarchy_payload_rejects_ill_typed(self, payload, field):
        with pytest.raises(ValueError, match=field):
            payload_to_hierarchy(payload)

    def test_records(self, fig1_result):
        records = result_to_records(fig1_result)
        assert len(records) == 14
        assert records[0]["clique"] == [0, 1, 2]
        assert all(isinstance(r["core"], int) for r in records)
