"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import figure1_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.txt"
    write_edge_list(figure1_graph(), path)
    return str(path)


class TestDecompose:
    def test_from_file(self, graph_file, capsys):
        assert main(["decompose", "--input", graph_file,
                     "--r", "3", "--s", "4"]) == 0
        out = capsys.readouterr().out
        assert "r-cliques: 14" in out
        assert "max core: 2" in out

    def test_histogram(self, graph_file, capsys):
        main(["decompose", "--input", graph_file, "--r", "3", "--s", "4",
              "--histogram"])
        out = capsys.readouterr().out
        assert "0: 1" in out and "2: 10" in out

    def test_full_listing(self, graph_file, capsys):
        main(["decompose", "--input", graph_file, "--r", "3", "--s", "4",
              "--full"])
        out = capsys.readouterr().out
        assert "2 3 6 0" in out  # cdg has core 0

    def test_dataset(self, capsys):
        assert main(["decompose", "--dataset", "amazon",
                     "--r", "1", "--s", "2"]) == 0
        assert "nucleus decomposition" in capsys.readouterr().out

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            main(["decompose", "--r", "2", "--s", "3"])

    def test_unoptimized_flag(self, graph_file, capsys):
        assert main(["decompose", "--input", graph_file, "--r", "3",
                     "--s", "4", "--unoptimized"]) == 0
        assert "max core: 2" in capsys.readouterr().out

    def test_config_overrides(self, graph_file, capsys):
        assert main(["decompose", "--input", graph_file, "--r", "3",
                     "--s", "4", "--levels", "1", "--aggregation", "hash",
                     "--bucketing", "dense", "--orientation", "degeneracy",
                     "--no-relabel"]) == 0
        assert "max core: 2" in capsys.readouterr().out  # same answer

    def test_all_bucketings_agree(self, graph_file, capsys):
        outputs = set()
        for backend in ("julienne", "fibonacci", "dense"):
            main(["decompose", "--input", graph_file, "--r", "3", "--s", "4",
                  "--bucketing", backend, "--histogram"])
            out = capsys.readouterr().out
            outputs.add(out[out.index("core histogram"):])
        assert len(outputs) == 1


class TestOneLineErrors:
    """Bad input ends in ``error: ...`` and exit status 1, not a
    traceback."""

    @staticmethod
    def _error(argv) -> str:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert isinstance(info.value.code, str)
        assert info.value.code.startswith("error: ")
        return info.value.code

    def test_decompose_infeasible_rs(self, graph_file):
        assert "need 1 <= r < s" in self._error(
            ["decompose", "--input", graph_file, "--r", "3", "--s", "2"])

    def test_decompose_zero_levels(self, graph_file):
        assert "levels" in self._error(
            ["decompose", "--input", graph_file, "--r", "2", "--s", "3",
             "--levels", "0"])

    @pytest.mark.parametrize("command", [
        ["shard", "--r", "2", "--s", "3"],
        ["profile", "--r", "2", "--s", "3"],
        ["stats"]])
    def test_shard_zero_shards(self, graph_file, command):
        assert "--shards" in self._error(
            command + ["--input", graph_file, "--shards", "0"])

    def test_hierarchy_record_missing_level(self, tmp_path):
        path = tmp_path / "hier.json"
        path.write_text('{"r": 2, "s": 3, "nuclei": [{"node_id": 0, '
                        '"parent_id": -1, "members": [[0, 1]]}]}')
        message = self._error(["hierarchy", "--load", str(path)])
        assert "'level'" in message and str(path) in message

    def test_hierarchy_not_json(self, tmp_path):
        path = tmp_path / "hier.json"
        path.write_text("0 1\n1 2\n")
        assert str(path) in self._error(["hierarchy", "--load", str(path)])


class TestGenerate:
    def test_rmat(self, tmp_path, capsys):
        out_path = tmp_path / "g.txt"
        assert main(["generate", "--kind", "rmat", "--scale", "7",
                     "-o", str(out_path)]) == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["erdos-renyi", "community"])
    def test_other_kinds(self, kind, tmp_path):
        out_path = tmp_path / "g.txt"
        assert main(["generate", "--kind", kind, "--scale", "6",
                     "-o", str(out_path)]) == 0
        assert out_path.exists()


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        assert main(["stats", "--input", graph_file]) == 0
        out = capsys.readouterr().out
        assert "n = 7" in out
        assert "triangles = 14" in out
        assert "degeneracy = 4" in out


class TestFigure:
    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestLint:
    FIXTURES = "tests/fixtures/parlint"

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "src/repro"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, capsys):
        assert main(["lint", f"{self.FIXTURES}/bad_par001.py"]) == 1
        assert "PAR001" in capsys.readouterr().out

    def test_json_report(self, capsys):
        import json
        assert main(["lint", "--json", f"{self.FIXTURES}/bad_par002.py"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "parlint"
        assert [f["rule"] for f in report["findings"]] == ["PAR002"]


class TestSanitize:
    def test_default_graph_is_race_free(self, capsys):
        assert main(["sanitize"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        for label in ("arb (2,3)", "nd", "pkt", "msp", "and"):
            assert f"{label:<10} ok" in out


class TestProfile:
    def test_writes_trace_and_breakdown(self, graph_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["profile", "--input", graph_file, "--r", "2",
                     "--s", "3", "-o", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out  # the breakdown table
        assert "trace events" in out
        import json
        loaded = json.loads(trace.read_text())
        assert loaded["traceEvents"]
        assert all(e.get("dur", 0) >= 0 for e in loaded["traceEvents"]
                   if e["ph"] == "X")

    def test_traces_the_oracle_tasks(self, graph_file, tmp_path):
        """Per-task slices come only from the scalar oracle loops, so the
        profile must carry more than the batch path's region events."""
        import json

        from repro.core.decomp import arb_nucleus_decomp
        from repro.observe import TraceRecorder
        from repro.parallel.runtime import CostTracker
        trace = tmp_path / "trace.json"
        assert main(["profile", "--input", graph_file, "--r", "2",
                     "--s", "3", "-o", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        batch = CostTracker()
        batch.trace = TraceRecorder()
        arb_nucleus_decomp(figure1_graph(), 2, 3, tracker=batch)
        assert len(events) > len(batch.trace.events)


class TestBench:
    def test_writes_payload(self, tmp_path, capsys, monkeypatch):
        # Shrink the pinned suite so the CLI test stays fast.
        from repro.observe import bench as bench_mod
        monkeypatch.setattr(bench_mod, "PINNED_SUITE",
                            (("amazon", 1, 2),))
        out_path = tmp_path / "BENCH.json"
        assert main(["bench", "-o", str(out_path)]) == 0
        import json
        payload = json.loads(out_path.read_text())
        assert len(payload["suite"]) == 1
        assert payload["suite"][0]["graph"] == "amazon"

    def test_compare_gates_on_regression(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.observe import bench as bench_mod
        monkeypatch.setattr(bench_mod, "PINNED_SUITE",
                            (("amazon", 1, 2),))
        baseline = tmp_path / "BASE.json"
        assert main(["bench", "-o", str(baseline)]) == 0
        # Clean against itself.
        out_path = tmp_path / "CUR.json"
        assert main(["bench", "-o", str(out_path),
                     "--compare", str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out
        # Inject a regression into the baseline (pretend it used to be
        # faster) and the gate must fail.
        import json
        doctored = json.loads(baseline.read_text())
        doctored["suite"][0]["T60"] *= 0.5
        baseline.write_text(json.dumps(doctored))
        assert main(["bench", "-o", str(out_path),
                     "--compare", str(baseline)]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["decompose", "--dataset", "dblp",
                              "--r", "2", "--s", "3"])
    assert args.r == 2 and args.s == 3


def test_missing_subcommand():
    with pytest.raises(SystemExit):
        main([])
