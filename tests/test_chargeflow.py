"""Tests for the interprocedural charge-flow analyzer.

Covers the call-graph/summary machinery (repro.sanitize.callgraph,
.summaries), the strict rules PAR005--PAR008 (.rules), the parity
registry (.registry), the reporters, and the CLI entry point
(.chargeflow) --- against both a fixture package with known charge-flow
shapes and the real ``src/repro`` tree.
"""

import json
from pathlib import Path

from repro.sanitize.callgraph import build_project
from repro.sanitize.chargeflow import analyze, main
from repro.sanitize.parlint import lint_source
from repro.sanitize.registry import (collect_registry, is_engine_module,
                                     parity_kernels)
from repro.sanitize.reporters import apply_baseline, report_sarif
from repro.sanitize.summaries import compute_summaries

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ENGINEPKG = Path(__file__).parent / "fixtures" / "chargeflow" / "enginepkg"


def keyed(findings):
    return sorted((f.rule, Path(f.path).name, f.line) for f in findings)


class TestFixturePackage:
    def test_exact_finding_set(self):
        result = analyze(ENGINEPKG)
        assert keyed(result.findings) == [
            ("PAR005", "batchbad.py", 12),
            ("PAR006", "nondet.py", 8),
            ("PAR006", "nondet.py", 10),
            ("PAR006", "nondet.py", 12),
            ("PAR007", "batchbad.py", 15),
            ("PAR007", "batchpaired.py", 26),
            ("PAR008", "phases.py", 7),
        ]

    def test_charge_via_helper_needs_the_call_graph(self):
        # Lexically the loop and the parallel region never charge; only
        # the interprocedural oracle sees Meter.bump reach the tracker.
        path = ENGINEPKG / "charged_via_helper.py"
        lexical = lint_source(path.read_text(), str(path))
        assert sorted(f.rule for f in lexical) == ["PAR001", "PAR002"]
        result = analyze(ENGINEPKG)
        assert not [f for f in result.findings
                    if f.path.endswith("charged_via_helper.py")]

    def test_fixture_registry_parses(self):
        project = build_project(ENGINEPKG)
        entries, errors = collect_registry(project)
        assert errors == []
        assert sorted(entries) == [
            "enginepkg.batchpaired.batch_drifted",
            "enginepkg.batchpaired.batch_sum",
        ]

    def test_blessed_kernel_is_clean(self):
        result = analyze(ENGINEPKG)
        assert not [f for f in result.findings
                    if "batch_sum" in f.message]

    def test_stable_sort_is_not_a_hazard(self):
        result = analyze(ENGINEPKG)
        assert not [f for f in result.findings
                    if f.rule == "PAR006" and f.line > 13]


class TestRealTree:
    def test_src_tree_is_strict_clean(self):
        result = analyze(SRC)
        assert result.findings == []

    def test_registry_covers_every_batch_kernel(self):
        project = build_project(SRC)
        summaries = compute_summaries(project)
        entries, errors = collect_registry(project)
        assert errors == []
        engine = sorted((m for m in project.modules.values()
                         if is_engine_module(m)), key=lambda m: m.name)
        assert [m.name for m in engine] == [
            "repro.analysis.batchhier",
            "repro.baselines.batchnd", "repro.baselines.batchtruss",
            "repro.cliques.batchlist", "repro.core.batchcore",
            "repro.core.batchpeel", "repro.core.tables",
            "repro.distributed.batchexchange",
            "repro.distributed.batchpeel", "repro.parallel.hashtable"]
        for module in engine:
            # Top-level kernels plus opted-in "Class.method" ones (the only
            # kind repro.core.tables and repro.parallel.hashtable declare).
            kernels = parity_kernels(project, summaries, module, entries)
            assert kernels, module.name
            for fn in kernels:
                assert fn.qualname in entries, fn.qualname


class TestMutations:
    """Deleting any one charge call from a batch kernel must trip a rule."""

    @staticmethod
    def _mutated(relpath, needle):
        path = (SRC / relpath).resolve()
        source = path.read_text(encoding="utf-8")
        assert source.count(needle) == 1
        return {str(path): source.replace(needle, "pass")}

    def test_dropping_a_batchpeel_charge_breaks_parity(self):
        overlay = self._mutated(
            "core/batchpeel.py",
            "tracker.add_work_int(m * route_work"
            " + total_probes * table.suffix_width)")
        result = analyze(SRC, overlay=overlay)
        assert any(f.rule == "PAR007" and "_edges_alive_many" in f.message
                   for f in result.findings)

    def test_dropping_a_registered_method_charge_breaks_parity(self):
        # "Class.method" registry keys opt bulk methods into PAR007.
        overlay = self._mutated(
            "distributed/batchpeel.py",
            "tracker.add_atomic(cells.size)\n"
            "        np.subtract.at(self.counts, cells, amount)")
        result = analyze(SRC, overlay=overlay)
        assert any(f.rule == "PAR007" and "fetch_sub_many" in f.message
                   for f in result.findings)

    def test_dropping_the_bulk_table_insert_charge_breaks_parity(self):
        overlay = self._mutated(
            "core/tables.py", "self.tracker.add_probes(probes)\n"
            "        return cells\n")
        result = analyze(SRC, overlay=overlay)
        assert any(f.rule == "PAR007" and "_insert_many" in f.message
                   for f in result.findings)

    def test_dropping_a_batchlist_charge_breaks_parity(self):
        overlay = self._mutated(
            "cliques/batchlist.py", "tracker.add_work(float(dg.n))")
        result = analyze(SRC, overlay=overlay)
        assert any(f.rule == "PAR007" for f in result.findings)


class TestReporters:
    def test_sarif_shape(self):
        result = analyze(ENGINEPKG)
        doc = json.loads(report_sarif(result.findings, base=REPO))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"PAR005", "PAR006", "PAR007", "PAR008"} <= rule_ids
        assert len(run["results"]) == len(result.findings)
        for res in run["results"]:
            uri = (res["locations"][0]["physicalLocation"]
                   ["artifactLocation"]["uri"])
            assert not uri.startswith("/")

    def test_baseline_filters_and_reports_stale(self):
        result = analyze(ENGINEPKG)
        entries = [
            {"rule": "PAR005",
             "path": "tests/fixtures/chargeflow/enginepkg/batchbad.py",
             "scope": "enginepkg.batchbad.batch_scale"},
            {"rule": "PAR001", "path": "gone.py", "scope": "<module>"},
        ]
        kept = apply_baseline(result.findings, entries, result.scope_of,
                              base=REPO)
        rules = [f.rule for f in kept]
        assert "PAR005" not in rules
        assert rules.count("STALE-BASELINE") == 1


class TestCli:
    def test_strict_clean_tree_exits_zero(self, capsys):
        assert main([str(SRC)]) == 0
        capsys.readouterr()

    def test_findings_exit_nonzero(self, capsys):
        assert main([str(ENGINEPKG)]) == 1
        out = capsys.readouterr().out
        assert "PAR007" in out

    def test_json_report(self, capsys):
        assert main([str(ENGINEPKG), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "parlint-chargeflow"
        assert len(doc["findings"]) == 7

    def test_sarif_to_file(self, tmp_path, capsys):
        out = tmp_path / "out.sarif"
        assert main([str(ENGINEPKG), "--sarif", str(out)]) == 1
        capsys.readouterr()
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["runs"][0]["results"]
