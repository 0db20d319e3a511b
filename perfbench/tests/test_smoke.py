"""Smoke self-test: every workload at a tiny size, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_workloads_and_metrics_match_the_code():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_complete(name, trace, tmp_path,
                                          monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result, details = run.run(name, seed=5, seconds=0, trace=trace,
                              size="tiny")
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert details["fingerprint"]["nproc"] >= 1
    if trace:
        written = json.loads(
            (tmp_path / f"spans-{name}-5.json").read_text(encoding="utf-8"))
        names = {span["name"] for span in written["spans"]}
        assert {"generate", "job", "memory_job", "verify", "peel",
                "extract"} <= names
        assert result["metrics"]["error_rate"]["value"] == 0
    else:
        for key in ("job_s", "setup_s", "peak_rss_mb", "sim_T60"):
            assert result["metrics"][key]["value"] > 0


@pytest.mark.parametrize("trace, keys", [
    (False, ("sim_T60", "sim_work")), (True, ("sim_span",))])
def test_runs_repeat_simulated_metrics_exactly(trace, keys, tmp_path,
                                               monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    first, _ = run.run("nucleus34-cached", seed=9, seconds=0, trace=trace,
                       size="tiny")
    again, _ = run.run("nucleus34-cached", seed=9, seconds=0, trace=trace,
                       size="tiny")
    for key in keys:
        assert first["metrics"][key] == again["metrics"][key]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path,
                                                       monkeypatch,
                                                       capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "sharded-mincut", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
