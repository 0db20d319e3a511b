"""Tests for SNAP edge-list IO (repro.graph.io)."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.generators import figure1_graph
from repro.graph.io import read_edge_list, write_edge_list


def test_round_trip(tmp_path):
    g = figure1_graph()
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert h.n == g.n
    assert np.array_equal(h.edges(), g.edges())


def test_header_and_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# SNAP comment\n% other comment\n\n0 1\n1 2 99\n")
    g = read_edge_list(path)
    assert g.n == 3
    assert g.m == 2  # extra column ignored


def test_relabel_compacts_sparse_ids(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("100 200\n200 5000\n")
    g = read_edge_list(path)
    assert g.n == 3
    assert g.m == 2


def test_no_relabel_keeps_ids(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 2\n2 9\n")
    g = read_edge_list(path, relabel=False)
    assert g.n == 10
    assert g.has_edge(2, 9)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    g = read_edge_list(path)
    assert g.m == 0


def test_write_includes_header(tmp_path):
    g = figure1_graph()
    path = tmp_path / "g.txt"
    write_edge_list(g, path, header="hello\nworld")
    text = path.read_text()
    assert text.startswith("# hello\n# world\n")
    assert "# n=7 m=15" in text


def test_gzip_round_trip(tmp_path):
    g = figure1_graph()
    path = tmp_path / "g.txt.gz"
    write_edge_list(g, path)
    import gzip
    with gzip.open(path, "rt") as handle:  # really compressed
        assert "# n=7 m=15" in handle.read()
    h = read_edge_list(path)
    assert np.array_equal(h.edges(), g.edges())


@pytest.mark.parametrize("body,relabel,message", [
    ("0 1\n# ok\n2\n", True, ":3: expected two vertex ids"),
    ("0 1\n1 x\n", True, ":2: vertex ids must be integers"),
    ("0 1.5\n", True, ":1: vertex ids must be integers"),
    ("0 1\n-1 2\n", False, ":2: negative vertex id"),
], ids=["short", "non-integer", "float", "negative"])
def test_malformed_line_names_path_and_line(tmp_path, body, relabel,
                                            message):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError) as info:
        read_edge_list(path, relabel=relabel)
    assert str(info.value).startswith(f"{path}{message}")


def test_negative_ids_relabel_by_default(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("-5 0\n0 7\n")
    g = read_edge_list(path)
    assert g.n == 3
    assert g.m == 2


def test_cli_reports_malformed_input_in_one_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2\n")
    with pytest.raises(SystemExit) as info:
        main(["decompose", "--input", str(path), "--r", "2", "--s", "3"])
    assert info.value.code == f"error: {path}:2: expected two vertex ids, " \
        "got '2'"
    assert capsys.readouterr().out == ""
