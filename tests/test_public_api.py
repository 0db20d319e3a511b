"""The public API surface: everything advertised must exist and work."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module", [
    "repro.core", "repro.cliques", "repro.bucketing", "repro.graph",
    "repro.parallel", "repro.machine", "repro.baselines",
    "repro.experiments", "repro.cli", "repro.sanitize",
])
def test_subpackages_import(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} lacks a module docstring"


@pytest.mark.parametrize("module", [
    "repro.core", "repro.cliques", "repro.bucketing", "repro.graph",
    "repro.parallel", "repro.baselines", "repro.sanitize",
])
def test_subpackage_all_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_readme_quickstart_works():
    """The README's quickstart snippet, verbatim."""
    from repro import load_dataset, arb_nucleus_decomp

    graph = load_dataset("dblp")
    result = arb_nucleus_decomp(graph, r=2, s=3)
    assert result.max_core > 0
    assert result.rho > 0
    cores = result.as_dict()
    assert len(cores) == graph.m


def test_public_functions_have_docstrings():
    import inspect
    undocumented = []
    for module_name in ("repro.core.decomp", "repro.core.tables",
                        "repro.core.aggregation", "repro.core.config",
                        "repro.core.validate", "repro.core.kcore",
                        "repro.core.ktruss", "repro.core.densest",
                        "repro.cliques.listing", "repro.cliques.orient",
                        "repro.cliques.approx", "repro.cliques.encode",
                        "repro.parallel.runtime", "repro.parallel.hashtable",
                        "repro.parallel.scheduler", "repro.parallel.sort",
                        "repro.parallel.connectivity",
                        "repro.parallel.unionfind",
                        "repro.bucketing.julienne", "repro.bucketing.fibheap",
                        "repro.bucketing.dense", "repro.machine.cache",
                        "repro.graph.csr",
                        "repro.graph.generators", "repro.graph.stats",
                        "repro.analysis.nuclei", "repro.analysis.hierarchy",
                        "repro.analysis.serialize",
                        "repro.baselines.common", "repro.baselines.nd",
                        "repro.baselines.local", "repro.baselines.pkt",
                        "repro.sanitize.parlint", "repro.sanitize.racecheck",
                        "repro.experiments.harness",
                        "repro.experiments.sweeps"):
        mod = importlib.import_module(module_name)
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if obj.__module__ != module_name:
                    continue
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
    assert not undocumented, undocumented
