"""The perf-trajectory harness: a pinned suite of tracked decompositions.

Every future performance PR is judged against the numbers this module
produces, so the suite is deliberately **pinned**: fixed surrogate
graphs, fixed (r, s) pairs covering the paper's three headline workloads
(k-core, k-truss, and (3,4) nucleus), the default
:class:`~repro.parallel.runtime.MachineModel`, and an exact (unsampled)
cache simulator.  Everything measured is deterministic, so two runs of
the same tree produce byte-identical metrics and any drift in
``--compare`` mode is a real accounting change.

The canonical output (``BENCH_nucleus.json`` at the repo root) records,
per suite entry, the quantities the paper's evaluation is built from ---
work, span, rounds (rho), contention, cache misses, simulated T1/T60 and
self-relative speedup --- plus the per-phase counters and the five-term
:meth:`~repro.parallel.runtime.MachineModel.time_breakdown` so a
regression can be localized, not just detected.

:func:`compare` flags regressions beyond a relative tolerance; the CI
``bench-trajectory`` job runs it against the committed baseline.
"""

from __future__ import annotations

import json

from ..analysis.construct import nucleus_hierarchy
from ..baselines.msp import msp_decomposition
from ..baselines.nd import nd_decomposition, pnd_decomposition
from ..baselines.pkt import pkt_decomposition, pkt_opt_cpu_decomposition
from ..core.config import NucleusConfig
from ..core.decomp import arb_nucleus_decomp
from ..core.densest import k_clique_densest
from ..core.kcore import k_core
from ..graph.datasets import load_dataset
from ..graph.stats import partition_statistics
from ..machine.cache import CacheSimulator
from ..parallel.runtime import CostTracker, MachineModel

#: Schema version of the payload; bump on incompatible layout changes.
SCHEMA_VERSION = 1

#: The pinned suite: (graph, r, s).  k-core (1,2), k-truss (2,3), and
#: (3,4) nucleus on three surrogate graphs of increasing size; youtube's
#: (3,4) run is included to keep one mid-size high-(r,s) point.
PINNED_SUITE: tuple[tuple[str, int, int], ...] = (
    ("amazon", 1, 2), ("amazon", 2, 3), ("amazon", 3, 4),
    ("dblp", 1, 2), ("dblp", 2, 3), ("dblp", 3, 4),
    ("youtube", 1, 2), ("youtube", 2, 3), ("youtube", 3, 4),
)

#: Parallel thread count of the trajectory's T_P column (the paper's 60).
BENCH_THREADS = 60

#: Scalar metrics compared by :func:`compare`; True means lower-is-better.
#: ``comm_time`` / ``comm_reduction`` only appear in sharded entries;
#: entries without a metric skip it.
COMPARED_METRICS: dict[str, bool] = {
    "work": True, "span": True, "rho": True, "T1": True,
    "T60": True, "contention": True, "cache_misses": True,
    "speedup": False, "comm_time": True, "comm_reduction": False,
}

_PHASE_FIELDS = ("work", "span", "rounds", "contention", "cache_misses")

#: The pinned baseline suite: (baseline, graph).  The ND-family
#: competitors run on the mid-size dblp surrogate, the truss family and
#: k-core on the largest (youtube), and the densest-subgraph scan on both
#: amazon and dblp (its suffix re-listings grow quickly with graph size).
BASELINE_SUITE: tuple[tuple[str, str], ...] = (
    ("nd", "dblp"),
    ("pnd", "dblp"),
    ("pkt", "youtube"),
    ("pkt-opt-cpu", "youtube"),
    ("msp", "youtube"),
    ("kcore", "youtube"),
    ("densest", "amazon"),
    ("densest", "dblp"),
)

#: Each baseline's hot phase: the one its batch engine vectorizes, whose
#: wall-clock the engine gate's --min-baseline-speedup floor is over.
BASELINE_HOT_PHASE: dict[str, str] = {
    "nd": "peel", "pnd": "peel", "pkt": "peel", "pkt-opt-cpu": "peel",
    "msp": "peel", "kcore": "peel", "densest": "scan",
}

#: The pinned hierarchy-construction suite: (graph, r, s).  The k-truss
#: hierarchy on the two smaller surrogates plus one higher-(r,s) point;
#: entries measure hierarchy construction only (the decomposition that
#: feeds it runs off the books on a throwaway tracker).
HIERARCHY_SUITE: tuple[tuple[str, int, int], ...] = (
    ("amazon", 2, 3), ("amazon", 3, 4), ("dblp", 2, 3),
)

#: The hierarchy engine's hot phase: the level-sweep kernel the batch
#: engine vectorizes, whose wall-clock the engine gate's
#: --min-hierarchy-speedup floor is over (``hier_list`` and
#: ``hier_emit`` are shared code between the engines).
HIERARCHY_HOT_PHASE = "hier_levels"

#: The pinned sharded suite: (graph, r, s, shards).  Covers two shard
#: counts (4 and 8) so the --min-comm-reduction floor --- how much the
#: mincut partitioner must cut simulated comm time versus the hash
#: baseline --- is enforced on both.
SHARDED_SUITE: tuple[tuple[str, int, int, int], ...] = (
    ("amazon", 2, 3, 4), ("amazon", 2, 3, 8),
    ("dblp", 1, 2, 4), ("dblp", 2, 3, 8),
)


def entry_key(entry: dict) -> str:
    return f"{entry['graph']}({entry['r']},{entry['s']})"


def baseline_entry_key(entry: dict) -> str:
    return f"{entry['baseline']}@{entry['graph']}"


def _tag(oracle: bool) -> str:
    """Progress-line suffix marking an oracle run."""
    return " [oracle]" if oracle else ""


def hierarchy_entry_key(entry: dict) -> str:
    return f"hier:{entry['graph']}({entry['r']},{entry['s']})"


def sharded_entry_key(entry: dict) -> str:
    return (f"shard:{entry['graph']}({entry['r']},{entry['s']})"
            f"x{entry['shards']}")


def run_entry(graph_name: str, r: int, s: int,
              machine: MachineModel | None = None,
              threads: int = BENCH_THREADS,
              oracle: bool = False) -> dict:
    """Run one pinned decomposition and extract its canonical metrics.

    ``oracle`` runs the scalar oracle kernels instead of the batch ones
    (:attr:`CostTracker.oracle`); by the kernels' cost-parity invariant
    (docs/cost-model.md) every *simulated* metric in the payload is the
    same either way --- only the ``wall_clock`` section (host seconds per
    phase, outside the machine model) and the ``oracle`` tag may differ,
    and neither is in :data:`COMPARED_METRICS`.
    """
    machine = machine or MachineModel()
    graph = load_dataset(graph_name)
    tracker = CostTracker(oracle=oracle)
    tracker.cache = CacheSimulator()  # exact: sample=1
    result = arb_nucleus_decomp(graph, r, s, NucleusConfig.optimal(r, s),
                                tracker)
    t1 = machine.time(tracker, 1)
    tp = machine.time(tracker, threads)
    breakdown = machine.time_breakdown(tracker, threads)
    return {
        "graph": graph_name, "r": r, "s": s,
        "oracle": oracle,
        "wall_clock": {
            "total": sum(tracker.phase_wall.values()),
            **{name: seconds
               for name, seconds in sorted(tracker.phase_wall.items())},
        },
        "n_r": result.n_r_cliques, "n_s": result.n_s_cliques,
        "rho": result.rho, "max_core": result.max_core,
        "work": tracker.total.work,
        "span": tracker.span,
        "rounds": tracker.total.rounds,
        "atomic_ops": tracker.total.atomic_ops,
        "contention": tracker.total.contention,
        "table_probes": tracker.total.table_probes,
        "cache_accesses": tracker.cache.accesses,
        "cache_misses": tracker.cache.misses,
        "memory_units": result.table_memory_units,
        "T1": t1, "T60": tp, "speedup": t1 / tp,
        "phases": {
            name: {field: getattr(stats, field) for field in _PHASE_FIELDS}
            for name, stats in tracker.phases.items()
        },
        "breakdown": breakdown["total"],
    }


def run_suite(machine: MachineModel | None = None,
              threads: int = BENCH_THREADS,
              suite: tuple[tuple[str, int, int], ...] | None = None,
              label: str = "", progress=None,
              oracle: bool = False) -> dict:
    """Run the pinned suite; returns the canonical JSON payload (a dict)."""
    if suite is None:
        suite = PINNED_SUITE  # resolved at call time (tests shrink it)
    machine = machine or MachineModel()
    entries = []
    for graph_name, r, s in suite:
        if progress is not None:
            progress(f"bench: {graph_name} ({r},{s}){_tag(oracle)}")
        entries.append(run_entry(graph_name, r, s, machine, threads,
                                 oracle=oracle))
    from dataclasses import asdict
    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "threads": threads,
        "oracle": oracle,
        "machine": asdict(machine),
        "suite": entries,
    }


def run_baseline_entry(name: str, graph_name: str,
                       machine: MachineModel | None = None,
                       threads: int = BENCH_THREADS,
                       oracle: bool = False) -> dict:
    """Run one pinned baseline and extract its canonical metrics.

    Mirrors :func:`run_entry`: by the kernels' cost-parity invariant,
    every *simulated* metric is the same with or without ``oracle`` ---
    only ``wall_clock`` and the ``oracle`` tag may differ.
    """
    machine = machine or MachineModel()
    graph = load_dataset(graph_name)
    tracker = CostTracker(oracle=oracle)
    tracker.cache = CacheSimulator()  # exact: sample=1
    if name == "nd":
        nd_decomposition(graph, 2, 3, tracker)
    elif name == "pnd":
        pnd_decomposition(graph, 2, 3, tracker)
    elif name == "pkt":
        pkt_decomposition(graph, tracker)
    elif name == "pkt-opt-cpu":
        pkt_opt_cpu_decomposition(graph, tracker)
    elif name == "msp":
        msp_decomposition(graph, tracker)
    elif name == "kcore":
        k_core(graph, tracker)
    elif name == "densest":
        k_clique_densest(graph, 3, tracker)
    else:
        raise ValueError(f"unknown baseline {name!r}")
    t1 = machine.time(tracker, 1)
    tp = machine.time(tracker, threads)
    return {
        "baseline": name, "graph": graph_name,
        "oracle": oracle,
        "hot_phase": BASELINE_HOT_PHASE[name],
        "wall_clock": {
            "total": sum(tracker.phase_wall.values()),
            **{phase: seconds
               for phase, seconds in sorted(tracker.phase_wall.items())},
        },
        "work": tracker.total.work,
        "span": tracker.span,
        "rho": tracker.total.rounds,
        "rounds": tracker.total.rounds,
        "atomic_ops": tracker.total.atomic_ops,
        "contention": tracker.total.contention,
        "cliques": tracker.total.cliques_enumerated,
        "cache_accesses": tracker.cache.accesses,
        "cache_misses": tracker.cache.misses,
        "T1": t1, "T60": tp, "speedup": t1 / tp,
        "phases": {
            phase: {field: getattr(stats, field)
                    for field in _PHASE_FIELDS}
            for phase, stats in tracker.phases.items()
        },
    }


def run_baseline_suite(machine: MachineModel | None = None,
                       threads: int = BENCH_THREADS,
                       suite: tuple[tuple[str, str], ...] | None = None,
                       progress=None,
                       oracle: bool = False) -> list[dict]:
    """Run the pinned baseline suite; returns the entry list (stored
    under the main payload's ``"baselines"`` key by the trajectory
    tool)."""
    if suite is None:
        suite = BASELINE_SUITE  # resolved at call time (tests shrink it)
    machine = machine or MachineModel()
    entries = []
    for name, graph_name in suite:
        if progress is not None:
            progress(f"bench baseline: {name} @ {graph_name}{_tag(oracle)}")
        entries.append(run_baseline_entry(name, graph_name, machine,
                                          threads, oracle=oracle))
    return entries


def run_hierarchy_entry(graph_name: str, r: int, s: int,
                        machine: MachineModel | None = None,
                        threads: int = BENCH_THREADS,
                        oracle: bool = False) -> dict:
    """Run one pinned hierarchy construction; canonical metrics.

    The decomposition feeding the hierarchy runs on a throwaway tracker
    so the entry's simulated metrics cover hierarchy construction only.
    Mirrors :func:`run_entry`: by the hierarchy kernels' cost-parity
    invariant every simulated metric is the same with or without
    ``oracle`` --- only ``wall_clock`` and the ``oracle`` tag may differ.
    """
    machine = machine or MachineModel()
    graph = load_dataset(graph_name)
    result = arb_nucleus_decomp(graph, r, s, NucleusConfig.optimal(r, s),
                                CostTracker(oracle=oracle))
    tracker = CostTracker(oracle=oracle)
    tracker.cache = CacheSimulator()  # exact: sample=1
    hierarchy = nucleus_hierarchy(graph, result, tracker)
    t1 = machine.time(tracker, 1)
    tp = machine.time(tracker, threads)
    return {
        "graph": graph_name, "r": r, "s": s,
        "oracle": oracle,
        "hot_phase": HIERARCHY_HOT_PHASE,
        "wall_clock": {
            "total": sum(tracker.phase_wall.values()),
            **{name: seconds
               for name, seconds in sorted(tracker.phase_wall.items())},
        },
        "n_nuclei": len(hierarchy),
        "n_levels": len({nucleus.level for nucleus in hierarchy.nuclei}),
        "work": tracker.total.work,
        "span": tracker.span,
        "rho": tracker.total.rounds,
        "rounds": tracker.total.rounds,
        "atomic_ops": tracker.total.atomic_ops,
        "contention": tracker.total.contention,
        "cache_accesses": tracker.cache.accesses,
        "cache_misses": tracker.cache.misses,
        "T1": t1, "T60": tp, "speedup": t1 / tp,
        "phases": {
            name: {field: getattr(stats, field) for field in _PHASE_FIELDS}
            for name, stats in tracker.phases.items()
        },
    }


def run_hierarchy_suite(machine: MachineModel | None = None,
                        threads: int = BENCH_THREADS,
                        suite: tuple[tuple[str, int, int], ...] | None = None,
                        progress=None,
                        oracle: bool = False) -> list[dict]:
    """Run the pinned hierarchy suite; returns the entry list (stored
    under the main payload's ``"hierarchy"`` key by the trajectory
    tool)."""
    if suite is None:
        suite = HIERARCHY_SUITE  # resolved at call time (tests shrink it)
    machine = machine or MachineModel()
    entries = []
    for graph_name, r, s in suite:
        if progress is not None:
            progress(f"bench hierarchy: {graph_name} ({r},{s})"
                     f"{_tag(oracle)}")
        entries.append(run_hierarchy_entry(graph_name, r, s, machine,
                                           threads, oracle=oracle))
    return entries


def run_sharded_entry(graph_name: str, r: int, s: int, shards: int,
                      machine: MachineModel | None = None,
                      threads: int = BENCH_THREADS,
                      oracle: bool = False) -> dict:
    """Run one pinned sharded decomposition under both partitioners.

    The entry records, per partitioner, the simulated communication
    volume/time and partition quality, plus the headline comparison
    metrics: ``comm_time`` (mincut's --- lower is better),
    ``comm_reduction`` (hash comm time over mincut comm time --- the
    quantity the engine gate's ``--min-comm-reduction`` floor pins), and
    ``speedup`` (single-node simulated time over the mincut distributed
    time).  ``oracle`` runs the scalar oracle kernels for the sharded
    runs and the single-node reference.  By the kernels' cost-parity
    invariants every simulated metric is the same either way --- only
    ``wall_clock`` (whose ``local_peel`` field sums both partitioners'
    shard local-round seconds) and the ``oracle`` tag may differ.
    """
    # Imported here: repro.distributed pulls in repro.observe.trace, so a
    # module-level import would be circular through the package __init__.
    from ..distributed import DistributedMachineModel, sharded_nucleus_decomp
    machine = machine or MachineModel()
    distributed = DistributedMachineModel(machine)
    graph = load_dataset(graph_name)
    config = NucleusConfig.optimal(r, s)
    single_tracker = CostTracker(oracle=oracle)
    reference = arb_nucleus_decomp(graph, r, s, config,
                                   tracker=single_tracker)
    single_time = machine.time(single_tracker, threads)
    reference_cores = reference.as_dict()
    per_partitioner = {}
    wall = 0.0
    local_peel = 0.0
    mincut_result = None
    for name in ("hash", "mincut"):
        result = sharded_nucleus_decomp(graph, r, s, shards,
                                        partitioner=name, config=config,
                                        tracker=CostTracker(oracle=oracle))
        quality = partition_statistics(graph, result.partition.shard_of,
                                       shards, s=s)
        per_partitioner[name] = {
            "comm_messages": result.comm_messages,
            "comm_bytes": result.comm_bytes,
            "comm_time": distributed.comm_time(result.comm_messages,
                                               result.comm_bytes),
            "T60": distributed.time(result, threads),
            "edge_cut": quality["edge_cut"],
            "cut_fraction": quality["cut_fraction"],
            "imbalance": quality["imbalance"],
            "triangle_spill_fraction": quality["triangle_spill_fraction"],
            "s_clique_spill_estimate": quality["s_clique_spill_estimate"],
            "matches_oracle": result.as_dict() == reference_cores,
        }
        wall += sum(result.tracker.phase_wall.values()) + sum(
            sum(st.phase_wall.values()) for st in result.shard_trackers)
        local_peel += sum(st.phase_wall.get("local_peel", 0.0)
                          for st in result.shard_trackers)
        if name == "mincut":
            mincut_result = result
    hash_stats = per_partitioner["hash"]
    mincut_stats = per_partitioner["mincut"]
    if mincut_stats["comm_time"] > 0:
        comm_reduction = hash_stats["comm_time"] / mincut_stats["comm_time"]
    else:
        comm_reduction = 1.0 if hash_stats["comm_time"] == 0 else \
            float("inf")
    return {
        "graph": graph_name, "r": r, "s": s, "shards": shards,
        "oracle": oracle,
        "wall_clock": {"total": wall, "local_peel": local_peel},
        "n_r": mincut_result.n_r_cliques, "n_s": mincut_result.n_s_cliques,
        "rho": mincut_result.rho, "max_core": mincut_result.max_core,
        "comm_messages": mincut_stats["comm_messages"],
        "comm_bytes": mincut_stats["comm_bytes"],
        "comm_time": mincut_stats["comm_time"],
        "comm_reduction": comm_reduction,
        "T60_single": single_time,
        "T60": mincut_stats["T60"],
        "speedup": single_time / mincut_stats["T60"],
        "matches_oracle": (hash_stats["matches_oracle"]
                           and mincut_stats["matches_oracle"]),
        "hash": hash_stats,
        "mincut": mincut_stats,
    }


def run_sharded_suite(machine: MachineModel | None = None,
                      threads: int = BENCH_THREADS,
                      suite: tuple[tuple[str, int, int, int], ...]
                      | None = None,
                      progress=None,
                      oracle: bool = False) -> list[dict]:
    """Run the pinned sharded suite; returns the entry list (stored under
    the main payload's ``"sharded"`` key by the trajectory tool)."""
    if suite is None:
        suite = SHARDED_SUITE  # resolved at call time (tests shrink it)
    machine = machine or MachineModel()
    entries = []
    for graph_name, r, s, shards in suite:
        if progress is not None:
            progress(f"bench sharded: {graph_name} ({r},{s}) x{shards}"
                     f"{_tag(oracle)}")
        entries.append(run_sharded_entry(graph_name, r, s, shards, machine,
                                         threads, oracle=oracle))
    return entries


def write_payload(payload: dict, path) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_payload(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def compare(current: dict, baseline: dict,
            tolerance: float = 0.05) -> list[str]:
    """Regressions of ``current`` against ``baseline`` beyond ``tolerance``.

    Returns human-readable descriptions (empty when clean).  A metric
    regresses when it worsens by more than ``tolerance`` relative to the
    baseline --- grows for lower-is-better metrics (work, span, rho, times,
    contention, cache misses), shrinks for speedup.  Entries present in
    the baseline but missing from the current run are regressions;
    entries new in the current run are not.  The optional ``"baselines"``
    section (the competitor suite) is compared the same way, but only
    when both payloads record it (a plain ``repro bench`` payload, for
    example, carries no baseline section).
    """
    regressions = []
    sections = (("suite", entry_key), ("baselines", baseline_entry_key),
                ("hierarchy", hierarchy_entry_key),
                ("sharded", sharded_entry_key))
    for section, key_of in sections:
        if section not in current or section not in baseline:
            continue
        base_by_key = {key_of(e): e for e in baseline.get(section, [])}
        cur_by_key = {key_of(e): e for e in current.get(section, [])}
        for key, base in base_by_key.items():
            cur = cur_by_key.get(key)
            if cur is None:
                regressions.append(f"{key}: entry missing from current run")
                continue
            for metric, lower_is_better in COMPARED_METRICS.items():
                if metric not in base or metric not in cur:
                    continue
                old, new = float(base[metric]), float(cur[metric])
                scale = abs(old) if old else 1.0
                if lower_is_better:
                    worsened = new - old > tolerance * scale
                else:
                    worsened = old - new > tolerance * scale
                if worsened:
                    direction = "rose" if lower_is_better else "fell"
                    regressions.append(
                        f"{key}: {metric} {direction} "
                        f"{old:.6g} -> {new:.6g} "
                        f"({100.0 * (new - old) / scale:+.1f}%, "
                        f"tolerance {100.0 * tolerance:.1f}%)")
    return regressions
