"""Command-line interface for the nucleus decomposition library.

Subcommands::

    python -m repro.cli decompose --input graph.txt --r 2 --s 3
    python -m repro.cli decompose --dataset dblp --r 3 --s 4 --histogram
    python -m repro.cli generate --kind rmat --scale 10 --edge-factor 8 -o g.txt
    python -m repro.cli stats --dataset skitter
    python -m repro.cli figure fig14
    python -m repro.cli lint src/repro --json
    python -m repro.cli sanitize
    python -m repro.cli bench --compare BENCH_nucleus.json -o BENCH_new.json
    python -m repro.cli profile --dataset dblp --r 2 --s 3 -o trace.json
    python -m repro.cli shard --dataset dblp --r 2 --s 3 --shards 4 --verify
    python -m repro.cli hierarchy --dataset dblp --r 2 --s 3 --summary
    python -m repro.cli hierarchy --dataset dblp --r 2 --s 3 -o hier.json
    python -m repro.cli hierarchy --load hier.json --vertex 5 --level 2
    python -m repro.cli hierarchy --load hier.json --edge 3 7

``decompose`` reads a SNAP-style edge list (or a named surrogate dataset),
runs ARB-NUCLEUS-DECOMP, and prints summary statistics, the core-number
histogram, and optionally every r-clique's core number.  ``lint`` runs the
parlint cost-accounting rules (PAR001--PAR004; with ``--strict`` the
interprocedural charge-flow analyzer adds PAR005--PAR011: the
batch/scalar parity registry plus the static race, atomic-commutativity,
and race-coverage rules) and ``sanitize`` drives the dynamic race
detector over the main algorithm and the baselines.
``bench`` runs the pinned perf-trajectory suite (optionally gating on a
baseline) and ``profile`` runs one decomposition under the trace recorder,
writing a Chrome-trace JSON and printing the six-term time breakdown.
``shard`` runs the sharded multi-node decomposition (docs/sharding.md)
and reports partition quality, communication volume, and the composed
distributed time model.
``hierarchy`` builds the connected-nucleus hierarchy on the simulated
machine (or loads a saved one) and serves the indexed queries: nuclei at
a level, the nucleus containing a vertex at a level, and the densest
nucleus containing an edge.
"""

from __future__ import annotations

import argparse
import sys

from .core.config import NucleusConfig
from .core.decomp import arb_nucleus_decomp
from .experiments import figures
from .graph.datasets import dataset_names, load_dataset
from .graph.generators import erdos_renyi, planted_partition, rmat_graph
from .graph.io import read_edge_list, write_edge_list
from .parallel.runtime import CostTracker, MachineModel


def _load_graph(args):
    if args.dataset:
        return load_dataset(args.dataset), args.dataset
    if args.input:
        try:
            return read_edge_list(args.input), args.input
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: {exc}") from None
    raise SystemExit("provide --input FILE or --dataset NAME")


def _check_shards(args) -> None:
    if args.shards is not None and args.shards < 1:
        raise SystemExit(f"error: --shards must be >= 1, got {args.shards}")


def _build_config(args, graph) -> NucleusConfig:
    """The run's configuration; an impossible one (say r >= s) exits
    with a one-line error instead of a traceback."""
    if getattr(args, "unoptimized", False):
        config = NucleusConfig.unoptimized()
    else:
        config = NucleusConfig.optimal(args.r, args.s)
    overrides = {}
    for field in ("levels", "aggregation", "bucketing", "orientation"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "no_relabel", False):
        overrides["relabel"] = False
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    try:
        config.validated(graph.n, args.r, args.s)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    return config


def _cmd_decompose(args) -> int:
    graph, name = _load_graph(args)
    config = _build_config(args, graph)
    tracker = CostTracker()
    result = arb_nucleus_decomp(graph, args.r, args.s, config, tracker)
    machine = MachineModel()
    print(f"graph {name}: n={graph.n} m={graph.m}")
    print(f"({args.r},{args.s}) nucleus decomposition:")
    print(f"  r-cliques: {result.n_r_cliques}  s-cliques: {result.n_s_cliques}")
    print(f"  peeling rounds (rho): {result.rho}  max core: {result.max_core}")
    print(f"  T memory units: {result.table_memory_units}")
    print(f"  simulated time: T(1)={machine.time(tracker, 1):.0f} "
          f"T(60)={machine.time(tracker, 60):.0f} "
          f"(speedup {machine.speedup(tracker, 60):.1f}x)")
    if args.histogram:
        print("  core histogram:")
        for core, count in sorted(result.core_histogram().items()):
            print(f"    {core}: {count}")
    if args.full:
        for clique, core in sorted(result.as_dict().items()):
            print(" ".join(map(str, clique)), core)
    return 0


def _cmd_generate(args) -> int:
    if args.kind == "rmat":
        graph = rmat_graph(args.scale, args.edge_factor, seed=args.seed)
    elif args.kind == "erdos-renyi":
        n = 1 << args.scale
        graph = erdos_renyi(n, args.edge_factor * n, seed=args.seed)
    else:
        n = 1 << args.scale
        graph = planted_partition(n, max(4, n // 20), 0.5, 1.0 / n,
                                  seed=args.seed)
    write_edge_list(graph, args.output, header=f"generated: {args.kind}")
    print(f"wrote {graph.n} vertices / {graph.m} edges to {args.output}")
    return 0


def _print_partition_quality(quality: dict, indent: str = "  ") -> None:
    print(f"{indent}shard sizes = {quality['shard_sizes']} "
          f"(imbalance {quality['imbalance']:.2f})")
    print(f"{indent}edge cut = {quality['edge_cut']} "
          f"({100.0 * quality['cut_fraction']:.1f}% of edges)")
    print(f"{indent}triangle spill = {quality['triangle_spill']} "
          f"({100.0 * quality['triangle_spill_fraction']:.1f}% of "
          f"triangles)")
    if "s_clique_spill_estimate" in quality:
        print(f"{indent}s-clique spill estimate = "
              f"{100.0 * quality['s_clique_spill_estimate']:.1f}%")


def _cmd_stats(args) -> int:
    _check_shards(args)
    graph, name = _load_graph(args)
    from .cliques.orient import degeneracy
    from .cliques.counting import triangle_count
    print(f"graph {name}:")
    print(f"  n = {graph.n}")
    print(f"  m = {graph.m}")
    print(f"  max degree = {int(graph.degrees.max()) if graph.n else 0}")
    print(f"  degeneracy = {degeneracy(graph)}")
    print(f"  triangles = {triangle_count(graph)}")
    if args.shards:
        from .distributed import PARTITIONERS
        from .graph.stats import partition_statistics
        partition = PARTITIONERS[args.partitioner](graph, args.shards)
        quality = partition_statistics(graph, partition.shard_of,
                                       args.shards, s=args.s)
        print(f"  partition [{args.partitioner}, {args.shards} shard(s)]:")
        _print_partition_quality(quality, indent="    ")
    return 0


def _cmd_figure(args) -> int:
    drivers = {
        "fig07": figures.fig07, "fig08": figures.fig08,
        "fig09": figures.fig09_fig10, "fig10": figures.fig09_fig10,
        "fig11": figures.fig11, "fig12": figures.fig12,
        "fig13": figures.fig13, "fig14": figures.fig14,
        "fig15": figures.fig15,
    }
    if args.name not in drivers:
        raise SystemExit(f"unknown figure {args.name!r}; "
                         f"options: {sorted(set(drivers))}")
    print(drivers[args.name]().show())
    return 0


def _cmd_lint(args) -> int:
    if args.explain:
        from .sanitize import chargeflow
        return chargeflow.main(["--explain", args.explain])
    if args.strict or args.sarif is not None or args.baseline \
            or args.emit_registry or args.race_tests:
        from .sanitize import chargeflow
        root = args.paths[0] if args.paths else "src/repro"
        argv = [root]
        if args.json:
            argv.append("--json")
        if args.sarif is not None:
            argv += ["--sarif", args.sarif] if args.sarif != "-" \
                else ["--sarif"]
        if args.baseline:
            argv += ["--baseline", args.baseline]
        if args.emit_registry:
            argv.append("--emit-registry")
        if args.race_tests:
            argv += ["--race-tests", args.race_tests]
        return chargeflow.main(argv)
    from .sanitize.parlint import lint_paths, report_json
    findings, n_files = lint_paths(args.paths)
    if args.json:
        print(report_json(findings, n_files))
    else:
        for finding in findings:
            print(finding.render())
        print(f"parlint: {len(findings)} finding(s) in {n_files} file(s)")
    return 1 if findings else 0


def _cmd_sanitize(args) -> int:
    """Run every decomposition under the dynamic race detector."""
    from .baselines.local import and_decomposition
    from .baselines.msp import msp_decomposition
    from .baselines.nd import nd_decomposition
    from .baselines.pkt import pkt_decomposition
    from .graph.generators import figure1_graph
    from .sanitize.racecheck import RaceDetector

    if args.dataset:
        graph, name = load_dataset(args.dataset), args.dataset
    else:
        graph, name = figure1_graph(), "figure1"
    runs = [
        ("arb (2,3)", lambda t: arb_nucleus_decomp(
            graph, 2, 3, NucleusConfig.optimal(2, 3), t)),
        ("arb (1,2)", lambda t: arb_nucleus_decomp(
            graph, 1, 2, NucleusConfig.optimal(1, 2), t)),
        ("nd", lambda t: nd_decomposition(graph, 2, 3, t)),
        ("pkt", lambda t: pkt_decomposition(graph, t)),
        ("msp", lambda t: msp_decomposition(graph, t)),
        ("and", lambda t: and_decomposition(graph, 2, 3, t)),
    ]
    failures = 0
    print(f"sanitize: graph {name} (n={graph.n} m={graph.m})")
    for label, run in runs:
        tracker = CostTracker()
        detector = RaceDetector()
        tracker.race_detector = detector
        run(tracker)
        races = detector.settle(strict=False)
        stats = detector.stats
        status = "ok" if not races else f"{len(races)} race(s)"
        print(f"  {label:<10} {status}  "
              f"({stats.logged} accesses, {stats.tasks} tasks)")
        for race in races[:10]:
            print(f"    {race.describe()}")
        failures += bool(races)
    return 1 if failures else 0


def _cmd_bench(args) -> int:
    """Run the pinned perf-trajectory suite; optionally gate on a baseline."""
    from .observe import bench
    # Load the baseline up front: --output may name the same file.
    baseline = bench.load_payload(args.compare) if args.compare else None
    payload = bench.run_suite(threads=args.threads, label=args.label,
                              progress=lambda msg: print(msg, flush=True))
    bench.write_payload(payload, args.output)
    print(f"wrote {len(payload['suite'])} suite entries to {args.output}")
    if baseline is not None:
        regressions = bench.compare(payload, baseline,
                                    tolerance=args.tolerance)
        if regressions:
            print(f"REGRESSIONS vs {args.compare}:")
            for line in regressions:
                print(f"  {line}")
            return 1
        print(f"no regressions vs {args.compare} "
              f"(tolerance {100.0 * args.tolerance:.1f}%)")
    return 0


def _describe_nucleus(nucleus) -> str:
    vertices = sorted(nucleus.vertices)
    shown = " ".join(map(str, vertices[:12]))
    if len(vertices) > 12:
        shown += f" ... [{len(vertices)} vertices]"
    return (f"node {nucleus.node_id} level {nucleus.level} "
            f"parent {nucleus.parent_id} "
            f"({nucleus.size} r-cliques): {shown}")


def _cmd_hierarchy(args) -> int:
    """Build (or load) a nucleus hierarchy and serve indexed queries."""
    from .analysis import (HierarchyIndex, load_hierarchy_json,
                           nucleus_hierarchy, save_hierarchy_json)
    if args.load:
        try:
            hierarchy = load_hierarchy_json(args.load)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: {args.load}: {exc}") from None
        print(f"loaded ({hierarchy.r},{hierarchy.s}) hierarchy from "
              f"{args.load}: {len(hierarchy)} nuclei")
    else:
        if args.r is None or args.s is None:
            raise SystemExit("provide --r and --s (or --load FILE)")
        graph, name = _load_graph(args)
        config = _build_config(args, graph)
        tracker = CostTracker()
        result = arb_nucleus_decomp(graph, args.r, args.s, config, tracker)
        hierarchy = nucleus_hierarchy(graph, result, tracker)
        machine = MachineModel()
        print(f"graph {name}: n={graph.n} m={graph.m}")
        print(f"({args.r},{args.s}) hierarchy: {len(hierarchy)} nuclei "
              f"across {len({x.level for x in hierarchy.nuclei})} levels "
              f"(max core {result.max_core})")
        print(f"  simulated time (decompose + build): "
              f"T(1)={machine.time(tracker, 1):.0f} "
              f"T(60)={machine.time(tracker, 60):.0f}")
    if args.output:
        save_hierarchy_json(hierarchy, args.output)
        print(f"wrote hierarchy JSON to {args.output}")
    index = HierarchyIndex(hierarchy)
    queried = False
    if args.edge:
        queried = True
        u, v = args.edge
        nucleus = index.densest_containing_edge(u, v)
        if nucleus is None:
            print(f"edge ({u}, {v}): no nucleus contains both endpoints")
        else:
            print(f"densest nucleus containing edge ({u}, {v}):")
            print(f"  {_describe_nucleus(nucleus)}")
    if args.vertex is not None and args.level is not None:
        queried = True
        found = index.nucleus_of_vertex(args.vertex, args.level)
        if not found:
            print(f"vertex {args.vertex} is in no nucleus at level "
                  f"{args.level}")
        for nucleus in found:
            print(f"vertex {args.vertex} at level {args.level}: "
                  f"{_describe_nucleus(nucleus)}")
    elif args.vertex is not None:
        queried = True
        nucleus = index.densest_containing_vertex(args.vertex)
        if nucleus is None:
            print(f"vertex {args.vertex} is in no nucleus")
        else:
            print(f"densest nucleus containing vertex {args.vertex}:")
            print(f"  {_describe_nucleus(nucleus)}")
    elif args.level is not None:
        queried = True
        found = index.at_level(args.level)
        print(f"{len(found)} nucleus(es) at level {args.level}:")
        for nucleus in found:
            print(f"  {_describe_nucleus(nucleus)}")
    if args.summary or not queried:
        levels = index.levels()
        print(f"levels: {levels}")
        for level in levels:
            sizes = [nucleus.size for nucleus in index.at_level(level)]
            print(f"  level {level}: {len(sizes)} nucleus(es), "
                  f"sizes {sizes[:10]}"
                  + (" ..." if len(sizes) > 10 else ""))
        print(f"roots: {len(hierarchy.roots())}  "
              f"leaves: {len(hierarchy.leaves())}")
    return 0


def _cmd_profile(args) -> int:
    """Run one decomposition under the trace recorder + breakdown.

    With ``--shards`` the run is sharded and the written trace merges the
    coordinator's lanes with one lane group per shard, so the exchange
    barriers between local peel rounds are visible.  The run uses the
    scalar oracle kernels: only they emit per-task trace slices (the
    simulated costs are the same as the batch kernels').
    """
    from .machine.cache import CacheSimulator
    from .observe import TraceRecorder, format_breakdown, write_merged_trace
    _check_shards(args)
    graph, name = _load_graph(args)
    config = _build_config(args, graph)
    tracker = CostTracker(oracle=True)
    tracker.cache = CacheSimulator()
    tracker.trace = TraceRecorder(task_limit=args.task_limit)
    machine = MachineModel()
    if args.shards:
        from .distributed import sharded_nucleus_decomp
        result = sharded_nucleus_decomp(graph, args.r, args.s, args.shards,
                                        partitioner=args.partitioner,
                                        config=config, tracker=tracker)
        print(f"graph {name}: n={graph.n} m={graph.m}  "
              f"({args.r},{args.s}) x{args.shards} shard(s) "
              f"rho={result.rho} max_core={result.max_core}")
        print(format_breakdown(machine.time_breakdown(tracker, args.threads),
                               title="coordinator time breakdown"))
        recorders = [tracker.trace, *result.shard_traces]
        write_merged_trace(recorders, args.output)
        events = sum(len(recorder.events) for recorder in recorders)
    else:
        result = arb_nucleus_decomp(graph, args.r, args.s, config, tracker)
        print(f"graph {name}: n={graph.n} m={graph.m}  "
              f"({args.r},{args.s}) rho={result.rho} "
              f"max_core={result.max_core}")
        print(format_breakdown(machine.time_breakdown(tracker,
                                                      args.threads)))
        tracker.trace.write(args.output)
        events = len(tracker.trace.events)
    print(f"wrote {events} trace events to {args.output} "
          f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_shard(args) -> int:
    """Run the sharded decomposition; report comm, quality, and time."""
    from .distributed import DistributedMachineModel, sharded_nucleus_decomp
    from .graph.stats import partition_statistics
    from .observe import TraceRecorder, write_merged_trace
    _check_shards(args)
    graph, name = _load_graph(args)
    config = _build_config(args, graph)
    tracker = CostTracker()
    if args.trace:
        tracker.trace = TraceRecorder()
    result = sharded_nucleus_decomp(graph, args.r, args.s, args.shards,
                                    partitioner=args.partitioner,
                                    config=config, tracker=tracker)
    quality = partition_statistics(graph, result.partition.shard_of,
                                   args.shards, s=args.s)
    machine = DistributedMachineModel(MachineModel())
    breakdown = machine.time_breakdown(result, args.threads)
    print(f"graph {name}: n={graph.n} m={graph.m}")
    print(f"({args.r},{args.s}) sharded decomposition on {args.shards} "
          f"shard(s) [{args.partitioner} partitioner]:")
    print(f"  r-cliques: {result.n_r_cliques}  "
          f"s-cliques: {result.n_s_cliques}")
    print(f"  peeling rounds (rho): {result.rho}  "
          f"max core: {result.max_core}")
    print("  partition quality:")
    _print_partition_quality(quality, indent="    ")
    print(f"  comm: {result.comm_messages} message(s), "
          f"{result.comm_bytes} byte(s) -> simulated time "
          f"{machine.comm_time(result.comm_messages, result.comm_bytes):.0f}")
    print(f"  simulated time at {args.threads} thread(s)/shard: "
          f"coordinator {breakdown['coordinator']:.0f} + "
          f"compute {breakdown['compute']:.0f} + "
          f"comm {breakdown['comm']:.0f} = {breakdown['time']:.0f}")
    for shard, st in enumerate(result.shard_trackers):
        print(f"    shard {shard}: work={st.total.work:.0f} "
              f"span={st.span:.0f} atomics={st.total.atomic_ops} "
              f"sent={st.total.comm_messages} msg / "
              f"{st.total.comm_bytes} B")
    if args.verify:
        reference_tracker = CostTracker()
        reference = arb_nucleus_decomp(graph, args.r, args.s,
                                       tracker=reference_tracker)
        if result.as_dict() != reference.as_dict():
            print("  oracle check: MISMATCH vs the single-node run")
            return 1
        speedup = machine.speedup_vs_single(result, reference_tracker,
                                            args.threads)
        print(f"  oracle check: cores identical to the single-node run "
              f"(distributed speedup x{speedup:.2f})")
    if args.trace:
        write_merged_trace([tracker.trace, *result.shard_traces],
                           args.trace)
        print(f"wrote merged shard trace to {args.trace}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel (r,s) nucleus decomposition (VLDB 2021 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run ARB-NUCLEUS-DECOMP")
    p.add_argument("--input", help="SNAP-style edge list file")
    p.add_argument("--dataset", choices=dataset_names(),
                   help="named surrogate dataset")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--histogram", action="store_true",
                   help="print the core-number histogram")
    p.add_argument("--full", action="store_true",
                   help="print every r-clique with its core number")
    p.add_argument("--unoptimized", action="store_true",
                   help="run the Section 6.2 baseline configuration")
    p.add_argument("--levels", type=int,
                   help="levels of the clique table T")
    p.add_argument("--aggregation",
                   choices=["array", "list_buffer", "hash"],
                   help="update-aggregation strategy for U")
    p.add_argument("--bucketing",
                   choices=["julienne", "fibonacci", "dense"],
                   help="bucketing backend")
    p.add_argument("--orientation",
                   choices=["degeneracy", "goodrich_pszona",
                            "barenboim_elkin", "degree"],
                   help="O(alpha)-orientation algorithm")
    p.add_argument("--no-relabel", action="store_true",
                   help="disable orientation-order relabeling")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("generate", help="write a synthetic graph")
    p.add_argument("--kind", choices=["rmat", "erdos-renyi", "community"],
                   default="rmat")
    p.add_argument("--scale", type=int, default=10, help="log2(n)")
    p.add_argument("--edge-factor", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stats", help="basic structural statistics")
    p.add_argument("--input")
    p.add_argument("--dataset", choices=dataset_names())
    p.add_argument("--shards", type=int,
                   help="also report partition quality for this many "
                        "shards")
    p.add_argument("--partitioner", choices=["hash", "mincut"],
                   default="mincut",
                   help="partitioner for the quality report "
                        "(default: mincut)")
    p.add_argument("--s", type=int,
                   help="clique size for the s-clique spill estimate "
                        "(with --shards)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("figure", help="regenerate a paper figure's table")
    p.add_argument("name", help="fig07 .. fig15")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("lint",
                       help="run the parlint cost-accounting rules "
                            "(--strict: interprocedural charge-flow "
                            "analyzer, PAR001-PAR011)")
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories (with --strict: one "
                        "package directory; default src/repro)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON report")
    p.add_argument("--strict", action="store_true",
                   help="run the interprocedural charge-flow analyzer "
                        "(call graph + summaries + PAR005-PAR011)")
    p.add_argument("--explain", metavar="RULE",
                   help="print the rule-catalog entry for PARxxx and exit")
    p.add_argument("--race-tests", metavar="DIR", dest="race_tests",
                   help="directory of test files whose RACECHECK_COVERS "
                        "stamps satisfy PAR011 (implies --strict)")
    p.add_argument("--sarif", metavar="FILE", nargs="?", const="-",
                   help="write a SARIF 2.1.0 report (implies --strict; "
                        "default stdout)")
    p.add_argument("--baseline", metavar="FILE",
                   help="committed baseline of accepted strict findings "
                        "(implies --strict)")
    p.add_argument("--emit-registry", action="store_true",
                   help="print PARLINT_PARITY templates for engine "
                        "modules (implies --strict)")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "sanitize",
        help="run the race detector over arb + the baselines")
    p.add_argument("--dataset", choices=dataset_names(),
                   help="named surrogate dataset (default: figure-1 graph)")
    p.set_defaults(func=_cmd_sanitize)

    p = sub.add_parser(
        "bench",
        help="run the pinned perf-trajectory suite (BENCH_nucleus.json)")
    p.add_argument("-o", "--output", default="BENCH_nucleus.json",
                   help="output payload path (default: BENCH_nucleus.json)")
    p.add_argument("--compare", metavar="BASELINE",
                   help="baseline payload; exit non-zero on regressions")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="relative regression tolerance (default 0.05)")
    p.add_argument("--threads", type=int, default=60,
                   help="parallel thread count for the T column")
    p.add_argument("--label", default="",
                   help="free-form label stored in the payload")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "hierarchy",
        help="build the connected-nucleus hierarchy and serve queries "
             "(nucleus of a vertex at a level, nuclei at a level, "
             "densest nucleus containing an edge)")
    p.add_argument("--input", help="SNAP-style edge list file")
    p.add_argument("--dataset", choices=dataset_names(),
                   help="named surrogate dataset")
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("-o", "--output",
                   help="write the hierarchy as JSON")
    p.add_argument("--load", metavar="FILE",
                   help="serve a previously saved hierarchy JSON "
                        "instead of decomposing")
    p.add_argument("--level", type=int,
                   help="query: all nuclei at this core level")
    p.add_argument("--vertex", type=int,
                   help="query: the nucleus containing this vertex (at "
                        "--level if given, else the densest)")
    p.add_argument("--edge", type=int, nargs=2, metavar=("U", "V"),
                   help="query: the densest nucleus containing both "
                        "endpoints")
    p.add_argument("--summary", action="store_true",
                   help="print the per-level summary (default when no "
                        "query is given)")
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser(
        "profile",
        help="trace one decomposition (Chrome trace + time breakdown)")
    p.add_argument("--input", help="SNAP-style edge list file")
    p.add_argument("--dataset", choices=dataset_names(),
                   help="named surrogate dataset")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("-o", "--output", default="trace.json",
                   help="Chrome trace-event JSON path (default: trace.json)")
    p.add_argument("--threads", type=int, default=60,
                   help="thread count for the printed breakdown")
    p.add_argument("--task-limit", type=int, default=256,
                   help="max task slices recorded per parallel region")
    p.add_argument("--unoptimized", action="store_true",
                   help="profile the Section 6.2 baseline configuration")
    p.add_argument("--shards", type=int,
                   help="profile the sharded run on this many shards "
                        "(one trace lane group per shard)")
    p.add_argument("--partitioner", choices=["hash", "mincut"],
                   default="mincut",
                   help="partitioner for --shards (default: mincut)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "shard",
        help="run the sharded multi-node decomposition "
             "(docs/sharding.md)")
    p.add_argument("--input", help="SNAP-style edge list file")
    p.add_argument("--dataset", choices=dataset_names(),
                   help="named surrogate dataset")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--shards", type=int, required=True,
                   help="number of shards (simulated nodes)")
    p.add_argument("--partitioner", choices=["hash", "mincut"],
                   default="mincut",
                   help="vertex partitioner (default: mincut)")
    p.add_argument("--threads", type=int, default=60,
                   help="thread count per shard for the time model")
    p.add_argument("--verify", action="store_true",
                   help="also run the single-node oracle and check the "
                        "cores match bit for bit")
    p.add_argument("--trace", metavar="FILE",
                   help="write a merged per-shard Chrome trace to FILE")
    p.set_defaults(func=_cmd_shard)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
