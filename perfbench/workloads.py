"""The benchmark's three workloads: inputs, jobs and output checks.

Every workload makes its input graph from the seed with
``repro.graph.generators`` and runs one *job* per loop iteration through
the program's public entry points only.  A job returns a :class:`Job`:
its timed host seconds, its outputs, and a snapshot of every simulated
counter it charged.  The checks compare each job with the first one and
the first one with an independent reference; they run outside the timed
region.

Inputs come in three sizes: ``full`` (what the benchmark measures),
``warm`` (a small graph of the same recipe, run once before timing so
imports and lazy set-up are paid before the clock starts) and ``tiny``
(the smoke test).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.construct import nucleus_hierarchy
from repro.analysis.query import HierarchyIndex
from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.core.verify import brute_force_nucleus
from repro.distributed import DistributedMachineModel, sharded_nucleus_decomp
from repro.graph.generators import embed_cliques, planted_partition, rmat_graph
from repro.machine.cache import CacheSimulator
from repro.parallel.runtime import CostTracker, MachineModel

THREADS = 60
MACHINE = MachineModel()


def batch_config(r: int, s: int) -> NucleusConfig:
    """``NucleusConfig.optimal(r, s)`` with the batch engines selected.

    Only engine fields that exist are set, so the benchmark keeps working
    when the engine switches are removed and batch becomes the default.
    """
    config = NucleusConfig.optimal(r, s)
    names = {f.name for f in dataclasses.fields(config)}
    batch = {key: "batch" for key in ("engine", "listing_engine")
             if key in names}
    return dataclasses.replace(config, **batch)


@dataclass
class Job:
    """What one job returns to the loop."""

    wall_s: float
    cores: dict
    #: Every simulated counter the job charged, as plain data.
    sim: dict
    t60: float
    work: float
    span: float
    #: Deterministic per-layer counters (``<phase>.<counter>``).
    counters: dict
    #: ``<phase>.wall_s`` read from the trackers' own phase clocks
    #: (``CostTracker.phase_wall``, kept with or without a trace hook).
    #: The traced run reports these, taken from its untraced jobs, instead
    #: of the spans of its traced jobs.
    clock_wall: dict = field(default_factory=dict)
    query_s: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    hierarchy: object = None
    index: object = None
    queries: list = field(default_factory=list)
    #: Set by the loop's checks: 1 if the job's outputs were wrong, and
    #: the number of sampled query answers that were.
    failed: int = 0
    query_failed: int = 0
    #: Set by the loop: the calibration kernel's seconds around the job,
    #: and the timed input generations made just before it.
    cal_s: float = 0.0
    setup_s: list = field(default_factory=list)

    def drop_outputs(self) -> None:
        """Release the outputs once checked, so later jobs do not keep
        earlier jobs' results alive (peak RSS must not grow with the
        number of jobs)."""
        self.cores = self.answers = self.hierarchy = self.index = None


def _phase_stats(tracker: CostTracker) -> dict:
    return {name: dataclasses.asdict(stats)
            for name, stats in tracker.phases.items()}


def _snapshot(tracker: CostTracker) -> dict:
    return {"summary": tracker.summary(), "phases": _phase_stats(tracker)}


def _phase_counters(trackers: list[CostTracker]) -> dict:
    """``<phase>.work/.span/.atomic_ops/.rounds`` summed over trackers."""
    out: dict[str, float] = {}
    for tracker in trackers:
        for name, stats in tracker.phases.items():
            for key in ("work", "span", "atomic_ops", "rounds"):
                metric = f"{name}.{key}"
                out[metric] = out.get(metric, 0) + getattr(stats, key)
    return out


def _round_counters(round_log) -> dict:
    return {"peel.updated": sum(row[2] for row in round_log),
            "peel.bucket_max": max((row[1] for row in round_log),
                                   default=0)}


class Workload:
    """One benchmark workload; subclasses define the input and the job."""

    name = ""
    r, s = 2, 3

    def make_graph(self, seed: int, size: str):
        raise NotImplementedError

    def job(self, graph, seed: int, size: str, spans, recorder) -> Job:
        raise NotImplementedError

    def new_tracker(self, recorder) -> CostTracker:
        tracker = CostTracker()
        tracker.trace = recorder
        return tracker

    def decompose(self, graph, tracker, spans):
        with spans.span("decompose"):
            result = arb_nucleus_decomp(graph, self.r, self.s,
                                        batch_config(self.r, self.s),
                                        tracker)
        with spans.span("extract"):
            cores = result.as_dict()
        return result, cores

    def single_node_job(self, graph, tracker, spans) -> Job:
        start = time.perf_counter()
        result, cores = self.decompose(graph, tracker, spans)
        wall = time.perf_counter() - start
        counters = _phase_counters([tracker])
        counters.update(_round_counters(result.round_log))
        return Job(wall, cores, _snapshot(tracker),
                   MACHINE.time(tracker, THREADS), tracker.work,
                   tracker.span, counters)

    def check_job(self, job: Job, first: Job) -> list[str]:
        """Problems with ``job`` relative to the first job of the run."""
        problems = []
        if job.cores != first.cores:
            problems.append("core numbers differ from the first job")
        if job.sim != first.sim:
            problems.append("simulated counters differ from the first job")
        return problems

    def reference_problems(self, graph, first: Job) -> list[str]:
        """Problems with the first job against the brute-force oracle."""
        if brute_force_nucleus(graph, self.r, self.s) != first.cores:
            return ["core numbers differ from brute_force_nucleus"]
        return []


def _rmat_input(scale: int, edge_factor: int, cliques: int, seed: int):
    return embed_cliques(rmat_graph(scale, edge_factor, seed=seed),
                         cliques, 12, seed=seed + 1000)


def _clustered_input(n: int, cliques: int, seed: int):
    graph = planted_partition(n, max(4, n // 18), 0.6, 1.2 / n, seed=seed)
    return embed_cliques(graph, cliques, 12, seed=seed + 1000)


class Nucleus34Cached(Workload):
    """(3,4) on the orkut-shaped surrogate with an exact cache simulator:
    relabel, a 3-clique table, list-buffer aggregation, machine.cache."""

    name = "nucleus34-cached"
    r, s = 3, 4
    _scale = {"full": (10, 24, 3), "warm": (9, 24, 3), "tiny": (7, 8, 2)}

    def make_graph(self, seed, size):
        scale, factor, cliques = self._scale[size]
        return _rmat_input(scale, factor, cliques, seed)

    def job(self, graph, seed, size, spans, recorder):
        tracker = self.new_tracker(recorder)
        tracker.cache = CacheSimulator()
        job = self.single_node_job(graph, tracker, spans)
        cache = tracker.cache
        job.counters.update({
            "cache.accesses": cache.accesses,
            "cache.misses": cache.misses,
            "cache.miss_ratio": cache.misses / max(1, cache.accesses)})
        return job


class HierarchyQuery(Workload):
    """The dblp recipe x5 (clustered): (2,3) decompose, hierarchy, index,
    then 5,000 seeded vertex/level/edge queries."""

    name = "hierarchy-query"
    r, s = 2, 3
    _size = {"full": (4000, 31, 5000), "warm": (2000, 15, 2000),
             "tiny": (300, 3, 300)}
    #: Sampled query answers per job checked against flat scans.
    check_sample = 24

    def make_graph(self, seed, size):
        n, cliques, _ = self._size[size]
        return _clustered_input(n, cliques, seed)

    def job(self, graph, seed, size, spans, recorder):
        tracker = self.new_tracker(recorder)
        hier_tracker = self.new_tracker(recorder)
        start = time.perf_counter()
        result, cores = self.decompose(graph, tracker, spans)
        with spans.span("hierarchy"):
            hierarchy = nucleus_hierarchy(graph, result, hier_tracker)
        with spans.span("index"):
            index = HierarchyIndex(hierarchy)
        build_s = time.perf_counter() - start
        queries = self.query_plan(graph, hierarchy, index, seed, size)
        answers = []
        query_s = []
        clock = time.perf_counter
        with spans.span("query"):
            for kind, a, b in queries:
                t0 = clock()
                if kind == 0:
                    answer = index.nucleus_of_vertex(a, b)
                elif kind == 1:
                    answer = index.at_level(a)
                else:
                    answer = index.densest_containing_edge(a, b)
                query_s.append(clock() - t0)
                answers.append(answer)
        wall = build_s + sum(query_s)
        trackers = [tracker, hier_tracker]
        counters = _phase_counters(trackers)
        counters.update(_round_counters(result.round_log))
        answers = [_node_ids(answer) for answer in answers]
        counters["query.answer_size"] = (
            sum(len(ids) for ids in answers) / max(1, len(answers)))
        sim = {"decompose": _snapshot(tracker),
               "hierarchy": _snapshot(hier_tracker)}
        return Job(wall, cores, sim,
                   sum(MACHINE.time(t, THREADS) for t in trackers),
                   sum(t.work for t in trackers),
                   sum(t.span for t in trackers), counters,
                   query_s=query_s, answers=answers, hierarchy=hierarchy,
                   index=index, queries=queries)

    def query_plan(self, graph, hierarchy, index, seed, size):
        """Seeded queries split evenly over the three query shapes.

        Vertex queries name a member vertex of a random nucleus at that
        nucleus's level, level queries a random populated level, and edge
        queries the endpoints of a random input edge.
        """
        total = self._size[size][2]
        rng = np.random.default_rng(seed + 2000)
        per_kind = [total // 3 + (k < total % 3) for k in range(3)]
        queries = []
        nuclei = hierarchy.nuclei
        if nuclei:
            picks = rng.integers(0, len(nuclei), size=per_kind[0])
            for pick in picks:
                nucleus = nuclei[int(pick)]
                clique = nucleus.members[int(rng.integers(len(
                    nucleus.members)))]
                vertex = clique[int(rng.integers(len(clique)))]
                queries.append((0, int(vertex), nucleus.level))
            levels = index.levels()
            for pick in rng.integers(0, len(levels), size=per_kind[1]):
                queries.append((1, int(levels[int(pick)]), 0))
        edges = graph.edges()
        for pick in rng.integers(0, len(edges), size=per_kind[2]):
            u, v = edges[int(pick)]
            queries.append((2, int(u), int(v)))
        order = rng.permutation(len(queries))
        return [queries[i] for i in order]

    def check_job(self, job, first):
        problems = super().check_job(job, first)
        if job.answers != first.answers:
            problems.append("query answers differ from the first job")
        return problems

    def query_failures(self, job: Job, seed: int) -> int:
        """Sampled answers of ``job`` that disagree with flat scans."""
        rng = np.random.default_rng(seed + 3000)
        nuclei = job.hierarchy.nuclei
        vertex_sets: dict[int, set] = {}

        def vertices(i):
            if i not in vertex_sets:
                vertex_sets[i] = nuclei[i].vertices
            return vertex_sets[i]

        count = min(self.check_sample, len(job.queries))
        failed = 0
        for pick in rng.choice(len(job.queries), size=count, replace=False):
            kind, a, b = job.queries[int(pick)]
            if kind == 0:
                expect = [nucleus.node_id for i, nucleus in enumerate(nuclei)
                          if nucleus.level == b and a in vertices(i)]
            elif kind == 1:
                expect = [nucleus.node_id for nucleus in nuclei
                          if nucleus.level == a]
            else:
                both = [nucleus for i, nucleus in enumerate(nuclei)
                        if a in vertices(i) and b in vertices(i)]
                best = min(both, default=None, key=lambda nucleus: (
                    -nucleus.level, nucleus.size, nucleus.node_id))
                expect = [] if best is None else [best.node_id]
            failed += job.answers[int(pick)] != expect
        return failed


def _node_ids(answer) -> list[int]:
    if answer is None:
        return []
    if isinstance(answer, list):
        return [nucleus.node_id for nucleus in answer]
    return [answer.node_id]


class ShardedMincut(Workload):
    """(2,3) on 4 shards with the mincut partitioner: the only workload on
    repro.distributed's peel and batched exchange."""

    name = "sharded-mincut"
    r, s = 2, 3
    shards = 4
    _size = {"full": (4000, 62), "warm": (1000, 15), "tiny": (300, 3)}

    def make_graph(self, seed, size):
        n, cliques = self._size[size]
        return _clustered_input(n, cliques, seed)

    def job(self, graph, seed, size, spans, recorder):
        tracker = self.new_tracker(recorder)
        start = time.perf_counter()
        with spans.span("sharded"):
            result = sharded_nucleus_decomp(
                graph, self.r, self.s, self.shards, partitioner="mincut",
                config=batch_config(self.r, self.s), tracker=tracker)
        with spans.span("extract"):
            cores = result.as_dict()
        wall = time.perf_counter() - start
        shards = result.shard_trackers
        counters = _phase_counters([tracker, *shards])
        counters.update(_round_counters(result.round_log))
        work = [st.work for st in shards]
        counters.update({
            "comm.messages": result.comm_messages,
            "comm.bytes": result.comm_bytes,
            "shard.imbalance": max(work) / max(1e-12, sum(work) / len(work))})
        # Given a trace hook, sharded_nucleus_decomp attaches a
        # TraceRecorder of the program's own to every shard tracker, which
        # records every region; the spans of a traced job would carry its
        # cost, so the peel phases are read from the phase clocks instead.
        clock_wall = {
            "peel.wall_s": tracker.phase_wall.get("peel", 0.0),
            # Shards peel one after another on the host ...
            "local_peel.wall_s": sum(st.phase_wall.get("local_peel", 0.0)
                                     for st in shards),
            # ... but every shard's exchange phase spans the same interval.
            "exchange.wall_s": max(st.phase_wall.get("exchange", 0.0)
                                   for st in shards)}
        critical = tracker.span + sum(
            max(span for _, span in per_shard)
            for per_shard in result.round_compute)
        sim = {"coordinator": _snapshot(tracker),
               "shards": [_snapshot(st) for st in shards],
               "exchange_log": result.exchange_log,
               "round_log": result.round_log}
        return Job(wall, cores, sim,
                   DistributedMachineModel(MACHINE).time(result, THREADS),
                   tracker.work + sum(work), critical, counters,
                   clock_wall=clock_wall)

    def reference_problems(self, graph, first):
        single = arb_nucleus_decomp(graph, self.r, self.s,
                                    batch_config(self.r, self.s))
        problems = []
        if single.as_dict() != first.cores:
            problems.append("sharded core numbers differ from the "
                            "single-node batch result")
        return problems + super().reference_problems(graph, first)


WORKLOADS = {w.name: w for w in (Nucleus34Cached(), HierarchyQuery(),
                                 ShardedMincut())}
