"""Host-time benchmark of the nucleus decomposition, with per-phase spans.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hierarchy-query --seed 1 --seconds 40 \
        --trace 0

The benchmark makes the workload's input graph from ``--seed``, warms up on
a small graph of the same recipe, then runs a closed loop with one client
for ``--seconds``: the next job starts only when the previous one has
returned and been checked.  The last line of standard output is one JSON
object::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` the run measures untraced jobs, then jobs
with a :class:`spans.SpanRecorder` attached to every tracker, then one job
with tracemalloc on (memory peaks) and one under cProfile, and reports the
per-layer metrics; the spans are written to ``perfbench/out/`` when the run
ends.  The line before the result carries
the machine fingerprint and sample counts.  See perfbench/README.md for
every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Times the input is generated again before every untraced job, so that
#: the set-up samples spread over the whole run like the jobs do; setup_s is
#: the median of all of them.
SETUP_REPEATS = 2
#: Seconds the calibration kernel takes at the reference host speed.  The
#: host-corrected times (job_s, setup_s) are seconds at that speed.
CAL_REF_S = 0.05
#: The calibration kernel's fixed input: seeded integer keys, so that its
#: dicts hash the same in every process.
_CAL_RNG = random.Random(2024)
CAL_KEYS = [_CAL_RNG.randrange(200_000) for _ in range(60_000)]
#: Minimum untraced jobs per end-to-end run.
MIN_JOBS = 3
WORKLOAD_NAMES = ("nucleus34-cached", "hierarchy-query", "sharded-mincut")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "sim_T60": "op", "sim_work": "op"}

#: Phases whose simulated counters are reported, in pipeline order.
SIM_PHASES = ("orient", "relabel", "enumerate_r", "build_table", "count_s",
              "bucket", "peel", "hier_list", "hier_levels", "hier_emit",
              "partition", "local_peel", "exchange")
#: Spans (tracker phases and benchmark spans) whose host time is reported.
WALL_SPANS = ("orient", "relabel", "enumerate_r", "build_table", "count_s",
              "bucket", "peel", "extract", "hier_list", "hier_levels",
              "hier_emit", "index", "partition")
#: Spans whose tracemalloc peak is reported.
PEAK_SPANS = WALL_SPANS + ("query",)
#: Spans around the decomposition call; decompose.self_s is their self time.
DECOMPOSE_SPANS = ("decompose", "sharded")

PER_LAYER = {
    "job.wall_s": "s", "host.calibration_s": "s", "sim_span": "op",
    **{f"{name}.wall_s": "s" for name in WALL_SPANS},
    "local_peel.wall_s": "s", "exchange.wall_s": "s",
    "decompose.self_s": "s",
    "peel.updated": "count", "peel.bucket_max": "count",
    "build_table.table_probes": "count",
    "cache.accesses": "count", "cache.misses": "count",
    "cache.miss_ratio": "ratio", "cache.share": "ratio",
    "accounting.share": "ratio",
    "query.answer_size": "count", "query_us.p50": "us", "query_us.p99": "us",
    "comm.messages": "count", "comm.bytes": "B", "shard.imbalance": "ratio",
    **{f"{phase}.{key}": unit for phase in SIM_PHASES
       for key, unit in (("work", "op"), ("span", "op"),
                         ("atomic_ops", "count"), ("rounds", "count"))},
    **{f"{name}.peak_mb": "MB" for name in PEAK_SPANS},
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


def limit_threads() -> None:
    """Hold numeric libraries to at most ``nproc`` threads."""
    nproc = str(os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = nproc


def fingerprint() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def calibration_kernel() -> int:
    """A fixed pure-Python load, independent of the program under test:
    dict counting and tuple sorting, the interpreter work the jobs do."""
    counts: dict[int, int] = {}
    for key in CAL_KEYS:
        counts[key] = counts.get(key, 0) + 1
    return len(sorted((count, key) for key, count in counts.items()))


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the faster of two runs."""
    best = math.inf
    for _ in range(2):
        began = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - began)
    return best


def corrected(seconds: float, cal_s: float) -> float:
    """``seconds`` measured while the kernel took ``cal_s``, scaled to the
    reference host speed."""
    return seconds * CAL_REF_S / cal_s


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values) -> dict | None:
    """The highest of p90/p99/p99.9/p99.99 with >= 10 samples beyond it."""
    best = None
    for pct in (90.0, 99.0, 99.9, 99.99):
        if len(values) * (1 - pct / 100.0) >= 10:
            best = {"pct": pct, "value": percentile(values, pct)}
    return best


def same_graph(a, b) -> bool:
    import numpy as np  # after limit_threads(), like every numeric import
    return (np.array_equal(a.offsets, b.offsets)
            and np.array_equal(a.targets, b.targets))


def generate(workload, seed, size, spans, setup_times, problems,
             reference=None):
    """Make the input from the seed, timed; check it equals ``reference``."""
    began = time.perf_counter()
    with spans.span("generate"):
        graph = workload.make_graph(seed, size)
    setup_times.append(time.perf_counter() - began)
    if reference is not None and not same_graph(graph, reference):
        problems.append("the input made again from the seed differs")
    return graph


def closed_loop(workload, graph, seed, size, seconds, min_jobs, spans,
                recorder, problems, first=None, setup=None):
    """Run jobs back to back for ``seconds`` (at least ``min_jobs``).

    Each job is checked against ``first`` (the run's first job) before the
    next one starts; the checks are outside the job's timed region.
    ``setup``, if given, is called before every job, outside its timed
    region, and returns its timed samples (kept as ``job.setup_s``).  The
    calibration kernel runs between jobs; ``job.cal_s`` is its mean time
    just before and just after the job.  Returns the jobs, with outputs
    released after checking.
    """
    jobs = []
    start = time.perf_counter()
    last = 0.0
    cal_before = calibrate()
    while len(jobs) < min_jobs or time.perf_counter() - start + last \
            <= seconds:
        began = time.perf_counter()
        setup_s = setup() if setup is not None else []
        # Every job starts from the same collector state, so a collection
        # owed by the previous job's garbage is not charged to this one.
        gc.collect()
        with spans.span("job"):
            job = workload.job(graph, seed, size, spans, recorder)
        with spans.span("verify"):
            if first is None:
                first = job
            else:
                found = workload.check_job(job, first)
                problems.extend(found)
                job.failed = int(bool(found))
            if job.queries:
                job.query_failed = workload.query_failures(job, seed)
        if job is not first:
            job.drop_outputs()
        cal_after = calibrate()
        job.cal_s = (cal_before + cal_after) / 2
        job.setup_s = setup_s
        cal_before = cal_after
        jobs.append(job)
        last = time.perf_counter() - began
    return jobs


def _subtree(recorder, root: int):
    stack = [root]
    while stack:
        index = stack.pop()
        yield index
        stack.extend(recorder.spans[index].children)


def span_metrics(recorder, job_span: int, problems: list) -> dict:
    """Host seconds per span of one traced job, and decompose.self_s.

    Checks that the decomposition span's self time plus its phases' self
    times add up to its duration.
    """
    wall: dict[str, float] = {}
    self_s = 0.0
    for index in _subtree(recorder, job_span):
        span = recorder.spans[index]
        wall[span.name] = wall.get(span.name, 0.0) + span.duration
        if span.name in DECOMPOSE_SPANS:
            own = recorder.self_time(index)
            parts = own + sum(recorder.self_time(c) for c in span.children)
            if abs(parts - span.duration) > 1e-6:
                problems.append(f"{span.name}: phase self times do not add "
                                "up to the span")
            self_s += own
    out = {f"{name}.wall_s": wall.get(name, 0.0) for name in WALL_SPANS}
    out["decompose.self_s"] = self_s
    return out


def span_peaks(recorder, job_span: int) -> dict:
    """The tracemalloc peak of each span of the memory job."""
    peak: dict[str, float] = {}
    for index in _subtree(recorder, job_span):
        span = recorder.spans[index]
        peak[span.name] = max(peak.get(span.name, 0.0), span.peak_mb)
    return {f"{name}.peak_mb": peak.get(name, 0.0) for name in PEAK_SPANS}


def reference_check(workload, graph, first, problems) -> None:
    found = workload.reference_problems(graph, first)
    problems.extend(found)
    if found:
        first.failed = 1


def count_failures(jobs, first) -> tuple[int, int]:
    """(attempted, failed) over jobs and queries.

    A wrong first job means every job is wrong, since each later job was
    checked equal to the first.
    """
    attempted = len(jobs) + sum(len(job.query_s) for job in jobs)
    if first.failed:
        failed = len(jobs)
    else:
        failed = sum(job.failed for job in jobs)
    failed += sum(job.query_failed for job in jobs)
    return attempted, failed


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details)."""
    from spans import NullSpans, SpanRecorder, profile_shares, tracing_memory
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    recorder = SpanRecorder() if trace else None
    spans = recorder or NullSpans()
    problems: list[str] = []

    graph = generate(workload, seed, size, spans, [], problems)

    def setup() -> list[float]:
        times: list[float] = []
        for _ in range(SETUP_REPEATS):
            generate(workload, seed, size, NullSpans(), times, problems,
                     graph)
        return times

    warm_size = "warm" if size == "full" else size
    workload.job(workload.make_graph(seed, warm_size), seed, warm_size,
                 NullSpans(), None)

    # The traced run spends a quarter of --seconds on untraced and a quarter
    # on traced jobs; its memory and profiled jobs take the rest.
    loop_seconds = seconds / 4 if trace else seconds
    jobs = closed_loop(
        workload, graph, seed, size, loop_seconds, 1 if trace else MIN_JOBS,
        NullSpans(), None, problems, setup=setup)
    first = jobs[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    job_s = [corrected(job.wall_s, job.cal_s) for job in jobs]
    details = {"workload": workload_name, "seed": seed, "size": size,
               "fingerprint": fingerprint(), "jobs": len(jobs),
               "job_wall_s": [job.wall_s for job in jobs],
               "job_cal_s": [job.cal_s for job in jobs],
               "generations": 1 + sum(len(job.setup_s) for job in jobs),
               "job_s_tail": tail_percentile(job_s)}
    if not trace:
        with spans.span("verify"):
            reference_check(workload, graph, first, problems)
        metrics = {
            "job_s": statistics.median(job_s),
            "setup_s": statistics.median(
                corrected(t, job.cal_s) for job in jobs for t in job.setup_s),
            "peak_rss_mb": peak_rss_mb,
            "sim_T60": first.t60, "sim_work": first.work}
        units = END_TO_END
    else:
        traced = closed_loop(workload, graph, seed, size, loop_seconds, 1,
                             recorder, recorder, problems, first)
        # tracemalloc slows allocation-heavy phases several-fold, so the
        # memory peaks come from one job of their own, not the timed ones.
        with tracing_memory(), spans.span("memory_job"):
            memory_job = workload.job(graph, seed, size, spans, recorder)
        shares, profiled = profile_shares(
            lambda: workload.job(graph, seed, size, NullSpans(), None))
        for label, extra in (("memory", memory_job),
                             ("profiled", profiled)):
            found = workload.check_job(extra, first)
            problems.extend(f"{label} job: {p}" for p in found)
            extra.failed = int(bool(found))
        with spans.span("verify"):
            reference_check(workload, graph, first, problems)
        per_job = [span_metrics(recorder, index, problems)
                   for index in recorder.named("job")]
        metrics = {name: statistics.median(row[name] for row in per_job)
                   for name in per_job[0]}
        metrics.update(span_peaks(recorder, recorder.named("memory_job")[0]))
        # Where the trackers' own phase clocks stand in for spans, they
        # are read from the untraced jobs (see Job.clock_wall).
        metrics.update({name: statistics.median(
            job.clock_wall[name] for job in jobs)
            for name in first.clock_wall})
        metrics.update(shares)
        metrics["job.wall_s"] = statistics.median(job.wall_s for job in jobs)
        metrics["host.calibration_s"] = statistics.median(
            job.cal_s for job in jobs)
        metrics["sim_span"] = first.span
        metrics["trace.overhead_s"] = (
            statistics.median(job.wall_s for job in traced)
            - statistics.median(job.wall_s for job in jobs))
        counters = dict.fromkeys(PER_LAYER, 0)
        counters.update(first.counters)
        for name in PER_LAYER:
            metrics.setdefault(name, counters[name])
        query_us = [1e6 * q for job in jobs + traced for q in job.query_s]
        if query_us:
            metrics["query_us.p50"] = percentile(query_us, 50)
            metrics["query_us.p99"] = percentile(query_us, 99)
            details["query_us_tail"] = tail_percentile(query_us)
        details["queries"] = len(query_us)
        details["traced_jobs"] = len(traced)
        jobs = jobs + traced + [memory_job, profiled]
        units = PER_LAYER

    attempted, failed = count_failures(jobs, first)
    if trace:
        metrics["error_rate"] = failed / attempted
    details["problems"] = problems
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}
    if trace:
        write_spans(recorder, details, result)
    return result, details


def write_spans(recorder, details: dict, result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{details['workload']}-{details['seed']}.json"
    origin = recorder.spans[0].start if recorder.spans else 0.0
    payload = {
        "details": details, "result": result,
        "spans": [{"name": span.name, "kind": span.kind,
                   "parent": span.parent, "start_s": span.start - origin,
                   "end_s": span.end - origin,
                   "self_s": recorder.self_time(index),
                   "peak_mb": span.peak_mb}
                  for index, span in enumerate(recorder.spans)]}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src})",
              file=sys.stderr)
        return 2
    limit_threads()
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)

    result, details = run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
