#!/usr/bin/env python3
"""Run the pinned perf-trajectory suite and maintain BENCH_nucleus.json.

Usage (from the repo root)::

    python tools/bench_trajectory.py                      # write baseline
    python tools/bench_trajectory.py --compare BENCH_nucleus.json \
        --output BENCH_current.json                       # gate a change
    python tools/bench_trajectory.py --label "$(git rev-parse --short HEAD)"

Exit status is non-zero when ``--compare`` detects a regression beyond
``--tolerance``, so the script doubles as the CI gate.  See
docs/profiling.md for the workflow.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.observe import bench  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_nucleus.json",
                        help="where to write the canonical metrics "
                             "(default: BENCH_nucleus.json)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="baseline payload to diff against; exits "
                             "non-zero on regressions")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative regression tolerance (default 0.05)")
    parser.add_argument("--threads", type=int, default=bench.BENCH_THREADS,
                        help="parallel thread count for the T column")
    parser.add_argument("--label", default="",
                        help="free-form label stored in the payload "
                             "(e.g. a git revision)")
    parser.add_argument("--engine-gate", action="store_true",
                        help="run every suite twice, on the scalar oracle "
                             "kernels and on the production batch "
                             "kernels, require bit-for-bit identical "
                             "simulated metrics, a batch peel wall-clock "
                             "speedup of at least --min-speedup, a "
                             "count-phase speedup of at least "
                             "--min-listing-speedup, a baseline "
                             "hot-phase speedup of at least "
                             "--min-baseline-speedup, a hierarchy "
                             "level-sweep speedup of at least "
                             "--min-hierarchy-speedup and a sharded "
                             "local-round speedup of at least x2 (fixed); "
                             "writes the oracle payload to --output and "
                             "the batch payload next to it")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="minimum suite-total peel wall-clock speedup "
                             "the batch engine must reach in --engine-gate "
                             "mode (default 1.0: strictly faster)")
    parser.add_argument("--min-listing-speedup", type=float, default=1.0,
                        help="minimum suite-total count-phase wall-clock "
                             "speedup the batch clique lister must reach "
                             "in --engine-gate mode (default 1.0: strictly "
                             "faster)")
    parser.add_argument("--min-baseline-speedup", type=float, default=1.0,
                        help="minimum baseline-suite hot-phase wall-clock "
                             "speedup the batch baseline engines must "
                             "reach in --engine-gate mode (default 1.0: "
                             "strictly faster)")
    parser.add_argument("--min-hierarchy-speedup", type=float, default=1.0,
                        help="minimum hierarchy-suite level-sweep "
                             "wall-clock speedup the batch hierarchy "
                             "engine must reach in --engine-gate mode "
                             "(default 1.0: strictly faster)")
    parser.add_argument("--min-comm-reduction", type=float, default=1.0,
                        help="minimum simulated comm-time reduction "
                             "(hash comm time / mincut comm time) every "
                             "sharded-suite entry must reach in "
                             "--engine-gate mode (default 1.0: mincut no "
                             "worse than hash)")
    args = parser.parse_args(argv)

    # Load the baseline up front: --output may name the same file.
    baseline = bench.load_payload(args.compare) if args.compare else None

    if args.engine_gate:
        return _engine_gate(args, baseline)

    progress = lambda msg: print(msg, flush=True)  # noqa: E731
    payload = _run_all(args, progress, oracle=False)
    bench.write_payload(payload, args.output)
    print(f"wrote {len(payload['suite'])} suite entries, "
          f"{len(payload['baselines'])} baseline entries, "
          f"{len(payload['hierarchy'])} hierarchy entries and "
          f"{len(payload['sharded'])} sharded entries to "
          f"{args.output}")

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


def _run_all(args, progress, oracle: bool) -> dict:
    """The pinned suite plus the baseline, hierarchy and sharded suites."""
    payload = bench.run_suite(threads=args.threads, label=args.label,
                              progress=progress, oracle=oracle)
    payload["baselines"] = bench.run_baseline_suite(
        threads=args.threads, progress=progress, oracle=oracle)
    payload["hierarchy"] = bench.run_hierarchy_suite(
        threads=args.threads, progress=progress, oracle=oracle)
    payload["sharded"] = bench.run_sharded_suite(
        threads=args.threads, progress=progress, oracle=oracle)
    return payload


#: Entry fields excluded from the bit-for-bit oracle comparison: host
#: wall-clock is the one thing the batch kernels are *supposed* to change.
_HOST_ONLY_FIELDS = ("wall_clock", "oracle")


def _simulated_view(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k not in _HOST_ONLY_FIELDS}


def _phase_wall_total(payload: dict, phase: str) -> float:
    return sum(e["wall_clock"].get(phase, 0.0) for e in payload["suite"])


_SECTION_KEYS = {
    "suite": lambda: bench.entry_key,
    "baselines": lambda: bench.baseline_entry_key,
    "hierarchy": lambda: bench.hierarchy_entry_key,
    "sharded": lambda: bench.sharded_entry_key,
}


def _parity_failures(oracle: dict, batch: dict, section: str) -> list[str]:
    """Bit-for-bit simulated-metric differences between the oracle and
    the batch payloads in one section."""
    key_of = _SECTION_KEYS[section]()
    failures = []
    for ref_entry, cand_entry in zip(oracle[section], batch[section]):
        key = key_of(ref_entry)
        if _simulated_view(ref_entry) != _simulated_view(cand_entry):
            diffs = [k for k in _simulated_view(ref_entry)
                     if ref_entry.get(k) != cand_entry.get(k)]
            failures.append(f"{key}: simulated metrics differ between "
                            f"the oracle and batch runs in fields {diffs}")
    return failures


def _baseline_hot_total(payload: dict) -> float:
    return sum(e["wall_clock"].get(e["hot_phase"], 0.0)
               for e in payload["baselines"])


def _hierarchy_hot_total(payload: dict) -> float:
    return sum(e["wall_clock"].get(e["hot_phase"], 0.0)
               for e in payload["hierarchy"])


#: Fixed floor on the sharded suite's summed ``local_peel`` wall-clock
#: speedup of the batch local round over the scalar one.
MIN_LOCAL_PEEL_SPEEDUP = 2.0


def _sharded_local_peel_total(payload: dict) -> float:
    return sum(e["wall_clock"].get("local_peel", 0.0)
               for e in payload["sharded"])


def _engine_gate(args, baseline) -> int:
    """Run every suite on the oracle and on the production kernels;
    enforce the cost-parity invariants plus the wall-clock floors."""
    progress = lambda msg: print(msg, flush=True)  # noqa: E731
    scalar = _run_all(args, progress, oracle=True)
    batch = _run_all(args, progress, oracle=False)
    bench.write_payload(scalar, args.output)
    root, ext = os.path.splitext(args.output)
    batch_path = f"{root}.batch{ext or '.json'}"
    bench.write_payload(batch, batch_path)
    print(f"wrote oracle payload to {args.output}, batch payload to "
          f"{batch_path}")

    failures = [line for section in _SECTION_KEYS
                for line in _parity_failures(scalar, batch, section)]
    scalar_peel = _phase_wall_total(scalar, "peel")
    batch_peel = _phase_wall_total(batch, "peel")
    ratio = scalar_peel / batch_peel if batch_peel > 0 else float("inf")
    print(f"suite peel wall-clock: scalar {scalar_peel:.3f}s, "
          f"batch {batch_peel:.3f}s (speedup x{ratio:.2f})")
    if ratio < args.min_speedup:
        failures.append(f"batch peel speedup x{ratio:.2f} below the "
                        f"required x{args.min_speedup:.2f}")
    scalar_count = _phase_wall_total(scalar, "count_s")
    batch_count = _phase_wall_total(batch, "count_s")
    listing_ratio = scalar_count / batch_count if batch_count > 0 \
        else float("inf")
    print(f"suite count_s wall-clock: scalar {scalar_count:.3f}s, "
          f"batch {batch_count:.3f}s (speedup x{listing_ratio:.2f})")
    if listing_ratio < args.min_listing_speedup:
        failures.append(f"batch listing count-phase speedup "
                        f"x{listing_ratio:.2f} below the required "
                        f"x{args.min_listing_speedup:.2f}")
    scalar_hot = _baseline_hot_total(scalar)
    batch_hot = _baseline_hot_total(batch)
    baseline_ratio = scalar_hot / batch_hot if batch_hot > 0 \
        else float("inf")
    print(f"baseline-suite hot-phase wall-clock: scalar {scalar_hot:.3f}s, "
          f"batch {batch_hot:.3f}s (speedup x{baseline_ratio:.2f})")
    if baseline_ratio < args.min_baseline_speedup:
        failures.append(f"batch baseline hot-phase speedup "
                        f"x{baseline_ratio:.2f} below the required "
                        f"x{args.min_baseline_speedup:.2f}")
    scalar_hier = _hierarchy_hot_total(scalar)
    batch_hier = _hierarchy_hot_total(batch)
    hierarchy_ratio = scalar_hier / batch_hier if batch_hier > 0 \
        else float("inf")
    print(f"hierarchy-suite level-sweep wall-clock: scalar "
          f"{scalar_hier:.3f}s, batch {batch_hier:.3f}s (speedup "
          f"x{hierarchy_ratio:.2f})")
    if hierarchy_ratio < args.min_hierarchy_speedup:
        failures.append(f"batch hierarchy level-sweep speedup "
                        f"x{hierarchy_ratio:.2f} below the required "
                        f"x{args.min_hierarchy_speedup:.2f}")
    scalar_local = _sharded_local_peel_total(scalar)
    batch_local = _sharded_local_peel_total(batch)
    local_ratio = scalar_local / batch_local if batch_local > 0 \
        else float("inf")
    print(f"sharded-suite local_peel wall-clock: scalar "
          f"{scalar_local:.3f}s, batch {batch_local:.3f}s (speedup "
          f"x{local_ratio:.2f})")
    if local_ratio < MIN_LOCAL_PEEL_SPEEDUP:
        failures.append(f"batch local-round speedup x{local_ratio:.2f} "
                        f"below the required "
                        f"x{MIN_LOCAL_PEEL_SPEEDUP:.2f}")
    worst_reduction = float("inf")
    for entry in batch["sharded"]:
        reduction = entry["comm_reduction"]
        worst_reduction = min(worst_reduction, reduction)
        print(f"sharded {bench.sharded_entry_key(entry)}: comm time "
              f"hash {entry['hash']['comm_time']:.0f} -> mincut "
              f"{entry['mincut']['comm_time']:.0f} (x{reduction:.2f}), "
              f"speedup vs 1 node x{entry['speedup']:.2f}, "
              f"oracle match {entry['matches_oracle']}")
        if not entry["matches_oracle"]:
            failures.append(f"{bench.sharded_entry_key(entry)}: sharded "
                            f"cores differ from the single-node oracle")
        if reduction < args.min_comm_reduction:
            failures.append(f"{bench.sharded_entry_key(entry)}: mincut "
                            f"comm reduction x{reduction:.2f} below the "
                            f"required x{args.min_comm_reduction:.2f}")

    if baseline is not None:
        for name, payload in (("oracle", scalar), ("batch", batch)):
            regressions = bench.compare(payload, baseline,
                                        tolerance=args.tolerance)
            failures.extend(f"[{name}] {line}" for line in regressions)

    if failures:
        print("ENGINE GATE FAILURES:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("engine gate passed: identical simulated metrics, batch peel "
          f"x{ratio:.2f} faster, batch listing count phase "
          f"x{listing_ratio:.2f} faster, batch baselines "
          f"x{baseline_ratio:.2f} faster, batch hierarchy level sweep "
          f"x{hierarchy_ratio:.2f} faster, batch local round "
          f"x{local_ratio:.2f} faster, worst mincut comm reduction "
          f"x{worst_reduction:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
