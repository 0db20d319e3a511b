"""The vectorized batch peeling engine (the production peel).

The scalar peel loop in :mod:`repro.core.decomp` executes one Python-level
``decode`` / intersection / ``combinations`` chain per peeled r-clique; on
large frontiers the interpreter overhead dwarfs the algorithm.  This engine
processes each peeled bucket as flat numpy arrays instead: batch decode,
array-valued intersections, one vectorized probe pass over all
``comb(s, r)`` sub-cliques of every rediscovered s-clique, one ``np.add.at``
scatter for the count updates, and a vectorized first-touch dedup feeding
``Aggregator.record_many``.

The contract --- enforced by tests/test_batch_engine.py and the bench gate
--- is that a batch run's *simulated* metrics are bit-for-bit identical to
the scalar engine's: same work, span, rounds, atomics, probes, contention,
and cache misses, same core numbers and round log.  Three mechanisms make
that possible (full rules in docs/cost-model.md):

* every work charge on the peel path is integer-valued, and integer work
  lands in :class:`~repro.parallel.runtime.PhaseStats`' exact int bin, so
  charging a closed-form *sum* per batch equals per-call charging;
* per-task span is the constant ``log2(n) * (s - r + 1)``, so the region
  max is the same constant;
* the cache simulator is order-sensitive, so the engine assembles the exact
  per-round address stream the scalar loop would emit --- decode addresses,
  then per s-clique the probe addresses of each examined sub-clique (route
  then final slot), then per applied update the count-cell address followed
  by any aggregator probe addresses --- and replays it through
  :meth:`~repro.parallel.runtime.CostTracker.access_sequence`.

Each round runs in two halves: :func:`rediscover_round` (decode,
intersect, s-clique expansion, probe, classify) and the single-node apply
step in :func:`_run_round`.  The sharded driver's batch local round
(:mod:`repro.distributed.batchpeel`) calls the first half unchanged and
swaps only the apply step.

The engine requires plain ndarray peeling state, so
:func:`~repro.core.decomp.arb_nucleus_decomp` runs the scalar oracle
instead whenever :func:`~repro.parallel.runtime.use_batch` says so (an
oracle tracker, or a race detector: shadow arrays and per-task ownership
only exist there).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from ..cliques.batchlist import expand_cliques
from ..parallel.primitives import interleave_segments, intersect_segments
from ..parallel.runtime import CostTracker, _log2

_ALIVE, _PEELING, _PEELED = 0, 1, 2

#: Batch<->scalar parity contract, verified statically by ``repro lint
#: --strict`` (rule PAR007).  Each kernel names the scalar oracle whose
#: tracker charges it must reproduce, plus its lexical charge fingerprint
#: (direct charge-method calls and tracker-forwarding helper calls, with
#: call-site counts).  Editing a kernel's charges requires re-running the
#: differential parity tests and re-blessing the fingerprint here ---
#: regenerate with ``repro lint --strict --emit-registry``.
PARLINT_PARITY = {
    "peel_batch": {
        "oracle": "repro.core.decomp._peel_scalar",
        "fingerprint": {
            "_edges_alive_many": 1,
            "_run_round": 1,
            "access_sequence": 1,
            "add_round": 1,
            "settle": 1,
            "task_span": 1,
        },
    },
    "_edges_alive_many": {
        "oracle": "repro.core.tables.CliqueTable.cell_of",
        "fingerprint": {
            "access_sequence": 1,
            "add_probes": 1,
            "add_work_int": 1,
        },
    },
    "rediscover_round": {
        "oracle": "repro.core.decomp._rediscover",
        "fingerprint": {
            "access_sequence": 1,
            "add_cliques": 1,
            "add_probes": 1,
            "add_work_int": 4,
            "expand_cliques": 1,
        },
    },
    "_run_round": {
        "oracle": "repro.core.decomp._update_one",
        "fingerprint": {
            "access_sequence": 1,
            "rediscover_round": 1,
        },
    },
}


def peel_batch(*, graph, dg, working, table, buckets, aggregator, meter,
               status, last_round, cores, contraction, config,
               tracker: CostTracker, n_r: int, r: int, s: int,
               fractional: bool) -> tuple[int, int, list]:
    """Run the peeling phase in batch mode; returns (rho, max_core, log).

    Mirrors the scalar loop round for round: same bucket extractions, same
    begin_round/settle/finish_round sequence, same contraction triggers.
    """
    subsets_per_s = comb(s, r)
    comb_cols = np.asarray(list(combinations(range(s), r)), dtype=np.int64)
    task_span = _log2(graph.n) * (s - r + 1)
    cache_on = tracker.cache is not None
    finished = 0
    rho = 0
    round_id = 0
    max_core = 0
    round_log: list[tuple[int, int, int]] = []

    while finished < n_r:
        level, peel_cells = buckets.next_bucket()
        rho += 1
        tracker.add_round()
        max_core = max(max_core, level)
        cores[peel_cells] = level
        status[peel_cells] = _PEELING
        finished += peel_cells.size
        estimate = int(peel_cells.size) * max(1, level) * \
            max(1, subsets_per_s - 1)
        aggregator.begin_round(int(peel_cells.size), estimate)

        with tracker.parallel(int(peel_cells.size)) as region:
            _run_round(peel_cells, comb_cols, dg, working, table, aggregator,
                       status, last_round, round_id, fractional, cache_on,
                       config.threads, r, s, tracker)
            region.task_span(task_span)

        meter.settle(tracker)
        updated = aggregator.finish_round()
        round_log.append((level, int(peel_cells.size), int(updated.size)))
        status[peel_cells] = _PEELED
        if updated.size:
            new_values = np.rint(table.counts[updated]).astype(np.int64)
            buckets.update(updated, new_values)
        if contraction is not None:
            edges, dec_addrs, _ = table.decode_many(
                peel_cells, collect_addresses=cache_on)
            if cache_on:
                tracker.access_sequence(dec_addrs)
            contraction.note_peeled_edges(edges)
            contraction.maybe_contract(
                lambda a, b: status[table.cell_of(
                    (a, b) if a < b else (b, a))] != _PEELED,
                edges_alive_many=lambda pairs: _edges_alive_many(
                    pairs, table, status, tracker, cache_on))
        round_id += 1
    return rho, max_core, round_log


def _edges_alive_many(pairs, table, status, tracker, cache_on) -> np.ndarray:
    """Batch form of the contraction liveness lambda.

    Charges exactly what ``m`` scalar ``cell_of`` calls would --- per pair
    the routing profile plus ``probes * suffix_width`` work and ``probes``
    table probes, with the route-then-slot addresses replayed in pair
    order.  Every checked pair is an original edge of G, hence present.
    """
    rows = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    cells, probes, slot_addrs, route_addrs = table.lookup_many(rows)
    route_work, route_probes, _ = table.route_charge_profile()
    m = rows.shape[0]
    total_probes = int(probes.sum())
    tracker.add_work_int(m * route_work + total_probes * table.suffix_width)
    tracker.add_probes(m * route_probes + total_probes)
    if cache_on:
        tracker.access_sequence(np.concatenate(
            [route_addrs, slot_addrs[:, None]], axis=1).reshape(-1))
    return status[cells] != _PEELED


class ClassifiedRound(NamedTuple):
    """One round's rediscovered s-cliques, classified and ready to apply.

    ``update_cells`` lists the ALIVE sub-clique cells of every applying
    s-clique row in row-major order --- the order the scalar loop issues
    its updates --- and ``update_row_of`` the row each came from.  Each
    update subtracts ``1 / row_share`` of its row (the ``share`` of
    :func:`repro.core.decomp._rediscover`).
    ``probe_flat`` / ``probe_lens`` (per row) and ``dec_addrs`` /
    ``dec_lens`` (per task) carry the address segments a cache replay
    needs; they are empty unless the round ran with ``cache_on``.
    """

    update_cells: np.ndarray
    update_row_of: np.ndarray
    row_share: np.ndarray
    row_task: np.ndarray
    probe_flat: np.ndarray
    probe_lens: np.ndarray
    dec_addrs: np.ndarray
    dec_lens: np.ndarray


def rediscover_round(peel_cells, comb_cols, dg, working, table, status,
                     fractional, cache_on, r, s,
                     tracker) -> ClassifiedRound | None:
    """UPDATE's rediscover-and-classify half for a whole round, batched.

    Decodes every peeled cell, rediscovers the incident s-cliques, probes
    each one's r-subsets and applies the status walk plus the update rule
    of :func:`repro.core.decomp._rediscover`, charging exactly what the
    scalar loop would.  Returns ``None`` when no s-clique was found (the
    decode addresses are then already replayed); the apply step is the
    caller's.
    """
    n_tasks = peel_cells.size
    cliques, dec_addrs, dec_lens = table.decode_many(
        peel_cells, collect_addresses=cache_on)

    # -- rediscover candidate completions per peeled clique: intersect
    # the r neighborhoods of every task at once, charging each task's
    # min(|N(v_j)|) + 1 like the scalar intersect_many.
    if r == 1:
        tracker.add_work_int(n_tasks)
        cols = cliques
    else:
        lens = working.lengths[cliques]  # (n_tasks, r)
        tracker.add_work_int(int(lens.min(axis=1).sum()) + n_tasks)
        # Start each row from its shortest list; the set is order-free.
        cols = np.take_along_axis(
            cliques, np.argsort(lens, axis=1, kind="stable"), axis=1)
    cand_values, sizes = working.gather(cols[:, 0])
    for j in range(1, r):
        live = np.flatnonzero(sizes)
        if not live.size:
            break
        next_values, live_lens = working.gather(cols[live, j])
        next_lens = np.zeros(n_tasks, dtype=np.int64)
        next_lens[live] = live_lens
        cand_values, sizes = intersect_segments(cand_values, sizes,
                                                next_values, next_lens)

    # -- enumerate incident s-cliques (rows) in scalar discovery order.
    if s - r == 1:
        total = cand_values.size
        tracker.add_work_int(total)
        tracker.add_cliques(total)
        rows = np.empty((total, s), dtype=np.int64)
        if total:
            rows[:, :r] = np.repeat(cliques, sizes, axis=0)
            rows[:, r] = cand_values
        row_task = np.repeat(np.arange(n_tasks, dtype=np.int64), sizes)
    else:
        # Frontier expansion over every eligible task at once; tasks whose
        # candidate set cannot complete an s-clique are skipped without
        # charge, exactly like the scalar loop's early continue.
        eligible_mask = sizes >= s - r
        eligible = np.flatnonzero(eligible_mask)
        rows, base_of = expand_cliques(
            dg, cliques[eligible], cand_values[np.repeat(eligible_mask,
                                                         sizes)],
            sizes[eligible], s - r, tracker)
        rows = rows.reshape(-1, s)
        row_task = eligible[base_of]
    n_rows = rows.shape[0]
    n_combs = comb_cols.shape[0]
    route_work, route_probes, route_len = table.route_charge_profile()
    if n_rows == 0:
        if cache_on:
            tracker.access_sequence(dec_addrs)
        return None

    # -- probe every sub-clique until the scalar loop would stop (first
    # PEELED), charging the per-subset route + probe costs in bulk.
    sorted_rows = np.sort(rows, axis=1)
    subsets = sorted_rows[:, comb_cols]  # (n_rows, n_combs, r)
    cells_flat, probes_flat, slot_addrs_flat, route_addrs_flat = \
        table.lookup_many(subsets.reshape(n_rows * n_combs, r))
    cells = cells_flat.reshape(n_rows, n_combs)
    probes = probes_flat.reshape(n_rows, n_combs)
    state = status[cells]
    peeled_mask = state == _PEELED
    has_peeled = peeled_mask.any(axis=1)
    first_peeled = np.where(has_peeled, peeled_mask.argmax(axis=1), n_combs)
    probed_count = np.minimum(first_peeled + 1, n_combs)
    probed_mask = np.arange(n_combs)[np.newaxis, :] < probed_count[:, None]
    probes_examined = int(probes[probed_mask].sum())
    n_probed = int(probed_count.sum())
    tracker.add_work_int(n_rows * s + n_probed * route_work
                         + probes_examined * table.suffix_width)
    tracker.add_probes(n_probed * route_probes + probes_examined)

    # -- decide which rows apply updates and with what delta.
    survivors = ~has_peeled
    peeling_mask = state == _PEELING
    alive_mask = state == _ALIVE
    n_peeling = peeling_mask.sum(axis=1)
    if fractional:
        apply_row = survivors & alive_mask.any(axis=1)
        row_share = np.maximum(n_peeling, 1)
    else:
        # Representative mode: only the s-clique whose *base* r-clique is
        # the least peeling sub-clique subtracts; min() over subset tuples
        # is the first peeling subset in combination order.
        first_peeling = np.where(n_peeling > 0,
                                 peeling_mask.argmax(axis=1), 0)
        representative = np.take_along_axis(
            subsets, first_peeling[:, None, None], axis=1)[:, 0, :]
        base_sorted = np.sort(rows[:, :r], axis=1)
        apply_row = survivors & alive_mask.any(axis=1) \
            & (representative == base_sorted).all(axis=1)
        row_share = np.ones(n_rows, dtype=np.int64)

    update_rows = np.flatnonzero(apply_row)
    alive_sel = alive_mask[update_rows]
    update_cells = cells[update_rows][alive_sel]  # row-major: scalar order
    update_row_of = np.repeat(update_rows, alive_sel.sum(axis=1))
    if cache_on:
        block = np.concatenate(
            [route_addrs_flat.reshape(n_rows, n_combs, route_len),
             slot_addrs_flat.reshape(n_rows, n_combs, 1)], axis=2)
        probe_flat = block[probed_mask].reshape(-1).astype(np.int64)
        probe_lens = probed_count * (route_len + 1)
    else:
        probe_flat = probe_lens = np.empty(0, dtype=np.int64)
    return ClassifiedRound(update_cells, update_row_of, row_share, row_task,
                           probe_flat, probe_lens, dec_addrs, dec_lens)


def _run_round(peel_cells, comb_cols, dg, working, table, aggregator,
               status, last_round, round_id, fractional, cache_on, threads,
               r, s, tracker) -> None:
    """One round's worth of UPDATE calls, batched (Algorithm 2 lines 13-18):
    :func:`rediscover_round`, then the single-node apply step."""
    classified = rediscover_round(peel_cells, comb_cols, dg, working,
                                  table, status, fractional, cache_on, r,
                                  s, tracker)
    if classified is None:
        return
    update_cells = classified.update_cells
    update_row_of = classified.update_row_of
    row_task = classified.row_task
    n_updates = update_cells.size
    row_delta = -1.0 / classified.row_share
    # PAR010 waiver: row_delta (-1/n_peeling) is the batch replay of the
    # scalar engine's fractional delta --- order-dependent in float
    # arithmetic, but np.add.at applies it in fixed row-major order and
    # every consumer re-rounds with np.rint, so the engine-parity gate
    # (bit-for-bit batch == scalar metrics) already pins the result.
    count_addrs = table.add_count_at_many(  # parlint: disable=PAR010
        update_cells, row_delta[update_row_of],
        collect_addresses=cache_on)

    # -- first-touch dedup and aggregation (vectorized last_round stamp).
    captured = None
    record_mask = np.zeros(n_updates, dtype=bool)
    if n_updates:
        fresh = last_round[update_cells] != round_id
        _, first_index = np.unique(update_cells, return_index=True)
        first_in_batch = np.zeros(n_updates, dtype=bool)
        first_in_batch[first_index] = True
        record_mask = fresh & first_in_batch
        record_cells = update_cells[record_mask]
        last_round[record_cells] = round_id
        record_threads = row_task[update_row_of[record_mask]] % threads
        captured = aggregator.record_many(record_cells, record_threads,
                                          capture=cache_on)

    if not cache_on:
        return

    # -- replay the exact scalar address stream: per task its decode
    # addresses, then per discovered s-clique the probed subsets' route +
    # slot addresses, then per applied update the count-cell address
    # followed by the aggregator's captured probe addresses.
    n_rows = row_task.size
    if n_updates:
        if captured is not None:
            agg_flat, record_lens = captured
            agg_lens = np.zeros(n_updates, dtype=np.int64)
            agg_lens[record_mask] = record_lens
            update_flat = interleave_segments(
                count_addrs.astype(np.int64),
                np.ones(n_updates, dtype=np.int64), agg_flat, agg_lens)
            update_seg_lens = 1 + agg_lens
        else:
            update_flat = count_addrs.astype(np.int64)
            update_seg_lens = np.ones(n_updates, dtype=np.int64)
        row_update_lens = np.zeros(n_rows, dtype=np.int64)
        np.add.at(row_update_lens, update_row_of, update_seg_lens)
    else:
        update_flat = np.empty(0, dtype=np.int64)
        row_update_lens = np.zeros(n_rows, dtype=np.int64)
    row_flat = interleave_segments(classified.probe_flat,
                                   classified.probe_lens, update_flat,
                                   row_update_lens)
    task_row_lens = np.zeros(peel_cells.size, dtype=np.int64)
    np.add.at(task_row_lens, row_task,
              classified.probe_lens + row_update_lens)
    tracker.access_sequence(
        interleave_segments(classified.dec_addrs.astype(np.int64),
                            classified.dec_lens, row_flat, task_row_lens))
