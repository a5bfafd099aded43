"""Benchmark harness: fixed-seed timing grids for local and distributed runs.

Each run solves generated instances for a fixed iteration count and
records wall time per (size, lane count) or (size, host count) cell,
plus the speedup against the single-lane / single-host cell. Output is
CSV with the header ``n,m,lanes_or_hosts,duration_s,speedup``; the full
configuration, the seed, the instance digests and a digest of every
trajectory are embedded as ``#`` comment lines so a bench file is
enough to reproduce its trajectories exactly (timings excluded).

The desk grid keeps total runtime small; ``full_grid()`` returns the
large 10/30/50-job grid for unattended runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .coordinator import Coordinator
from .instance import generate_instance, instance_digest, sha256
from .parallel import LaneEvaluator
from .schedule import evaluate_makespan
from .tabu import EvalContext, SearchParams, SearchResult, TabuList, initial_order, run_search

CSV_HEADER = "n,m,lanes_or_hosts,duration_s,speedup"

DESK_GRID = ((10, 2), (10, 5), (30, 2), (30, 5))


def full_grid():
    """The large grid: 10/30/50 jobs by 2/5/8/10 stages."""
    return tuple((n, m) for n in (10, 30, 50) for m in (2, 5, 8, 10))


@dataclass(frozen=True)
class BenchRow:
    n: int
    m: int
    key: int  # lane count or host count
    duration_s: float
    speedup: float | None
    best_makespan: int
    trace_digest: str


def trace_digest(result: SearchResult) -> str:
    payload = ",".join(f"{r.move_index}:{r.incumbent}" for r in result.trace)
    return sha256(payload.encode()).hexdigest()[:16]


def _speedups(rows):
    """Fill speedup relative to the key=min cell of the same (n, m)."""
    base = {}
    for row in rows:
        if (row.n, row.m) not in base or row.key < base[(row.n, row.m)].key:
            base[(row.n, row.m)] = row
    out = []
    for row in rows:
        ref = base[(row.n, row.m)]
        speedup = ref.duration_s / row.duration_s if row.duration_s > 0 else None
        out.append(BenchRow(row.n, row.m, row.key, row.duration_s, speedup,
                            row.best_makespan, row.trace_digest))
    return out


def bench_local(sizes, lane_counts, iterations: int, seed: int, machines: int = 5,
                repeats: int = 1):
    """Time the in-process solver over the size grid and lane counts.

    Returns (rows, meta). Each evaluator scans the initial neighborhood
    once before its clock starts, so lane start-up is not timed. With
    repeats > 1 each cell is run repeatedly and the minimum duration kept
    (trajectories are identical by construction, so only timing varies).
    """
    rows = []
    meta = {
        "kind": "local",
        "seed": seed,
        "machines": machines,
        "iterations": iterations,
        "repeats": repeats,
        "lane_counts": list(lane_counts),
        "sizes": [list(s) for s in sizes],
        "instances": {},
        "cells": {},
    }
    for n, m in sizes:
        inst = generate_instance(n, m, machines, seed)
        meta["instances"][f"{n}x{m}"] = instance_digest(inst)
        params = SearchParams(iterations=iterations, seed=seed)
        order = initial_order(inst)
        warmup = EvalContext(inst, order, TabuList((), params.tenure), evaluate_makespan(inst, order))
        for lanes in lane_counts:
            best_duration = None
            result = None
            for _ in range(repeats):
                with LaneEvaluator(lanes=lanes) as evaluator:
                    evaluator.evaluate(warmup)  # lanes start lazily; the trajectory is unaffected
                    t0 = time.perf_counter()
                    result = run_search(inst, params, evaluator.evaluate)
                    duration = time.perf_counter() - t0
                if best_duration is None or duration < best_duration:
                    best_duration = duration
            digest = trace_digest(result)
            rows.append(BenchRow(n, m, lanes, best_duration, None, result.best_makespan, digest))
            meta["cells"][f"{n}x{m}@{lanes}"] = {"best_makespan": result.best_makespan,
                                                 "trace": digest}
    return _speedups(rows), meta


def bench_distributed(endpoints, sizes, iterations: int, seed: int, machines: int = 5, host_counts=None):
    """Time distributed runs over growing prefixes of the endpoint list.

    Per cell the meta records per-node utilization (accepted moves and
    mean speed) and the number of redistribution rounds. Unreachable
    endpoints surface as HandshakeError from ``Coordinator.handshake``.
    """
    endpoints = list(endpoints)
    if host_counts is None:
        host_counts = range(1, len(endpoints) + 1)
    rows = []
    meta = {
        "kind": "distributed",
        "seed": seed,
        "machines": machines,
        "iterations": iterations,
        "endpoints": [f"{h}:{p}" for h, p in endpoints],
        "sizes": [list(s) for s in sizes],
        "instances": {},
        "cells": {},
    }
    for n, m in sizes:
        inst = generate_instance(n, m, machines, seed)
        meta["instances"][f"{n}x{m}"] = instance_digest(inst)
        params = SearchParams(iterations=iterations, seed=seed)
        for hosts in host_counts:
            # the handshakes happen before the clock starts: rows time the
            # iterations themselves, as speedups are computed from them
            with Coordinator(endpoints[:hosts]) as coordinator:
                coordinator.handshake()
                t0 = time.perf_counter()
                result = run_search(inst, params, coordinator.evaluate)
                duration = time.perf_counter() - t0
                stats = coordinator.node_stats()
                redistributions = coordinator.redistribution_rounds
            digest = trace_digest(result)
            rows.append(BenchRow(n, m, hosts, duration, None, result.best_makespan, digest))
            meta["cells"][f"{n}x{m}@{hosts}"] = {
                "best_makespan": result.best_makespan,
                "trace": digest,
                "redistribution_rounds": redistributions,
                "nodes": {str(k): {"moves": v["moves"], "mean_speed": round(v["mean_speed"], 3)}
                          for k, v in stats.items()},
            }
    return _speedups(rows), meta


def write_csv(stream, rows, meta):
    """Write the bench table; configuration goes into leading # comments."""
    stream.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    stream.write(CSV_HEADER + "\n")
    for row in rows:
        speedup = f"{row.speedup:.3f}" if row.speedup is not None else ""
        stream.write(f"{row.n},{row.m},{row.key},{row.duration_s:.3f},{speedup}\n")
