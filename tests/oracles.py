"""Independent reference implementations used only by the tests.

``build_schedule`` decodes a permutation into the full schedule,
processor ids included, by the library's decoding rule: for each task it
orders the stage's processors by (availability, index) and takes the
first q. ``reference_scan`` is the plain form of a neighborhood scan:
apply each move, decode the full schedule, then apply the tabu and
aspiration rule.
``evaluate_slice`` is the library's own scan of one slice, timed, as a
``SliceResult``: the single-machine answer every evaluator must match.

The simulator here is an event-queue list scheduler written separately
from the library decoder: per stage it keeps an arrival queue ordered by
(ready time, permutation position) and starts the head job whenever
enough processors are idle at the current event time, never letting a
later job overtake the head. It tracks per-processor busy intervals, so
its schedules can be audited directly.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from hfstabu.coordinator import CoverageError
from hfstabu.instance import ProblemInstance
from hfstabu.neighborhood import Move, NeighborhoodSlice, apply_move, decode_move, neighborhood_size
from hfstabu.schedule import evaluate_makespan
from hfstabu.tabu import SliceResult, TabuList, scan_slice


def simulate(inst: ProblemInstance, order):
    """Event-driven simulation; returns (makespan, completion matrix)."""
    n, m = inst.num_jobs, inst.num_stages
    pos = {job: idx for idx, job in enumerate(order)}
    pending = [[] for _ in range(m)]
    busy_until = [[0] * inst.processors_per_stage[i] for i in range(m)]
    completion = [[0] * m for _ in range(n)]
    for job in order:
        heapq.heappush(pending[0], (0, pos[job], job))

    events = [0]
    started = 0
    total = n * m
    while started < total:
        if not events:
            raise AssertionError("simulator deadlocked with tasks pending")
        t = heapq.heappop(events)
        while events and events[0] == t:
            heapq.heappop(events)
        for i in range(m):
            queue = pending[i]
            while queue:
                ready, p, job = queue[0]
                if ready > t:
                    break
                q = inst.widths[job][i]
                idle = [c for c, busy in enumerate(busy_until[i]) if busy <= t]
                if len(idle) < q:
                    break
                heapq.heappop(queue)
                done = t + inst.durations[job][i]
                for c in idle[:q]:
                    busy_until[i][c] = done
                completion[job][i] = done
                heapq.heappush(events, done)
                if i + 1 < m:
                    heapq.heappush(pending[i + 1], (done, p, job))
                started += 1
    return max(max(row) for row in completion), completion


@dataclass(frozen=True)
class Schedule:
    """Start/completion matrices ([job][stage]), processor assignments, makespan."""

    start: tuple[tuple[int, ...], ...]
    completion: tuple[tuple[int, ...], ...]
    assignment: tuple[tuple[tuple[int, ...], ...], ...]
    makespan: int


def validate_permutation(order, n: int) -> tuple[int, ...]:
    """Check that ``order`` is a permutation of range(n); return it as a tuple."""
    order = tuple(order)
    if len(order) != n or sorted(order) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order!r}")
    return order


def build_schedule(inst: ProblemInstance, order) -> Schedule:
    """Decode a permutation into a full feasible schedule.

    Returns per-task start and completion times plus the set of processor
    ids each task occupies. Every permutation decodes successfully.
    """
    order = validate_permutation(order, inst.num_jobs)
    num_stages = inst.num_stages
    machines = inst.processors_per_stage
    n = inst.num_jobs

    pos = [0] * n
    for idx, j in enumerate(order):
        pos[j] = idx
    ready = [0] * n
    start = [[0] * num_stages for _ in range(n)]
    completion = [[0] * num_stages for _ in range(n)]
    assignment: list[list[tuple[int, ...]]] = [[()] * num_stages for _ in range(n)]

    for i in range(num_stages):
        mi = machines[i]
        avail = [0] * mi
        if i == 0:
            seq = order
        else:
            keyed = [(ready[j], pos[j], j) for j in order]
            keyed.sort()
            seq = [item[2] for item in keyed]
        for j in seq:
            q = inst.widths[j][i]
            # stable sort: ties in availability resolve to the lowest index
            idxs = sorted(range(mi), key=avail.__getitem__)
            t = max(ready[j], avail[idxs[q - 1]])
            done = t + inst.durations[j][i]
            chosen = idxs[:q]
            for c in chosen:
                avail[c] = done
            start[j][i] = t
            completion[j][i] = done
            assignment[j][i] = tuple(sorted(chosen))
            ready[j] = done

    return Schedule(
        start=tuple(tuple(row) for row in start),
        completion=tuple(tuple(row) for row in completion),
        assignment=tuple(tuple(row) for row in assignment),
        makespan=max(ready),
    )


def audit_schedule(inst: ProblemInstance, schedule: Schedule):
    """Assert full feasibility of a decoded schedule.

    Checks start/duration/completion consistency, stage precedence,
    width and distinctness of processor assignments, per-processor
    interval disjointness, an instant-by-instant capacity sweep, and
    the makespan field.
    """
    n, m = inst.num_jobs, inst.num_stages
    for j in range(n):
        for i in range(m):
            assert schedule.start[j][i] >= 0
            assert schedule.start[j][i] + inst.durations[j][i] == schedule.completion[j][i]
            if i > 0:
                assert schedule.start[j][i] >= schedule.completion[j][i - 1], (
                    f"job {j} starts stage {i} before finishing stage {i - 1}"
                )
            procs = schedule.assignment[j][i]
            assert len(procs) == inst.widths[j][i]
            assert len(set(procs)) == len(procs)
            assert all(0 <= c < inst.processors_per_stage[i] for c in procs)

    for i in range(m):
        by_proc = {}
        for j in range(n):
            for c in schedule.assignment[j][i]:
                by_proc.setdefault(c, []).append((schedule.start[j][i], schedule.completion[j][i]))
        for c, intervals in by_proc.items():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2, f"stage {i} processor {c}: overlap {(s1, e1)} vs {(s2, e2)}"

        # sweep: completions release capacity before simultaneous starts claim it
        events = []
        for j in range(n):
            events.append((schedule.start[j][i], 1, inst.widths[j][i]))
            events.append((schedule.completion[j][i], 0, inst.widths[j][i]))
        events.sort()
        busy = 0
        for _, kind, width in events:
            busy += width if kind == 1 else -width
            assert busy <= inst.processors_per_stage[i], f"stage {i} over capacity"
        assert busy == 0

    assert schedule.makespan == max_completion(schedule)


def max_completion(schedule: Schedule) -> int:
    """Maximum completion time over all tasks."""
    return max(max(row) for row in schedule.completion)


def lower_bound(inst: ProblemInstance) -> int:
    """max(longest job chain, per-stage area bound); valid for every schedule."""
    chain = max(inst.total_work(j) for j in range(inst.num_jobs))
    area = 0
    for i in range(inst.num_stages):
        load = sum(inst.durations[j][i] * inst.widths[j][i] for j in range(inst.num_jobs))
        mi = inst.processors_per_stage[i]
        area = max(area, -(-load // mi))
    return max(chain, area)


def encode_move(mv: Move, n: int) -> int:
    """Inverse of ``decode_move``."""
    if not (0 <= mv.from_pos < n and 0 <= mv.to_pos < n) or mv.from_pos == mv.to_pos:
        raise ValueError(f"invalid move {mv!r} for n={n}")
    r = mv.to_pos if mv.to_pos < mv.from_pos else mv.to_pos - 1
    return mv.from_pos * (n - 1) + r


def is_tabu(tabu_entries, mv: Move, order) -> bool:
    """True when the move would return its job to a recorded (job, position) pair."""
    return (order[mv.from_pos], mv.to_pos) in tabu_entries


def reference_scan(inst: ProblemInstance, order, tabu_entries, incumbent: int, begin: int, end: int):
    """(best_index, best_makespan, evaluated) over move indices [begin, end).

    A move that puts its job back at a recorded (job, position) pair is
    admissible only when it beats the incumbent; ties go to the
    smallest index.
    """
    best_index = best_makespan = None
    for k in range(begin, end):
        mv = decode_move(k, len(order))
        ms = build_schedule(inst, apply_move(order, mv)).makespan
        if is_tabu(tabu_entries, mv, order) and not ms < incumbent:
            continue
        if best_makespan is None or ms < best_makespan:
            best_index, best_makespan = k, ms
    return best_index, best_makespan, end - begin


def evaluate_slice(inst: ProblemInstance, order, tabu: TabuList, best_known: int,
                   nslice: NeighborhoodSlice) -> SliceResult:
    """Best admissible move within one neighborhood slice, by one ``scan_slice``."""
    total = neighborhood_size(len(order))
    if not 0 <= nslice.begin <= nslice.end <= total:
        raise ValueError(f"slice [{nslice.begin}, {nslice.end}) outside [0, {total})")
    t0 = time.perf_counter()
    best_idx, best_ms, evaluated = scan_slice(inst, order, tabu.entries, best_known, nslice.begin, nslice.end)
    return SliceResult(best_idx, best_ms, evaluated, time.perf_counter() - t0)


def exhaustive_optimum(inst: ProblemInstance) -> int:
    """Minimum decoded makespan over all job permutations."""
    return min(evaluate_makespan(inst, perm) for perm in itertools.permutations(range(inst.num_jobs)))


def random_small_instance(rng, max_jobs=6, max_stages=3, max_machines=3,
                          min_jobs=1, duration_cap=9) -> ProblemInstance:
    """Small instance with per-stage processor counts drawn independently."""
    n = rng.randint(min_jobs, max_jobs)
    m = rng.randint(1, max_stages)
    machines = tuple(rng.randint(1, max_machines) for _ in range(m))
    durations = tuple(tuple(rng.randint(1, duration_cap) for _ in range(m)) for _ in range(n))
    widths = tuple(tuple(rng.randint(1, machines[i]) for i in range(m)) for _ in range(n))
    return ProblemInstance(n, m, machines, durations, widths)


def largest_remainder_reference(speeds, total: int) -> list[int]:
    """Exact-arithmetic largest-remainder apportionment, ties by index."""
    overall = sum(Fraction(s) for s in speeds)
    quotas = [Fraction(s) / overall * total for s in speeds]
    sizes = [int(q) for q in quotas]
    remainder = total - sum(sizes)
    order = sorted(range(len(speeds)), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in order[:remainder]:
        sizes[i] += 1
    return sizes


def verify_exact_cover(results, begin: int, end: int):
    """Check accepted intervals tile [begin, end) with no gap or overlap."""
    intervals = sorted((b, e) for b, e, _, _ in results if e > b)
    cursor = begin
    for b, e in intervals:
        if b != cursor:
            raise CoverageError(f"coverage gap or overlap at {cursor}: got interval [{b},{e})")
        cursor = e
    if cursor != end:
        raise CoverageError(f"coverage stops at {cursor}, expected {end}")
