"""Independent reference implementations used only by the tests.

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
from fractions import Fraction

from hfstabu.coordinator import CoverageError
from hfstabu.instance import ProblemInstance
from hfstabu.schedule import Schedule, evaluate_makespan


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

    assert schedule.makespan == max(max(row) for row in schedule.completion)


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
