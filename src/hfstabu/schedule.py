"""List-scheduling decoder: permutation -> feasible schedule -> makespan.

Decoding rule. Stage 0 dispatches jobs in permutation order. Every later
stage dispatches jobs in nondecreasing order of their ready time (the
completion time at the previous stage), breaking ties by permutation
position. A task needing q processors starts at the earliest time
t >= ready at which q processors are simultaneously free, taking the q
processors with the smallest availability times; equal availability is
broken by the lowest processor index. No backfilling: a task is never
placed before an earlier-dispatched one releases enough capacity.

The decoder is a pure function of (instance, permutation), so schedules
are reproducible bit for bit. There are two implementations of it, one
per purpose:

- ``build_schedule`` reports the whole schedule, processor ids
  included. For each task it orders the stage's processors by
  (availability, index) and takes the first q.
- ``evaluate_makespan`` computes only the makespan and is the one used
  in inner search loops. It keeps each stage's availability times as a
  sorted multiset. The q-th smallest time is where a task of width q
  can start, and the q smallest are replaced by its completion time.
  This is exact because the processors of a stage are identical: which
  ones a task occupies never affects a later start time, only the
  multiset of their availability times does. So both decoders give the
  same completion times.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .instance import ProblemInstance


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


def evaluate_makespan(inst: ProblemInstance, order) -> int:
    """Makespan of the decoded schedule, without building the schedule.

    Hot path: called once per candidate move during neighborhood
    evaluation. The caller must supply a valid permutation.

    Between stages a job is the single integer ``ready * n + position``,
    so sorting these keys gives the next stage's dispatch order; stage 0
    starts from each job's position alone. A stage's processors are the
    sorted list of their availability times: a task needing q of them
    starts at max(ready, avail[q - 1]) and replaces the q smallest
    entries with q copies of its completion time.
    """
    n = len(order)
    keys = list(range(n))
    for mi, dur, width in inst.stage_columns:
        avail = [0] * mi
        done_keys = []
        for key in keys:
            ready, p = divmod(key, n)
            j = order[p]
            q = width[j]
            t = avail[q - 1]
            if ready > t:
                t = ready
            t += dur[j]
            del avail[:q]
            at = bisect_right(avail, t)
            avail[at:at] = [t] * q
            done_keys.append(t * n + p)
        done_keys.sort()
        keys = done_keys
    return keys[-1] // n


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


def makespan(schedule: Schedule) -> int:
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
