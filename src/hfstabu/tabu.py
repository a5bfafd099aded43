"""Tabu search engine: tabu list, slice evaluation, and the iteration loop.

The engine is deliberately split from the evaluation backend. Each
iteration hands an immutable EvalContext to a pluggable evaluator that
must honor the evaluate_slice contract over the full neighborhood; the
sequential evaluator, the multi-lane evaluator, and the distributed
coordinator are all drop-in backends. Ties between equally good moves
always resolve to the smallest move index, which is what makes runs
bit-reproducible no matter how the neighborhood was partitioned.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .instance import ProblemInstance
from .neighborhood import Move, NeighborhoodSlice, apply_move, decode_move, neighborhood_size
from .schedule import evaluate_makespan


@dataclass(frozen=True)
class TabuList:
    """FIFO memory of forbidden (job, target position) attributes.

    Pushing the attribute of an applied move forbids re-inserting that
    job at its origin position while the attribute remains in memory.
    """

    entries: tuple[tuple[int, int], ...] = ()
    tenure: int = 7

    def __post_init__(self):
        if self.tenure < 1:
            raise ValueError(f"tenure must be >= 1, got {self.tenure}")
        if len(self.entries) > self.tenure:
            raise ValueError("tabu list longer than its tenure")


def tabu_push(tabu: TabuList, mv: Move, order) -> TabuList:
    """Record (moved job, origin position); evict the oldest entry beyond tenure."""
    entries = tabu.entries + ((order[mv.from_pos], mv.from_pos),)
    if len(entries) > tabu.tenure:
        entries = entries[-tabu.tenure:]
    return TabuList(entries, tabu.tenure)


def is_tabu(tabu: TabuList, mv: Move, order) -> bool:
    """True when the move would return its job to a recorded position."""
    return (order[mv.from_pos], mv.to_pos) in tabu.entries


@dataclass(frozen=True)
class SliceResult:
    """Outcome of evaluating one slice of the neighborhood."""

    best_index: int | None
    best_makespan: int | None
    moves_evaluated: int
    elapsed: float


@dataclass(frozen=True)
class EvalContext:
    """Immutable inputs of one evaluation round."""

    instance: ProblemInstance
    order: tuple[int, ...]
    tabu: TabuList
    incumbent: int


def scan_slice(
    inst: ProblemInstance,
    order,
    tabu_entries,
    incumbent: int,
    begin: int,
    end: int,
    deadline: float | None = None,
    per_move_delay: float = 0.0,
):
    """Scan move indices [begin, end) and return (best_index, best_makespan, evaluated).

    A move is admissible if it is not tabu, or if it is tabu but its
    makespan beats the incumbent (aspiration). Ties go to the smallest
    index. ``deadline`` is an absolute time.monotonic() value; the scan
    stops at a move boundary once it passes, so the evaluated portion is
    always the prefix [begin, begin + evaluated).
    """
    n = len(order)
    base = list(order)
    tabu_set = set(tabu_entries)
    best_idx: int | None = None
    best_ms: int | None = None
    evaluated = 0
    span = n - 1
    monotonic = time.monotonic
    sleep = time.sleep
    for k in range(begin, end):
        if deadline is not None and monotonic() >= deadline:
            break
        if per_move_delay:
            sleep(per_move_delay)
        from_pos, r = divmod(k, span)
        to_pos = r if r < from_pos else r + 1
        cand = base.copy()
        job = cand.pop(from_pos)
        cand.insert(to_pos, job)
        ms = evaluate_makespan(inst, cand)
        evaluated += 1
        if (job, to_pos) in tabu_set and ms >= incumbent:
            continue
        if best_ms is None or ms < best_ms:
            best_idx = k
            best_ms = ms
    return best_idx, best_ms, evaluated


def evaluate_slice(
    inst: ProblemInstance,
    order,
    tabu: TabuList,
    best_known: int,
    nslice: NeighborhoodSlice,
) -> SliceResult:
    """Best admissible move within one neighborhood slice."""
    total = neighborhood_size(len(order))
    if not 0 <= nslice.begin <= nslice.end <= total:
        raise ValueError(f"slice [{nslice.begin}, {nslice.end}) outside [0, {total})")
    t0 = time.perf_counter()
    best_idx, best_ms, evaluated = scan_slice(inst, order, tabu.entries, best_known, nslice.begin, nslice.end)
    return SliceResult(best_idx, best_ms, evaluated, time.perf_counter() - t0)


def merge_prefix(parts, begin: int) -> tuple[int, int | None, int | None]:
    """Reduce evaluated intervals to the contiguous prefix starting at ``begin``.

    ``parts`` are (begin, evaluated_end, best_index, best_makespan)
    tuples in any order. They are chained from ``begin``; the chain
    stops at the first gap or overlap, and everything past it is
    ignored. Returns (frontier, best_index, best_makespan) over
    [begin, frontier), the argmin by (makespan, index) so that ties go
    to the smallest index; this is the reduce every evaluation mode
    shares.
    """
    frontier = begin
    best = None
    for part_begin, part_end, idx, ms in sorted(parts, key=lambda part: part[:2]):
        if part_begin != frontier:
            break
        frontier = part_end
        if idx is not None and (best is None or (ms, idx) < best):
            best = (ms, idx)
    if best is None:
        return frontier, None, None
    return frontier, best[1], best[0]


def diversify(order, strength: int, rng: random.Random) -> tuple[int, ...]:
    """Apply ``strength`` uniformly drawn insertion moves in sequence."""
    if strength < 0:
        raise ValueError(f"strength must be >= 0, got {strength}")
    order = tuple(order)
    total = neighborhood_size(len(order))
    if total == 0:
        return order
    for _ in range(strength):
        order = apply_move(order, decode_move(rng.randrange(total), len(order)))
    return order


@dataclass(frozen=True)
class SearchParams:
    iterations: int
    tenure: int = 7
    diversify_after: int = 20
    diversify_strength: int | None = None  # None: use the job count
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.tenure < 1:
            raise ValueError("tenure must be >= 1")
        if self.diversify_after < 0:
            raise ValueError("diversify_after must be >= 0 (0 disables)")
        if self.diversify_strength is not None and self.diversify_strength < 0:
            raise ValueError("diversify_strength must be >= 0")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    move_index: int | None
    makespan: int | None
    incumbent: int


@dataclass(frozen=True)
class SearchResult:
    best_order: tuple[int, ...]
    best_makespan: int
    initial_makespan: int
    trace: tuple[IterationRecord, ...]


class SearchError(RuntimeError):
    """Evaluator failure; carries the best solution found so far."""

    def __init__(self, message: str, best_order, best_makespan: int, trace):
        super().__init__(message)
        self.best_order = tuple(best_order)
        self.best_makespan = best_makespan
        self.trace = tuple(trace)


def initial_order(inst: ProblemInstance) -> tuple[int, ...]:
    """Jobs by nonincreasing total work, ties by job id."""
    return tuple(sorted(range(inst.num_jobs), key=lambda j: (-inst.total_work(j), j)))


def run_search(inst: ProblemInstance, params: SearchParams, evaluator, on_iteration=None) -> SearchResult:
    """Run the tabu search loop.

    ``evaluator`` is called once per iteration with an EvalContext and
    must return the SliceResult of the full neighborhood. The globally
    best admissible move is applied even when non-improving; after
    ``diversify_after`` consecutive iterations without improving the
    incumbent, the current solution is perturbed with random moves.
    ``on_iteration``, when given, receives each IterationRecord as it is
    produced (used for streaming traces).
    """
    n = inst.num_jobs
    order = initial_order(inst)
    incumbent = evaluate_makespan(inst, order)
    initial = incumbent
    best_order = order
    if neighborhood_size(n) == 0:
        return SearchResult(best_order, incumbent, initial, ())

    rng = random.Random(params.seed)
    strength = params.diversify_strength if params.diversify_strength is not None else n
    tabu = TabuList((), params.tenure)
    trace: list[IterationRecord] = []
    stalled = 0

    for it in range(params.iterations):
        ctx = EvalContext(inst, order, tabu, incumbent)
        try:
            result = evaluator(ctx)
        except Exception as exc:
            raise SearchError(f"evaluator failed at iteration {it}: {exc}", best_order, incumbent, trace) from exc

        if result.best_index is None:
            record = IterationRecord(it, None, None, incumbent)
            stalled += 1
        else:
            mv = decode_move(result.best_index, n)
            tabu = tabu_push(tabu, mv, order)
            order = apply_move(order, mv)
            ms = result.best_makespan
            if ms < incumbent:
                incumbent = ms
                best_order = order
                stalled = 0
            else:
                stalled += 1
            record = IterationRecord(it, result.best_index, ms, incumbent)
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record)

        if params.diversify_after and stalled >= params.diversify_after:
            order = diversify(order, strength, rng)
            stalled = 0

    return SearchResult(best_order, incumbent, initial, tuple(trace))
