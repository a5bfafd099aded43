"""Tabu search engine: tabu list, slice evaluation, and the iteration loop.

The engine is deliberately split from the evaluation backend. Each
iteration builds an immutable EvalContext and hands it to a pluggable
evaluator that must return what one ``scan_slice`` over the full
neighborhood returns; the sequential evaluator, the multi-lane evaluator,
and the distributed coordinator are all drop-in backends. That result is
a pure function of the context, so an iteration whose context equals the
one of two iterations back reuses that iteration's result and calls no
evaluator. Ties between equally good moves always resolve to the smallest
move index, which is what makes runs bit-reproducible no matter how the
neighborhood was partitioned.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .instance import ProblemInstance
from .neighborhood import Move, apply_move, decode_move, neighborhood_size
from .schedule import evaluate_makespan, insertion_decoder


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

    ``per_move_delay`` paces the scan: move k of the call (from 0) waits
    until ``start + (k + 1) * delay``, so it runs at 1/delay moves/s.

    Moves with the same ``from_pos`` are contiguous in the index space,
    so each group shares one ``schedule.insertion_decoder``. Each move
    is decoded against the bound that decides it: the best makespan so
    far, or for a tabu move that or the incumbent, whichever is smaller.
    A move whose makespan reaches that bound cannot be chosen: it does
    not beat the current best, which has a smaller index and wins the
    tie, and a tabu one does not beat the incumbent either. So stopping
    its decode there changes no result, and it still counts as
    evaluated.
    """
    tabu_set = set(tabu_entries)
    best_idx: int | None = None
    best_ms = math.inf
    evaluated = 0
    span = len(order) - 1
    group = None
    monotonic = time.monotonic
    start = monotonic()
    for k in range(begin, end):
        if deadline is not None and monotonic() >= deadline:
            break
        if per_move_delay:
            time.sleep(max(0.0, start + (evaluated + 1) * per_move_delay - monotonic()))
        from_pos, r = divmod(k, span)
        if from_pos != group:
            group = from_pos
            job = order[from_pos]
            makespan_below = insertion_decoder(inst, order, from_pos)
        to_pos = r if r < from_pos else r + 1
        evaluated += 1
        bound = best_ms
        if (job, to_pos) in tabu_set and incumbent < bound:
            bound = incumbent
        ms = makespan_below(to_pos, bound)
        if ms is not None and ms < bound:
            best_idx = k
            best_ms = ms
    return best_idx, None if best_idx is None else best_ms, evaluated


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


@dataclass(frozen=True, slots=True)  # one per iteration, kept for the whole run
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

    ``evaluator`` is called with an EvalContext and must return the
    SliceResult of the full neighborhood. It is called once per
    iteration, except when the context equals the one of two iterations
    back; that iteration's result is then reused. This happens often:
    the tabu attribute (job, origin position) stops a job from going
    back, but not its neighbour from stepping across it, which restores
    the order, and once the tabu list alternates the two attributes the
    context repeats every two iterations until diversification. The
    reuse is exact because only ``best_index`` and ``best_makespan`` are
    read, and they depend on the context alone.

    The globally best admissible move is applied even when
    non-improving; after ``diversify_after`` consecutive iterations
    without improving the incumbent, the current solution is perturbed
    with random moves.
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
    older = newer = (None, None)  # (context, result) of the iterations two back and one back

    for it in range(params.iterations):
        ctx = EvalContext(inst, order, tabu, incumbent)
        if ctx == older[0]:
            result = older[1]
        else:
            try:
                result = evaluator(ctx)
            except Exception as exc:
                raise SearchError(f"evaluator failed at iteration {it}: {exc}", best_order, incumbent, trace) from exc
        older, newer = newer, (ctx, result)

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
