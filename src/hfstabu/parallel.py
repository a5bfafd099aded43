"""Multi-lane neighborhood evaluation.

One evaluation round freezes its inputs (instance, permutation, tabu
snapshot, incumbent), splits the requested move-index range into
contiguous blocks, and scans the blocks on a pool of lanes. Lanes are
separate processes holding a private copy of the context, so rounds run
without shared mutable state; the instance itself is shipped once per
pool, at lane startup.

There is one scheduling path, ``evaluate_blocks``; a full-neighborhood
``evaluate`` is the same call over the whole range with no deadline.
Without a deadline the range is cut into one block per lane. With one,
it is cut into eight blocks per lane, so that when the deadline passes
the scan stops close to an exact contiguous prefix of the range. Either
way the outcomes go through the shared prefix reducer
(``tabu.merge_prefix``): results beyond the first gap or partial block
are discarded and left for redispatch. A block whose lane failed is
re-scanned on the calling process with the same deadline before the
round returns; only a failing re-scan aborts the round.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, ProcessPoolExecutor, wait

from .instance import ProblemInstance
from .neighborhood import NeighborhoodSlice, neighborhood_size
from .tabu import EvalContext, SliceResult, merge_prefix, scan_slice


class EvaluationError(RuntimeError):
    """A lane failed and re-evaluation on the calling context failed too."""


def detected_lane_count() -> int:
    """Physical core count when detectable, logical count otherwise."""
    try:
        import psutil

        cores = psutil.cpu_count(logical=False)
        if cores:
            return cores
    except ImportError:
        pass
    return os.cpu_count() or 1


# Per-lane state, installed once by the pool initializer.
_LANE_INSTANCE: ProblemInstance | None = None
_LANE_SCAN = None


def _lane_init(instance: ProblemInstance, scan_fn):
    global _LANE_INSTANCE, _LANE_SCAN
    _LANE_INSTANCE = instance
    _LANE_SCAN = scan_fn


def _lane_task(order, tabu_entries, incumbent, begin, end, deadline, per_move_delay):
    return _LANE_SCAN(_LANE_INSTANCE, order, tabu_entries, incumbent, begin, end, deadline, per_move_delay)


class LaneEvaluator:
    """Pool of evaluation lanes bound to one problem instance.

    Keep one evaluator alive for a whole search run; per-round inputs
    are cheap to ship, the instance is not re-sent. ``lanes=1`` runs
    inline with no pool.
    """

    def __init__(self, instance: ProblemInstance, lanes: int | None = None, scan_fn=None):
        self.instance = instance
        self.lanes = lanes if lanes is not None else detected_lane_count()
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        self._scan = scan_fn if scan_fn is not None else scan_slice
        self._pool = None
        if self.lanes > 1:
            self._pool = ProcessPoolExecutor(
                max_workers=self.lanes, initializer=_lane_init, initargs=(instance, self._scan)
            )

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, ctx: EvalContext) -> SliceResult:
        """Evaluate the full neighborhood of the context's permutation.

        Equivalent to a single evaluate_slice over the neighborhood: same
        best index, same makespan, for any lane count.
        """
        result, _ = self.evaluate_blocks(ctx, NeighborhoodSlice(0, neighborhood_size(len(ctx.order))), None)
        return result

    def evaluate_blocks(
        self,
        ctx: EvalContext,
        nslice: NeighborhoodSlice,
        deadline: float | None,
        per_move_delay: float = 0.0,
        progress=None,
    ) -> tuple[SliceResult, int]:
        """Evaluate as much of [begin, end) as the deadline allows.

        Returns (result over the evaluated prefix, prefix end). The
        evaluated portion is always contiguous from ``nslice.begin``;
        with lanes > 1, completed blocks beyond the first unfinished one
        are dropped so the prefix guarantee holds. ``deadline`` is an
        absolute time.monotonic() value shared across lanes, or None to
        evaluate the whole range. A block whose lane raised is re-scanned
        here; EvaluationError is raised only if that re-scan fails too.
        """
        t0 = time.perf_counter()
        if not nslice:
            return SliceResult(None, None, 0, 0.0), nslice.begin

        def scan_here(begin, end):
            return self._scan(self.instance, ctx.order, ctx.tabu.entries, ctx.incumbent,
                              begin, end, deadline, per_move_delay)

        if self._pool is None:
            best_idx, best_ms, evaluated = scan_here(nslice.begin, nslice.end)
            if progress is not None:
                progress(evaluated / len(nslice))
            return (SliceResult(best_idx, best_ms, evaluated, time.perf_counter() - t0),
                    nslice.begin + evaluated)

        # fine blocks only pay off when a deadline can cut the scan short
        blocks = self.lanes if deadline is None else self.lanes * 8
        size = -(-len(nslice) // blocks)
        futures = {}
        for begin in range(nslice.begin, nslice.end, size):
            end = min(begin + size, nslice.end)
            fut = self._pool.submit(_lane_task, ctx.order, ctx.tabu.entries, ctx.incumbent,
                                    begin, end, deadline, per_move_delay)
            futures[fut] = (begin, end)

        parts = []
        pending = set(futures)
        completed_moves = 0
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                begin, end = futures[fut]
                try:
                    best_idx, best_ms, evaluated = fut.result()
                except CancelledError:
                    continue
                except Exception as lane_exc:
                    try:
                        best_idx, best_ms, evaluated = scan_here(begin, end)
                    except Exception as exc:
                        for other in pending:
                            other.cancel()
                        raise EvaluationError(
                            f"block [{begin}, {end}) failed on its lane ({lane_exc}) and on retry"
                        ) from exc
                parts.append((begin, begin + evaluated, best_idx, best_ms))
                completed_moves += evaluated
            if progress is not None:
                progress(completed_moves / len(nslice))
            if deadline is not None and time.monotonic() >= deadline:
                for fut in pending:
                    fut.cancel()

        frontier, best_idx, best_ms = merge_prefix(parts, nslice.begin)
        return SliceResult(best_idx, best_ms, frontier - nslice.begin, time.perf_counter() - t0), frontier
