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
round returns; only a failing re-scan aborts the round. A lane process
that dies breaks the whole pool: its lost blocks are re-scanned the same
way, and the pool is replaced by a fresh one. If the fresh pool breaks
before it completes a round, the evaluator scans inline from then on.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

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
    inline with no pool, and so does an evaluator whose replacement pool
    broke too.
    """

    def __init__(self, instance: ProblemInstance, lanes: int | None = None, scan_fn=None):
        self.instance = instance
        self.lanes = lanes if lanes is not None else detected_lane_count()
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        self._scan = scan_fn if scan_fn is not None else scan_slice
        self._pool = self._new_pool() if self.lanes > 1 else None
        self._pool_replaced = False  # the pool is a replacement that has not completed a round yet

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.lanes, initializer=_lane_init,
                                   initargs=(self.instance, self._scan))

    def _replace_broken_pool(self):
        """Shut the broken pool down; start one replacement, or go inline if that broke too."""
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._pool = None
        if not self._pool_replaced:
            self._pool_replaced = True
            try:
                self._pool = self._new_pool()
            except OSError:
                pass

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
    ) -> tuple[SliceResult, int]:
        """Evaluate as much of [begin, end) as the deadline allows.

        Returns (result over the evaluated prefix, prefix end). The
        evaluated portion is always contiguous from ``nslice.begin``;
        with lanes > 1, completed blocks beyond the first unfinished one
        are dropped so the prefix guarantee holds. ``deadline`` is an
        absolute time.monotonic() value shared across lanes, or None to
        evaluate the whole range. A block whose lane raised, or that a
        broken pool lost, is re-scanned here; EvaluationError is raised
        only if that re-scan fails too. A context of another instance than
        the evaluator's is a ValueError.
        """
        if ctx.instance != self.instance:
            raise ValueError("the context's instance is not the evaluator's")
        t0 = time.perf_counter()
        if not nslice:
            return SliceResult(None, None, 0, 0.0), nslice.begin

        def scan_here(begin, end):
            return self._scan(self.instance, ctx.order, ctx.tabu.entries, ctx.incumbent,
                              begin, end, deadline, per_move_delay)

        if self._pool is None:
            best_idx, best_ms, evaluated = scan_here(nslice.begin, nslice.end)
            return (SliceResult(best_idx, best_ms, evaluated, time.perf_counter() - t0),
                    nslice.begin + evaluated)

        # fine blocks only pay off when a deadline can cut the scan short
        count = self.lanes if deadline is None else self.lanes * 8
        size = -(-len(nslice) // count)
        blocks = [(begin, min(begin + size, nslice.end)) for begin in range(nslice.begin, nslice.end, size)]
        futures = {}
        broken = False
        try:
            for begin, end in blocks:
                fut = self._pool.submit(_lane_task, ctx.order, ctx.tabu.entries, ctx.incumbent,
                                        begin, end, deadline, per_move_delay)
                futures[fut] = (begin, end)
        except (BrokenProcessPool, OSError):
            broken = True
        # blocks the pool refused, or whose lane failed, are scanned here
        retry = [(begin, end, "lane pool broken") for begin, end in blocks[len(futures):]]

        parts = []
        pending = set(futures)
        while retry or pending:
            if not retry:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    begin, end = futures[fut]
                    try:
                        best_idx, best_ms, evaluated = fut.result()
                    except CancelledError:
                        continue
                    except Exception as lane_exc:
                        broken = broken or isinstance(lane_exc, BrokenProcessPool)
                        retry.append((begin, end, lane_exc))
                        continue
                    parts.append((begin, begin + evaluated, best_idx, best_ms))
            for begin, end, cause in retry:
                try:
                    best_idx, best_ms, evaluated = scan_here(begin, end)
                except Exception as exc:
                    for fut in pending:
                        fut.cancel()
                    raise EvaluationError(
                        f"block [{begin}, {end}) failed on its lane ({cause}) and on retry"
                    ) from exc
                parts.append((begin, begin + evaluated, best_idx, best_ms))
            retry = []
            if deadline is not None and time.monotonic() >= deadline:
                for fut in pending:
                    fut.cancel()

        if broken:
            self._replace_broken_pool()
        else:
            self._pool_replaced = False
        frontier, best_idx, best_ms = merge_prefix(parts, nslice.begin)
        return SliceResult(best_idx, best_ms, frontier - nslice.begin, time.perf_counter() - t0), frontier
