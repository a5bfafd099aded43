import multiprocessing
import os
import random
import signal
import time

import pytest

import hfstabu.parallel
from hfstabu.instance import generate_instance
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.parallel import EvaluationError, LaneEvaluator
from hfstabu.tabu import EvalContext, TabuList, evaluate_slice, scan_slice
from hfstabu.schedule import evaluate_makespan

from netharness import kill_lane_child
from oracles import random_small_instance


def make_ctx(inst, seed=0):
    rng = random.Random(seed)
    order = tuple(rng.sample(range(inst.num_jobs), inst.num_jobs))
    return EvalContext(inst, order, TabuList(), evaluate_makespan(inst, order))


# -- result equivalence -----------------------------------------------------------


def test_single_lane_matches_direct_slice():
    inst = generate_instance(8, 2, 3, seed=4)
    ctx = make_ctx(inst)
    total = neighborhood_size(8)
    direct = evaluate_slice(inst, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, total))
    via = LaneEvaluator(inst, 1).evaluate(ctx)
    assert (via.best_index, via.best_makespan, via.moves_evaluated) == (
        direct.best_index,
        direct.best_makespan,
        direct.moves_evaluated,
    )


def test_lane_counts_agree():
    inst = generate_instance(10, 2, 5, seed=17)
    ctx = make_ctx(inst, seed=3)
    reference = LaneEvaluator(inst, 1).evaluate(ctx)
    for lanes in (2, 3, 4):
        with LaneEvaluator(inst, lanes) as evaluator:
            result = evaluator.evaluate(ctx)
        assert (result.best_index, result.best_makespan) == (
            reference.best_index,
            reference.best_makespan,
        )
        assert result.moves_evaluated == reference.moves_evaluated


def test_context_of_another_instance_is_rejected():
    a = generate_instance(8, 3, 3, seed=1)
    b = generate_instance(8, 3, 3, seed=2)
    evaluator = LaneEvaluator(a, 1)
    with pytest.raises(ValueError):
        evaluator.evaluate(make_ctx(b))
    # an equal instance built separately is the same problem
    ctx = make_ctx(generate_instance(8, 3, 3, seed=1))
    got = evaluator.evaluate(ctx)
    want = evaluate_slice(a, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, neighborhood_size(8)))
    assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)


def test_random_contexts_agree_across_lanes():
    rng = random.Random(99)
    for _ in range(5):
        inst = random_small_instance(rng, max_jobs=7, min_jobs=4)
        ctx = make_ctx(inst, seed=rng.randrange(1000))
        reference = LaneEvaluator(inst, 1).evaluate(ctx)
        for lanes in (2, 5):
            with LaneEvaluator(inst, lanes) as evaluator:
                result = evaluator.evaluate(ctx)
            assert (result.best_index, result.best_makespan) == (
                reference.best_index,
                reference.best_makespan,
            )


# -- lane scheduling ----------------------------------------------------------------


def test_more_lanes_than_moves():
    inst = generate_instance(3, 1, 2, seed=2)  # 6 moves
    ctx = make_ctx(inst)
    with LaneEvaluator(inst, 8) as evaluator:
        result = evaluator.evaluate(ctx)
    assert result.moves_evaluated == 6
    direct = evaluate_slice(inst, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, 6))
    assert (result.best_index, result.best_makespan) == (direct.best_index, direct.best_makespan)
    with pytest.raises(ValueError):
        LaneEvaluator(inst, 0)


# -- lane failure -------------------------------------------------------------------


def _failing_in_child_scan(inst, order, entries, incumbent, begin, end, deadline, delay):
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("injected lane failure")
    return scan_slice(inst, order, entries, incumbent, begin, end, deadline, delay)


def _dying_in_child_scan(inst, order, entries, incumbent, begin, end, deadline, delay):
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return scan_slice(inst, order, entries, incumbent, begin, end, deadline, delay)


def _always_failing_scan(inst, order, entries, incumbent, begin, end, deadline, delay):
    raise RuntimeError("injected failure everywhere")


def test_lane_failure_retries_on_caller():
    inst = generate_instance(6, 2, 2, seed=12)
    ctx = make_ctx(inst)
    whole = NeighborhoodSlice(0, neighborhood_size(6))
    reference = LaneEvaluator(inst, 1).evaluate(ctx)
    with LaneEvaluator(inst, 2, scan_fn=_failing_in_child_scan) as evaluator:
        result = evaluator.evaluate(ctx)
        assert (result.best_index, result.best_makespan) == (reference.best_index, reference.best_makespan)
        assert result.moves_evaluated == len(whole)
        # the worker path: deadline-bounded blocks recover the same way
        result, frontier = evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 60.0)
        assert frontier == len(whole)
        assert (result.best_index, result.best_makespan) == (reference.best_index, reference.best_makespan)


def test_unrecoverable_failure_raises():
    inst = generate_instance(5, 1, 2, seed=1)
    ctx = make_ctx(inst)
    whole = NeighborhoodSlice(0, neighborhood_size(5))
    with LaneEvaluator(inst, 2, scan_fn=_always_failing_scan) as evaluator:
        with pytest.raises(EvaluationError):
            evaluator.evaluate(ctx)
        with pytest.raises(EvaluationError):
            evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 60.0)


def _full_scan(inst, ctx):
    return scan_slice(inst, ctx.order, ctx.tabu.entries, ctx.incumbent, 0, neighborhood_size(len(ctx.order)))


def test_killed_lane_process_is_replaced():
    inst = generate_instance(7, 2, 3, seed=5)
    ctx = make_ctx(inst, seed=2)
    want = _full_scan(inst, ctx)
    known = set(multiprocessing.active_children())
    with LaneEvaluator(inst, 2) as evaluator:
        evaluator.evaluate(ctx)  # starts the lanes
        killed = kill_lane_child(known)
        for _ in range(2):
            result = evaluator.evaluate(ctx)
            assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        lanes = {p.pid for p in multiprocessing.active_children() if p not in known}
        assert lanes and killed not in lanes  # a fresh pool is serving


def test_lanes_that_keep_dying_fall_back_inline():
    inst = generate_instance(6, 2, 2, seed=12)
    ctx = make_ctx(inst)
    want = _full_scan(inst, ctx)
    known = set(multiprocessing.active_children())
    with LaneEvaluator(inst, 2, scan_fn=_dying_in_child_scan) as evaluator:
        # the first pool and its replacement both die mid-round; then the caller scans alone
        for _ in range(3):
            result = evaluator.evaluate(ctx)
            assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        assert evaluator._pool is None
        assert not [p for p in multiprocessing.active_children() if p not in known]


def test_lanes_run_inline_when_pool_cannot_be_replaced(monkeypatch):
    inst = generate_instance(7, 2, 3, seed=6)
    ctx = make_ctx(inst, seed=4)
    whole = NeighborhoodSlice(0, neighborhood_size(7))
    want = _full_scan(inst, ctx)
    known = set(multiprocessing.active_children())
    with LaneEvaluator(inst, 2) as evaluator:
        evaluator.evaluate(ctx)

        def refuse(*args, **kwargs):
            raise OSError("no resources for a new pool")

        monkeypatch.setattr(hfstabu.parallel, "ProcessPoolExecutor", refuse)
        kill_lane_child(known)
        result = evaluator.evaluate(ctx)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        result, frontier = evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 60.0)
        assert frontier == len(whole)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        assert evaluator._pool is None
        assert not [p for p in multiprocessing.active_children() if p not in known]


# -- deadline-bounded blocks ----------------------------------------------------------


def test_blocks_complete_with_generous_deadline():
    inst = generate_instance(9, 2, 3, seed=31)
    ctx = make_ctx(inst)
    total = neighborhood_size(9)
    whole = NeighborhoodSlice(0, total)
    reference = evaluate_slice(inst, ctx.order, ctx.tabu, ctx.incumbent, whole)
    for lanes in (1, 3):
        with LaneEvaluator(inst, lanes) as evaluator:
            result, frontier = evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 60.0)
        assert frontier == total
        assert (result.best_index, result.best_makespan) == (reference.best_index, reference.best_makespan)
        assert result.moves_evaluated == total


def test_blocks_zero_deadline_evaluates_nothing():
    inst = generate_instance(9, 2, 3, seed=31)
    ctx = make_ctx(inst)
    whole = NeighborhoodSlice(0, neighborhood_size(9))
    for lanes in (1, 2):
        with LaneEvaluator(inst, lanes) as evaluator:
            result, frontier = evaluator.evaluate_blocks(ctx, whole, time.monotonic())
        assert frontier == 0
        assert result.moves_evaluated == 0
        assert result.best_index is None


def test_blocks_prefix_semantics_under_deadline():
    inst = generate_instance(8, 2, 3, seed=77)
    ctx = make_ctx(inst)
    total = neighborhood_size(8)
    whole = NeighborhoodSlice(0, total)
    for lanes in (1, 3):
        with LaneEvaluator(inst, lanes) as evaluator:
            result, frontier = evaluator.evaluate_blocks(
                ctx, whole, time.monotonic() + 0.05, per_move_delay=0.002
            )
        assert 0 < frontier < total  # the deadline really bit
        assert result.moves_evaluated == frontier
        replay = evaluate_slice(inst, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, frontier))
        assert (result.best_index, result.best_makespan) == (replay.best_index, replay.best_makespan)
