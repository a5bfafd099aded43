import multiprocessing
import random
import time

import pytest

from hfstabu.instance import generate_instance
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.parallel import EvaluationError, LaneEvaluator
from hfstabu.tabu import EvalContext, TabuList, evaluate_slice, scan_slice
from hfstabu.schedule import evaluate_makespan

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
