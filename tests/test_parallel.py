import multiprocessing
import os
import random
import signal
import socket
import time

import pytest

import hfstabu.parallel
from hfstabu.instance import generate_instance
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.parallel import EvaluationError, LaneEvaluator
from hfstabu.tabu import EvalContext, TabuList, scan_slice
from hfstabu.schedule import evaluate_makespan

from netharness import kill_lane_child, wait_until
from oracles import evaluate_slice, random_small_instance


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


@pytest.mark.parametrize("lanes", [1, 2])
def test_evaluator_answers_contexts_of_any_instance(lanes):
    a = generate_instance(8, 3, 3, seed=1)
    b = generate_instance(9, 2, 3, seed=2)
    known = set(multiprocessing.active_children())
    pids = []
    with LaneEvaluator(a, lanes) as evaluator:
        for inst in (b, a, b):
            ctx = make_ctx(inst)
            got = evaluator.evaluate(ctx)
            want = evaluate_slice(inst, ctx.order, ctx.tabu, ctx.incumbent,
                                  NeighborhoodSlice(0, neighborhood_size(inst.num_jobs)))
            assert (got.best_index, got.best_makespan, got.moves_evaluated) == (
                want.best_index, want.best_makespan, want.moves_evaluated)
            pids.append({p.pid for p in multiprocessing.active_children() if p not in known})
    # the lanes forked for the first context serve the others: none was forked again
    assert len(pids[0]) == (0 if lanes == 1 else lanes)
    assert pids[0] == pids[1] == pids[2]


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
#
# The scans below replace hfstabu.parallel.scan_slice before the lanes fork, so
# the lanes inherit them; multiprocessing.parent_process() tells a lane from the caller.


def _failing_in_child_scan(inst, order, entries, incumbent, begin, end, deadline, delay):
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("injected lane failure")
    return scan_slice(inst, order, entries, incumbent, begin, end, deadline, delay)


def _dying_in_child_scan(inst, order, entries, incumbent, begin, end, deadline, delay):
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return scan_slice(inst, order, entries, incumbent, begin, end, deadline, delay)


def _hanging_in_child_scan(inst, order, entries, incumbent, begin, end, deadline, delay):
    if multiprocessing.parent_process() is not None:
        time.sleep(60)  # far past any deadline of the round
    return scan_slice(inst, order, entries, incumbent, begin, end, deadline, delay)


def _always_failing_scan(inst, order, entries, incumbent, begin, end, deadline, delay):
    raise RuntimeError("injected failure everywhere")


def test_lane_failure_retries_on_caller(monkeypatch):
    inst = generate_instance(6, 2, 2, seed=12)
    ctx = make_ctx(inst)
    whole = NeighborhoodSlice(0, neighborhood_size(6))
    reference = LaneEvaluator(inst, 1).evaluate(ctx)
    monkeypatch.setattr(hfstabu.parallel, "scan_slice", _failing_in_child_scan)
    with LaneEvaluator(inst, 2) as evaluator:
        result = evaluator.evaluate(ctx)
        assert (result.best_index, result.best_makespan) == (reference.best_index, reference.best_makespan)
        assert result.moves_evaluated == len(whole)
        # the worker path: deadline-bounded blocks recover the same way
        result, frontier = evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 60.0)
        assert frontier == len(whole)
        assert (result.best_index, result.best_makespan) == (reference.best_index, reference.best_makespan)


def test_unrecoverable_failure_raises(monkeypatch):
    inst = generate_instance(5, 1, 2, seed=1)
    ctx = make_ctx(inst)
    whole = NeighborhoodSlice(0, neighborhood_size(5))
    monkeypatch.setattr(hfstabu.parallel, "scan_slice", _always_failing_scan)
    with LaneEvaluator(inst, 2) as evaluator:
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
        assert lanes and killed not in lanes  # a fresh lane is serving


def test_lanes_that_keep_dying_fall_back_inline(monkeypatch):
    inst = generate_instance(6, 2, 2, seed=12)
    ctx = make_ctx(inst)
    want = _full_scan(inst, ctx)
    known = set(multiprocessing.active_children())
    forked = []
    start = multiprocessing.get_context("fork").Process.start

    def counting_start(process):
        forked.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", counting_start)
    monkeypatch.setattr(hfstabu.parallel, "scan_slice", _dying_in_child_scan)
    with LaneEvaluator(inst, 2) as evaluator:
        # the lanes and their replacements all die mid-round; then the caller scans alone
        for _ in range(3):
            result = evaluator.evaluate(ctx)
            assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        assert len(forked) == 4  # each lane was replaced once, and never again
        assert wait_until(lambda: not [p for p in multiprocessing.active_children() if p not in known])


def test_lanes_run_inline_when_pool_cannot_be_replaced(monkeypatch):
    inst = generate_instance(7, 2, 3, seed=6)
    ctx = make_ctx(inst, seed=4)
    whole = NeighborhoodSlice(0, neighborhood_size(7))
    want = _full_scan(inst, ctx)
    known = set(multiprocessing.active_children())
    with LaneEvaluator(inst, 2) as evaluator:
        evaluator.evaluate(ctx)

        def refuse(process):
            raise OSError("no resources for a new lane")

        monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", refuse)
        lanes = [p for p in multiprocessing.active_children() if p not in known]
        assert len(lanes) == 2
        for lane in lanes:
            os.kill(lane.pid, signal.SIGKILL)
            lane.join(10)
        result = evaluator.evaluate(ctx)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        result, frontier = evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 60.0)
        assert frontier == len(whole)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        assert not [p for p in multiprocessing.active_children() if p not in known]


def test_hung_lanes_cannot_hang_a_round(monkeypatch):
    inst = generate_instance(6, 2, 2, seed=12)
    ctx = make_ctx(inst)
    want = _full_scan(inst, ctx)
    monkeypatch.setattr(hfstabu.parallel, "scan_slice", _hanging_in_child_scan)
    t0 = time.monotonic()
    # the lanes time out, their replacements hang too, and the caller scans alone
    with LaneEvaluator(inst, 2) as evaluator:
        result = evaluator.evaluate(ctx)
    assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
    assert time.monotonic() - t0 < 10.0


def _sockets(pid):
    """The sockets open in process ``pid``, as their /proc link targets, by descriptor."""
    targets = {}
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed while listed
        if target.startswith("socket:"):
            targets[int(fd)] = target
    return targets


def test_lanes_hold_no_descriptor_of_their_caller():
    inst = generate_instance(6, 2, 2, seed=12)
    ctx = make_ctx(inst)
    known = set(multiprocessing.active_children())
    with socket.create_server(("127.0.0.1", 0)) as listener:
        first = LaneEvaluator(inst, 2)
        second = LaneEvaluator(inst, 2)
        try:
            first.evaluate(ctx)
            first_lanes = set(multiprocessing.active_children()) - known
            second.evaluate(ctx)
            second_lanes = set(multiprocessing.active_children()) - known - first_lanes
            assert len(first_lanes) == len(second_lanes) == 2
            # everything the caller holds: the listener, both evaluators' ends of their lanes' pairs
            ours = _sockets(os.getpid())
            assert listener.fileno() in ours
            for lane in second_lanes:
                held = {fd: target for fd, target in _sockets(lane.pid).items() if fd > 2}
                assert not set(held.values()) & set(ours.values()), f"lane {lane.pid} holds {held}"
        finally:
            first.close()
            second.close()
    lanes = first_lanes | second_lanes
    assert wait_until(lambda: not lanes & set(multiprocessing.active_children()), timeout=2.0)
    assert [lane.exitcode for lane in lanes] == [0] * 4  # they saw EOF; none was killed


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
        with LaneEvaluator(inst, lanes, per_move_delay=0.005) as evaluator:
            result, frontier = evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 0.05)
        assert 0 < frontier < total  # the deadline really bit
        assert result.moves_evaluated == frontier
        replay = evaluate_slice(inst, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, frontier))
        assert (result.best_index, result.best_makespan) == (replay.best_index, replay.best_makespan)


def test_deadline_shorter_than_lane_start_up(monkeypatch):
    inst = generate_instance(8, 2, 3, seed=77)
    ctx = make_ctx(inst)
    whole = NeighborhoodSlice(0, neighborhood_size(8))
    forked = []
    start = multiprocessing.get_context("fork").Process.start
    descriptors = hfstabu.parallel._descriptors

    def counting_start(process):
        forked.append(process)
        start(process)

    def slow_in_child_descriptors():
        if multiprocessing.parent_process() is not None:
            time.sleep(0.05)  # each lane takes 50 ms to start, 200 ms if they started one by one
        return descriptors()

    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", counting_start)
    monkeypatch.setattr(hfstabu.parallel, "_descriptors", slow_in_child_descriptors)
    with LaneEvaluator(inst, 4) as evaluator:
        for call in range(3):
            deadline = time.monotonic() + 0.01
            result, frontier = evaluator.evaluate_blocks(ctx, whole, deadline)
            if call == 0:
                assert time.monotonic() > deadline + 0.04  # the lanes started after the caller's deadline
            # each lane is still given its time from its own send: none is cut, so none is forked again
            assert frontier > 0
            assert len(forked) == 4
            replay = evaluate_slice(inst, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, frontier))
            assert (result.best_index, result.best_makespan) == (replay.best_index, replay.best_makespan)
