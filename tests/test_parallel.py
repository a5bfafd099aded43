import multiprocessing
import os
import random
import signal
import socket
import time

import pytest

import hfstabu.coordinator
import hfstabu.parallel
from hfstabu import protocol
from hfstabu.bench import trace_digest
from hfstabu.instance import generate_instance
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.coordinator import CoverageError
from hfstabu.parallel import LaneEvaluator
from hfstabu.tabu import EvalContext, SearchParams, TabuList, run_search, scan_slice
from hfstabu.schedule import evaluate_makespan

from netharness import kill_lane_child, record_opens, record_sends, wait_until
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
    # a whole search, which reuses many results of two iterations back, gives the one-lane
    # digest that test_tabu.py pins
    inst = generate_instance(10, 5, 5, seed=1)
    with LaneEvaluator(inst, 2) as evaluator:
        result = run_search(inst, SearchParams(iterations=300, seed=1), evaluator.evaluate)
    assert (trace_digest(result), result.best_makespan) == ("ad99b0515af4ab61", 669)


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


def test_alternating_instances_reach_each_lane_once(monkeypatch):
    # a lane keeps the last MAX_CACHED_PROBLEMS problems it was sent, so two alternating
    # instances are sent to each lane once, right before its first round of each
    a = generate_instance(10, 3, 3, seed=1)
    b = generate_instance(10, 3, 3, seed=2)
    sends = record_sends(monkeypatch)
    with LaneEvaluator(lanes=2) as evaluator:
        for i in range(20):
            inst = (a, b)[i % 2]
            ctx = make_ctx(inst, seed=i)
            got = evaluator.evaluate(ctx)
            assert (got.best_index, got.best_makespan, got.moves_evaluated) == _full_scan(inst, ctx)
    assert sorted(node for node, kind in sends if kind == "SET_PROBLEM") == [0, 0, 1, 1]


def test_a_rotation_past_the_lanes_cache_resends_what_they_forgot(monkeypatch):
    # one problem more than a lane keeps: each comes back after the lane has forgotten it, so
    # it is sent again before its EVAL, and no lane answers "unknown problem", which would be
    # a strike and a fork
    insts = [generate_instance(8, 3, 3, seed=seed) for seed in range(protocol.MAX_CACHED_PROBLEMS + 1)]
    opens = record_opens(monkeypatch)
    strikes = []
    with LaneEvaluator(lanes=2) as evaluator:
        strike = evaluator._strike

        def recording_strike(proxy, reason):
            strikes.append((proxy.node_id, reason))
            strike(proxy, reason)

        monkeypatch.setattr(evaluator, "_strike", recording_strike)
        for inst in insts * 2:
            ctx = make_ctx(inst)
            got = evaluator.evaluate(ctx)
            assert (got.best_index, got.best_makespan, got.moves_evaluated) == _full_scan(inst, ctx)
    assert strikes == []
    assert opens == [0, 1]  # each lane was forked once


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


def test_a_one_lane_evaluator_is_a_coordinator_with_no_nodes():
    # what it inherits works with no node: the handshake passes, and a run scans inline
    inst = generate_instance(8, 2, 3, seed=4)
    params = SearchParams(iterations=5, seed=1)
    with LaneEvaluator(lanes=1) as evaluator:
        assert evaluator.lanes == 1 and evaluator.handshake() == []
        got = evaluator.run(inst, params)
        assert evaluator.node_stats() == {}
    assert got.trace == run_search(inst, params, lambda ctx: evaluate_slice(
        inst, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, neighborhood_size(8)))).trace


# -- lane failure -------------------------------------------------------------------
#
# The scans below replace hfstabu.coordinator.scan_slice before the lanes fork, so
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


_slow_scan_pids = set()  # a forked lane inherits it without its own pid


def _slow_first_scan_in_child(inst, order, entries, incumbent, begin, end, deadline, delay):
    if multiprocessing.parent_process() is not None and os.getpid() not in _slow_scan_pids:
        _slow_scan_pids.add(os.getpid())
        time.sleep(0.3)  # far past a 0.05 s round's cut
    return scan_slice(inst, order, entries, incumbent, begin, end, deadline, delay)


_hang_marker = None  # a path: the first lane 0 to scan creates it and hangs, later ones see it and scan


def _first_lane_0_hangs_in_scan(inst, order, entries, incumbent, begin, end, deadline, delay):
    if multiprocessing.current_process().name == "hfstabu-lane-0":
        try:
            os.close(os.open(_hang_marker, os.O_CREAT | os.O_EXCL))
            time.sleep(60)  # far past any deadline of the run
        except FileExistsError:
            pass
    return scan_slice(inst, order, entries, incumbent, begin, end, deadline, delay)


def _always_failing_scan(inst, order, entries, incumbent, begin, end, deadline, delay):
    raise RuntimeError("injected failure everywhere")


def test_lane_failure_retries_on_caller(monkeypatch):
    inst = generate_instance(6, 2, 2, seed=12)
    ctx = make_ctx(inst)
    whole = NeighborhoodSlice(0, neighborhood_size(6))
    reference = LaneEvaluator(inst, 1).evaluate(ctx)
    monkeypatch.setattr(hfstabu.coordinator, "scan_slice", _failing_in_child_scan)
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
    monkeypatch.setattr(hfstabu.coordinator, "scan_slice", _always_failing_scan)
    with LaneEvaluator(inst, 2) as evaluator:
        with pytest.raises(CoverageError):
            evaluator.evaluate(ctx)
        with pytest.raises(CoverageError):
            evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 60.0)


def _full_scan(inst, ctx):
    return scan_slice(inst, ctx.order, ctx.tabu.entries, ctx.incumbent, 0, neighborhood_size(len(ctx.order)))


def test_killed_lane_process_is_replaced(monkeypatch):
    inst = generate_instance(7, 2, 3, seed=5)
    ctx = make_ctx(inst, seed=2)
    want = _full_scan(inst, ctx)
    known = set(multiprocessing.active_children())
    forked = []
    start = multiprocessing.get_context("fork").Process.start

    def counting_start(process):
        forked.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", counting_start)
    with LaneEvaluator(inst, 2) as evaluator:
        evaluator.evaluate(ctx)  # starts the lanes
        killed = kill_lane_child(known)
        for _ in range(3):
            result = evaluator.evaluate(ctx)
            assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        lanes = {p.pid for p in multiprocessing.active_children() if p not in known}
        assert lanes and killed not in lanes  # a fresh lane is serving
        # the failed send closed the dead lane's socket, so its EOF was no second strike:
        # the lane was replaced, and its node is back in service
        assert len(forked) == 3
        assert [(p.state, p.strikes) for p in evaluator.proxies] == [("idle", 0)] * 2


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
    monkeypatch.setattr(hfstabu.coordinator, "scan_slice", _dying_in_child_scan)
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
    monkeypatch.setattr(hfstabu.coordinator, "scan_slice", _hanging_in_child_scan)
    t0 = time.monotonic()
    # the lanes time out, their replacements hang too, and the caller scans alone
    with LaneEvaluator(inst, 2) as evaluator:
        result = evaluator.evaluate(ctx)
    assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
    assert time.monotonic() - t0 < 10.0


def test_a_cut_lane_is_not_replaced(monkeypatch):
    # each lane overruns its first round, so that round is cut by the budget: a cut is no
    # fault, so the lane keeps its connection, serves the next rounds once its first scan
    # ends, and is never forked anew
    inst = generate_instance(10, 2, 3, seed=3)
    ctx = make_ctx(inst, seed=1)
    whole = NeighborhoodSlice(0, neighborhood_size(10))
    forked = []
    start = multiprocessing.get_context("fork").Process.start

    def counting_start(process):
        forked.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", counting_start)
    monkeypatch.setattr(hfstabu.coordinator, "scan_slice", _slow_first_scan_in_child)
    with LaneEvaluator(inst, 2) as evaluator:
        for _ in range(4):
            result, frontier = evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 0.05)
        assert len(forked) == 2
        proxies = evaluator.proxies
        assert [(p.state, p.strikes, p.connected) for p in proxies] == [("idle", 0, True)] * 2
        assert evaluator.late_results >= 1
        assert frontier > 0  # the lanes' first scans ended long before the last round
        want = scan_slice(inst, ctx.order, ctx.tabu.entries, ctx.incumbent, 0, frontier)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want


def test_a_lane_that_never_answers_a_cut_round_is_replaced(monkeypatch, tmp_path):
    # lane 0 hangs in its first scan, so every round under a 0.05 s budget cuts it; lane 0,
    # owing a reply, is planned after lane 1, whose slice then leads the prefix, and once the
    # first cut request's own timeout (its deadline plus RESPONSE_GRACE) has passed, lane 0
    # gets a strike and is forked anew
    inst = generate_instance(10, 2, 3, seed=3)
    ctx = make_ctx(inst, seed=1)
    whole = NeighborhoodSlice(0, neighborhood_size(10))
    forked = []
    start = multiprocessing.get_context("fork").Process.start

    def counting_start(process):
        forked.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", counting_start)
    monkeypatch.setattr(hfstabu.coordinator, "scan_slice", _first_lane_0_hangs_in_scan)
    monkeypatch.setitem(globals(), "_hang_marker", str(tmp_path / "hung"))
    with LaneEvaluator(inst, 2) as evaluator:
        frontiers = []
        stop = time.monotonic() + 10.0
        while time.monotonic() < stop and (len(forked) < 3 or frontiers[-1] < whole.end):
            result, frontier = evaluator.evaluate_blocks(ctx, whole, time.monotonic() + 0.05)
            frontiers.append(frontier)
        assert len(forked) == 3  # lane 0 was forked anew once
        assert frontier == whole.end  # and its replacement serves
        assert all(f > 0 for f in frontiers[1:])  # lane 1 covered a prefix while lane 0 hung
        proxies = evaluator.proxies
        assert [(p.state, p.strikes, p.connected, p.owed) for p in proxies] == [("idle", 0, True, {})] * 2
        want = scan_slice(inst, ctx.order, ctx.tabu.entries, ctx.incumbent, 0, whole.end)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want


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
