import random
import time

import pytest

from hfstabu.coordinator import (
    CalibrationError,
    Coordinator,
    CoordinatorConfig,
    CoverageError,
    DispatchPool,
    NodePerfHistory,
    plan_partition,
    predict,
    run_distributed_search,
)
from hfstabu.instance import generate_instance
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.tabu import EvalContext, SearchParams, TabuList, evaluate_slice, run_search
from hfstabu.schedule import evaluate_makespan
from hfstabu.worker import WorkerServer

from oracles import largest_remainder_reference, verify_exact_cover

INST = generate_instance(8, 3, 3, seed=42)
N = neighborhood_size(8)


def fast_config(**overrides):
    defaults = dict(calibration_budget=0.15, calibration_jobs=6, calibration_stages=2,
                    calibration_machines=2, calibration_grace=5.0)
    defaults.update(overrides)
    return CoordinatorConfig(**defaults)


def sequential_reference(ctx):
    total = neighborhood_size(len(ctx.order))
    return evaluate_slice(ctx.instance, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, total))


def make_ctx(inst, seed=0, incumbent=None):
    rng = random.Random(seed)
    order = tuple(rng.sample(range(inst.num_jobs), inst.num_jobs))
    if incumbent is None:
        incumbent = evaluate_makespan(inst, order)
    return EvalContext(inst, order, TabuList(), incumbent)


# -- prediction ----------------------------------------------------------------


def test_predict_weighted_average():
    history = NodePerfHistory([(100, 10.0), (300, 20.0)])
    assert predict(history) == pytest.approx(17.5)


def test_predict_single_entry_identity():
    assert predict(NodePerfHistory([(42, 977.0)])) == pytest.approx(977.0)


def test_predict_constant_speed():
    history = NodePerfHistory([(10, 5.0), (999, 5.0), (1, 5.0)])
    assert predict(history) == pytest.approx(5.0)


def test_predict_empty_history_unavailable():
    with pytest.raises(ValueError, match="calibrate"):
        predict(NodePerfHistory())


def test_history_rejects_non_positive():
    history = NodePerfHistory()
    with pytest.raises(ValueError):
        history.record(0, 5.0)
    with pytest.raises(ValueError):
        history.record(5, 0.0)


# -- partition planning -----------------------------------------------------------


def test_plan_exact_proportionality():
    sizes = [len(s) for s in plan_partition([3.0, 1.0], 100)]
    assert sizes == [75, 25]


def test_plan_even_split():
    assert [len(s) for s in plan_partition([1.0, 1.0, 1.0], 90)] == [30, 30, 30]


def test_plan_largest_remainder():
    plan = plan_partition([1.0, 1.0, 1.0], 100)
    assert [len(s) for s in plan] == [34, 33, 33]
    assert plan[0].begin == 0 and plan[-1].end == 100


def test_plan_matches_reference_on_random_inputs():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(1, 6)
        speeds = [rng.randint(1, 50) / 4 for _ in range(k)]
        total = rng.randint(0, 500)
        sizes = [len(s) for s in plan_partition(speeds, total)]
        assert sizes == largest_remainder_reference(speeds, total)
        assert sum(sizes) == total


def test_plan_contiguous_with_offset():
    plan = plan_partition([2.0, 1.0], 30, begin=100)
    assert (plan[0].begin, plan[0].end) == (100, 120)
    assert (plan[1].begin, plan[1].end) == (120, 130)


def test_plan_rejects_bad_input():
    from hfstabu.coordinator import PlanningError

    with pytest.raises(PlanningError):
        plan_partition([], 10)
    with pytest.raises(ValueError):
        plan_partition([1.0, -2.0], 10)


def test_verify_exact_cover():
    verify_exact_cover([(0, 5, None, None), (5, 9, 6, 100)], 0, 9)
    with pytest.raises(CoverageError):
        verify_exact_cover([(0, 5, None, None), (6, 9, None, None)], 0, 9)
    with pytest.raises(CoverageError):
        verify_exact_cover([(0, 5, None, None), (4, 9, None, None)], 0, 9)


# -- calibration -------------------------------------------------------------------


def test_calibrate_initializes_histories():
    with WorkerServer("127.0.0.1", 0, lanes=1) as w1, WorkerServer("127.0.0.1", 0, lanes=1) as w2:
        coordinator = Coordinator([w1.address, w2.address], fast_config())
        try:
            speeds = coordinator.calibrate(seed=5)
            assert set(speeds) == {0, 1}
            assert all(v > 0 for v in speeds.values())
            for history in coordinator.pool.histories.values():
                assert len(history.entries) == 1
                moves, speed = history.entries[0]
                assert moves > 0 and speed > 0
        finally:
            coordinator.close()


def test_calibrate_marks_unreachable_node_dead():
    with WorkerServer("127.0.0.1", 0, lanes=1) as w1:
        # second address points at a closed port
        probe = WorkerServer("127.0.0.1", 0, lanes=1)
        dead_addr = probe.address
        probe.shutdown()
        coordinator = Coordinator([w1.address, dead_addr], fast_config())
        try:
            speeds = coordinator.calibrate(seed=5)
            assert set(speeds) == {0}
            assert coordinator.pool.proxies[1].state == "dead"
        finally:
            coordinator.close()


def test_calibration_instance_deterministic():
    cfg = fast_config()
    a = generate_instance(cfg.calibration_jobs, cfg.calibration_stages, cfg.calibration_machines, 99)
    b = generate_instance(cfg.calibration_jobs, cfg.calibration_stages, cfg.calibration_machines, 99)
    assert a == b


def test_all_nodes_unreachable_raises():
    probe = WorkerServer("127.0.0.1", 0, lanes=1)
    addr = probe.address
    probe.shutdown()
    coordinator = Coordinator([addr], fast_config())
    try:
        with pytest.raises(CalibrationError):
            coordinator.calibrate(seed=1)
    finally:
        coordinator.close()


# -- distributed evaluation ----------------------------------------------------------


def test_single_worker_matches_local_evaluation():
    with WorkerServer("127.0.0.1", 0, lanes=1) as worker:
        coordinator = Coordinator([worker.address], fast_config())
        try:
            coordinator.calibrate(seed=3)
            coordinator.set_problem(INST)
            for seed in range(4):
                ctx = make_ctx(INST, seed=seed)
                got = coordinator.evaluate(ctx)
                want = sequential_reference(ctx)
                assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
                assert got.moves_evaluated == N
        finally:
            coordinator.close()


def test_three_workers_match_local_and_audit():
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(3)]
    for s in servers:
        s.start()
    coordinator = Coordinator([s.address for s in servers], fast_config())
    try:
        coordinator.calibrate(seed=3)
        coordinator.set_problem(INST)
        for seed in range(3):
            ctx = make_ctx(INST, seed=seed)
            got = coordinator.evaluate(ctx)
            want = sequential_reference(ctx)
            assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        assert len(coordinator.iteration_audits) == 3
        for audit in coordinator.iteration_audits:
            cursor = 0
            for begin, end in audit:
                assert begin == cursor
                cursor = end
            assert cursor == N
    finally:
        coordinator.close()
        for s in servers:
            s.shutdown()


def test_distributed_search_equals_local_search():
    params = SearchParams(iterations=30, seed=11, diversify_after=6)
    local = run_search(INST, params, sequential_reference)
    with WorkerServer("127.0.0.1", 0, lanes=1) as worker:
        remote = run_distributed_search(INST, params, [worker.address], fast_config())
    assert remote.trace == local.trace
    assert remote.best_order == local.best_order
    assert remote.best_makespan == local.best_makespan


def test_graceful_worker_exit_mid_run_redistributes():
    params = SearchParams(iterations=24, seed=2)
    local = run_search(INST, params, sequential_reference)
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(3)]
    for s in servers:
        s.start()
    coordinator = Coordinator([s.address for s in servers], fast_config())
    try:
        stopped = []

        def stop_one(record):
            if record.iteration == 9 and not stopped:
                servers[1].shutdown(reason="maintenance")
                stopped.append(True)

        result = coordinator.run(INST, params, on_iteration=stop_one)
        assert result.trace == local.trace
        assert coordinator.pool.proxies[1].state == "dead"
        assert len(coordinator.iteration_audits) == 24
    finally:
        coordinator.close()
        for s in servers:
            s.shutdown()


def test_timeout_suspect_and_late_sample():
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    for s in servers:
        s.start()
    config = fast_config(deadline_slack=1.2, deadline_floor=0.05, response_grace=0.1)
    coordinator = Coordinator([s.address for s in servers], config)
    try:
        coordinator.calibrate(seed=4)
        coordinator.set_problem(INST)

        slow_once = {"armed": True}
        backend = servers[0]._backend
        original = backend.evaluate

        def delayed(*args, **kwargs):
            if slow_once.pop("armed", False):
                time.sleep(0.9)
            return original(*args, **kwargs)

        backend.evaluate = delayed
        ctx = make_ctx(INST, seed=1)
        got = coordinator.evaluate(ctx)
        want = sequential_reference(ctx)
        assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        verify_exact_cover([(b, e, None, None) for b, e in coordinator.iteration_audits[0]], 0, N)
        # the timed-out node's answer eventually lands and its sample is kept
        deadline = time.monotonic() + 5.0
        while coordinator.pool.late_results == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
            coordinator.pool.inbox.qsize()  # reader threads push independently
            while not coordinator.pool.inbox.empty():
                coordinator.pool._handle_item(coordinator.pool.inbox.get(), {}, [], [])
        assert coordinator.pool.late_results >= 1
    finally:
        coordinator.close()
        for s in servers:
            s.shutdown()


def test_slow_worker_returns_prefix_and_rest_is_redistributed():
    big = generate_instance(12, 3, 3, seed=77)
    big_n = neighborhood_size(12)
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    for s in servers:
        s.start()
    config = fast_config(deadline_slack=1.5, deadline_floor=0.02, response_grace=2.0)
    coordinator = Coordinator([s.address for s in servers], config)
    try:
        coordinator.calibrate(seed=4)
        coordinator.set_problem(big)
        # slow down one worker after calibration so its prediction is now wrong
        servers[0]._backend.per_move_delay = 0.004
        ctx = make_ctx(big, seed=5)
        got = coordinator.evaluate(ctx)
        want = evaluate_slice(big, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, big_n))
        assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        assert coordinator.redistribution_rounds >= 1
    finally:
        coordinator.close()
        for s in servers:
            s.shutdown()


def test_all_workers_dying_mid_iteration_is_fatal():
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    for s in servers:
        s.start()
    coordinator = Coordinator([s.address for s in servers], fast_config())
    try:
        coordinator.calibrate(seed=4)
        coordinator.set_problem(INST)
        for s in servers:
            s.shutdown(reason="gone")
        ctx = make_ctx(INST, seed=0)
        with pytest.raises(CoverageError):
            coordinator.evaluate(ctx)
    finally:
        coordinator.close()


def test_proportional_planning_follows_speed_ratio():
    # one worker throttled to roughly a third of the other's speed
    fast = WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002)
    slow = WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.006)
    fast.start()
    slow.start()
    config = fast_config(calibration_budget=0.4)
    coordinator = Coordinator([fast.address, slow.address], config)
    try:
        coordinator.calibrate(seed=8)
        coordinator.set_problem(INST)
        ctx = make_ctx(INST, seed=2)
        for _ in range(5):
            coordinator.evaluate(ctx)
        first_round = coordinator.iteration_plans[-1][0]
        sizes = dict(first_round)
        assert sizes[0] > sizes[1] > 0
        ratio = sizes[0] / sizes[1]
        assert 1.8 < ratio < 5.0
    finally:
        coordinator.close()
        fast.shutdown()
        slow.shutdown()


def test_node_stats_track_assigned_moves():
    params = SearchParams(iterations=10, seed=6)
    with WorkerServer("127.0.0.1", 0, lanes=1) as w1, WorkerServer("127.0.0.1", 0, lanes=1) as w2:
        coordinator = Coordinator([w1.address, w2.address], fast_config())
        try:
            coordinator.run(INST, params)
            stats = coordinator.node_stats()
            total = sum(s["moves"] for s in stats.values())
            assert total == N * 10
            assert all(s["mean_speed"] > 0 for s in stats.values())
        finally:
            coordinator.close()
