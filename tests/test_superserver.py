import pytest

from hfstabu.coordinator import Coordinator, CoordinatorConfig, NodeProxy, predict
from hfstabu.instance import generate_instance, instance_digest
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.superserver import FanoutBackend, serve_as_super_server
from hfstabu.tabu import SearchParams, evaluate_slice, run_search
from hfstabu.worker import WorkerServer

from netharness import LatencyRelay, WireClient, empty_tabu, wait_until

INST = generate_instance(8, 3, 3, seed=42)
DIGEST = instance_digest(INST)
N = neighborhood_size(8)
ORDER = tuple(range(8))


def fast_config(**overrides):
    defaults = dict(calibration_budget=0.15, calibration_jobs=6, calibration_stages=2,
                    calibration_machines=2, calibration_grace=5.0)
    defaults.update(overrides)
    return CoordinatorConfig(**defaults)


def sequential_reference(ctx):
    total = neighborhood_size(len(ctx.order))
    return evaluate_slice(ctx.instance, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, total))


def test_super_server_answers_like_its_children():
    w1 = WorkerServer("127.0.0.1", 0, lanes=1)
    w2 = WorkerServer("127.0.0.1", 0, lanes=1)
    w1.start()
    w2.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w1.address, w2.address], fast_config())
    sup.start()
    try:
        with WireClient(sup.address) as client:
            hello = client.hello()
            assert hello.lanes == 2  # aggregate of both children
            calib = client.calibrate(generate_instance(6, 2, 2, seed=1), 0.2)
            assert calib.speed > 0
            client.set_problem(INST)
            reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 120.0)
            local = evaluate_slice(INST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
            assert (reply.best_index, reply.best_makespan) == (local.best_index, local.best_makespan)
            assert reply.complete and reply.moves_evaluated == N
    finally:
        sup.shutdown()
        w1.shutdown()
        w2.shutdown()


def test_super_calibration_reports_child_sum():
    w1 = WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002)
    w2 = WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002)
    w1.start()
    w2.start()
    backend = FanoutBackend([w1.address, w2.address], fast_config())
    try:
        total = backend.calibrate(generate_instance(6, 2, 2, seed=1), 0.3)
        child_speeds = [predict(h) for h in backend.pool.histories.values()]
        assert len(child_speeds) == 2
        assert total == pytest.approx(sum(child_speeds))
        assert total > max(child_speeds)
    finally:
        backend.close()
        w1.shutdown()
        w2.shutdown()


def test_super_over_single_worker_is_passthrough():
    w = WorkerServer("127.0.0.1", 0, lanes=1)
    w.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w.address], fast_config())
    sup.start()
    try:
        params = SearchParams(iterations=20, seed=9)
        local = run_search(INST, params, sequential_reference)
        with Coordinator([sup.address], fast_config()) as coordinator:
            remote = coordinator.run(INST, params)
        assert remote.trace == local.trace
        assert remote.best_makespan == local.best_makespan
    finally:
        sup.shutdown()
        w.shutdown()


def test_flat_and_super_topologies_agree():
    workers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    for w in workers:
        w.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w.address for w in workers], fast_config())
    sup.start()
    try:
        params = SearchParams(iterations=15, seed=4)
        with Coordinator([w.address for w in workers], fast_config()) as flat_coord:
            flat = flat_coord.run(INST, params)
        with Coordinator([sup.address], fast_config()) as sup_coord:
            grouped = sup_coord.run(INST, params)
        assert flat.trace == grouped.trace
        assert flat.best_order == grouped.best_order
    finally:
        sup.shutdown()
        for w in workers:
            w.shutdown()


def test_nested_super_servers_agree():
    w1 = WorkerServer("127.0.0.1", 0, lanes=1)
    w2 = WorkerServer("127.0.0.1", 0, lanes=1)
    w1.start()
    w2.start()
    inner = serve_as_super_server("127.0.0.1", 0, [w1.address], fast_config())
    inner.start()
    outer = serve_as_super_server("127.0.0.1", 0, [inner.address, w2.address], fast_config())
    outer.start()
    try:
        params = SearchParams(iterations=12, seed=13)
        local = run_search(INST, params, sequential_reference)
        with Coordinator([outer.address], fast_config()) as coordinator:
            nested = coordinator.run(INST, params)
        assert nested.trace == local.trace
    finally:
        outer.shutdown()
        inner.shutdown()
        w1.shutdown()
        w2.shutdown()


def test_super_survives_child_exit():
    w1 = WorkerServer("127.0.0.1", 0, lanes=1)
    w2 = WorkerServer("127.0.0.1", 0, lanes=1)
    w1.start()
    w2.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w1.address, w2.address], fast_config())
    sup.start()
    try:
        params = SearchParams(iterations=16, seed=21)
        local = run_search(INST, params, sequential_reference)
        coordinator = Coordinator([sup.address], fast_config())
        try:
            killed = []

            def kill_child(record):
                if record.iteration == 5 and not killed:
                    w1.shutdown(reason="child gone")
                    killed.append(True)

            result = coordinator.run(INST, params, on_iteration=kill_child)
            assert result.trace == local.trace
        finally:
            coordinator.close()
    finally:
        sup.shutdown()
        w2.shutdown()
        w1.shutdown()


def test_super_with_all_children_dead_errors_upstream():
    w = WorkerServer("127.0.0.1", 0, lanes=1)
    w.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w.address], fast_config())
    sup.start()
    try:
        with WireClient(sup.address) as client:
            client.hello()
            client.calibrate(generate_instance(6, 2, 2, seed=1), 0.15)
            client.set_problem(INST)
            w.shutdown(reason="gone")
            reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 10.0)
            from hfstabu import protocol

            assert isinstance(reply, protocol.Error)
    finally:
        sup.shutdown()
        w.shutdown()


def test_reconnects_keep_at_most_one_abandoned_socket(monkeypatch):
    child = WorkerServer("127.0.0.1", 0, lanes=1)
    child.start()
    # replies reach the backend 0.15 s late, so every 0.03 s evaluation is cut
    # by its budget and the child is reconnected before the next one
    relay = LatencyRelay(child.address, up_s=0.0, down_s=0.15)
    backend = FanoutBackend([relay.address], fast_config())
    connects = []
    connect = NodeProxy.connect

    def counted_connect(proxy):
        connects.append(proxy.node_id)
        connect(proxy)

    monkeypatch.setattr(NodeProxy, "connect", counted_connect)
    try:
        backend.calibrate(generate_instance(6, 2, 2, seed=1), 0.15)
        backend.set_problem(INST)
        proxy = backend.pool.proxies[0]
        for _ in range(8):
            backend.evaluate(DIGEST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N), 0.03)
            assert len(proxy._drained) <= 1
        assert len(connects) >= 8
        assert wait_until(lambda: len(child._conns) <= 2)
    finally:
        backend.close()
        relay.close()
        child.shutdown()
