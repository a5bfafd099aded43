import time

import pytest

from hfstabu import protocol
from hfstabu.coordinator import Coordinator, CoverageError, plan_partition, predict
from hfstabu.instance import generate_instance, instance_digest
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.tabu import EvalContext, SearchParams, run_search
from hfstabu.worker import WorkerServer, serve_as_super_server

from netharness import LatencyRelay, WireClient, empty_tabu, record_cover, record_opens, record_requests
from oracles import evaluate_slice

INST = generate_instance(8, 3, 3, seed=42)
DIGEST = instance_digest(INST)
N = neighborhood_size(8)
ORDER = tuple(range(8))


def sequential_reference(ctx):
    total = neighborhood_size(len(ctx.order))
    return evaluate_slice(ctx.instance, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, total))


def test_super_server_answers_like_its_children():
    w1 = WorkerServer("127.0.0.1", 0, lanes=1)
    w2 = WorkerServer("127.0.0.1", 0, lanes=1)
    w1.start()
    w2.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w1.address, w2.address])
    sup.start()
    try:
        with WireClient(sup.address) as client:
            hello = client.hello()
            assert hello.lanes == 2  # aggregate of both children
            client.set_problem(INST)
            reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 120.0)
            local = evaluate_slice(INST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
            assert (reply.best_index, reply.best_makespan) == (local.best_index, local.best_makespan)
            assert reply.complete and reply.moves_evaluated == N
    finally:
        sup.shutdown()
        w1.shutdown()
        w2.shutdown()


def test_super_server_hello_reports_the_lanes_of_its_live_children():
    w1 = WorkerServer("127.0.0.1", 0, lanes=1)
    w2 = WorkerServer("127.0.0.1", 0, lanes=1)
    w1.start()
    w2.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w1.address, w2.address])
    sup.start()
    try:
        with WireClient(sup.address) as client:
            assert client.hello().lanes == 2
            client.set_problem(INST)
            w1.shutdown(reason="child gone")
            # the super server learns of the exit in the next round, which w2 covers
            reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
            assert isinstance(reply, protocol.EvalResult) and reply.complete
        with WireClient(sup.address) as client:
            assert client.hello().lanes == 1
    finally:
        sup.shutdown()
        w1.shutdown()
        w2.shutdown()


def test_paced_children_reach_their_speed_ratio_by_the_second_iteration(monkeypatch):
    # children paced at 2 and 8 ms per move: the first round, split at the nominal speed,
    # measures them, so the second iteration is planned over speeds within 10% of 4:1
    inst = generate_instance(10, 2, 5, seed=7)
    total = neighborhood_size(10)
    children = [WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=delay) for delay in (0.002, 0.008)]
    for child in children:
        child.start()
    sup = serve_as_super_server("127.0.0.1", 0, [c.address for c in children])
    sup.start()
    _, plans = record_cover(monkeypatch, sup._evaluator)
    speeds = []
    try:
        with WireClient(sup.address) as client:
            client.hello()
            digest = client.set_problem(inst)
            for _ in range(2):
                reply = client.eval(digest, tuple(range(10)), empty_tabu(), 10**6, 0, total, 60.0)
                assert reply.complete and reply.moves_evaluated == total
                if not speeds:  # the super server is idle between the two EVALs
                    speeds = [predict(proxy.history) for proxy in sup._evaluator.proxies]
        assert plans[0][0] == [total // 2, total - total // 2]  # both children at the nominal speed
        # one move of rounding shifts a 90-move plan's ratio by about 7%, so the plan is checked
        # exactly against the recorded speeds, and the tolerance applies to the speeds
        assert plans[1][0] == [len(part) for part in plan_partition(speeds, total)]
        fast, slow = speeds
        assert abs(fast / slow / 4.0 - 1.0) <= 0.10, f"recorded speeds {fast:.1f}:{slow:.1f} not within 10% of 4:1"
    finally:
        sup.shutdown()
        for child in children:
            child.shutdown()


def test_equal_children_get_an_equal_first_split(monkeypatch):
    # no round runs before the real problem's first, so two equal children both start at the
    # nominal speed and the first full-width round of a 10x5 neighborhood is split evenly
    inst = generate_instance(10, 5, 5, seed=1)
    total = neighborhood_size(10)
    children = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    for child in children:
        child.start()
    sup = serve_as_super_server("127.0.0.1", 0, [c.address for c in children])
    sup.start()
    _, plans = record_cover(monkeypatch, sup._evaluator)
    try:
        with Coordinator([sup.address]) as coordinator:
            coordinator.run(inst, SearchParams(iterations=1, seed=1))
        first = next(rounds[0] for rounds in plans if sum(rounds[0]) == total)
        assert first == [total // 2, total - total // 2], f"first split {first[0]}:{first[1]}"
    finally:
        sup.shutdown()
        for child in children:
            child.shutdown()


def test_super_first_round_errors_without_a_live_child():
    # a node is first measured by its first round of the real problem; a super server whose only
    # child has gone answers that EVAL with ERROR, a strike like any failed EVAL, and the
    # reconnect's second ERROR kills it
    w = WorkerServer("127.0.0.1", 0, lanes=1)
    w.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w.address])
    sup.start()
    try:
        with Coordinator([sup.address]) as coordinator:
            coordinator.handshake()  # the super server's children are connected already
            w.shutdown(reason="gone")
            with pytest.raises(CoverageError):
                coordinator.evaluate(EvalContext(INST, ORDER, empty_tabu(), 10**6))
            assert coordinator.proxies[0].state == "dead" and coordinator.proxies[0].strikes == 2
    finally:
        sup.shutdown()
        w.shutdown()


def test_super_problem_cache_eviction():
    w = WorkerServer("127.0.0.1", 0, lanes=1)
    w.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w.address])
    sup.start()
    try:
        with WireClient(sup.address) as client:
            client.hello()
            digests = [client.set_problem(generate_instance(8, 3, 3, seed=seed))
                       for seed in range(protocol.MAX_CACHED_PROBLEMS + 2)]
            reply = client.eval(digests[0], ORDER, empty_tabu(), 10**6, 0, N, 10.0)
            assert isinstance(reply, protocol.Error) and "unknown problem" in reply.message
            for digest in digests[-protocol.MAX_CACHED_PROBLEMS:]:
                reply = client.eval(digest, ORDER, empty_tabu(), 10**6, 0, N, 10.0)
                assert isinstance(reply, protocol.EvalResult) and reply.complete
    finally:
        sup.shutdown()
        w.shutdown()


def test_super_server_forwards_each_problem_to_each_child_once():
    # a child keeps the last MAX_CACHED_PROBLEMS problems the super server sent it, so a
    # client that alternates two problems has each reach each child once
    a, b = generate_instance(8, 3, 3, seed=1), generate_instance(8, 3, 3, seed=2)
    children = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    seen = [record_requests(child) for child in children]
    for child in children:
        child.start()
    sup = serve_as_super_server("127.0.0.1", 0, [c.address for c in children])
    sup.start()
    try:
        with WireClient(sup.address) as client:
            client.hello()
            client.set_problem(a)
            client.set_problem(b)
            for inst in (a, b) * 4:
                reply = client.eval(inst.digest, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
                want = evaluate_slice(inst, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
                assert (reply.best_index, reply.best_makespan, reply.complete) == (
                    want.best_index, want.best_makespan, True)
        for requests in seen:
            assert [r for r in requests if r[0] == "SET_PROBLEM"] == [("SET_PROBLEM", a.digest),
                                                                       ("SET_PROBLEM", b.digest)]
            assert requests.count(("EVAL", a.digest)) >= 1 and requests.count(("EVAL", b.digest)) >= 1
    finally:
        sup.shutdown()
        for child in children:
            child.shutdown()


def test_super_over_single_worker_is_passthrough():
    w = WorkerServer("127.0.0.1", 0, lanes=1)
    w.start()
    sup = serve_as_super_server("127.0.0.1", 0, [w.address])
    sup.start()
    try:
        params = SearchParams(iterations=20, seed=9)
        local = run_search(INST, params, sequential_reference)
        with Coordinator([sup.address]) as coordinator:
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
    sup = serve_as_super_server("127.0.0.1", 0, [w.address for w in workers])
    sup.start()
    try:
        params = SearchParams(iterations=15, seed=4)
        with Coordinator([w.address for w in workers]) as flat_coord:
            flat = flat_coord.run(INST, params)
        with Coordinator([sup.address]) as sup_coord:
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
    inner = serve_as_super_server("127.0.0.1", 0, [w1.address])
    inner.start()
    outer = serve_as_super_server("127.0.0.1", 0, [inner.address, w2.address])
    outer.start()
    try:
        params = SearchParams(iterations=12, seed=13)
        local = run_search(INST, params, sequential_reference)
        with Coordinator([outer.address]) as coordinator:
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
    sup = serve_as_super_server("127.0.0.1", 0, [w1.address, w2.address])
    sup.start()
    try:
        params = SearchParams(iterations=16, seed=21)
        local = run_search(INST, params, sequential_reference)
        coordinator = Coordinator([sup.address])
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
    sup = serve_as_super_server("127.0.0.1", 0, [w.address])
    sup.start()
    try:
        with WireClient(sup.address) as client:
            client.hello()
            client.set_problem(INST)
            w.shutdown(reason="gone")
            reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 10.0)
            assert isinstance(reply, protocol.Error)
    finally:
        sup.shutdown()
        w.shutdown()


def test_a_cut_node_keeps_its_one_connection(monkeypatch):
    child = WorkerServer("127.0.0.1", 0, lanes=1)
    child.start()
    # replies reach the coordinator 0.15 s late, so a 0.03 s evaluation is cut by its budget: the
    # node keeps its connection, its next EVAL queues behind the cut one, and the cut one's
    # reply is read on that connection as a late result
    relay = LatencyRelay(child.address, up_s=0.0, down_s=0.15)
    opens = record_opens(monkeypatch)
    coordinator = Coordinator([relay.address])
    coordinator.connect_all()  # its one connection is opened here
    ctx = EvalContext(INST, ORDER, empty_tabu(), 10**6)
    try:
        for _ in range(8):
            coordinator.evaluate_blocks(ctx, NeighborhoodSlice(0, N), time.monotonic() + 0.03)
        proxy = coordinator.proxies[0]
        assert len(opens) == 1
        assert (proxy.state, proxy.strikes, proxy.connected) == ("idle", 0, True)
        assert coordinator.late_results >= 1
        assert len(child._conns) == 1
    finally:
        coordinator.close()
        relay.close()
        child.shutdown()


def test_super_server_takes_no_worker_options():
    with pytest.raises(TypeError):
        serve_as_super_server("127.0.0.1", 0, [], lanes=4)
