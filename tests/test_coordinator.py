import random
import re
import socket
import threading
import time

import pytest

from hfstabu import coordinator as coordinator_module
from hfstabu import protocol
from hfstabu.coordinator import (
    NOMINAL_SPEED,
    Coordinator,
    CoverageError,
    HandshakeError,
    NodePerfHistory,
    plan_partition,
    predict,
)
from hfstabu.instance import generate_instance, instance_digest
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.parallel import LaneEvaluator
from hfstabu.protocol import PROTOCOL_VERSION
from hfstabu.tabu import EvalContext, SearchParams, TabuList, run_search
from hfstabu.schedule import evaluate_makespan
from hfstabu.worker import WorkerServer, serve_as_super_server

from netharness import LatencyRelay, SubprocessWorker, record_cover, record_opens, record_requests, record_sends
from oracles import evaluate_slice, largest_remainder_reference, verify_exact_cover

INST = generate_instance(8, 3, 3, seed=42)
N = neighborhood_size(8)


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
    # a node with no measurement yet is planned at the nominal speed
    assert predict(NodePerfHistory()) == NOMINAL_SPEED


def test_history_rejects_non_positive():
    history = NodePerfHistory()
    with pytest.raises(ValueError):
        history.record(0, 5.0)
    with pytest.raises(ValueError):
        history.record(5, 0.0)


def test_history_size_is_constant_and_predict_is_the_left_to_right_sum():
    rng = random.Random(11)
    history = NodePerfHistory([(100, 10.0)])
    fields = set(vars(history))
    for _ in range(10_000):
        history.record(rng.randint(1, 1000), rng.uniform(0.1, 1e5))
    # running totals only: no attribute appears, and none is a container that grows
    assert set(vars(history)) == fields
    assert all(isinstance(value, (int, float)) for value in vars(history).values())
    assert history.count == 10_001
    for _ in range(200):
        entries = [(rng.randint(1, 10**6), rng.uniform(1e-3, 1e6)) for _ in range(rng.randint(1, 60))]
        weight = weighted = 0
        for moves, speed in entries:
            weight += moves
            weighted += moves * speed
        assert predict(NodePerfHistory(entries)) == weighted / weight


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
    with pytest.raises(ValueError):
        plan_partition([], 10)
    with pytest.raises(ValueError):
        plan_partition([1.0, -2.0], 10)


def test_verify_exact_cover():
    verify_exact_cover([(0, 5, None, None), (5, 9, 6, 100)], 0, 9)
    with pytest.raises(CoverageError):
        verify_exact_cover([(0, 5, None, None), (6, 9, None, None)], 0, 9)
    with pytest.raises(CoverageError):
        verify_exact_cover([(0, 5, None, None), (4, 9, None, None)], 0, 9)


# -- handshake and first rounds ----------------------------------------------------


def test_handshake_leaves_histories_empty_until_the_first_round():
    # the handshake measures nothing: every node starts at the nominal speed, and the real
    # problem's first round measures it
    with WorkerServer("127.0.0.1", 0, lanes=1) as w1, WorkerServer("127.0.0.1", 0, lanes=1) as w2:
        coordinator = Coordinator([w1.address, w2.address])
        try:
            assert coordinator.calibrate(seed=5) == {0: NOMINAL_SPEED, 1: NOMINAL_SPEED}
            for history in (p.history for p in coordinator.proxies):
                assert history.count == 0 and predict(history) == NOMINAL_SPEED
            coordinator.evaluate(make_ctx(INST))
            assert all(p.history.count >= 1 and p.history.moves > 0 for p in coordinator.proxies)
        finally:
            coordinator.close()


def test_handshake_sends_each_node_hello_only():
    # calibrate is the handshake alone, at every level, and the one-move warm-up EVAL it used
    # to cost each node is gone (a node is measured by its first round of the real problem)
    flat = WorkerServer("127.0.0.1", 0, lanes=1)
    children = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    seen = [record_requests(server) for server in (flat, *children)]
    for server in (flat, *children):
        server.start()
    sup = serve_as_super_server("127.0.0.1", 0, [c.address for c in children])
    seen.append(record_requests(sup))
    sup.start()
    try:
        with Coordinator([flat.address, sup.address]) as coordinator:
            assert coordinator.calibrate(seed=5) == {0: NOMINAL_SPEED, 1: NOMINAL_SPEED}
        for requests in seen:
            assert requests == [("HELLO", None)]
        for server in (flat, sup, *children):
            assert server.requests_served == 0 and server.moves_evaluated == 0
    finally:
        sup.shutdown()
        for server in (flat, *children):
            server.shutdown()


def test_a_run_sends_each_node_its_handshake_the_problem_and_evals_only():
    # the handshake is the whole set-up, at every level: each node gets HELLO, one SET_PROBLEM
    # of the real problem and EVALs of it, and is sent no other problem
    flat = WorkerServer("127.0.0.1", 0, lanes=1)
    children = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    seen = [record_requests(server) for server in (flat, *children)]
    for server in (flat, *children):
        server.start()
    sup = serve_as_super_server("127.0.0.1", 0, [c.address for c in children])
    seen.append(record_requests(sup))
    sup.start()
    digest = instance_digest(INST)
    try:
        with Coordinator([flat.address, sup.address]) as coordinator:
            coordinator.run(INST, SearchParams(iterations=3, seed=5))
        for requests in seen:
            assert requests[:2] == [("HELLO", None), ("SET_PROBLEM", digest)]
            assert requests[2:] and set(requests[2:]) == {("EVAL", digest)}
    finally:
        sup.shutdown()
        for server in (flat, *children):
            server.shutdown()


def test_handshake_marks_unreachable_node_dead():
    with WorkerServer("127.0.0.1", 0, lanes=1) as w1:
        # second address points at a closed port
        probe = WorkerServer("127.0.0.1", 0, lanes=1)
        dead_addr = probe.address
        probe.shutdown()
        coordinator = Coordinator([w1.address, dead_addr])
        try:
            assert coordinator.calibrate(seed=5) == {0: NOMINAL_SPEED}
            assert coordinator.proxies[1].state == "dead"
        finally:
            coordinator.close()


class FaultyNode:
    """A node that fails its HELLO handshake, or its first EVAL after a good handshake, as told.

    It accepts any number of connections and fails the same way on each.
    A fault named "hello ..." hits the handshake; any other hits the
    first EVAL of the connection. SET_PROBLEM is ignored. "error garbage"
    follows its ERROR with a malformed frame, in one write. "zero speed"
    answers that EVAL, and every later one, with no move evaluated.
    ``failed`` holds one entry per connection that reached its fault.
    """

    def __init__(self, fault: str):
        self.fault = fault
        self.release = threading.Event()
        self.failed = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.threads = [threading.Thread(target=self._accept_loop, daemon=True)]
        self.threads[0].start()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, conn):
        handshake_fault = self.fault.startswith("hello ")
        with conn, conn.makefile("rb") as reader:
            for line in reader:
                msg = protocol.decode(line)
                if isinstance(msg, protocol.Hello) and not handshake_fault:
                    conn.sendall(protocol.encode(protocol.Hello(msg.rid, PROTOCOL_VERSION, 1)))
                elif isinstance(msg, (protocol.Hello, protocol.Eval)):
                    break
            else:
                return  # closed before the faulty request
            self.failed.append(msg.TYPE)
            fault = self.fault.removeprefix("hello ")
            if fault.startswith("error"):
                error = protocol.encode(protocol.Error(msg.rid, f"{msg.TYPE} failed: boom"))
                conn.sendall(error + b"garbage\n" if fault == "error garbage" else error)
            elif fault == "version 2":  # the name is historical: any major but ours
                conn.sendall(protocol.encode(protocol.Hello(msg.rid, (PROTOCOL_VERSION[0] + 1, 0), 1)))
                self.release.wait(timeout=30)
            elif fault == "exit":
                conn.sendall(protocol.encode(protocol.ExitReport("maintenance", 0, 0)))
            elif fault == "zero speed":
                while msg is not None:
                    if isinstance(msg, protocol.Eval):
                        empty = protocol.EvalResult(msg.rid, None, None, 0, 0.0, 0.0, False, msg.nslice)
                        conn.sendall(protocol.encode(empty))
                    line = reader.readline()
                    msg = protocol.decode(line) if line else None
            elif fault == "silent":
                self.release.wait(timeout=30)
            # "drop": leaving this block closes the connection

    def close(self):
        self.release.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept loop; close() alone would not
        except OSError:
            pass
        self._listener.close()
        for thread in self.threads:
            thread.join(timeout=5)

    def alive(self) -> bool:
        return any(thread.is_alive() for thread in self.threads)


@pytest.mark.parametrize("fault", ["error", "error garbage", "drop", "exit", "silent", "zero speed"])
def test_first_round_failure_marks_node_dead(fault, monkeypatch):
    # a node is first measured by its first round of the real problem, and a fault there follows the
    # ordinary EVAL policy: a strike, a reconnect, and dead on the second strike. "zero speed"
    # evaluates no move in a deadline of at least DEADLINE_FLOOR, which is a strike too. Each failed
    # connection is one strike, so the node is dead on its second, or on its first exit report;
    # "error garbage" checks that a malformed frame read with the ERROR adds no second strike
    monkeypatch.setattr(coordinator_module, "RESPONSE_GRACE", 0.2)  # "silent" answers nothing
    params = SearchParams(iterations=6, seed=11, diversify_after=3)
    local = run_search(INST, params, sequential_reference)
    faulty = FaultyNode(fault)
    states = []
    with WorkerServer("127.0.0.1", 0, lanes=1) as healthy:
        coordinator = Coordinator([healthy.address, faulty.address])
        try:
            result = coordinator.run(INST, params, on_iteration=lambda _: states.append(coordinator.proxies[1].state))
            assert result.trace == local.trace
            assert states[1] == "dead", f"faulty node {states[:2]} after 2 iterations"
            assert len(faulty.failed) == (1 if fault == "exit" else 2), f"dead after {faulty.failed}"
            assert coordinator.proxies[1].strikes == (0 if fault == "exit" else 2)
            assert coordinator.proxies[0].state == "idle" and coordinator.proxies[0].strikes == 0
            assert not coordinator.proxies[1].history.count and not coordinator.proxies[1].moves
        finally:
            coordinator.close()
            faulty.close()
    assert not faulty.alive()


def test_a_node_that_evaluates_no_move_in_a_short_deadline_takes_no_more_of_the_slice(monkeypatch):
    # a deadline under DEADLINE_FLOOR may fit no move, which is no fault: the node keeps its
    # connection and is sent nothing more of the slice, not the same range again until the budget ends
    faulty = FaultyNode("zero speed")
    sends = record_sends(monkeypatch)
    coordinator = Coordinator([faulty.address])
    try:
        coordinator.handshake()
        result, frontier = coordinator.evaluate_blocks(make_ctx(INST), NeighborhoodSlice(0, N), time.monotonic() + 0.2)
        assert (frontier, result.moves_evaluated) == (0, 0)
        assert [msg_type for _, msg_type in sends] == ["HELLO", "SET_PROBLEM", "EVAL"]
        assert (coordinator.proxies[0].strikes, coordinator.proxies[0].connected) == (0, True)
    finally:
        coordinator.close()
        faulty.close()


def test_a_worker_shared_by_two_coordinators_is_struck_out_by_neither():
    # the worker serves one request at a time, so each coordinator's EVAL may wait for the
    # other's; its compute deadline counts from when it is served, so no round is empty
    params = SearchParams(iterations=10, seed=11, diversify_after=4)
    local = run_search(INST, params, sequential_reference)
    results = {}

    def search(name, address):
        with Coordinator([address]) as coordinator:
            results[name] = (coordinator.run(INST, params), coordinator.proxies[0].strikes,
                             coordinator.redistribution_rounds)

    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.001) as shared:
        threads = [threading.Thread(target=search, args=(name, shared.address)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert set(results) == {"a", "b"}
    for result, strikes, redistributions in results.values():
        assert result.trace == local.trace
        assert (strikes, redistributions) == (0, 0)
    assert shared.requests_served == 2 * params.iterations


def test_node_reporting_an_infinite_speed_cannot_change_the_trajectory():
    params = SearchParams(iterations=12, seed=11, diversify_after=6)
    local = run_search(INST, params, sequential_reference)
    connected = []

    def infinite_speed(line):
        # once connected, every EVAL_RESULT of the relayed worker claims an infinite speed
        if connected and line.startswith(b'{"type":"EVAL_RESULT"'):
            return re.sub(rb'"speed":[^,}]+', b'"speed":Infinity', line)
        return line

    with WorkerServer("127.0.0.1", 0, lanes=1) as healthy, WorkerServer("127.0.0.1", 0, lanes=1) as other, \
            LatencyRelay(other.address, 0.0, 0.0, rewrite=infinite_speed) as relay:
        coordinator = Coordinator([healthy.address, relay.address])
        try:
            coordinator.handshake()
            connected.append(True)
            remote = run_search(INST, params, coordinator.evaluate)
            assert remote.trace == local.trace
            # each such frame is a protocol error that closes the connection: two strikes
            assert [p.state for p in coordinator.proxies] == ["idle", "dead"]
        finally:
            coordinator.close()


@pytest.mark.parametrize("fault", ["hello error", "hello version 2", "hello drop", "hello silent"])
def test_handshake_failure_marks_node_dead(fault, monkeypatch):
    if fault == "hello silent":
        monkeypatch.setattr(coordinator_module, "CONNECT_TIMEOUT", 0.3)
    faulty = FaultyNode(fault)
    with WorkerServer("127.0.0.1", 0, lanes=1) as healthy:
        coordinator = Coordinator([healthy.address, faulty.address])
        try:
            coordinator.connect_all()
            node = coordinator.proxies[1]
            assert node.state == "dead"
            # closed at once: connect_all does not drop dead nodes on its way out
            assert not [key for key in coordinator._selector.get_map().values() if key.data[0] is node]
            assert coordinator.handshake() == [coordinator.proxies[0]]
            assert coordinator.proxies[0].state == "idle"
            assert node.state == "dead" and not node.history.count
        finally:
            coordinator.close()
            faulty.close()
    assert not faulty.alive()


def test_silent_peers_share_one_connect_timeout(monkeypatch):
    timeout = 0.3
    monkeypatch.setattr(coordinator_module, "CONNECT_TIMEOUT", timeout)
    # the kernel completes each TCP connect; nothing ever accepts it or answers HELLO
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in range(3)]
    with WorkerServer("127.0.0.1", 0, lanes=1) as worker:
        coordinator = Coordinator([worker.address] + [s.getsockname()[:2] for s in listeners])
        try:
            t0 = time.monotonic()
            coordinator.connect_all()
            wall = time.monotonic() - t0
            assert [p.state for p in coordinator.proxies] == ["idle", "dead", "dead", "dead"]
            assert wall < 2 * timeout, f"3 silent peers took {wall:.3f} s to give up on"
        finally:
            coordinator.close()
            for listener in listeners:
                listener.close()


def test_slow_opener_leaves_earlier_handshakes_their_wait(monkeypatch):
    timeout = 0.3
    monkeypatch.setattr(coordinator_module, "CONNECT_TIMEOUT", timeout)

    def opener(address, connect_timeout):
        # a host that neither accepts nor refuses: the connect gives up after its timeout
        if address == "blackholed":
            time.sleep(connect_timeout * 1.5)
            raise TimeoutError("timed out")
        return socket.create_connection(address, connect_timeout)

    with WorkerServer("127.0.0.1", 0, lanes=1) as healthy:
        coordinator = Coordinator([healthy.address, "blackholed"], opener=opener)
        try:
            coordinator.connect_all()
            assert [p.state for p in coordinator.proxies] == ["idle", "dead"]
            assert coordinator.handshake() == [coordinator.proxies[0]]
        finally:
            coordinator.close()


def test_handshake_caches_no_problem():
    # the handshake sends no instance, so its result depends on nothing but which nodes answer
    # the handshake, and a worker is sent no problem for it
    with WorkerServer("127.0.0.1", 0, lanes=1) as worker:
        seen = record_requests(worker)
        speeds = []
        for seed in (99, 99, 7):
            with Coordinator([worker.address]) as coordinator:
                speeds.append(coordinator.calibrate(seed=seed))
        assert speeds == [{0: NOMINAL_SPEED}] * 3
        assert seen == [("HELLO", None)] * 3
        with Coordinator([worker.address]) as coordinator:
            coordinator.run(INST, SearchParams(iterations=1, seed=99))
        assert [request for request in seen if request[0] == "SET_PROBLEM"] == [("SET_PROBLEM", instance_digest(INST))]


def test_all_nodes_unreachable_raises():
    probe = WorkerServer("127.0.0.1", 0, lanes=1)
    addr = probe.address
    probe.shutdown()
    coordinator = Coordinator([addr])
    try:
        with pytest.raises(HandshakeError, match="no node reachable"):
            coordinator.calibrate(seed=1)
    finally:
        coordinator.close()


# -- distributed evaluation ----------------------------------------------------------


def test_single_worker_matches_local_evaluation():
    with WorkerServer("127.0.0.1", 0, lanes=1) as worker:
        coordinator = Coordinator([worker.address])
        try:
            coordinator.handshake()
            for seed in range(4):
                ctx = make_ctx(INST, seed=seed)
                got = coordinator.evaluate(ctx)
                want = sequential_reference(ctx)
                assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
                assert got.moves_evaluated == N
        finally:
            coordinator.close()


def test_evaluate_answers_for_the_context_instance():
    a = generate_instance(8, 3, 3, seed=1)
    b = generate_instance(8, 3, 3, seed=2)
    with WorkerServer("127.0.0.1", 0, lanes=1) as worker:
        coordinator = Coordinator([worker.address])
        try:
            coordinator.handshake()
            for inst in (b, a, b):
                ctx = make_ctx(inst, seed=1)
                got = coordinator.evaluate(ctx)
                want = sequential_reference(ctx)
                assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        finally:
            coordinator.close()


def test_three_workers_match_local_and_audit(monkeypatch):
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(3)]
    for s in servers:
        s.start()
    coordinator = Coordinator([s.address for s in servers])
    audits, _ = record_cover(monkeypatch, coordinator)
    try:
        coordinator.handshake()
        for seed in range(3):
            ctx = make_ctx(INST, seed=seed)
            got = coordinator.evaluate(ctx)
            want = sequential_reference(ctx)
            assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        assert len(audits) == 3
        for audit in audits:
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
    with WorkerServer("127.0.0.1", 0, lanes=1) as worker, \
            Coordinator([worker.address]) as coordinator:
        remote = coordinator.run(INST, params)
    assert remote.trace == local.trace
    assert remote.best_order == local.best_order
    assert remote.best_makespan == local.best_makespan


def test_graceful_worker_exit_mid_run_redistributes(monkeypatch):
    params = SearchParams(iterations=24, seed=2)
    local = run_search(INST, params, sequential_reference)
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(3)]
    for s in servers:
        s.start()
    coordinator = Coordinator([s.address for s in servers])
    audits, _ = record_cover(monkeypatch, coordinator)
    calls = []

    def counting(ctx, evaluate=coordinator.evaluate):
        calls.append(ctx)
        return evaluate(ctx)

    monkeypatch.setattr(coordinator, "evaluate", counting)
    try:
        stopped = []  # the evaluator calls made before the exit

        def stop_one(record):
            if record.iteration == 9 and not stopped:
                servers[1].shutdown(reason="maintenance")
                stopped.append(len(calls))

        result = coordinator.run(INST, params, on_iteration=stop_one)
        assert result.trace == local.trace
        assert coordinator.proxies[1].state == "dead"
        # one cover per evaluator call: a repeated context reuses its result and sends nothing
        assert len(audits) == len(calls)
        assert len(calls) > stopped[0]
    finally:
        coordinator.close()
        for s in servers:
            s.shutdown()


def test_timed_out_node_is_reopened_and_its_reply_never_read(monkeypatch):
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    for s in servers:
        s.start()
    monkeypatch.setattr(coordinator_module, "DEADLINE_SLACK", 1.2)
    monkeypatch.setattr(coordinator_module, "DEADLINE_FLOOR", 0.05)
    monkeypatch.setattr(coordinator_module, "RESPONSE_GRACE", 0.1)
    opens = record_opens(monkeypatch)
    coordinator = Coordinator([s.address for s in servers])
    audits, _ = record_cover(monkeypatch, coordinator)
    try:
        coordinator.handshake()

        slow_once = {"armed": True}
        evaluator = servers[0]._evaluator
        original = evaluator.evaluate_blocks

        def delayed(*args, **kwargs):
            if slow_once.pop("armed", False):
                time.sleep(0.9)
            return original(*args, **kwargs)

        evaluator.evaluate_blocks = delayed
        ctx = make_ctx(INST, seed=1)
        want = sequential_reference(ctx)
        got = coordinator.evaluate(ctx)
        assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        verify_exact_cover([(b, e, None, None) for b, e in audits[0]], 0, N)
        # the timeout was a strike that closed node 0's connection; the node is reopened once
        assert opens == [0, 1, 0]
        slow = coordinator.proxies[0]
        moves = slow.moves
        for _ in range(3):
            got = coordinator.evaluate(ctx)
            assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        assert slow.moves > moves  # it serves the later rounds
        assert (slow.state, slow.strikes, slow.connected) == ("idle", 0, True)
        # the timed-out request was answered on the closed connection, so its reply was never read
        assert coordinator.late_results == 0
    finally:
        coordinator.close()
        for s in servers:
            s.shutdown()


def test_slow_worker_returns_prefix_and_rest_is_redistributed(monkeypatch):
    big = generate_instance(12, 3, 3, seed=77)
    big_n = neighborhood_size(12)
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    for s in servers:
        s.start()
    monkeypatch.setattr(coordinator_module, "DEADLINE_SLACK", 1.5)
    monkeypatch.setattr(coordinator_module, "DEADLINE_FLOOR", 0.02)
    monkeypatch.setattr(coordinator_module, "RESPONSE_GRACE", 2.0)
    coordinator = Coordinator([s.address for s in servers])
    try:
        coordinator.handshake()
        # slow down one worker after the handshake so the nominal speed it is planned at is
        # far too high; a one-lane worker's evaluator reads the delay as each scan starts
        servers[0]._evaluator.inline_delay = 0.004
        ctx = make_ctx(big, seed=5)
        got = coordinator.evaluate(ctx)
        want = evaluate_slice(big, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, big_n))
        assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        assert coordinator.redistribution_rounds >= 1
    finally:
        coordinator.close()
        for s in servers:
            s.shutdown()


def test_a_failed_slice_does_not_wait_for_the_slowest_node():
    # each worker takes about 0.15 s for half the neighborhood. Node 0's EVAL fails at once, and its
    # slice is planned again as soon as the ERROR is read, over the nodes idle then: node 0, once
    # reopened. So node 1 serves its own slice only, and no plan waits for its reply
    delay = 0.15 / (N // 2)
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=delay) as w0, \
            WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=delay) as w1, \
            Coordinator([w0.address, w1.address]) as coordinator:
        ctx = make_ctx(INST, seed=1)
        coordinator.handshake()
        coordinator.evaluate(ctx)  # measures both nodes, so each is planned about half
        evaluate_blocks = w0._evaluator.evaluate_blocks

        def fail_once(*args):
            w0._evaluator.evaluate_blocks = evaluate_blocks
            raise RuntimeError("lane lost")

        w0._evaluator.evaluate_blocks = fail_once
        served = w1.requests_served
        got = coordinator.evaluate(ctx)
        want = sequential_reference(ctx)
        assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        assert w1.requests_served - served == 1
        assert coordinator.proxies[0].strikes == 0 and coordinator.proxies[0].state == "idle"


def test_all_workers_dying_mid_iteration_is_fatal():
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    for s in servers:
        s.start()
    coordinator = Coordinator([s.address for s in servers])
    try:
        coordinator.handshake()
        for s in servers:
            s.shutdown(reason="gone")
        ctx = make_ctx(INST, seed=0)
        with pytest.raises(CoverageError):
            coordinator.evaluate(ctx)
    finally:
        coordinator.close()


def test_proportional_planning_follows_speed_ratio(monkeypatch):
    # one worker throttled to roughly a third of the other's speed
    fast = WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002)
    slow = WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.006)
    fast.start()
    slow.start()
    coordinator = Coordinator([fast.address, slow.address])
    _, plans = record_cover(monkeypatch, coordinator)
    try:
        coordinator.handshake()
        ctx = make_ctx(INST, seed=2)
        for _ in range(5):
            coordinator.evaluate(ctx)
        sizes = plans[-1][0]  # first plan of the last evaluation, in node order
        assert sizes[0] > sizes[1] > 0
        ratio = sizes[0] / sizes[1]
        assert 1.8 < ratio < 5.0
    finally:
        coordinator.close()
        fast.shutdown()
        slow.shutdown()


def test_coordinator_starts_no_thread():
    with SubprocessWorker(lanes=1) as w1, SubprocessWorker(lanes=1) as w2:
        threads = threading.active_count()
        coordinator = Coordinator([w1.address, w2.address])
        try:
            coordinator.handshake()
            assert threading.active_count() == threads
            ctx = make_ctx(INST, seed=1)
            for _ in range(3):
                coordinator.evaluate(ctx)
            assert threading.active_count() == threads
            # a live node without a connection is reopened before its next request
            coordinator.proxies[1].disconnect()
            got = coordinator.evaluate(ctx)
            assert coordinator.proxies[1].state == "idle" and coordinator.proxies[1].connected
            assert threading.active_count() == threads
            want = sequential_reference(ctx)
            assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        finally:
            coordinator.close()


def _zero_timeout_selects(monkeypatch, evaluator, ctx, evaluations=5) -> int:
    """How many selects with a zero timeout ``evaluator`` makes over ``evaluations`` evaluations of ``ctx``."""
    polls = []
    select = evaluator._selector.select

    def recording_select(timeout=None):
        if timeout is not None and timeout <= 0:
            polls.append(timeout)
        return select(timeout)

    monkeypatch.setattr(evaluator._selector, "select", recording_select)
    for _ in range(evaluations):
        evaluator.evaluate(ctx)
    return len(polls)


def test_steady_rounds_make_no_empty_poll(monkeypatch):
    # a round that opens no connection and owes no cut reply reads nothing before it plans
    ctx = make_ctx(INST, seed=1)
    with WorkerServer("127.0.0.1", 0, lanes=1) as w1, WorkerServer("127.0.0.1", 0, lanes=1) as w2:
        with Coordinator([w1.address, w2.address]) as coordinator:
            coordinator.handshake()
            assert _zero_timeout_selects(monkeypatch, coordinator, ctx) == 0
            assert [p.connected for p in coordinator.proxies] == [True, True]
    with LaneEvaluator(lanes=1) as evaluator:
        assert _zero_timeout_selects(monkeypatch, evaluator, ctx) == 0


def test_node_lost_during_another_handshake_gets_one_strike(monkeypatch):
    with SubprocessWorker(lanes=1) as w0, SubprocessWorker(lanes=1) as w1:
        coordinator = Coordinator([w0.address, w1.address])
        try:
            coordinator.handshake()
            w0.kill()  # returns once the process has exited, so its EOF is waiting
            coordinator.proxies[1].disconnect()  # reopened before the plan, which waits for its HELLO
            sends = record_sends(monkeypatch)
            ctx = make_ctx(INST, seed=1)
            got = coordinator.evaluate(ctx)
            want = sequential_reference(ctx)
            assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
            # node 0's loss was read during node 1's handshake: one strike, and no send to a closed
            # socket. It is reopened before the plan too, and its worker is gone, so the refused
            # reopen kills it, which is no strike
            assert coordinator.proxies[0].strikes == 1
            assert coordinator.proxies[0].state == "dead"
            assert {node for node, _ in sends} == {1}
        finally:
            coordinator.close()


def test_dead_socket_does_not_keep_the_coordinator_busy():
    # about 0.5 s per evaluation on the survivor: N moves paced at 0.5 / N s each
    delay = 0.5 / N
    with SubprocessWorker(lanes=1, per_move_delay=delay) as w1, \
            SubprocessWorker(lanes=1, per_move_delay=delay) as w2:
        coordinator = Coordinator([w1.address, w2.address])
        try:
            coordinator.handshake()
            w2.kill()
            ctx = make_ctx(INST, seed=1)
            t0, cpu0 = time.monotonic(), time.process_time()
            got = coordinator.evaluate(ctx)
            wall, cpu = time.monotonic() - t0, time.process_time() - cpu0
            want = sequential_reference(ctx)
            assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
            assert coordinator.proxies[1].state == "dead"
            assert wall >= 0.4
            assert cpu < 0.1, f"coordinator used {cpu:.3f} s of CPU over a {wall:.2f} s evaluation"
        finally:
            coordinator.close()


def test_node_stats_track_assigned_moves():
    params = SearchParams(iterations=10, seed=6)
    with WorkerServer("127.0.0.1", 0, lanes=1) as w1, WorkerServer("127.0.0.1", 0, lanes=1) as w2:
        coordinator = Coordinator([w1.address, w2.address])
        try:
            coordinator.run(INST, params)
            stats = coordinator.node_stats()
            total = sum(s["moves"] for s in stats.values())
            assert total == N * 10
            assert all(s["mean_speed"] > 0 for s in stats.values())
        finally:
            coordinator.close()
