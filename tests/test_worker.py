import json
import logging
import multiprocessing
import random
import re
import socket
import threading
import time

import pytest

from hfstabu import protocol
from hfstabu.coordinator import NOMINAL_SPEED, Coordinator, predict
from hfstabu.instance import generate_instance, instance_digest
from hfstabu.protocol import ProtocolError
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.parallel import LaneEvaluator
from hfstabu.schedule import evaluate_makespan
from hfstabu.tabu import EvalContext, SliceResult, initial_order, scan_slice
from hfstabu.worker import WorkerServer, serve_as_super_server

from netharness import (WireClient, empty_tabu, kill_lane_child, record_opens, record_requests, record_sends,
                        wait_until)
from oracles import evaluate_slice

INST = generate_instance(8, 3, 3, seed=42)
DIGEST = instance_digest(INST)
N = neighborhood_size(8)
ORDER = tuple(range(8))


def calibrate(address, seed=9) -> dict[int, float]:
    """What one ``Coordinator.calibrate`` reports for the worker at ``address``."""
    with Coordinator([address]) as coordinator:
        return coordinator.calibrate(seed)


def first_round_speed(address, inst) -> float:
    """The speed a coordinator predicts for the worker at ``address`` after one round of ``inst``."""
    order = initial_order(inst)
    with Coordinator([address]) as coordinator:
        coordinator.handshake()
        coordinator.evaluate(EvalContext(inst, order, empty_tabu(), evaluate_makespan(inst, order)))
        return predict(coordinator.proxies[0].history)


@pytest.fixture
def server():
    with WorkerServer("127.0.0.1", 0, lanes=1) as srv:
        yield srv


def test_hello_reports_lanes(server):
    with WireClient(server.address) as client:
        reply = client.hello()
        assert isinstance(reply, protocol.Hello)
        assert reply.lanes == 1
        assert reply.version == protocol.PROTOCOL_VERSION


def test_version_major_mismatch_refused(server):
    with WireClient(server.address) as client:
        client.send(protocol.Hello(client.next_rid(), (protocol.PROTOCOL_VERSION[0] + 1, 0), 0))
        reply = client.recv()
        assert isinstance(reply, protocol.Error)
        with pytest.raises(ConnectionError):
            client.recv()  # server closes the connection


def test_eval_unknown_digest(server):
    with WireClient(server.address) as client:
        client.hello()
        reply = client.eval("0" * 64, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
        assert isinstance(reply, protocol.Error)
        assert "unknown problem" in reply.message


def test_loopback_transparency(server):
    rng = random.Random(5)
    with WireClient(server.address) as client:
        client.hello()
        client.set_problem(INST)
        for _ in range(8):
            begin = rng.randrange(N)
            end = rng.randint(begin + 1, N)
            order = tuple(rng.sample(range(8), 8))
            incumbent = rng.randint(1, 500)
            reply = client.eval(DIGEST, order, empty_tabu(), incumbent, begin, end, 60.0)
            assert isinstance(reply, protocol.EvalResult)
            local = evaluate_slice(INST, order, empty_tabu(), incumbent, NeighborhoodSlice(begin, end))
            assert (reply.best_index, reply.best_makespan) == (local.best_index, local.best_makespan)
            assert reply.complete and reply.remaining is None
            assert reply.moves_evaluated == end - begin


def test_generous_deadline_completes(server):
    with WireClient(server.address) as client:
        client.hello()
        client.set_problem(INST)
        reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 120.0)
        assert reply.complete is True
        assert reply.remaining is None
        assert reply.moves_evaluated == N
        assert reply.speed > 0
        # speed is measured over the whole request
        assert reply.speed == pytest.approx(reply.moves_evaluated / reply.elapsed, rel=1e-6)


@pytest.mark.parametrize("node", ["lanes=1", "lanes=2", "super server"])
def test_zero_deadline_returns_everything_as_remaining(node):
    # no move fits the deadline, but lanes are left: an EVAL_RESULT with no move, not an ERROR
    children = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)] if node == "super server" else []
    for child in children:
        child.start()
    if children:
        server = serve_as_super_server("127.0.0.1", 0, [c.address for c in children])
    else:
        server = WorkerServer("127.0.0.1", 0, lanes=int(node[-1]))
    server.start()
    try:
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 0.0)
            assert isinstance(reply, protocol.EvalResult)
            assert reply.complete is False
            assert reply.moves_evaluated == 0
            assert (reply.remaining.begin, reply.remaining.end) == (0, N)
            assert reply.best_index is None
    finally:
        server.shutdown()
        for child in children:
            child.shutdown()


@pytest.mark.parametrize("order, begin, end, field", [
    (tuple(range(5)), 0, 20, "order"),  # a 5-job sub-problem of the 8-job problem
    (tuple(range(9)), 0, 20, "order"),
    (ORDER, 40, N + 1, "slice"),
    (ORDER, 2 * N, 3 * N, "slice"),
], ids=["shorter order", "longer permutation", "slice one past the end", "slice past the end"])
def test_eval_that_does_not_fit_its_problem_is_refused(server, order, begin, end, field):
    with WireClient(server.address) as client:
        client.hello()
        client.set_problem(INST)
        reply = client.eval(DIGEST, order, empty_tabu(), 10**6, begin, end, 60.0)
        assert isinstance(reply, protocol.Error) and field in reply.message
        # the connection keeps serving
        reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
        assert isinstance(reply, protocol.EvalResult) and reply.complete
    assert server.requests_served == 1


def test_deadline_prefix_soundness_and_equivalence():
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.003) as server:
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 0.05)
            assert reply.complete is False
            assert 0 < reply.moves_evaluated < N
            # evaluated prefix and remaining tile the requested slice exactly
            assert reply.remaining.begin == reply.moves_evaluated
            assert reply.remaining.end == N
            local = evaluate_slice(INST, ORDER, empty_tabu(), 10**6,
                                   NeighborhoodSlice(0, reply.moves_evaluated))
            assert (reply.best_index, reply.best_makespan) == (local.best_index, local.best_makespan)


def test_deadline_compliance():
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002) as server:
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            deadline = 0.08
            t0 = time.monotonic()
            reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, deadline)
            wall = time.monotonic() - t0
            assert reply.complete is False
            # deadline + one move's evaluation time + protocol latency
            assert wall < deadline + 0.15


def test_a_handshake_plans_the_worker_at_nominal_speed_and_serves_nothing(server):
    # calibrate is the handshake: the worker is planned at the nominal speed, and is sent
    # nothing but HELLO
    seen = record_requests(server)
    assert calibrate(server.address) == {0: NOMINAL_SPEED}
    assert server.requests_served == 0 and seen == [("HELLO", None)]


def test_first_rounds_of_two_runs_measure_the_same_speed():
    # delay-dominated worker: the first rounds of two runs measure it within 25% of each other
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002) as server:
        a = first_round_speed(server.address, INST)
        b = first_round_speed(server.address, INST)
        assert abs(a - b) / max(a, b) < 0.25


def _round_speed(inst, per_move_delay):
    """The whole-round speed over 0.6 s of back-to-back paced rounds of ``inst``'s initial order."""
    order = initial_order(inst)
    incumbent = evaluate_makespan(inst, order)
    moves, t0 = 0, time.monotonic()
    while time.monotonic() < t0 + 0.6:
        moves += scan_slice(inst, order, (), incumbent, 0, neighborhood_size(inst.num_jobs), None,
                            per_move_delay)[2]
    return moves / (time.monotonic() - t0)


def test_first_round_measures_the_whole_round_speed():
    # delay-dominated worker: the real problem's first round is the one timed round, and it
    # measures the speed of the worker's whole rounds
    reference = _round_speed(INST, 0.002)
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002) as server:
        t0 = time.monotonic()
        speed = first_round_speed(server.address, INST)
        wall = time.monotonic() - t0
        assert server.requests_served == 1
    assert wall < 1.0
    assert abs(speed - reference) / reference < 0.25


def test_paced_worker_answers_the_handshake_within_one_round():
    # paced at 2 ms per move, a full round of a 10-job neighborhood (81 moves) takes at least
    # 162 ms; calibrate, the handshake, takes less
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002) as server:
        t0 = time.monotonic()
        assert calibrate(server.address) == {0: NOMINAL_SPEED}
        wall = time.monotonic() - t0
    assert wall < 0.15


def test_first_round_is_timed_with_the_lanes_started():
    # a node is measured by its first round of the real problem: a two-lane worker forks its
    # lanes while it serves that EVAL, before it plans its lanes' round, so the round completes
    # with no redistribution round at either level
    known = set(multiprocessing.active_children())
    with WorkerServer("127.0.0.1", 0, lanes=2) as server, Coordinator([server.address]) as coordinator:
        coordinator.handshake()
        assert not set(multiprocessing.active_children()) - known  # the handshake forks no lane
        got = coordinator.evaluate(EvalContext(INST, ORDER, empty_tabu(), 10**6))
        want = evaluate_slice(INST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
        assert (got.best_index, got.best_makespan) == (want.best_index, want.best_makespan)
        assert len(set(multiprocessing.active_children()) - known) == 2
        assert server.requests_served == 1 and server.moves_evaluated == N
        assert coordinator.redistribution_rounds == 0
        assert server._evaluator.redistribution_rounds == 0


def test_a_handshake_leaves_the_problem_cache_alone():
    # calibrate is the handshake: it sends no problem, so the problem set before it is the
    # only one ever sent, and it is served on the same lanes
    known = set(multiprocessing.active_children())
    with WorkerServer("127.0.0.1", 0, lanes=2) as server, WireClient(server.address) as client:
        seen = record_requests(server)
        client.hello()
        client.set_problem(INST)
        assert client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0).complete
        lanes = {p.pid for p in multiprocessing.active_children() if p not in known}
        assert len(lanes) == 2
        for _ in range(2):
            assert calibrate(server.address) == {0: NOMINAL_SPEED}
            assert [request for request in seen if request[0] == "SET_PROBLEM"] == [("SET_PROBLEM", DIGEST)]
            # none was forked or lost
            assert {p.pid for p in multiprocessing.active_children() if p not in known} == lanes
        reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
        assert reply.complete and reply.moves_evaluated == N


def test_one_lane_set_serves_every_problem_and_the_handshake():
    known = set(multiprocessing.active_children())
    with WorkerServer("127.0.0.1", 0, lanes=2) as server, WireClient(server.address) as client:
        # what calibrate asks of a worker: a handshake, which forks no lane
        assert calibrate(server.address) == {0: NOMINAL_SPEED}
        assert not [p for p in multiprocessing.active_children() if p not in known]
        client.hello()
        for seed in range(6):
            inst = generate_instance(8, 3, 3, seed=100 + seed)
            digest = client.set_problem(inst)
            want = evaluate_slice(inst, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
            reply = client.eval(digest, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
            assert (reply.best_index, reply.best_makespan, reply.moves_evaluated) == (
                want.best_index, want.best_makespan, N)
            assert reply.complete
        assert len([p for p in multiprocessing.active_children() if p not in known]) == 2
    assert not [p for p in multiprocessing.active_children() if p not in known]


def test_a_number_too_large_for_a_float_drops_only_its_connection(server):
    # decoding one used to raise OverflowError, which ended the worker's loop
    body = json.loads(protocol.encode(protocol.Eval(1, DIGEST, ORDER, empty_tabu(), 10**6,
                                                    NeighborhoodSlice(0, N), 1.0)))
    with WireClient(server.address) as bad, WireClient(server.address) as good:
        bad.send_raw(json.dumps({**body, "deadline": 10**400}).encode() + b"\n")
        with pytest.raises(ConnectionError):
            bad.recv()
        assert isinstance(good.hello(), protocol.Hello)


def test_a_line_longer_than_a_frame_drops_only_its_connection(server, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    with WireClient(server.address) as flooder, WireClient(server.address) as other:
        flooder.send_raw(b"x" * 10_000)  # never a newline
        with pytest.raises(ConnectionError):
            flooder.recv()
        assert isinstance(other.hello(), protocol.Hello)
        other.set_problem(INST)
        assert other.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0).complete


def test_exit_report_on_shutdown():
    server = WorkerServer("127.0.0.1", 0, lanes=1)
    server.start()
    client = WireClient(server.address)
    try:
        client.hello()
        client.set_problem(INST)
        client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
        server.shutdown(reason="test stop")
        report = client.recv()
        assert isinstance(report, protocol.ExitReport)
        assert report.reason == "test stop"
        assert report.requests_served == 1
        assert report.moves_evaluated == N
    finally:
        client.close()
        server.shutdown()


def test_protocol_error_closes_only_that_connection(server):
    bad = WireClient(server.address)
    good = WireClient(server.address)
    try:
        good.hello()
        bad.send_raw(b"this is not json\n")
        with pytest.raises(ConnectionError):
            bad.recv()
        # the other connection keeps working
        good.set_problem(INST)
        reply = good.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, 10, 60.0)
        assert isinstance(reply, protocol.EvalResult)
    finally:
        bad.close()
        good.close()


class SlowEvaluator:
    """A one-lane evaluator whose evaluation takes 0.3 s; it appends "begin" and "end" of each to ``log``."""

    lanes = 1

    def __init__(self):
        self.evaluating = False
        self.log = []

    def evaluate_blocks(self, ctx, nslice, deadline):
        self.evaluating = True
        self.log.append("begin")
        time.sleep(0.3)
        self.log.append("end")
        self.evaluating = False
        return SliceResult(None, None, len(nslice), 0.3), nslice.end

    def close(self):
        pass


def test_set_problem_waits_for_a_running_evaluation():
    evaluator = SlowEvaluator()
    other = generate_instance(6, 2, 2, seed=3)
    with WorkerServer("127.0.0.1", 0, evaluator=evaluator) as server, \
            WireClient(server.address) as first, WireClient(server.address) as second:
        evaluator.log = record_requests(server)  # the requests and the evaluation in the order they were served
        first.hello()
        second.hello()
        first.set_problem(INST)
        first.send(protocol.Eval(first.next_rid(), DIGEST, ORDER, empty_tabu(), 10**6,
                                 NeighborhoodSlice(0, N), 10.0))
        assert wait_until(lambda: evaluator.evaluating, timeout=5.0)
        second.set_problem(other)
        assert isinstance(first.recv(), protocol.EvalResult)
        assert wait_until(lambda: len(evaluator.log) == 7, timeout=5.0)
    assert evaluator.log == [("HELLO", None), ("HELLO", None), ("SET_PROBLEM", DIGEST), ("EVAL", DIGEST),
                             "begin", "end", ("SET_PROBLEM", other.digest)]


def test_shutdown_answers_the_running_request_first():
    evaluator = SlowEvaluator()
    server = WorkerServer("127.0.0.1", 0, evaluator=evaluator)
    server.start()
    stopper = threading.Thread(target=server.shutdown, kwargs={"reason": "test stop"})
    try:
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            rid = client.next_rid()
            client.send(protocol.Eval(rid, DIGEST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N), 10.0))
            assert wait_until(lambda: evaluator.evaluating, timeout=5.0)
            stopper.start()
            reply = client.recv()
            assert isinstance(reply, protocol.EvalResult) and reply.rid == rid
            report = client.recv()
            assert isinstance(report, protocol.ExitReport)
            assert (report.reason, report.requests_served) == ("test stop", 1)
            with pytest.raises(ConnectionError):
                client.recv()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
    finally:
        server.shutdown()


def test_one_thread_serves_every_connection():
    before = set(threading.enumerate())

    def new_threads():  # threads that end meanwhile do not count, so earlier tests cannot interfere
        return [t for t in threading.enumerate() if t not in before]

    small = generate_instance(6, 2, 2, seed=9)
    server = WorkerServer("127.0.0.1", 0, lanes=1)
    try:
        server.start()
        assert len(new_threads()) == 1
        clients = [WireClient(server.address) for _ in range(5)]
        try:
            for client in clients:
                assert isinstance(client.hello(), protocol.Hello)
                client.set_problem(INST)
            rids = [client.next_rid() for client in clients]
            for client, rid in zip(clients, rids):
                client.send(protocol.Eval(rid, DIGEST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N), 60.0))
            for client, rid in zip(clients, rids):
                reply = client.recv()
                assert isinstance(reply, protocol.EvalResult) and reply.rid == rid
            for client in clients:
                digest = client.set_problem(small)
                reply = client.eval(digest, initial_order(small), empty_tabu(), 0, 0, 30, 0.05)
                assert isinstance(reply, protocol.EvalResult) and reply.moves_evaluated > 0
            assert len(new_threads()) == 1
        finally:
            for client in clients:
                client.close()
        assert server.requests_served == 10
    finally:
        server.shutdown()
    assert new_threads() == []

    # serve_forever serves on the calling thread: the only new thread is the test's own
    server = WorkerServer("127.0.0.1", 0, lanes=1)
    loop = threading.Thread(target=server.serve_forever)
    loop.start()
    try:
        with WireClient(server.address) as first, WireClient(server.address) as second:
            first.hello()
            second.hello()
            assert new_threads() == [loop]
    finally:
        server.shutdown()
        loop.join(timeout=5.0)
    assert not loop.is_alive()


def test_finished_connections_are_pruned(server):
    for _ in range(50):
        with WireClient(server.address) as client:
            assert isinstance(client.hello(), protocol.Hello)
    # a closed connection leaves no state behind
    assert wait_until(lambda: not server._conns, timeout=5.0)


# copied from ``_EVAL_LINE`` in perfbench/nodes.py, which reads a traced node's busy time from this line
EVAL_LINE = re.compile(r"EVAL \[\d+,\d+\) moves=(\d+) complete=\w+ ([0-9.]+)s")


def test_request_logging(server, caplog):
    with caplog.at_level("INFO", logger="hfstabu.worker"):
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
        # the worker logs the EVAL line after it has sent the reply
        assert wait_until(lambda: any(rec.message.startswith("EVAL") for rec in caplog.records))
    line = next(rec.message for rec in caplog.records if rec.message.startswith("EVAL"))
    match = EVAL_LINE.fullmatch(line)
    assert match, f"{line!r} does not match perfbench's pattern"
    assert int(match.group(1)) == N and float(match.group(2)) >= 0


def test_reply_is_sent_before_the_log_line(caplog):
    ours, theirs = socket.socketpair()
    ours.settimeout(30.0)
    peek = ours.dup()
    peek.setblocking(False)  # a recv on ``ours`` would wait out its timeout for data
    reader = ours.makefile("rb")
    peeked, logged = [], threading.Event()

    class Peek(logging.Handler):
        def emit(self, record):
            if record.getMessage().startswith("EVAL"):
                try:
                    peeked.append(peek.recv(1 << 16, socket.MSG_PEEK | socket.MSG_DONTWAIT))
                except BlockingIOError:
                    peeked.append(b"")
                logged.set()

    handler = Peek()
    worker_log = logging.getLogger("hfstabu.worker")
    server = WorkerServer(lanes=1, conn=theirs)
    with caplog.at_level("INFO", logger="hfstabu.worker"):
        worker_log.addHandler(handler)
        server.start()
        try:
            ours.sendall(protocol.encode(protocol.Hello(1, protocol.PROTOCOL_VERSION, 0)))
            assert isinstance(protocol.decode(reader.readline()), protocol.Hello)
            ours.sendall(protocol.encode(protocol.SetProblem(2, INST)))
            ours.sendall(protocol.encode(protocol.Eval(3, DIGEST, ORDER, empty_tabu(), 10**6,
                                                       NeighborhoodSlice(0, N), 60.0)))
            assert logged.wait(30.0)  # the reply is read only after the log line was written
            reply = protocol.decode(reader.readline())
        finally:
            worker_log.removeHandler(handler)
            for sock in (reader, peek, ours):
                sock.close()
            server.shutdown()
    assert isinstance(reply, protocol.EvalResult)
    assert len(peeked) == 1 and peeked[0], "the EVAL line was written before the reply was sent"
    assert protocol.decode(peeked[0]) == reply


def test_multi_lane_worker_matches_single_lane():
    with WorkerServer("127.0.0.1", 0, lanes=3) as server:
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 120.0)
            local = evaluate_slice(INST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
            assert (reply.best_index, reply.best_makespan) == (local.best_index, local.best_makespan)
            assert reply.complete


def test_a_lane_worker_reports_its_configured_lanes_before_any_fork():
    # a --lanes 3 worker's HELLO reports its 3 lanes before an EVAL has forked one, and a super
    # server over it and a --lanes 1 worker reports the sum
    known = set(multiprocessing.active_children())
    with WorkerServer("127.0.0.1", 0, lanes=3) as three, WorkerServer("127.0.0.1", 0, lanes=1) as one:
        with WireClient(three.address) as client:
            assert client.hello().lanes == 3
        with serve_as_super_server("127.0.0.1", 0, [three.address, one.address]) as sup:
            with WireClient(sup.address) as client:
                assert client.hello().lanes == 4
        assert not set(multiprocessing.active_children()) - known  # no lane was forked


def test_worker_recovers_from_killed_lane():
    local = evaluate_slice(INST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
    want = (local.best_index, local.best_makespan, N)
    known = set(multiprocessing.active_children())
    evaluator = LaneEvaluator(lanes=2)
    ctx = EvalContext(INST, ORDER, empty_tabu(), 10**6)
    with WorkerServer("127.0.0.1", 0, evaluator=evaluator) as server:
        result, _ = evaluator.evaluate_blocks(ctx, NeighborhoodSlice(0, N), time.monotonic() + 60.0)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        kill_lane_child(known)
        result, frontier = evaluator.evaluate_blocks(ctx, NeighborhoodSlice(0, N), time.monotonic() + 60.0)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        assert frontier == N
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            for kill_after in (True, False):
                reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
                assert isinstance(reply, protocol.EvalResult)
                assert (reply.best_index, reply.best_makespan, reply.moves_evaluated) == want
                if kill_after:
                    # the replacement pool has served a round; it is replaced again
                    kill_lane_child(known)


def test_problem_cache_eviction(server):
    with WireClient(server.address) as client:
        client.hello()
        digests = [client.set_problem(generate_instance(4, 2, 2, seed=seed))
                   for seed in range(protocol.MAX_CACHED_PROBLEMS + 1)]
        reply = client.eval(digests[0], (0, 1, 2, 3), empty_tabu(), 10**6, 0, 12, 60.0)
        assert isinstance(reply, protocol.Error) and "unknown problem" in reply.message  # oldest evicted
        for digest in digests[1:]:
            reply = client.eval(digest, (0, 1, 2, 3), empty_tabu(), 10**6, 0, 12, 60.0)
            assert isinstance(reply, protocol.EvalResult) and reply.complete


def test_another_clients_problems_evict_none_of_a_coordinators(monkeypatch):
    # coordinator A's problem is kept on A's connection while coordinator B sends the same
    # worker MAX_CACHED_PROBLEMS others, so A evaluates it again on that connection without
    # sending it again: no "unknown problem", strike or reopen
    a = generate_instance(8, 3, 3, seed=200)
    others = [generate_instance(8, 3, 3, seed=201 + k) for k in range(protocol.MAX_CACHED_PROBLEMS)]
    opens = record_opens(monkeypatch)
    sends = record_sends(monkeypatch)

    def check(coordinator, inst):
        order = initial_order(inst)
        incumbent = evaluate_makespan(inst, order)
        got = coordinator.evaluate(EvalContext(inst, order, empty_tabu(), incumbent))
        want = scan_slice(inst, order, (), incumbent, 0, N)
        assert (got.best_index, got.best_makespan, got.moves_evaluated) == want

    with WorkerServer("127.0.0.1", 0, lanes=1) as server, \
            Coordinator([server.address]) as first, Coordinator([server.address]) as second:
        check(first, a)
        first_opens, first_sends = opens[:], sends[:]
        for inst in others:
            check(second, inst)
        assert opens[len(first_opens):] == [0]  # the second coordinator's one connection
        del opens[:], sends[:]
        check(first, a)
        assert first_opens + opens == [0]
        assert [msg_type for _, msg_type in first_sends + sends] == ["HELLO", "SET_PROBLEM", "EVAL", "EVAL"]
        assert (first.proxies[0].strikes, first.redistribution_rounds) == (0, 0)
