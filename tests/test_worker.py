import logging
import multiprocessing
import random
import socket
import threading
import time

import pytest

from hfstabu import protocol
from hfstabu.instance import generate_instance, instance_digest
from hfstabu.protocol import ProtocolError
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.parallel import LaneEvaluator
from hfstabu.schedule import evaluate_makespan
from hfstabu.tabu import SliceResult, initial_order, scan_slice
from hfstabu.worker import LocalBackend, WorkerServer

from netharness import WireClient, empty_tabu, kill_lane_child, wait_until
from oracles import evaluate_slice

INST = generate_instance(8, 3, 3, seed=42)
DIGEST = instance_digest(INST)
N = neighborhood_size(8)
ORDER = tuple(range(8))


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
        client.send(protocol.Hello(client.next_rid(), (2, 0), 0))
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


def test_zero_deadline_returns_everything_as_remaining(server):
    with WireClient(server.address) as client:
        client.hello()
        client.set_problem(INST)
        reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 0.0)
        assert reply.complete is False
        assert reply.moves_evaluated == 0
        assert (reply.remaining.begin, reply.remaining.end) == (0, N)
        assert reply.best_index is None


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


def test_calibrate_positive_speed(server):
    with WireClient(server.address) as client:
        client.hello()
        reply = client.calibrate(generate_instance(6, 2, 2, seed=9), 0.2)
        assert isinstance(reply, protocol.CalibrateResult)
        assert reply.speed > 0


def test_calibrate_speed_stability():
    # delay-dominated worker: two calibrations land within 25% of each other
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002) as server:
        with WireClient(server.address) as client:
            client.hello()
            inst = generate_instance(6, 2, 2, seed=9)
            a = client.calibrate(inst, 0.3).speed
            b = client.calibrate(inst, 0.3).speed
            assert abs(a - b) / max(a, b) < 0.25


def test_calibrate_takes_one_timed_round():
    # delay-dominated worker: a full round of the 30-move neighborhood takes about 60 ms, and
    # calibration times one timed round, far inside the 3 s budget
    inst = generate_instance(6, 2, 2, seed=9)
    order = initial_order(inst)
    incumbent = evaluate_makespan(inst, order)
    # reference: the whole-round speed over 0.6 s of back-to-back rounds
    moves, t0 = 0, time.monotonic()
    while time.monotonic() < t0 + 0.6:
        moves += scan_slice(inst, order, (), incumbent, 0, neighborhood_size(6), None, 0.002)[2]
    reference = moves / (time.monotonic() - t0)
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002) as server:
        with WireClient(server.address) as client:
            client.hello()
            t0 = time.monotonic()
            speed = client.calibrate(inst, 3.0).speed
            wall = time.monotonic() - t0
    assert wall < 1.0
    assert abs(speed - reference) / reference < 0.25


def test_paced_worker_answers_calibrate_within_one_round():
    # a full round of the 30-move neighborhood takes about 60 ms; one round is the answer
    inst = generate_instance(6, 2, 2, seed=9)
    order = initial_order(inst)
    incumbent = evaluate_makespan(inst, order)
    # reference: the whole-round speed over 0.6 s of back-to-back rounds
    moves, t0 = 0, time.monotonic()
    while time.monotonic() < t0 + 0.6:
        moves += scan_slice(inst, order, (), incumbent, 0, neighborhood_size(6), None, 0.002)[2]
    reference = moves / (time.monotonic() - t0)
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.002) as server:
        with WireClient(server.address) as client:
            client.hello()
            t0 = time.monotonic()
            speed = client.calibrate(inst, 3.0).speed
            wall = time.monotonic() - t0
    assert wall < 0.15
    assert abs(speed - reference) / reference < 0.25


def test_calibration_times_its_round_with_the_lanes_started(monkeypatch):
    inst = generate_instance(6, 2, 2, seed=9)
    known = set(multiprocessing.active_children())
    alive = []  # lane processes alive as each full round starts
    evaluate_blocks = LaneEvaluator.evaluate_blocks

    def spy(self, ctx, nslice, *args):
        if len(nslice) == neighborhood_size(6):
            alive.append(len(set(multiprocessing.active_children()) - known))
        return evaluate_blocks(self, ctx, nslice, *args)

    monkeypatch.setattr("hfstabu.worker.LaneEvaluator.evaluate_blocks", spy)
    backend = LocalBackend(lanes=2)
    try:
        assert backend.calibrate(inst, 3.0) > 0
    finally:
        backend.close()
    assert alive == [2]


def test_calibration_budget_caps_a_round_that_does_not_fit():
    # one round takes about 0.6 s, so no full round fits in the budget
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.02) as server:
        with WireClient(server.address) as client:
            client.hello()
            t0 = time.monotonic()
            speed = client.calibrate(generate_instance(6, 2, 2, seed=9), 0.3).speed
            wall = time.monotonic() - t0
    assert 0.3 <= wall < 0.5
    assert speed > 0


def test_calibration_leaves_problem_cache_alone():
    calibration = generate_instance(6, 2, 2, seed=9)
    known = set(multiprocessing.active_children())
    backend = LocalBackend(lanes=2)
    try:
        backend.set_problem(INST)
        backend.evaluate(DIGEST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N), 60.0)
        lanes = {p.pid for p in multiprocessing.active_children() if p not in known}
        assert len(lanes) == 2
        assert backend.calibrate(calibration, 0.3) > 0
        assert not backend.has_problem(instance_digest(calibration))
        assert backend.has_problem(DIGEST)
        # the temporary evaluator's lanes are gone; the real problem's are untouched
        assert {p.pid for p in multiprocessing.active_children() if p not in known} == lanes
        # calibrating on a cached instance uses its evaluator and keeps it cached
        assert backend.calibrate(INST, 0.3) > 0
        assert backend.has_problem(DIGEST)
        result, frontier = backend.evaluate(DIGEST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N), 60.0)
        assert frontier == N and result.moves_evaluated == N
    finally:
        backend.close()


def test_one_lane_set_serves_every_problem_and_calibration():
    known = set(multiprocessing.active_children())
    backend = LocalBackend(lanes=2)
    try:
        assert backend.calibrate(generate_instance(6, 2, 2, seed=9), 0.3) > 0
        for seed in range(6):
            inst = generate_instance(8, 3, 3, seed=100 + seed)
            digest = backend.set_problem(inst)
            want = evaluate_slice(inst, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
            result, frontier = backend.evaluate(digest, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N), 60.0)
            assert (result.best_index, result.best_makespan, result.moves_evaluated) == (
                want.best_index, want.best_makespan, N)
            assert frontier == N
        assert len([p for p in multiprocessing.active_children() if p not in known]) == 2
    finally:
        backend.close()
    assert not [p for p in multiprocessing.active_children() if p not in known]


def test_calibrate_rejects_zero_budget(server):
    with WireClient(server.address) as client:
        client.hello()
        with pytest.raises(protocol.ProtocolError):
            # the codec itself refuses a non-positive budget
            protocol.decode(protocol.encode(protocol.Calibrate(1, INST, 0.0)))
        # a budget that passes the codec but is rejected by the backend
        backend = LocalBackend(lanes=1)
        with pytest.raises(ValueError):
            backend.calibrate(INST, 0.0)


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


class OverlapBackend:
    """A backend whose evaluation takes 0.3 s and which notes a SET_PROBLEM during one."""

    lanes = 1

    def __init__(self):
        self.evaluating = False
        self.overlapped = False
        self.problems = set()

    def set_problem(self, inst):
        if self.evaluating:
            self.overlapped = True
        self.problems.add(instance_digest(inst))
        return instance_digest(inst)

    def has_problem(self, digest):
        return digest in self.problems

    def evaluate(self, digest, order, tabu, incumbent, nslice, deadline):
        self.evaluating = True
        time.sleep(0.3)
        self.evaluating = False
        return SliceResult(None, None, len(nslice), 0.3), nslice.end

    def close(self):
        pass


def test_set_problem_waits_for_a_running_evaluation():
    backend = OverlapBackend()
    with WorkerServer("127.0.0.1", 0, backend=backend) as server, \
            WireClient(server.address) as first, WireClient(server.address) as second:
        first.hello()
        second.hello()
        first.set_problem(INST)
        first.send(protocol.Eval(first.next_rid(), DIGEST, ORDER, empty_tabu(), 10**6,
                                 NeighborhoodSlice(0, N), 10.0))
        assert wait_until(lambda: backend.evaluating, timeout=5.0)
        other = generate_instance(6, 2, 2, seed=3)
        second.set_problem(other)
        assert isinstance(first.recv(), protocol.EvalResult)
        assert wait_until(lambda: backend.has_problem(instance_digest(other)), timeout=5.0)
        assert not backend.overlapped


def test_shutdown_answers_the_running_request_first():
    backend = OverlapBackend()
    server = WorkerServer("127.0.0.1", 0, backend=backend)
    server.start()
    stopper = threading.Thread(target=server.shutdown, kwargs={"reason": "test stop"})
    try:
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            rid = client.next_rid()
            client.send(protocol.Eval(rid, DIGEST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N), 10.0))
            assert wait_until(lambda: backend.evaluating, timeout=5.0)
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

    calibration = generate_instance(6, 2, 2, seed=9)
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
                assert client.calibrate(calibration, 0.05).speed > 0
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


def test_request_logging(server, caplog):
    with caplog.at_level("INFO", logger="hfstabu.worker"):
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
    assert any("EVAL" in rec.message for rec in caplog.records)


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


def test_worker_recovers_from_killed_lane():
    local = evaluate_slice(INST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
    want = (local.best_index, local.best_makespan, N)
    known = set(multiprocessing.active_children())
    backend = LocalBackend(lanes=2)
    with WorkerServer("127.0.0.1", 0, backend=backend) as server:
        backend.set_problem(INST)
        result, _ = backend.evaluate(DIGEST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N), 60.0)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        kill_lane_child(known)
        result, frontier = backend.evaluate(DIGEST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N), 60.0)
        assert (result.best_index, result.best_makespan, result.moves_evaluated) == want
        assert frontier == N
        with WireClient(server.address) as client:
            client.hello()
            for kill_after in (True, False):
                reply = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
                assert isinstance(reply, protocol.EvalResult)
                assert (reply.best_index, reply.best_makespan, reply.moves_evaluated) == want
                if kill_after:
                    # the replacement pool has served a round; it is replaced again
                    kill_lane_child(known)


def test_problem_cache_eviction():
    backend = LocalBackend(lanes=1)
    digests = []
    for seed in range(LocalBackend.MAX_CACHED_PROBLEMS + 1):
        digests.append(backend.set_problem(generate_instance(4, 2, 2, seed=seed)))
    assert not backend.has_problem(digests[0])  # oldest evicted
    assert all(backend.has_problem(d) for d in digests[1:])
    backend.close()
