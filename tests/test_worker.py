import random
import time

import pytest

from hfstabu import protocol
from hfstabu.instance import generate_instance, instance_digest
from hfstabu.protocol import ProtocolError
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.tabu import evaluate_slice
from hfstabu.worker import LocalBackend, WorkerServer

from netharness import WireClient, empty_tabu

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
        reply, _ = client.eval("0" * 64, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
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
            reply, _ = client.eval(DIGEST, order, empty_tabu(), incumbent, begin, end, 60.0)
            assert isinstance(reply, protocol.EvalResult)
            local = evaluate_slice(INST, order, empty_tabu(), incumbent, NeighborhoodSlice(begin, end))
            assert (reply.best_index, reply.best_makespan) == (local.best_index, local.best_makespan)
            assert reply.complete and reply.remaining is None
            assert reply.moves_evaluated == end - begin


def test_generous_deadline_completes(server):
    with WireClient(server.address) as client:
        client.hello()
        client.set_problem(INST)
        reply, _ = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 120.0)
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
        reply, _ = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 0.0)
        assert reply.complete is False
        assert reply.moves_evaluated == 0
        assert (reply.remaining.begin, reply.remaining.end) == (0, N)
        assert reply.best_index is None


def test_deadline_prefix_soundness_and_equivalence():
    with WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.003) as server:
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            reply, _ = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 0.05)
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
            reply, _ = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, deadline)
            wall = time.monotonic() - t0
            assert reply.complete is False
            # deadline + one move's evaluation time + protocol latency
            assert wall < deadline + 0.15


def test_progress_frames_emitted():
    with WorkerServer("127.0.0.1", 0, lanes=1, progress_updates=4) as server:
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            reply, progress = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
            assert reply.complete
            fractions = [p.fraction for p in progress]
            assert fractions == sorted(fractions)
            assert fractions and fractions[-1] == pytest.approx(1.0)


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
        reply, _ = good.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, 10, 60.0)
        assert isinstance(reply, protocol.EvalResult)
    finally:
        bad.close()
        good.close()


def test_finished_connections_are_pruned(server):
    for _ in range(50):
        with WireClient(server.address) as client:
            assert isinstance(client.hello(), protocol.Hello)
    # each accept drops the threads of connections that have closed
    assert len(server._conn_threads) <= 10


def test_request_logging(server, caplog):
    with caplog.at_level("INFO", logger="hfstabu.worker"):
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 60.0)
    assert any("EVAL" in rec.message for rec in caplog.records)


def test_multi_lane_worker_matches_single_lane():
    with WorkerServer("127.0.0.1", 0, lanes=3) as server:
        with WireClient(server.address) as client:
            client.hello()
            client.set_problem(INST)
            reply, _ = client.eval(DIGEST, ORDER, empty_tabu(), 10**6, 0, N, 120.0)
            local = evaluate_slice(INST, ORDER, empty_tabu(), 10**6, NeighborhoodSlice(0, N))
            assert (reply.best_index, reply.best_makespan) == (local.best_index, local.best_makespan)
            assert reply.complete


def test_problem_cache_eviction():
    backend = LocalBackend(lanes=1)
    digests = []
    for seed in range(LocalBackend.MAX_CACHED_PROBLEMS + 1):
        digests.append(backend.set_problem(generate_instance(4, 2, 2, seed=seed)))
    assert not backend.has_problem(digests[0])  # oldest evicted
    assert all(backend.has_problem(d) for d in digests[1:])
    backend.close()


def test_blocking_serve_wrapper():
    import threading

    from hfstabu.worker import serve

    started = threading.Event()
    box = {}

    def capture(server):
        box["server"] = server
        started.set()

    thread = threading.Thread(target=serve, args=("127.0.0.1", 0, 1),
                              kwargs={"on_start": capture}, daemon=True)
    thread.start()
    assert started.wait(timeout=5)
    server = box["server"]
    with WireClient(server.address) as client:
        assert client.hello().lanes == 1
    server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive()
