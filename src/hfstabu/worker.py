"""Worker daemon: remote neighborhood evaluation behind the wire protocol.

The daemon wraps the multi-lane evaluator so that a remote client sees a
single fast server, whatever the local lane count. Evaluation requests
carry a compute deadline; when it elapses the worker stops at a move
boundary and returns the best move over the evaluated prefix together
with the untouched remaining range. One evaluation runs at a time per
daemon; connection handling stays responsive while it runs, and on
graceful shutdown every open connection receives an EXIT_REPORT before
the socket closes.

``per_move_delay`` injects an artificial pause into every move
evaluation. It exists for benchmarks and tests that need a worker with
a predictable, reduced speed.
"""

from __future__ import annotations

import bisect
import logging
import socket
import threading
import time

from . import protocol
from .instance import ProblemInstance, instance_digest
from .neighborhood import NeighborhoodSlice, neighborhood_size
from .parallel import LaneEvaluator
from .protocol import PROTOCOL_VERSION
from .schedule import evaluate_makespan
from .tabu import EvalContext, SliceResult, TabuList, initial_order, scan_slice

log = logging.getLogger(__name__)


class LocalBackend:
    """Evaluation backend running on this host's lanes.

    Problems are cached by digest with their lane pools; the cache keeps
    the most recently used few so long bench runs over many instances
    do not accumulate idle pools.
    """

    MAX_CACHED_PROBLEMS = 4
    # calibration answers once this much time has passed and CALIBRATION_ROUNDS
    # full rounds agree within CALIBRATION_SPREAD (slowest over fastest)
    CALIBRATION_MIN_S = 0.2
    CALIBRATION_ROUNDS = 3
    CALIBRATION_SPREAD = 1.10

    def __init__(self, lanes: int | None = None, per_move_delay: float = 0.0):
        self._lanes = lanes
        self.per_move_delay = per_move_delay
        self._problems: dict[str, tuple[ProblemInstance, LaneEvaluator]] = {}
        self._lock = threading.Lock()

    @property
    def lanes(self) -> int:
        if self._lanes is not None:
            return self._lanes
        from .parallel import detected_lane_count

        return detected_lane_count()

    def set_problem(self, inst: ProblemInstance) -> str:
        digest = instance_digest(inst)
        evicted = None
        with self._lock:
            if digest in self._problems:
                self._problems[digest] = self._problems.pop(digest)  # refresh LRU position
            else:
                self._problems[digest] = (inst, LaneEvaluator(inst, self.lanes))
                if len(self._problems) > self.MAX_CACHED_PROBLEMS:
                    evicted = self._problems.pop(next(iter(self._problems)))
        if evicted is not None:
            evicted[1].close()
        return digest

    def has_problem(self, digest: str) -> bool:
        with self._lock:
            return digest in self._problems

    def evaluate(self, digest, order, tabu: TabuList, incumbent, nslice, deadline) -> tuple[SliceResult, int]:
        """Evaluate as much of ``nslice`` as ``deadline`` seconds allow: (result, prefix end)."""
        with self._lock:
            inst, evaluator = self._problems[digest]
        return evaluator.evaluate_blocks(EvalContext(inst, order, tabu, incumbent), nslice,
                                         time.monotonic() + deadline, self.per_move_delay)

    def calibrate(self, inst: ProblemInstance, budget: float) -> float:
        """Measure this host's evaluation speed in moves/second.

        Scans the full neighborhood of the instance's initial order round
        after round. Once ``CALIBRATION_MIN_S`` has passed and any
        ``CALIBRATION_ROUNDS`` full rounds agree (max/min speed at most
        ``CALIBRATION_SPREAD``), it answers with their speed. ``budget``
        is the cap: when it elapses first, the answer is the speed over
        everything scanned so far. At least one move is always evaluated,
        so the returned speed is positive. The instance is scanned on a
        temporary evaluator unless it is already cached, so calibration
        leaves the problem cache as it found it.
        """
        if budget <= 0:
            raise ValueError(f"calibration budget must be > 0, got {budget}")
        total = neighborhood_size(inst.num_jobs)
        if total == 0:
            raise ValueError("calibration instance needs at least 2 jobs")
        with self._lock:
            cached = self._problems.get(instance_digest(inst))
        evaluator = cached[1] if cached is not None else LaneEvaluator(inst, self.lanes)
        try:
            return self._measure(evaluator, inst, total, budget)
        finally:
            if cached is None:
                evaluator.close()

    def _measure(self, evaluator: LaneEvaluator, inst: ProblemInstance, total: int, budget: float) -> float:
        order = initial_order(inst)
        incumbent = evaluate_makespan(inst, order)
        ctx = EvalContext(inst, order, TabuList(), incumbent)
        whole = NeighborhoodSlice(0, total)

        t0 = time.monotonic()
        deadline = t0 + budget
        _, _, moves = scan_slice(inst, order, (), incumbent, 0, 1, None, self.per_move_delay)
        rounds: list[float] = []  # seconds per full round, sorted
        k = self.CALIBRATION_ROUNDS
        while time.monotonic() < deadline:
            result, _ = evaluator.evaluate_blocks(ctx, whole, deadline, self.per_move_delay)
            moves += result.moves_evaluated
            if result.moves_evaluated < total:
                continue  # cut by the budget
            bisect.insort(rounds, result.elapsed)
            if time.monotonic() - t0 < self.CALIBRATION_MIN_S:
                continue
            # any k rounds that agree: a round slowed by other load on the host is outvoted
            for i in range(len(rounds) - k + 1):
                if rounds[i + k - 1] <= self.CALIBRATION_SPREAD * rounds[i]:
                    return total * k / sum(rounds[i:i + k])
        elapsed = time.monotonic() - t0
        return moves / elapsed if elapsed > 0 else float(moves)

    def close(self):
        with self._lock:
            problems = list(self._problems.values())
            self._problems.clear()
        for _, evaluator in problems:
            evaluator.close()


class WorkerServer:
    """TCP daemon speaking the line-JSON protocol."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, lanes: int | None = None,
                 per_move_delay: float = 0.0, backend=None):
        self._backend = backend if backend is not None else LocalBackend(lanes, per_move_delay)
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.25)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._conns: dict[socket.socket, threading.Lock] = {}
        self._conns_lock = threading.Lock()
        self._eval_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.requests_served = 0
        self.moves_evaluated = 0

    @property
    def lanes(self) -> int:
        return self._backend.lanes

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def serve_forever(self):
        if self._accept_thread is None:
            self.start()
        self._stop.wait()

    def shutdown(self, reason: str = "shutdown"):
        """Stop serving; open connections get an EXIT_REPORT first."""
        with self._shutdown_lock:
            if self._stop.is_set():
                return
            with self._conns_lock:
                conns = dict(self._conns)
            report = protocol.ExitReport(reason, self.requests_served, self.moves_evaluated)
            for conn, send_lock in conns.items():
                try:
                    with send_lock:
                        conn.sendall(protocol.encode(report))
                except OSError:
                    pass
            self._stop.set()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for thread in list(self._conn_threads):
            thread.join(timeout=2.0)
        self._backend.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    # -- connection handling -------------------------------------------------

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(target=self._serve_conn, args=(conn, addr), daemon=True)
            # drop finished connections so a long-lived daemon keeps a bounded list
            self._conn_threads = [t for t in self._conn_threads if t.is_alive()]
            self._conn_threads.append(thread)
            thread.start()

    def _serve_conn(self, conn: socket.socket, addr):
        send_lock = threading.Lock()
        with self._conns_lock:
            self._conns[conn] = send_lock

        def send(msg):
            try:
                with send_lock:
                    conn.sendall(protocol.encode(msg))
            except OSError:
                pass

        reader = None
        try:
            reader = conn.makefile("rb")
            while True:
                line = reader.readline()
                if not line or self._stop.is_set():
                    break
                try:
                    msg = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    log.warning("protocol error from %s: %s", addr, exc)
                    break
                if not self._dispatch(msg, send, addr):
                    break
        except OSError:
            pass
        finally:
            with self._conns_lock:
                self._conns.pop(conn, None)
            # shutdown() acts on the fd itself, so the peer sees EOF even while
            # the makefile reader still holds a reference to the socket
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            if reader is not None:
                try:
                    reader.close()
                except OSError:
                    pass
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, msg, send, addr) -> bool:
        """Handle one request; False closes the connection."""
        if isinstance(msg, protocol.Hello):
            if msg.version[0] != PROTOCOL_VERSION[0]:
                send(protocol.Error(msg.rid, f"unsupported protocol version {msg.version[0]}.{msg.version[1]}"))
                return False
            send(protocol.Hello(msg.rid, PROTOCOL_VERSION, self.lanes))
            return True

        if isinstance(msg, protocol.SetProblem):
            try:
                digest = self._backend.set_problem(msg.instance)
            except Exception as exc:
                send(protocol.Error(msg.rid, f"set_problem failed: {exc}"))
                return True
            log.info("SET_PROBLEM %s n=%d m=%d", digest[:12], msg.instance.num_jobs, msg.instance.num_stages)
            return True

        if isinstance(msg, protocol.Calibrate):
            t0 = time.perf_counter()
            with self._eval_lock:
                try:
                    speed = self._backend.calibrate(msg.instance, msg.budget)
                except Exception as exc:
                    send(protocol.Error(msg.rid, f"calibration failed: {exc}"))
                    return True
            with self._stats_lock:
                self.requests_served += 1
            log.info("CALIBRATE budget=%.3fs speed=%.1f moves/s (%.3fs)",
                     msg.budget, speed, time.perf_counter() - t0)
            send(protocol.CalibrateResult(msg.rid, speed))
            return True

        if isinstance(msg, protocol.Eval):
            if not self._backend.has_problem(msg.digest):
                send(protocol.Error(msg.rid, "unknown problem"))
                return True
            with self._eval_lock:
                try:
                    result, frontier = self._backend.evaluate(msg.digest, msg.order, msg.tabu, msg.incumbent,
                                                              msg.nslice, msg.deadline)
                except Exception as exc:
                    send(protocol.Error(msg.rid, f"evaluation failed: {exc}"))
                    return True
            with self._stats_lock:
                self.requests_served += 1
                self.moves_evaluated += result.moves_evaluated
            complete = frontier >= msg.nslice.end
            log.info("EVAL [%d,%d) moves=%d complete=%s %.3fs",
                     msg.nslice.begin, msg.nslice.end, result.moves_evaluated, complete, result.elapsed)
            speed = result.moves_evaluated / result.elapsed if result.elapsed > 0 else 0.0
            send(protocol.EvalResult(msg.rid, result.best_index, result.best_makespan, result.moves_evaluated,
                                     result.elapsed, speed, complete,
                                     None if complete else NeighborhoodSlice(frontier, msg.nslice.end)))
            return True

        send(protocol.Error(getattr(msg, "rid", 0) or 0, f"unexpected message type {msg.TYPE}"))
        return True
