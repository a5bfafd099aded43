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

import logging
import socket
import threading
import time
from dataclasses import dataclass

from . import protocol
from .instance import ProblemInstance, instance_digest
from .neighborhood import NeighborhoodSlice, neighborhood_size
from .parallel import LaneEvaluator
from .protocol import PROTOCOL_VERSION
from .schedule import evaluate_makespan
from .tabu import EvalContext, TabuList, initial_order, scan_slice

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalOutcome:
    """Backend-level result of one EVAL request."""

    best_index: int | None
    best_makespan: int | None
    moves_evaluated: int
    elapsed: float
    speed: float
    complete: bool
    remaining: NeighborhoodSlice | None


class LocalBackend:
    """Evaluation backend running on this host's lanes.

    Problems are cached by digest with their lane pools; the cache keeps
    the most recently used few so long bench runs over many instances
    do not accumulate idle pools.
    """

    MAX_CACHED_PROBLEMS = 4

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

    def evaluate(self, digest, order, tabu: TabuList, incumbent, nslice, deadline, progress=None) -> EvalOutcome:
        with self._lock:
            inst, evaluator = self._problems[digest]
        ctx = EvalContext(inst, order, tabu, incumbent)
        t0 = time.perf_counter()
        abs_deadline = time.monotonic() + deadline
        result, frontier = evaluator.evaluate_blocks(ctx, nslice, abs_deadline, self.per_move_delay, progress)
        elapsed = time.perf_counter() - t0
        complete = frontier >= nslice.end
        speed = result.moves_evaluated / elapsed if elapsed > 0 else 0.0
        return EvalOutcome(
            result.best_index,
            result.best_makespan,
            result.moves_evaluated,
            elapsed,
            speed,
            complete,
            None if complete else NeighborhoodSlice(frontier, nslice.end),
        )

    def calibrate(self, inst: ProblemInstance, budget: float) -> float:
        """Measure this host's evaluation speed in moves/second.

        Scans neighborhood moves of the given instance, wrapping around
        as needed, until the budget elapses. At least one move is always
        evaluated, so the returned speed is positive.
        """
        if budget <= 0:
            raise ValueError(f"calibration budget must be > 0, got {budget}")
        total = neighborhood_size(inst.num_jobs)
        if total == 0:
            raise ValueError("calibration instance needs at least 2 jobs")
        digest = self.set_problem(inst)
        with self._lock:
            _, evaluator = self._problems[digest]
        order = initial_order(inst)
        incumbent = evaluate_makespan(inst, order)
        ctx = EvalContext(inst, order, TabuList(), incumbent)

        t0 = time.perf_counter()
        deadline = time.monotonic() + budget
        _, _, moves = scan_slice(inst, order, (), incumbent, 0, 1, None, self.per_move_delay)
        while time.monotonic() < deadline:
            result, _ = evaluator.evaluate_blocks(ctx, NeighborhoodSlice(0, total), deadline,
                                                  self.per_move_delay)
            moves += result.moves_evaluated
        elapsed = time.perf_counter() - t0
        return moves / elapsed if elapsed > 0 else float(moves)

    def close(self):
        with self._lock:
            problems = list(self._problems.values())
            self._problems.clear()
        for _, evaluator in problems:
            evaluator.close()


class WorkerServer:
    """TCP daemon speaking the line-JSON protocol.

    ``progress_updates`` > 0 makes EVAL handling emit that many PROGRESS
    frames per request (at evenly spaced completion fractions).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, lanes: int | None = None,
                 per_move_delay: float = 0.0, progress_updates: int = 0, backend=None):
        self._backend = backend if backend is not None else LocalBackend(lanes, per_move_delay)
        self.progress_updates = progress_updates
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
            progress = self._progress_emitter(msg.rid, send)
            with self._eval_lock:
                try:
                    outcome = self._backend.evaluate(msg.digest, msg.order, msg.tabu, msg.incumbent,
                                                     msg.nslice, msg.deadline, progress)
                except Exception as exc:
                    send(protocol.Error(msg.rid, f"evaluation failed: {exc}"))
                    return True
            with self._stats_lock:
                self.requests_served += 1
                self.moves_evaluated += outcome.moves_evaluated
            log.info("EVAL [%d,%d) moves=%d complete=%s %.3fs",
                     msg.nslice.begin, msg.nslice.end, outcome.moves_evaluated,
                     outcome.complete, outcome.elapsed)
            send(protocol.EvalResult(msg.rid, outcome.best_index, outcome.best_makespan,
                                     outcome.moves_evaluated, outcome.elapsed, outcome.speed,
                                     outcome.complete, outcome.remaining))
            return True

        send(protocol.Error(getattr(msg, "rid", 0) or 0, f"unexpected message type {msg.TYPE}"))
        return True

    def _progress_emitter(self, rid, send):
        if self.progress_updates < 1:
            return None
        steps = self.progress_updates
        sent = [0]

        def emit(fraction):
            while sent[0] < steps and fraction >= (sent[0] + 1) / steps:
                sent[0] += 1
                send(protocol.Progress(rid, sent[0] / steps))

        return emit


def serve(host: str, port: int, lanes: int | None = None, on_start=None, **kwargs):
    """Blocking convenience wrapper: construct a WorkerServer and serve forever.

    ``on_start`` receives the server once it is listening (useful for
    embedders that need the bound address or a shutdown handle).
    """
    server = WorkerServer(host, port, lanes, **kwargs)
    server.start()
    if on_start is not None:
        on_start(server)
    try:
        server.serve_forever()
    finally:
        server.shutdown()
    return server
