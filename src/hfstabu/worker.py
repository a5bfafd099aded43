"""Worker daemon: remote neighborhood evaluation behind the wire protocol.

The daemon wraps the multi-lane evaluator so that a remote client sees a
single fast server, whatever the local lane count: one evaluator for its
whole life, so a ``--lanes N`` worker forks its lanes once. Evaluation
requests carry a compute deadline; when it elapses the worker stops at a
move boundary and returns the best move over the evaluated prefix
together with the untouched remaining range. The server runs one
selector loop over the listener and every connection, and serves one
request at a time across all of them, in arrival order: a HELLO on a new
connection is answered once the request being served is. On graceful
shutdown that request is answered first; then every open connection
receives an EXIT_REPORT before the socket closes.

``per_move_delay`` paces every scan: move k of a scan waits until k + 1
delays after the scan started, so a throttled worker runs at a steady
1/delay moves per second, for benchmarks and tests.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time

from . import protocol
from .instance import ProblemInstance, instance_digest
from .neighborhood import NeighborhoodSlice
from .parallel import LaneEvaluator
from .protocol import PROTOCOL_VERSION
from .tabu import EvalContext, SliceResult, TabuList

log = logging.getLogger(__name__)


class Backend:
    """A worker server's evaluation: the last few problems set, by digest, over one evaluator.

    An EVAL for an evicted problem is answered "unknown problem". Use it
    from one thread at a time: a worker server calls it only from its loop.
    """

    MAX_CACHED_PROBLEMS = 4

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self._problems: dict[str, ProblemInstance] = {}

    def set_problem(self, inst: ProblemInstance) -> str:
        digest = instance_digest(inst)
        self._problems.pop(digest, None)  # a known problem moves to the newest position
        self._problems[digest] = inst
        if len(self._problems) > self.MAX_CACHED_PROBLEMS:
            del self._problems[next(iter(self._problems))]
        return digest

    def has_problem(self, digest: str) -> bool:
        return digest in self._problems

    def evaluate(self, digest, order, tabu: TabuList, incumbent, nslice, deadline) -> tuple[SliceResult, int]:
        """Evaluate as much of ``nslice`` as ``deadline`` seconds allow: (result, prefix end)."""
        return self.evaluator.evaluate_blocks(EvalContext(self._problems[digest], order, tabu, incumbent), nslice,
                                              time.monotonic() + deadline)

    def close(self):
        self.evaluator.close()


class LocalBackend(Backend):
    """Evaluation backend on this host's lanes: one ``LaneEvaluator`` for every problem and calibration."""

    def __init__(self, lanes: int | None = None, per_move_delay: float = 0.0):
        super().__init__(LaneEvaluator(None, lanes, per_move_delay))

    @property
    def lanes(self) -> int:
        return self.evaluator.lanes

    def calibrate(self, inst: ProblemInstance, budget: float) -> float:
        """This host's evaluation speed in moves/second: ``LaneEvaluator.calibrate``."""
        return self.evaluator.calibrate(inst, budget)


class WorkerServer:
    """TCP daemon speaking the line-JSON protocol, on one selector loop.

    The listener, every connection and a wake-up socket share one
    selector. Requests are served inline, one at a time in arrival order,
    so the backend and the counters are only ever touched by the loop.
    ``serve_forever`` runs the loop on the calling thread; ``start`` runs it
    on one thread of its own. ``shutdown`` lets the request being served
    finish and be answered; then every open connection gets an EXIT_REPORT,
    and the listener and the backend are closed.

    Given ``conn``, a connected socket, the server has no listener and no
    port: it serves that one connection and stops when it closes. That is
    how a ``LaneEvaluator`` lane runs.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, lanes: int | None = None,
                 per_move_delay: float = 0.0, backend=None, conn: socket.socket | None = None):
        self._backend = backend if backend is not None else LocalBackend(lanes, per_move_delay)
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_reader, selectors.EVENT_READ)
        self._conns: dict[socket.socket, bytearray] = {}  # open connection -> its read buffer
        self._listener = socket.create_server((host, port)) if conn is None else None
        self.address: tuple[str, int] | None = None
        if conn is not None:
            self._add(conn, "lane")
        else:
            self._listener.setblocking(False)
            self.address = self._listener.getsockname()[:2]
            self._selector.register(self._listener, selectors.EVENT_READ)
        self._thread: threading.Thread | None = None
        self._loop_ident: int | None = None
        self._exit_reason: str | None = None
        self._closed = threading.Event()
        self.requests_served = 0
        self.moves_evaluated = 0

    @property
    def lanes(self) -> int:
        return self._backend.lanes

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        self._thread = threading.Thread(target=self._serve, name="hfstabu-worker", daemon=True)
        self._thread.start()

    def serve_forever(self):
        if self._thread is None:
            self._serve()
        else:
            self._closed.wait()

    def shutdown(self, reason: str = "shutdown"):
        """Ask the loop to stop, and wait for it to close unless called on the loop's thread.

        A signal handler on the loop's thread only asks. A server that
        never started is closed here.
        """
        if self._exit_reason is None:
            self._exit_reason = reason
            try:
                self._wake_writer.send(b"\0")
            except OSError:
                pass  # the loop has closed already
        if self._thread is None and self._loop_ident is None:
            self._close()
        elif self._loop_ident != threading.get_ident():
            self._closed.wait()
            if self._thread is not None:
                self._thread.join()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    # -- the loop ------------------------------------------------------------

    def _serve(self):
        self._loop_ident = threading.get_ident()
        try:
            while self._exit_reason is None:
                for key, _ in self._selector.select():
                    if self._exit_reason is not None:
                        break
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.fileobj is not self._wake_reader:
                        self._receive(key.fileobj, key.data)
        finally:
            self._close()

    def _accept(self):
        try:
            conn, addr = self._listener.accept()
        except OSError:
            return  # the client gave up before it was accepted
        self._add(conn, addr)

    def _add(self, conn: socket.socket, addr):
        self._conns[conn] = bytearray()
        self._selector.register(conn, selectors.EVENT_READ, addr)

    def _receive(self, conn: socket.socket, addr):
        messages, closed = protocol.read_frames(conn, self._conns[conn])
        for msg in messages:
            if self._exit_reason is not None:
                return  # the connection stays open for its EXIT_REPORT
            reply, note = self._handle(msg)
            if reply is not None:
                try:
                    conn.sendall(protocol.encode(reply))
                except OSError:
                    pass  # a lost client is dropped when its EOF is read
            if note is not None:
                log.info(*note)  # after the send: the write to stderr may wake its reader
            if isinstance(msg, protocol.Hello) and isinstance(reply, protocol.Error):
                break  # a refused handshake closes the connection
        else:
            if closed is None:
                return
            if isinstance(closed, protocol.ProtocolError):
                log.warning("protocol error from %s: %s", addr, closed)
        self._drop(conn)

    def _drop(self, conn: socket.socket):
        del self._conns[conn]
        self._selector.unregister(conn)
        conn.close()
        if self._listener is None and self._exit_reason is None:
            self._exit_reason = "connection closed"  # a server without a listener has no one left to serve

    def _close(self):
        if self._closed.is_set():
            return
        reason = self._exit_reason or "worker loop failed"  # None only if the loop raised
        report = protocol.encode(protocol.ExitReport(reason, self.requests_served, self.moves_evaluated))
        for conn in list(self._conns):
            try:
                conn.sendall(report)
            except OSError:
                pass
            self._drop(conn)
        self._selector.close()
        for sock in (self._listener, self._wake_reader, self._wake_writer):
            if sock is not None:
                sock.close()
        self._backend.close()
        self._closed.set()

    def _handle(self, msg):
        """Serve one request: (the reply to send or None, the INFO line to log once it is sent or None)."""
        if isinstance(msg, protocol.Hello):
            if msg.version[0] != PROTOCOL_VERSION[0]:
                return protocol.Error(msg.rid, f"unsupported protocol version {msg.version[0]}.{msg.version[1]}"), None
            return protocol.Hello(msg.rid, PROTOCOL_VERSION, self.lanes), None

        if isinstance(msg, protocol.SetProblem):
            try:
                digest = self._backend.set_problem(msg.instance)
            except Exception as exc:
                return protocol.Error(msg.rid, f"set_problem failed: {exc}"), None
            return None, ("SET_PROBLEM %s n=%d m=%d", digest[:12], msg.instance.num_jobs, msg.instance.num_stages)

        if isinstance(msg, protocol.Calibrate):
            t0 = time.perf_counter()
            try:
                speed = self._backend.calibrate(msg.instance, msg.budget)
            except Exception as exc:
                return protocol.Error(msg.rid, f"calibration failed: {exc}"), None
            self.requests_served += 1
            note = ("CALIBRATE budget=%.3fs speed=%.1f moves/s (%.3fs)", msg.budget, speed, time.perf_counter() - t0)
            return protocol.CalibrateResult(msg.rid, speed), note

        if isinstance(msg, protocol.Eval):
            if not self._backend.has_problem(msg.digest):
                return protocol.Error(msg.rid, "unknown problem"), None
            try:
                result, frontier = self._backend.evaluate(msg.digest, msg.order, msg.tabu, msg.incumbent,
                                                          msg.nslice, msg.deadline)
            except Exception as exc:
                return protocol.Error(msg.rid, f"evaluation failed: {exc}"), None
            self.requests_served += 1
            self.moves_evaluated += result.moves_evaluated
            complete = frontier >= msg.nslice.end
            speed = result.moves_evaluated / result.elapsed if result.elapsed > 0 else 0.0
            reply = protocol.EvalResult(msg.rid, result.best_index, result.best_makespan, result.moves_evaluated,
                                        result.elapsed, speed, complete,
                                        None if complete else NeighborhoodSlice(frontier, msg.nslice.end))
            return reply, ("EVAL [%d,%d) moves=%d complete=%s %.3fs",
                           msg.nslice.begin, msg.nslice.end, result.moves_evaluated, complete, result.elapsed)

        return protocol.Error(getattr(msg, "rid", 0) or 0, f"unexpected message type {msg.TYPE}"), None
