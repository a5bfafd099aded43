"""Worker daemon: remote neighborhood evaluation behind the wire protocol.

The daemon wraps the multi-lane evaluator so that a remote client sees a
single fast server, whatever the local lane count: one evaluator for its
whole life, so a ``--lanes N`` worker forks its lanes once. Evaluation
requests carry a compute deadline; when it elapses the worker stops at a
move boundary and returns the best move over the evaluated prefix
together with the untouched remaining range. The first EVAL it serves
is like any other; a ``--lanes N`` worker forks its lanes while serving
it. The server runs one selector loop over the listener and every
connection, and serves one request at a time across all of them, in
arrival order: a HELLO on a new connection is answered once the request
being served is. On graceful shutdown that request is answered first;
then every open connection receives an EXIT_REPORT before the socket
closes.

A problem belongs to the connection that sent it: each connection keeps
the problems of its last ``MAX_CACHED_PROBLEMS`` SET_PROBLEMs and frees
them when it closes, so no client can evict another's, and an EVAL is
answered "unknown problem" only for a digest never sent on its
connection or forgotten after newer ones there.

``per_move_delay`` paces every scan: move k of a scan waits until k + 1
delays after the scan started, so a throttled worker runs at a steady
1/delay moves per second, for benchmarks and tests.

A super server (``serve_as_super_server``) is this server with a
``Coordinator`` over its child nodes as the evaluator, the class that
drives the top-level search: each EVAL is one ``evaluate_blocks`` call,
the reply covers the contiguous prefix of the request, and the rest goes
back upstream as the remaining range. Children may be super servers, so
trees compose. The children get their handshake while the server is
built; its HELLO reports the summed lanes of its live children.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time

from . import protocol
from .coordinator import Coordinator
from .instance import ProblemInstance
from .neighborhood import NeighborhoodSlice, neighborhood_size
from .parallel import LaneEvaluator
from .protocol import PROTOCOL_VERSION
from .tabu import EvalContext

log = logging.getLogger(__name__)


class WorkerServer:
    """TCP daemon speaking the line-JSON protocol, on one selector loop.

    The listener, every connection and a wake-up socket share one
    selector. Requests are served inline, one at a time in arrival order,
    so the evaluator, the connections' problems and the counters are only
    ever touched by the loop. ``evaluator`` is a ``Coordinator``: by
    default a ``LaneEvaluator`` over ``lanes`` lanes, which reports its
    configured lanes and scans inline what its lanes leave, or a super
    server's, which reports the lanes of its live nodes and scans nothing
    itself. ``serve_forever`` runs the loop on the calling thread; ``start``
    runs it on one thread of its own. ``shutdown`` lets the request being
    served finish and be answered; then every open connection gets an
    EXIT_REPORT, and the listener and the evaluator are closed.

    Given ``conn``, a connected socket, the server has no listener and no
    port: it serves that one connection and stops when it closes. That is
    how a ``LaneEvaluator`` lane runs.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, lanes: int | None = None,
                 per_move_delay: float = 0.0, evaluator=None, conn: socket.socket | None = None):
        self._evaluator = evaluator if evaluator is not None else LaneEvaluator(None, lanes, per_move_delay)
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_reader, selectors.EVENT_READ)
        # open connection -> (its read buffer, its problems by digest, oldest first)
        self._conns: dict[socket.socket, tuple[bytearray, dict[str, ProblemInstance]]] = {}
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
        return self._evaluator.lanes

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
        self._conns[conn] = (bytearray(), {})
        self._selector.register(conn, selectors.EVENT_READ, addr)

    def _receive(self, conn: socket.socket, addr):
        buffer, problems = self._conns[conn]
        messages, closed = protocol.read_frames(conn, buffer)
        for msg in messages:
            if self._exit_reason is not None:
                return  # the connection stays open for its EXIT_REPORT
            reply, note = self._handle(msg, problems)
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
        self._evaluator.close()
        self._closed.set()

    def _handle(self, msg, problems: dict[str, ProblemInstance]):
        """Serve one request of a connection that holds ``problems``.

        Returns (the reply to send or None, the INFO line to log once it
        is sent or None).
        """
        if isinstance(msg, protocol.Hello):
            if msg.version[0] != PROTOCOL_VERSION[0]:
                return protocol.Error(msg.rid, f"unsupported protocol version {msg.version[0]}.{msg.version[1]}"), None
            return protocol.Hello(msg.rid, PROTOCOL_VERSION, self.lanes), None

        if isinstance(msg, protocol.SetProblem):
            inst = msg.instance
            problems.pop(inst.digest, None)  # a known problem moves to the newest position
            problems[inst.digest] = inst
            if len(problems) > protocol.MAX_CACHED_PROBLEMS:
                del problems[next(iter(problems))]
            return None, ("SET_PROBLEM %s n=%d m=%d", inst.digest[:12], inst.num_jobs, inst.num_stages)

        if isinstance(msg, protocol.Eval):
            inst = problems.get(msg.digest)
            if inst is None:
                return protocol.Error(msg.rid, "unknown problem"), None
            if len(msg.order) != inst.num_jobs:
                return protocol.Error(msg.rid, f"order has {len(msg.order)} jobs, the problem {inst.num_jobs}"), None
            if msg.nslice.end > neighborhood_size(inst.num_jobs):
                return protocol.Error(msg.rid, f"slice ends at {msg.nslice.end}, "
                                               f"past the problem's {neighborhood_size(inst.num_jobs)} moves"), None
            try:
                result, frontier = self._evaluator.evaluate_blocks(
                    EvalContext(inst, msg.order, msg.tabu, msg.incumbent), msg.nslice, time.monotonic() + msg.deadline)
            except Exception as exc:
                return protocol.Error(msg.rid, f"evaluation failed: {exc}"), None
            if not result.moves_evaluated and not self.lanes:
                return protocol.Error(msg.rid, "no lane left"), None  # a super server whose children are all dead
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


def serve_as_super_server(host: str, port: int, children) -> WorkerServer:
    """Create (unstarted) a worker server over a ``Coordinator`` of ``children``, connected to them."""
    coordinator = Coordinator(children)
    try:
        coordinator.connect_all()  # before the server starts: upstream's HELLO reads the lanes
        return WorkerServer(host, port, evaluator=coordinator)
    except BaseException:
        coordinator.close()
        raise
