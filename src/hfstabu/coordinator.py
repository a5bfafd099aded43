"""Load-balancing coordinator for distributed neighborhood evaluation.

The coordinator owns the search state and drives a set of remote
workers. A run starts with a time-boxed calibration round that measures
every node's speed on a generated mid-complexity instance; a node
answers once its speed settles, at the latest when the budget elapses.
Those measurements seed a per-node performance history. Each iteration
then splits the neighborhood proportionally to the predicted node
speeds, dispatches one EVAL per node with a deadline derived from the
prediction, and waits for the replies.

The pool talks to nodes one way, on the thread that uses it. ``_connect``
is the only place a connection is opened; calibration and evaluation
pick their nodes with the same ``_ready_nodes``, so a suspect node gets
its reconnect before CALIBRATE as before EVAL. ``_collect`` reads every
node socket through one selector: it resolves each outstanding request
as a reply or a failure (lost connection, ERROR, EXIT_REPORT, timeout,
budget cut) and reports replies to requests no longer outstanding as
late. Each kind of request keeps its own failure policy on top of it:

* CALIBRATE: any failure, or a zero speed, marks the node dead.
* EVAL: the slice goes back into the queue. EXIT_REPORT marks the node
  dead, a budget cut marks it suspect (its reply may still be in
  flight), and any other failure or an inconsistent result is a strike:
  a node with one strike is suspect and gets one reconnect attempt, a
  second strike marks it dead for the run. A late result is discarded,
  but its speed measurement is still recorded.

Failed and incomplete slices are fed into extra dispatch rounds over the
remaining live nodes until the slice is covered, no node is ready, the
rounds stop making progress, or the caller's budget runs out. The
accepted intervals go through the shared prefix reducer
(``tabu.merge_prefix``); they must tile the neighborhood from 0 to its
end, and the chosen move is the argmin by (makespan, move index) over
them, so any topology and any failure schedule that leaves one live node
produces exactly the single-machine result.
"""

from __future__ import annotations

import logging
import math
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass

from . import protocol
from .instance import ProblemInstance, generate_instance, instance_digest
from .neighborhood import NeighborhoodSlice, neighborhood_size
from .protocol import PROTOCOL_VERSION
from .tabu import EvalContext, SearchParams, SearchResult, SliceResult, merge_prefix, run_search

log = logging.getLogger(__name__)

IDLE = "idle"
BUSY = "busy"
SUSPECT = "suspect"
DEAD = "dead"

# how DispatchPool._collect reports a request that got no reply
LOST = "connection lost"
ERROR = "remote error"
EXIT = "exited"
TIMEOUT = "timed out"
CUT = "budget cut"

_READ_SIZE = 65536


class PlanningError(RuntimeError):
    """No live node with a positive predicted speed."""


class CalibrationError(RuntimeError):
    """No node survived the calibration round."""


class CoverageError(RuntimeError):
    """The neighborhood could not be fully covered."""


class NodePerfHistory:
    """Per-node (moves completed, speed) measurements, kept as running totals.

    It holds the number of measurements, their summed moves and their
    summed moves * speed, added in record order. So its size is constant
    however long the run, ``predict`` costs the same after any number of
    records, and its value is the left-to-right weighted sum over every
    measurement.
    """

    def __init__(self, entries=()):
        self.count = 0
        self.moves = 0
        self.weighted = 0
        for moves, speed in entries:
            self.record(moves, speed)

    def record(self, moves: int, speed: float):
        if moves <= 0 or speed <= 0:
            raise ValueError(f"history entries need moves > 0 and speed > 0, got ({moves}, {speed})")
        self.count += 1
        self.moves += moves
        self.weighted += moves * speed


def predict(history: NodePerfHistory) -> float:
    """Weighted average speed; each measurement is weighted by its move count."""
    if not history.count:
        raise ValueError("empty performance history; calibrate first")
    return history.weighted / history.moves


def plan_partition(speeds, total: int, begin: int = 0) -> list[NeighborhoodSlice]:
    """Split ``total`` moves proportionally to speeds, largest-remainder rounding.

    Returns contiguous slices in input order starting at ``begin``;
    their sizes sum to ``total`` exactly.
    """
    speeds = list(speeds)
    if not speeds:
        raise PlanningError("no nodes to plan over")
    if any(s <= 0 for s in speeds):
        raise ValueError(f"speeds must be positive, got {speeds}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    overall = sum(speeds)
    quotas = [s / overall * total for s in speeds]
    sizes = [int(q) for q in quotas]
    shortfall = total - sum(sizes)
    by_remainder = sorted(range(len(speeds)), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in by_remainder[:shortfall]:
        sizes[i] += 1
    slices = []
    cursor = begin
    for size in sizes:
        slices.append(NeighborhoodSlice(cursor, cursor + size))
        cursor += size
    return slices


@dataclass
class CoordinatorConfig:
    calibration_budget: float = 2.0
    calibration_jobs: int = 30
    calibration_stages: int = 5
    calibration_machines: int = 5
    deadline_slack: float = 2.0        # per-node deadline = predicted duration * slack + floor
    deadline_floor: float = 0.25
    response_grace: float = 1.0        # extra wall time allowed beyond the worker's deadline
    connect_timeout: float = 5.0
    calibration_grace: float = 10.0


class NodeProxy:
    """One remote node: its current connection and at most one abandoned one.

    Each socket is registered on the pool's selector, with its read buffer,
    from its handshake until ``close_socket``; ``DispatchPool._collect`` reads them.
    """

    def __init__(self, node_id: int, address: tuple[str, int], selector: selectors.BaseSelector,
                 config: CoordinatorConfig):
        self.node_id = node_id
        self.address = address
        self._selector = selector
        self._config = config
        self.state = IDLE
        self.strikes = 0
        self.lanes = 0
        self._sock: socket.socket | None = None
        self._drained: list[socket.socket] = []
        self._rid = node_id * 1_000_000  # disjoint rid ranges ease log reading

    def next_rid(self) -> int:
        self._rid += 1
        return self._rid

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self):
        """Open a fresh connection and perform the HELLO handshake.

        The previous connection is abandoned, not closed: a reply that is
        still in flight on it can then be drained and its speed sample
        recorded, even though its slice has already been re-dispatched.
        Only that newest abandoned connection is kept; older ones are
        closed here, so reconnecting a node over and over holds at most
        two of its connections open. Bytes that follow the HELLO reply
        stay in the new socket's read buffer.
        """
        for old in self._drained[:]:  # close_socket forgets each one
            self.close_socket(old)
        self._drained = [self._sock] if self._sock is not None else []
        self._sock = None
        sock = socket.create_connection(self.address, timeout=self._config.connect_timeout)
        try:
            rid = self.next_rid()
            sock.sendall(protocol.encode(protocol.Hello(rid, PROTOCOL_VERSION, 0)))
            buffer = b""
            while b"\n" not in buffer:
                chunk = sock.recv(_READ_SIZE)
                if not chunk:
                    raise ConnectionError("connection closed during handshake")
                buffer += chunk
            line, _, rest = buffer.partition(b"\n")
            reply = protocol.decode(line)
            if isinstance(reply, protocol.Error):
                raise ConnectionError(f"handshake refused: {reply.message}")
            if not isinstance(reply, protocol.Hello):
                raise ConnectionError(f"unexpected handshake reply {reply.TYPE}")
            if reply.version[0] != PROTOCOL_VERSION[0]:
                raise ConnectionError(f"protocol version mismatch: {reply.version}")
            self.lanes = reply.lanes
        except (OSError, protocol.ProtocolError, ConnectionError):
            sock.close()
            raise
        sock.settimeout(None)
        self._selector.register(sock, selectors.EVENT_READ, (self, bytearray(rest)))
        self._sock = sock

    def send(self, msg):
        if self._sock is None:
            raise ConnectionError(f"node {self.node_id} is not connected")
        self._sock.sendall(protocol.encode(msg))

    def close_socket(self, sock: socket.socket):
        """Unregister ``sock`` from the selector, then close it and forget it."""
        if sock is self._sock:
            self._sock = None
        elif sock in self._drained:
            self._drained.remove(sock)
        self._selector.unregister(sock)
        sock.close()

    def disconnect(self):
        for sock in (*self._drained, self._sock):
            if sock is not None:
                self.close_socket(sock)


class DispatchPool:
    """Connection pool plus the dispatch/collect/redistribute machinery.

    Use it from one thread at a time: it starts no thread, and reads every
    node socket on the caller's thread through its one selector.
    """

    def __init__(self, addresses, config: CoordinatorConfig | None = None):
        self.config = config or CoordinatorConfig()
        self._selector = selectors.DefaultSelector()
        self.proxies = [NodeProxy(i, addr, self._selector, self.config) for i, addr in enumerate(addresses)]
        self.histories = {p.node_id: NodePerfHistory() for p in self.proxies}
        self.node_moves = {p.node_id: 0 for p in self.proxies}
        self.node_elapsed = {p.node_id: 0.0 for p in self.proxies}
        self.late_results = 0
        self.redistribution_rounds = 0
        self._problem: tuple[ProblemInstance, str] | None = None

    # -- connection management ----------------------------------------------

    def _connect(self, proxy: NodeProxy) -> bool:
        """(Re)connect a node and resend the current problem; an unreachable node is dead."""
        try:
            proxy.connect()
            proxy.state = IDLE
            if self._problem is not None:
                proxy.send(protocol.SetProblem(proxy.next_rid(), self._problem[0]))
            return True
        except (OSError, ConnectionError, protocol.ProtocolError) as exc:
            log.warning("node %d (%s) unreachable: %s", proxy.node_id, proxy.address, exc)
            proxy.state = DEAD
            return False

    def connect_all(self):
        for proxy in self.proxies:
            self._connect(proxy)

    def close(self):
        for proxy in self.proxies:
            proxy.disconnect()
        self._selector.close()

    def live_nodes(self) -> list[NodeProxy]:
        return [p for p in self.proxies if p.state != DEAD]

    def _strike(self, proxy: NodeProxy, reason: str):
        proxy.strikes += 1
        proxy.state = DEAD if proxy.strikes >= 2 else SUSPECT
        log.warning("node %d %s (strike %d -> %s)", proxy.node_id, reason, proxy.strikes, proxy.state)

    def _ready_nodes(self, candidates) -> list[NodeProxy]:
        """The live, idle candidates with a usable connection; a suspect gets one reconnect."""
        return [p for p in candidates if p.state not in (DEAD, BUSY)
                and ((p.connected and p.state != SUSPECT) or self._connect(p))]

    # -- the request loop --------------------------------------------------------

    def _collect(self, requests: dict[int, tuple[NodeProxy, float]], cutoff: float = math.inf):
        """Read the node sockets until every request in ``requests`` is resolved.

        ``requests`` maps rid -> (proxy, absolute deadline), at most one per
        node, and is emptied. The selector waits with the nearest deadline as
        its timeout; at ``cutoff`` every request still outstanding is cut.
        Yields (rid, proxy, reply, failure), one of:

        * a reply (EVAL_RESULT or CALIBRATE_RESULT), failure None;
        * a failure: reply None and one of LOST, ERROR, EXIT, TIMEOUT, CUT.
          A lost connection or EXIT_REPORT of a live node with nothing
          outstanding comes with rid None;
        * a late reply, whose rid is no longer outstanding: rid None.

        A message is the node's own only if it arrived on the node's current
        connection: only that one can be lost or report its exit, and an
        abandoned connection can deliver nothing but a late reply. PROGRESS
        and any other message are skipped.
        """
        while requests:
            now = time.monotonic()
            for rid, (proxy, deadline) in list(requests.items()):
                if now >= deadline or now >= cutoff:
                    del requests[rid]
                    yield rid, proxy, None, TIMEOUT if now >= deadline else CUT
            if not requests:
                return
            wake = min(cutoff, *(deadline for _, deadline in requests.values()))
            for key, _ in self._selector.select(wake - now):
                proxy = key.data[0]
                current = key.fileobj is proxy._sock
                for msg in self._read(key):
                    if isinstance(msg, (str, protocol.ExitReport)):  # a str says why the socket closed
                        failure, why = (LOST, msg) if isinstance(msg, str) else (EXIT, msg.reason)
                        rid = next((r for r, (p, _) in requests.items() if p is proxy), None)
                        if current and (rid is not None or proxy.state != DEAD):
                            requests.pop(rid, None)
                            log.info("node %d %s: %s", proxy.node_id, failure, why)
                            yield rid, proxy, None, failure
                    elif isinstance(msg, protocol.Error):
                        if requests.pop(msg.rid, None) is not None:
                            log.info("node %d %s: %s", proxy.node_id, ERROR, msg.message)
                            yield msg.rid, proxy, None, ERROR
                    elif isinstance(msg, (protocol.EvalResult, protocol.CalibrateResult)):
                        outstanding = requests.pop(msg.rid, None) is not None
                        yield msg.rid if outstanding else None, proxy, msg, None

    @staticmethod
    def _read(key: selectors.SelectorKey) -> list:
        """Read a ready socket's complete messages; a str at the end says why it closed.

        Partial lines stay in the socket's buffer. A socket that reached EOF
        or sent a malformed frame is unregistered and closed at once, so it
        cannot keep the selector awake.
        """
        sock = key.fileobj
        proxy, buffer = key.data
        try:
            chunk = sock.recv(_READ_SIZE)
        except OSError:
            chunk = b""  # a reset connection is a closed one
        buffer += chunk
        *lines, buffer[:] = buffer.split(b"\n")
        messages: list = []
        closed = None if chunk else "connection closed"
        for line in lines:
            try:
                messages.append(protocol.decode(bytes(line)))
            except protocol.ProtocolError as exc:
                closed = f"protocol error: {exc}"
                break
        if closed:
            proxy.close_socket(sock)
            messages.append(closed)
        return messages

    # -- problem transfer and calibration -------------------------------------

    def set_problem(self, inst: ProblemInstance) -> str:
        digest = instance_digest(inst)
        self._problem = (inst, digest)
        for proxy in self.proxies:
            if proxy.state == DEAD or not proxy.connected:
                continue
            try:
                proxy.send(protocol.SetProblem(proxy.next_rid(), inst))
            except (OSError, ConnectionError):
                self._strike(proxy, "send failed during problem transfer")
        return digest

    def calibrate(self, inst: ProblemInstance, budget: float) -> dict[int, float]:
        """Time-boxed speed measurement on every ready node, concurrently.

        A node that fails the round in any way, or measures zero speed, is
        dead for the run. A node answers once its speed settles, or at the
        latest when ``budget`` elapses; its history starts with one entry
        weighted by speed x the request's send-to-reply time, about the
        moves it scanned, so real iterations outweigh it within a few rounds.
        """
        deadline = time.monotonic() + budget + self.config.calibration_grace
        requests: dict[int, tuple[NodeProxy, float]] = {}
        sent: dict[int, float] = {}
        for proxy in self._ready_nodes(self.proxies):
            rid = proxy.next_rid()
            sent[rid] = time.monotonic()
            try:
                proxy.send(protocol.Calibrate(rid, inst, budget))
            except (OSError, ConnectionError) as exc:
                proxy.state = DEAD
                log.warning("node %d dropped from calibration: send failed: %s", proxy.node_id, exc)
                continue
            proxy.state = BUSY
            requests[rid] = (proxy, deadline)
        speeds: dict[int, float] = {}
        for rid, proxy, reply, failure in self._collect(requests):
            if rid is None and failure is None:
                continue  # late reply to an earlier request
            if isinstance(reply, protocol.CalibrateResult) and reply.speed > 0:
                proxy.state = IDLE
                proxy.strikes = 0
                speeds[proxy.node_id] = reply.speed
                moves = max(1, round(reply.speed * (time.monotonic() - sent[rid])))
                self.histories[proxy.node_id] = NodePerfHistory([(moves, reply.speed)])
            else:
                proxy.state = DEAD
                log.warning("node %d dropped from calibration: %s", proxy.node_id,
                            failure or "no speed measured")
        return speeds

    # -- the dispatch cycle ----------------------------------------------------

    def cover(self, nslice: NeighborhoodSlice, ctx_payload, budget_abs: float):
        """Dispatch rounds over ``nslice`` until it is evaluated or the budget passes.

        ``ctx_payload`` is (digest, order, tabu, incumbent); ``budget_abs``
        is an absolute time.monotonic() value, ``math.inf`` for no budget.
        Returns the accepted evaluated intervals (begin, end, best_index,
        best_makespan). Never raises for want of coverage: it also stops
        when no node is ready or dispatch rounds stop making progress, and
        the caller finds the gap with ``tabu.merge_prefix``.
        """
        digest, order, tabu, incumbent = ctx_payload
        pending = deque([(nslice.begin, nslice.end)] if nslice else [])
        results: list[tuple[int, int, int | None, int | None]] = []
        first_range = True
        stalled = 0
        while pending and time.monotonic() < budget_abs and stalled <= len(self.proxies) + 2:
            ready = self._ready_nodes(p for p in self.proxies if self.histories[p.node_id].count)
            if not ready:
                break
            begin, end = pending.popleft()
            if not first_range:
                self.redistribution_rounds += 1
            first_range = False

            speeds = [predict(self.histories[p.node_id]) for p in ready]
            slices = plan_partition(speeds, end - begin, begin)

            requests: dict[int, tuple[NodeProxy, float]] = {}
            sent: dict[int, NeighborhoodSlice] = {}
            for proxy, speed, part in zip(ready, speeds, slices):
                if not part:
                    continue
                deadline = min(len(part) / speed * self.config.deadline_slack + self.config.deadline_floor,
                               max(budget_abs - time.monotonic(), 0.05))
                rid = proxy.next_rid()
                try:
                    proxy.send(protocol.Eval(rid, digest, order, tabu, incumbent, part, deadline))
                except (OSError, ConnectionError):
                    self._strike(proxy, "send failed")
                    pending.append((part.begin, part.end))
                    continue
                proxy.state = BUSY
                requests[rid] = (proxy, time.monotonic() + deadline + self.config.response_grace)
                sent[rid] = part

            round_moves = 0
            for rid, proxy, reply, failure in self._collect(requests, budget_abs + 0.1):
                if rid is None and failure is None:
                    self._record_late(proxy, reply)
                    continue
                part = sent.pop(rid, None)  # None: a node failure with nothing outstanding
                if failure is None and self._result_consistent(reply, part):
                    round_moves += self._accept(proxy, reply, part, results, pending)
                    continue
                if part is not None:
                    pending.append((part.begin, part.end))
                if failure == EXIT:
                    proxy.state = DEAD
                elif failure == CUT:
                    proxy.state = SUSPECT  # its reply may still be in flight; reconnect before reuse
                else:
                    self._strike(proxy, failure or "inconsistent result")
            stalled = stalled + 1 if round_moves == 0 else 0
        return results

    def _accept(self, proxy: NodeProxy, msg: protocol.EvalResult, nslice: NeighborhoodSlice,
                results, pending) -> int:
        """Take a consistent EVAL_RESULT; queue its remaining range. Returns moves accepted."""
        if msg.moves_evaluated > 0:
            end = nslice.begin + msg.moves_evaluated
            results.append((nslice.begin, end, msg.best_index, msg.best_makespan))
            if msg.speed > 0:
                self.histories[proxy.node_id].record(msg.moves_evaluated, msg.speed)
            self.node_moves[proxy.node_id] += msg.moves_evaluated
            self.node_elapsed[proxy.node_id] += msg.elapsed
        if not msg.complete:
            pending.append((msg.remaining.begin, msg.remaining.end))
        proxy.state = IDLE
        proxy.strikes = 0
        return msg.moves_evaluated

    def _record_late(self, proxy: NodeProxy, msg):
        """A result that came after its deadline: its slice is being re-covered, keep the measurement."""
        if not isinstance(msg, protocol.EvalResult):
            return
        self.late_results += 1
        if msg.moves_evaluated > 0 and msg.speed > 0:
            self.histories[proxy.node_id].record(msg.moves_evaluated, msg.speed)
        log.info("node %d late result discarded (rid %d)", proxy.node_id, msg.rid)

    @staticmethod
    def _result_consistent(msg, nslice: NeighborhoodSlice) -> bool:
        if not isinstance(msg, protocol.EvalResult):
            return False
        evaluated_end = nslice.begin + msg.moves_evaluated
        if msg.moves_evaluated > len(nslice):
            return False
        if msg.complete:
            if evaluated_end != nslice.end:
                return False
        else:
            if msg.remaining is None:
                return False
            if msg.remaining.begin != evaluated_end or msg.remaining.end != nslice.end:
                return False
        if msg.best_index is not None and not nslice.begin <= msg.best_index < evaluated_end:
            return False
        return True


class Coordinator:
    """Runs the distributed tabu search over a fixed set of worker addresses."""

    def __init__(self, addresses, config: CoordinatorConfig | None = None):
        self.config = config or CoordinatorConfig()
        self.pool = DispatchPool(list(addresses), self.config)
        self._digest: str | None = None

    # -- setup ---------------------------------------------------------------

    def calibrate(self, seed: int) -> dict[int, float]:
        """Connect every node and measure its speed; requires one survivor."""
        inst = generate_instance(self.config.calibration_jobs, self.config.calibration_stages,
                                 self.config.calibration_machines, seed)
        speeds = self.pool.calibrate(inst, self.config.calibration_budget)
        if not speeds:
            raise CalibrationError("no node completed calibration")
        log.info("calibrated %d node(s): %s", len(speeds),
                 {k: round(v, 1) for k, v in speeds.items()})
        return speeds

    def set_problem(self, inst: ProblemInstance):
        self._digest = self.pool.set_problem(inst)

    # -- per-iteration evaluation ----------------------------------------------

    def evaluate(self, ctx: EvalContext) -> SliceResult:
        """Full-neighborhood evaluation; drop-in evaluator for run_search."""
        if self._digest is None:
            self.set_problem(ctx.instance)
        total = neighborhood_size(len(ctx.order))
        t0 = time.perf_counter()
        ctx_payload = (self._digest, ctx.order, ctx.tabu, ctx.incumbent)
        results = self.pool.cover(NeighborhoodSlice(0, total), ctx_payload, math.inf)
        frontier, best_idx, best_ms = merge_prefix(results, 0)
        if frontier != total:
            raise CoverageError(f"coverage stops at {frontier}, expected {total}")
        return SliceResult(best_idx, best_ms, total, time.perf_counter() - t0)

    # -- full runs ---------------------------------------------------------------

    def run(self, inst: ProblemInstance, params: SearchParams, on_iteration=None) -> SearchResult:
        self.calibrate(params.seed)
        self.set_problem(inst)
        return run_search(inst, params, self.evaluate, on_iteration)

    def node_stats(self) -> dict[int, dict]:
        stats = {}
        for proxy in self.pool.proxies:
            history = self.pool.histories[proxy.node_id]
            moves = self.pool.node_moves[proxy.node_id]
            elapsed = self.pool.node_elapsed[proxy.node_id]
            stats[proxy.node_id] = {
                "address": f"{proxy.address[0]}:{proxy.address[1]}",
                "state": proxy.state,
                "moves": moves,
                "busy_seconds": round(elapsed, 6),
                "mean_speed": predict(history) if history.count else 0.0,
            }
        return stats

    @property
    def redistribution_rounds(self) -> int:
        return self.pool.redistribution_rounds

    @property
    def late_results(self) -> int:
        return self.pool.late_results

    def close(self):
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def run_distributed_search(inst: ProblemInstance, params: SearchParams, addresses,
                           config: CoordinatorConfig | None = None, on_iteration=None) -> SearchResult:
    """Calibrate the given nodes, then run the search with remote evaluation."""
    with Coordinator(addresses, config) as coordinator:
        return coordinator.run(inst, params, on_iteration)
