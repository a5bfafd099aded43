"""Load-balancing coordinator for distributed neighborhood evaluation.

One ``Coordinator`` plays the master's role at the top level of a
distributed search and inside every super server, for its children, and
every node starts the same way at every level: from ``NOMINAL_SPEED``,
measured by the EVALs it serves. A top-level run starts with
``handshake``; a node's first EVAL is an ordinary one, which forks a
worker's lanes or reaches a super server's children. ``cover`` alone
sends problems: a SET_PROBLEM goes out on a connection right before its
first EVAL of that problem, and again only once the node would have
forgotten it, after ``MAX_CACHED_PROBLEMS`` newer ones. A node keeps
each connection's problems apart, so a proxy's ``problems`` is exactly
what the node holds for its connection.
Each evaluated iteration splits the neighborhood proportionally to the
predicted node speeds, sends one EVAL per node with a deadline derived
from the prediction, and reads the replies.

A node is live (``IDLE``) or ``DEAD``, and has at most one connection.
The coordinator talks to nodes one way, on the thread that uses it:
``cover`` is one request loop over ``_collect``, and the handshake
(``connect_all``) is its cover of an empty slice, so there is one
connect path. Before each plan it opens every live node that has no
connection, and a HELLO is a request like an EVAL; a pending range is
planned over the idle nodes whenever no HELLO is outstanding, as soon as
a reply leaves it pending. A cover that opens nothing and owes no
overdue cut reply reads nothing before its first plan. ``_collect``
reads every node reply through one selector: it resolves each
outstanding request as a reply or a failure (lost connection, ERROR,
EXIT_REPORT, timeout, budget cut), and alone handles what no request
asked for: a late EVAL_RESULT is discarded but its speed measurement
recorded, a live node lost with nothing outstanding gets a strike, and
one that reports its exit is dead. Each kind of request keeps its own
failure policy on top of it:

* HELLO: anything but a HELLO reply of the same major version, within
  one ``CONNECT_TIMEOUT`` after the last connection of its batch has
  opened, marks the node dead.
* EVAL, the first included: the slice goes back into the queue.
  EXIT_REPORT marks the node dead. A budget cut is no fault: the node
  keeps its connection, its next EVAL queues behind the cut one at the
  node, and the cut one's reply is read there as a late result. Until
  it comes the node is planned last, so its slice cannot hold back the
  prefix the others cover; if it has not come by the cut request's own
  timeout, the next cover strikes the node. Any other failure, an
  inconsistent result or no move evaluated within a deadline of at
  least ``DEADLINE_FLOOR`` is a strike: it closes the connection, so the
  node is reopened (a lane is forked anew) and planned again, and a
  second strike in a row marks it dead for the run. A node that
  evaluated no move in a shorter deadline takes no more of the slice.
  Each EVAL gets at least 50 ms from its own send and is cut 0.1 s after
  those or the budget, whichever ends later.

A slice is planned again until it is covered, no node can take more of
it, or the caller's budget runs out.
``evaluate_blocks`` reduces the accepted intervals with the shared prefix
reducer (``tabu.merge_prefix``): the chosen move is the argmin by
(makespan, move index) over the contiguous prefix of the slice, so any
topology and any failure schedule that leaves one live node produces
exactly the single-machine result.

One constructor argument, ``inline_delay``, turns on the inline scan:
``evaluate_blocks`` then scans on the caller what no node covered, when
no node is live or there is no deadline, and only a failing scan raises
(``CoverageError``). ``parallel.LaneEvaluator``, this class over forked
lanes, turns it on, so a one-lane evaluator is a coordinator with no
nodes. The top level and super servers leave it off: a super server
with no live child answers ERROR, and its parent re-plans.
"""

from __future__ import annotations

import logging
import math
import selectors
import socket
import time
from collections import deque

from . import protocol
from .instance import ProblemInstance
from .neighborhood import NeighborhoodSlice, neighborhood_size
from .protocol import MAX_CACHED_PROBLEMS, PROTOCOL_VERSION
from .tabu import EvalContext, SearchParams, SearchResult, SliceResult, merge_prefix, run_search, scan_slice

log = logging.getLogger(__name__)

IDLE = "idle"
DEAD = "dead"

# The predicted speed, in moves/s, of a node not yet measured, about one core on 30x5: it
# splits a node's first EVAL and sets its deadline (a slower node answers with a prefix).
NOMINAL_SPEED = 10_000.0
CONNECT_TIMEOUT = 5.0  # seconds a node's opener may take to connect, and then its HELLO reply
DEADLINE_SLACK = 2.0  # an EVAL's compute deadline is its predicted duration x slack + floor, in seconds
DEADLINE_FLOOR = 0.25
RESPONSE_GRACE = 1.0  # seconds a reply may take beyond its compute deadline

# how Coordinator._collect reports a request that got no reply
LOST = "connection lost"
ERROR = "remote error"
EXIT = "exited"
TIMEOUT = "timed out"
CUT = "budget cut"


class HandshakeError(RuntimeError):
    """No node answered the handshake."""


class CoverageError(RuntimeError):
    """The neighborhood could not be fully covered, or the inline scan of what no node covered failed."""


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
    """Weighted average speed, each measurement weighted by its move count; ``NOMINAL_SPEED`` if none."""
    if not history.count:
        return NOMINAL_SPEED
    return history.weighted / history.moves


def plan_partition(speeds, total: int, begin: int = 0) -> list[NeighborhoodSlice]:
    """Split ``total`` moves proportionally to speeds, largest-remainder rounding.

    Returns contiguous slices in input order starting at ``begin``;
    their sizes sum to ``total`` exactly.
    """
    speeds = list(speeds)
    if not speeds:
        raise ValueError("no speeds to plan over")
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


class NodeProxy:
    """One node: its one connection, if it has one, and its measurements.

    ``opener(address, timeout)`` returns a new connected socket, as
    ``socket.create_connection`` does for a TCP node. The socket is
    registered on the coordinator's selector, with its read buffer, from
    ``open`` until ``disconnect``. ``history`` holds the node's
    speeds; ``moves`` and ``busy_seconds`` sum its accepted results.
    ``owed`` holds the cut requests the connection has not answered yet,
    and ``overdue`` when the oldest of them is due. ``problems`` holds the
    digests sent on the connection, oldest first, as many as the node keeps.
    """

    def __init__(self, node_id: int, address, selector: selectors.BaseSelector, opener):
        self.node_id = node_id
        self.address = address
        self._selector = selector
        self._open = opener
        self.state = IDLE
        self.strikes = 0
        self.lanes = 0
        self.history = NodePerfHistory()
        self.moves = 0
        self.busy_seconds = 0.0
        self.owed: dict[int, tuple[float, float]] = {}  # rid -> (due, seconds it may take once begun), in send order
        self.overdue = math.inf
        self.problems: deque[str] = deque(maxlen=MAX_CACHED_PROBLEMS)
        self._sock: socket.socket | None = None
        self._rid = node_id * 1_000_000  # disjoint rid ranges ease log reading

    def next_rid(self) -> int:
        self._rid += 1
        return self._rid

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def open(self) -> int:
        """Close the node's connection, if any, open a fresh one, register it and send HELLO.

        Returns the HELLO's rid. Nothing is read from the old connection
        any more: the reply to a request still served there is lost.
        """
        self.disconnect()
        sock = self._open(self.address, CONNECT_TIMEOUT)
        sock.setblocking(True)
        if sock.family in (socket.AF_INET, socket.AF_INET6):  # or an EVAL right after a SET_PROBLEM waits for its ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(sock, selectors.EVENT_READ, (self, bytearray()))
        self._sock = sock
        rid = self.next_rid()
        self.send(protocol.Hello(rid, PROTOCOL_VERSION, 0))
        return rid

    def send(self, msg):
        """Send on the connection; one that fails is closed, or its EOF would fail it twice."""
        if self._sock is None:
            raise ConnectionError(f"node {self.node_id} is not connected")
        try:
            self._sock.sendall(protocol.encode(msg))
        except OSError:
            self.disconnect()
            raise

    def disconnect(self):
        """Unregister the connection from the selector, then close it and forget it, what it owed and held."""
        if self._sock is not None:
            self._selector.unregister(self._sock)
            self._sock.close()
            self._sock = None
        self.owed.clear()
        self.overdue = math.inf
        self.problems.clear()

    def owe(self, rid: int, due: float, allowance: float):
        """A cut request: its reply is due by ``due``, and ``allowance`` after the one before it is answered."""
        if not self.owed:
            self.overdue = due
        self.owed[rid] = (due, allowance)

    def settle(self, rid: int):
        """A cut request was answered: the node serves its requests in order, so the next one is begun now."""
        if self.owed.pop(rid, None) is not None:
            due, allowance = next(iter(self.owed.values()), (math.inf, 0.0))
            self.overdue = max(due, time.monotonic() + allowance)


class Coordinator:
    """Fans neighborhood evaluation out over a fixed set of nodes.

    One class serves the top-level search, every super server and, as
    ``LaneEvaluator``, every set of lanes: it owns the selector, the node
    proxies, the start-up check and the request loop.
    Use it from one thread at a time: it starts no thread, and reads every
    node socket on the caller's thread through its one selector. A
    reopened node gets what ``opener`` opens: a TCP connection, or a new lane.
    ``inline_delay``, the per-move delay of an inline scan (0.0: unpaced),
    turns the inline scan on, as ``LaneEvaluator`` does; None leaves it off.
    """

    def __init__(self, addresses, opener=socket.create_connection, inline_delay: float | None = None):
        self._selector = selectors.DefaultSelector()
        self.proxies = [NodeProxy(i, addr, self._selector, opener) for i, addr in enumerate(addresses)]
        self.inline_delay = inline_delay
        self.late_results = 0
        self.redistribution_rounds = 0

    # -- connection management ----------------------------------------------

    def connect_all(self):
        """Open every live node without a connection and read its HELLO: ``cover`` of an empty slice."""
        self.cover(None, NeighborhoodSlice(0, 0), math.inf)

    def close(self):
        for proxy in self.proxies:
            proxy.disconnect()
        self._selector.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def live_nodes(self) -> list[NodeProxy]:
        return [p for p in self.proxies if p.state != DEAD]

    @property
    def lanes(self) -> int:
        """The summed handshake lanes of the live nodes: what a super server reports upstream."""
        return sum(p.lanes for p in self.live_nodes())

    def _strike(self, proxy: NodeProxy, reason: str):
        """A failed request closes the node's connection; the second strike in a row kills it."""
        proxy.strikes += 1
        if proxy.strikes >= 2:
            proxy.state = DEAD
        log.warning("node %d %s (strike %d -> %s)", proxy.node_id, reason, proxy.strikes, proxy.state)
        proxy.disconnect()

    def _kill(self, proxy: NodeProxy, why):
        """A dead node stays dead for the run, and its connection is closed at once: a lane sees EOF and exits."""
        log.warning("node %d (%s) dead: %s", proxy.node_id, proxy.address, why)
        proxy.state = DEAD
        proxy.disconnect()

    # -- the request loop --------------------------------------------------------

    def _collect(self, requests: dict[int, tuple]):
        """Read the node sockets until every request in ``requests`` is resolved.

        ``requests`` maps rid -> (proxy, absolute deadline, absolute cutoff,
        slice, compute deadline), the slice and compute deadline None for a
        HELLO, at most one per node, and is emptied; one the caller adds
        meanwhile is read too. The selector waits until the nearest deadline
        or cutoff: past its deadline a request has timed out, past its
        cutoff it is cut. The sockets are polled at least once, so an empty
        ``requests`` reads what has already come in.
        Yields (rid, its popped entry, reply, failure) for each request, one of:

        * a reply, whatever message carries the request's rid (HELLO or
          EVAL_RESULT), failure None; the caller checks its type;
        * a failure: reply None and one of LOST, ERROR, EXIT, TIMEOUT, CUT.

        What no request asked for is handled here, the same for every
        caller: a late EVAL_RESULT, such as the reply to a cut request, is
        counted and its speed sample recorded; a live node lost with
        nothing outstanding gets a strike, and one that reports EXIT is
        dead. Any other message is skipped.

        The caller may close or reopen any node's connection while a result
        is yielded. What was read from a connection closed since is stale:
        a key of the same ``select`` batch whose socket is no longer its
        node's is skipped, and so is the rest of a read once it is, so one
        failed connection fails one request, or gives one strike.
        """
        while True:
            now = time.monotonic()
            for rid, entry in list(requests.items()):
                if now >= min(entry[1], entry[2]):
                    del requests[rid]
                    yield rid, entry, None, TIMEOUT if now >= entry[1] else CUT
            wake = min((min(deadline, cutoff) for _, deadline, cutoff, *_ in requests.values()), default=now)
            for key, _ in self._selector.select(wake - now):
                proxy, buffer = key.data
                if proxy._sock is not key.fileobj:
                    continue  # closed while an earlier key of this batch was yielded
                messages, closed = protocol.read_frames(key.fileobj, buffer)
                if closed is not None:
                    messages.append(closed)
                for msg in messages:
                    if proxy._sock is not key.fileobj:
                        break  # the caller closed or reopened it while a message before was yielded
                    if isinstance(msg, (Exception, protocol.ExitReport)):  # an exception says why it closed
                        if isinstance(msg, Exception):
                            proxy.disconnect()  # now, or it keeps select() awake
                        failure, why = (LOST, msg) if isinstance(msg, Exception) else (EXIT, msg.reason)
                        rid = next((r for r, (p, *_) in requests.items() if p is proxy), None)
                        log.info("node %d %s: %s", proxy.node_id, failure, why)
                        if rid is not None:
                            yield rid, requests.pop(rid), None, failure
                        elif failure == EXIT:
                            self._kill(proxy, why)
                        else:
                            self._strike(proxy, failure)
                    elif isinstance(msg, protocol.Error):
                        if msg.rid in requests:
                            log.info("node %d %s: %s", proxy.node_id, ERROR, msg.message)
                            yield msg.rid, requests.pop(msg.rid), None, ERROR
                    elif msg.rid in requests:
                        yield msg.rid, requests.pop(msg.rid), msg, None
                    elif isinstance(msg, protocol.EvalResult):
                        self._record_late(proxy, msg)
            if not requests:
                return

    # -- start-up --------------------------------------------------------------

    def set_problem(self, inst: ProblemInstance) -> str:
        """The instance's digest. It sends nothing: ``cover`` sends each node the problems it evaluates.

        Only perfbench's ``setup_distributed`` calls it, and it goes once that call does.
        """
        return inst.digest

    def handshake(self) -> list[NodeProxy]:
        """The start-up check: connect every node and require one; returns the connected live nodes.

        With the inline scan on, no node is required. It sends no EVAL
        and records nothing: every node starts at ``NOMINAL_SPEED``, and
        the real problem's first EVALs measure it.
        """
        self.connect_all()
        ready = [p for p in self.live_nodes() if p.connected]
        if not ready and self.inline_delay is None:
            raise HandshakeError("no node reachable")
        return ready

    def calibrate(self, seed: int) -> dict[int, float]:
        """``handshake``, returning ``NOMINAL_SPEED`` for each ready node, by node id; ``seed`` is unused.

        Only perfbench's ``setup_distributed`` calls it, and it goes once that call does.
        """
        return dict.fromkeys((proxy.node_id for proxy in self.handshake()), NOMINAL_SPEED)

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, ctx: EvalContext) -> SliceResult:
        """Full-neighborhood evaluation; drop-in evaluator for run_search."""
        total = neighborhood_size(len(ctx.order))
        result, frontier = self.evaluate_blocks(ctx, NeighborhoodSlice(0, total), None)
        if frontier != total:
            raise CoverageError(f"coverage stops at {frontier}, expected {total}")
        return result

    def evaluate_blocks(self, ctx: EvalContext, nslice: NeighborhoodSlice,
                        deadline: float | None) -> tuple[SliceResult, int]:
        """Evaluate as much of ``nslice`` as the nodes cover by ``deadline``.

        Returns (result over the evaluated prefix, prefix end); the prefix
        is contiguous from ``nslice.begin``. ``deadline`` is an absolute
        time.monotonic() value, or None to dispatch until the slice is
        covered or no node can take more of it. With the inline scan on,
        what the nodes left is scanned here, on the caller, when no node
        is live or there is no deadline; CoverageError only if that scan
        fails. The result's elapsed time covers the nodes and that scan.
        """
        t0 = time.perf_counter()
        results = self.cover(ctx, nslice, math.inf if deadline is None else deadline)
        frontier, best_idx, best_ms = merge_prefix(results, nslice.begin)
        if self.inline_delay is not None and frontier < nslice.end and (deadline is None or not self.live_nodes()):
            try:
                idx, ms, evaluated = scan_slice(ctx.instance, ctx.order, ctx.tabu.entries, ctx.incumbent,
                                                frontier, nslice.end, deadline, self.inline_delay)
            except Exception as exc:
                raise CoverageError(f"no node covered [{frontier}, {nslice.end}) and the inline scan failed") from exc
            frontier, best_idx, best_ms = merge_prefix(
                [(nslice.begin, frontier, best_idx, best_ms), (frontier, frontier + evaluated, idx, ms)], nslice.begin)
        return SliceResult(best_idx, best_ms, frontier - nslice.begin, time.perf_counter() - t0), frontier

    def cover(self, ctx: EvalContext | None, nslice: NeighborhoodSlice, budget_abs: float):
        """Evaluate ``nslice`` over the nodes until it is covered or the budget passes.

        One ``_collect`` loop serves it. Every live node without a
        connection is opened first, and its HELLO is one more request: the
        node is ready once it is answered, and dead if it fails. While no
        HELLO is outstanding, a pending range is planned over the idle nodes
        (live, connected, no request outstanding; one that owes a cut reply
        last) as soon as a reply leaves it pending, so a failed slice does
        not wait for the slowest node. A struck node is reopened and planned
        again; one whose accepted reply evaluated no move takes no more of
        the slice. A node is sent ``ctx.instance`` right before its EVAL
        unless its connection holds it already. ``budget_abs`` is an absolute
        time.monotonic() value, ``math.inf`` for no budget: nothing is done
        if it has passed, the first plan goes out even if the opening used it
        up, and later plans only before it ends. An empty slice connects the
        nodes and plans nothing. Returns the accepted evaluated intervals
        (begin, end, best_index, best_makespan). Never raises for want of
        coverage: it also stops when no node can take more of the slice, and
        ``evaluate_blocks`` keeps only the contiguous prefix.
        """
        if time.monotonic() >= budget_abs:
            return []
        if any(p.overdue <= time.monotonic() for p in self.proxies):
            for _ in self._collect({}):  # a late reply waiting to be read settles its cut request
                pass
            for proxy in self.live_nodes():
                if proxy.overdue <= time.monotonic():
                    self._strike(proxy, "never answered a cut request")
        pending = deque([(nslice.begin, nslice.end)] if nslice else [])
        results: list[tuple[int, int, int | None, int | None]] = []
        requests: dict[int, tuple] = {}
        spent: set[NodeProxy] = set()  # nodes that take no more of the slice
        plans = 0

        def dispatch():
            """Open every live node without a connection; then, with no HELLO outstanding, plan what is pending."""
            nonlocal plans
            while not plans or pending and time.monotonic() < budget_abs:
                opened = []
                for proxy in self.live_nodes():
                    if not proxy.connected:
                        try:
                            opened.append((proxy.open(), proxy))
                        except OSError as exc:
                            self._kill(proxy, f"unreachable: {exc}")
                due = time.monotonic() + CONNECT_TIMEOUT  # from the last opener's return, for every HELLO it sent
                requests.update((rid, (proxy, due, math.inf, None, None)) for rid, proxy in opened)
                taken = spent | {entry[0] for entry in requests.values()}
                ready = sorted((p for p in self.live_nodes() if p.connected and p not in taken),
                               key=lambda p: bool(p.owed))  # a node that owes a reply goes last
                if not pending or not ready or any(entry[3] is None for entry in requests.values()):
                    return
                plans += 1
                inst = ctx.instance
                begin, end = pending.popleft()
                speeds = [predict(p.history) for p in ready]
                for proxy, speed, part in zip(ready, speeds, plan_partition(speeds, end - begin, begin)):
                    if not part:
                        continue
                    now = time.monotonic()
                    left = max(budget_abs - now, 0.05)  # every node gets 50 ms, counted from its own send
                    deadline = min(len(part) / speed * DEADLINE_SLACK + DEADLINE_FLOOR, left)
                    try:
                        if inst.digest not in proxy.problems:
                            proxy.send(protocol.SetProblem(proxy.next_rid(), inst))
                            proxy.problems.append(inst.digest)
                        rid = proxy.next_rid()
                        proxy.send(protocol.Eval(rid, inst.digest, ctx.order, ctx.tabu, ctx.incumbent, part, deadline))
                    except (OSError, ConnectionError):
                        self._strike(proxy, "send failed")  # the next pass reopens it
                        pending.append((part.begin, part.end))
                        continue
                    requests[rid] = (proxy, now + deadline + RESPONSE_GRACE, now + left + 0.1, part, deadline)

        dispatch()
        for rid, (proxy, due, _, part, deadline), reply, failure in self._collect(requests) if requests else ():
            if part is None:  # a HELLO
                if isinstance(reply, protocol.Hello) and reply.version[0] == PROTOCOL_VERSION[0]:
                    proxy.lanes = reply.lanes
                else:
                    self._kill(proxy, f"unreachable: {failure or f'unexpected handshake reply {reply}'}")
            else:
                if failure is None and not self._result_consistent(reply, part):
                    failure = "inconsistent result"
                elif failure is None and not reply.moves_evaluated and deadline >= DEADLINE_FLOOR:
                    failure = "no move evaluated"  # in a deadline that fits many: a broken node
                if failure is None:
                    if not self._accept(proxy, reply, part, results, pending):
                        spent.add(proxy)  # its deadline fits no move, and would not next time
                else:
                    pending.append((part.begin, part.end))
                    if failure == EXIT:
                        self._kill(proxy, "exited")
                    elif failure == CUT:  # the node keeps its connection: its next EVAL queues behind the cut one
                        proxy.owe(rid, due, deadline + RESPONSE_GRACE)
                    else:
                        self._strike(proxy, failure)
            dispatch()
        self.redistribution_rounds += max(plans - 1, 0)
        return results

    @staticmethod
    def _accept(proxy: NodeProxy, msg: protocol.EvalResult, nslice: NeighborhoodSlice,
                results, pending) -> int:
        """Take a consistent EVAL_RESULT; queue its remaining range. Returns moves accepted."""
        if msg.moves_evaluated > 0:
            end = nslice.begin + msg.moves_evaluated
            results.append((nslice.begin, end, msg.best_index, msg.best_makespan))
            if msg.speed > 0:
                proxy.history.record(msg.moves_evaluated, msg.speed)
            proxy.moves += msg.moves_evaluated
            proxy.busy_seconds += msg.elapsed
        if not msg.complete:
            pending.append((msg.remaining.begin, msg.remaining.end))
        proxy.strikes = 0
        return msg.moves_evaluated

    def _record_late(self, proxy: NodeProxy, msg: protocol.EvalResult):
        """A result that came after its deadline: its slice is being re-covered, keep the measurement."""
        proxy.settle(msg.rid)
        self.late_results += 1
        if msg.moves_evaluated > 0 and msg.speed > 0:
            proxy.history.record(msg.moves_evaluated, msg.speed)
        log.info("node %d late result discarded (rid %d)", proxy.node_id, msg.rid)

    @staticmethod
    def _result_consistent(msg, nslice: NeighborhoodSlice) -> bool:
        if not isinstance(msg, protocol.EvalResult) or msg.moves_evaluated > len(nslice):
            return False
        evaluated_end = nslice.begin + msg.moves_evaluated
        if msg.complete and evaluated_end != nslice.end:
            return False
        if not msg.complete and msg.remaining != NeighborhoodSlice(evaluated_end, nslice.end):
            return False
        return msg.best_index is None or nslice.begin <= msg.best_index < evaluated_end

    # -- full runs ---------------------------------------------------------------

    def run(self, inst: ProblemInstance, params: SearchParams, on_iteration=None) -> SearchResult:
        self.handshake()
        return run_search(inst, params, self.evaluate, on_iteration)

    def node_stats(self) -> dict[int, dict]:
        return {proxy.node_id: {
            "address": f"{proxy.address[0]}:{proxy.address[1]}",
            "state": proxy.state,
            "moves": proxy.moves,
            "busy_seconds": round(proxy.busy_seconds, 6),
            "mean_speed": predict(proxy.history) if proxy.history.count else 0.0,
        } for proxy in self.proxies}

