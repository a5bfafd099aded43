"""Load-balancing coordinator for distributed neighborhood evaluation.

The coordinator owns the search state and drives a set of remote
workers. A run starts with a calibration round that measures every
node's speed on a generated mid-complexity instance; those measurements
seed a per-node performance history. Each iteration then splits the
neighborhood proportionally to the predicted node speeds, dispatches
one EVAL per node with a deadline derived from the prediction, and
collects results through per-node proxies feeding one completion queue.

Fault handling: a slice that comes back incomplete, errors out, or
times out is fed into extra dispatch rounds over the remaining live
nodes until the whole neighborhood is covered. A node that misses its
deadline (or drops its connection) becomes suspect and gets one
reconnect attempt; a second failure marks it dead for the run. A result
arriving after its deadline is discarded, but its speed measurement is
still recorded. The accepted intervals go through the shared prefix
reducer (``tabu.merge_prefix``); they must tile the neighborhood from 0
to its end, and the chosen move is the argmin by (makespan, move index)
over them, so any topology and any failure schedule that leaves one
live node produces exactly the single-machine result.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

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


class PlanningError(RuntimeError):
    """No live node with a positive predicted speed."""


class CalibrationError(RuntimeError):
    """No node survived the calibration round."""


class CoverageError(RuntimeError):
    """The neighborhood could not be fully covered."""


@dataclass
class NodePerfHistory:
    """Per-node measurement log of (moves completed, speed) pairs."""

    entries: list[tuple[int, float]] = field(default_factory=list)

    def record(self, moves: int, speed: float):
        if moves <= 0 or speed <= 0:
            raise ValueError(f"history entries need moves > 0 and speed > 0, got ({moves}, {speed})")
        self.entries.append((moves, speed))


def predict(history: NodePerfHistory) -> float:
    """Weighted average speed; each measurement is weighted by its move count."""
    if not history.entries:
        raise ValueError("empty performance history; calibrate first")
    weight = sum(n for n, _ in history.entries)
    return sum(n * p for n, p in history.entries) / weight


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
    send_latency: float = 0.0          # injected per outgoing message (benchmarks/tests)
    recv_latency: float = 0.0          # injected per incoming message


class NodeProxy:
    """One remote node: connection, handshake, and an asynchronous reader.

    The reader thread pushes every decoded message into the shared
    completion queue as (kind, node_id, generation, payload); all state
    transitions happen on the control thread that owns the pool.
    """

    def __init__(self, node_id: int, address: tuple[str, int], inbox: queue.Queue,
                 config: CoordinatorConfig):
        self.node_id = node_id
        self.address = address
        self._inbox = inbox
        self._config = config
        self.state = IDLE
        self.strikes = 0
        self.lanes = 0
        self.generation = 0
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

        Any previous connection is abandoned, not closed: a reply that is
        still in flight on it can then be drained and its speed sample
        recorded, even though its slice has already been re-dispatched.
        """
        self.abandon()
        sock = socket.create_connection(self.address, timeout=self._config.connect_timeout)
        reader = sock.makefile("rb")
        try:
            rid = self.next_rid()
            sock.sendall(protocol.encode(protocol.Hello(rid, PROTOCOL_VERSION, 0)))
            line = reader.readline()
            if not line:
                raise ConnectionError("connection closed during handshake")
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
        self._sock = sock
        self.generation += 1
        thread = threading.Thread(target=self._read_loop, args=(reader, self.generation), daemon=True)
        thread.start()

    def _read_loop(self, reader, generation: int):
        try:
            for line in reader:
                if self._config.recv_latency:
                    time.sleep(self._config.recv_latency)
                try:
                    msg = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    self._inbox.put(("lost", self.node_id, generation, f"protocol error: {exc}"))
                    return
                self._inbox.put(("msg", self.node_id, generation, msg))
        except (OSError, ValueError):
            pass
        self._inbox.put(("lost", self.node_id, generation, "connection closed"))

    def send(self, msg):
        if self._sock is None:
            raise ConnectionError(f"node {self.node_id} is not connected")
        if self._config.send_latency:
            time.sleep(self._config.send_latency)
        self._sock.sendall(protocol.encode(msg))

    def abandon(self):
        if self._sock is not None:
            self._drained.append(self._sock)
            self._sock = None

    def disconnect(self):
        self.abandon()
        for sock in self._drained:
            # shutdown() wakes the reader thread even though its makefile
            # object still references the socket; close() alone would not
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._drained.clear()


class DispatchPool:
    """Connection pool plus the dispatch/collect/redistribute machinery."""

    def __init__(self, addresses, config: CoordinatorConfig | None = None):
        self.config = config or CoordinatorConfig()
        self.inbox: queue.Queue = queue.Queue()
        self.proxies = [NodeProxy(i, addr, self.inbox, self.config) for i, addr in enumerate(addresses)]
        self.histories = {p.node_id: NodePerfHistory() for p in self.proxies}
        self.node_moves = {p.node_id: 0 for p in self.proxies}
        self.node_elapsed = {p.node_id: 0.0 for p in self.proxies}
        self.late_results = 0
        self.redistribution_rounds = 0
        self._problem: tuple[ProblemInstance, str] | None = None

    # -- connection management ----------------------------------------------

    def connect_all(self):
        for proxy in self.proxies:
            try:
                proxy.connect()
                proxy.state = IDLE
            except (OSError, ConnectionError, protocol.ProtocolError) as exc:
                log.warning("node %d (%s) unreachable: %s", proxy.node_id, proxy.address, exc)
                proxy.state = DEAD

    def close(self):
        for proxy in self.proxies:
            proxy.disconnect()

    def live_nodes(self) -> list[NodeProxy]:
        return [p for p in self.proxies if p.state != DEAD]

    def _strike(self, proxy: NodeProxy, reason: str):
        proxy.strikes += 1
        proxy.state = DEAD if proxy.strikes >= 2 else SUSPECT
        log.warning("node %d %s (strike %d -> %s)", proxy.node_id, reason, proxy.strikes, proxy.state)

    def _ready_nodes(self) -> list[NodeProxy]:
        """Live calibrated nodes with a usable connection; suspects get one reconnect."""
        ready = []
        for proxy in self.proxies:
            if proxy.state == DEAD or proxy.state == BUSY:
                continue
            if not self.histories[proxy.node_id].entries:
                continue  # never calibrated: no speed to plan with
            if proxy.state == SUSPECT or not proxy.connected:
                try:
                    proxy.connect()
                    proxy.state = IDLE
                    if self._problem is not None:
                        proxy.send(protocol.SetProblem(proxy.next_rid(), self._problem[0]))
                except (OSError, ConnectionError, protocol.ProtocolError) as exc:
                    log.warning("node %d reconnect failed: %s", proxy.node_id, exc)
                    proxy.state = DEAD
                    continue
            ready.append(proxy)
        return ready

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
        """Time-boxed speed measurement on every reachable node, concurrently."""
        outstanding: dict[int, NodeProxy] = {}
        candidates = [p for p in self.proxies if p.state not in (DEAD, BUSY)]
        for proxy in candidates:
            if not proxy.connected:
                try:
                    proxy.connect()
                    proxy.state = IDLE
                except (OSError, ConnectionError, protocol.ProtocolError) as exc:
                    log.warning("node %d unreachable for calibration: %s", proxy.node_id, exc)
                    proxy.state = DEAD
                    continue
            rid = proxy.next_rid()
            try:
                proxy.send(protocol.Calibrate(rid, inst, budget))
            except (OSError, ConnectionError):
                self._strike(proxy, "send failed during calibration")
                continue
            proxy.state = BUSY
            outstanding[rid] = proxy
        speeds: dict[int, float] = {}
        deadline = time.monotonic() + budget + self.config.calibration_grace
        while outstanding:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                break
            try:
                kind, node_id, gen, payload = self.inbox.get(timeout=timeout)
            except queue.Empty:
                break
            proxy = self.proxies[node_id]
            if gen != proxy.generation:
                continue
            if kind == "lost":
                for rid, p in list(outstanding.items()):
                    if p.node_id == node_id:
                        del outstanding[rid]
                proxy.state = DEAD
                log.warning("node %d lost during calibration (%s); dropping it", node_id, payload)
                continue
            msg = payload
            if isinstance(msg, protocol.CalibrateResult) and msg.rid in outstanding:
                del outstanding[msg.rid]
                proxy.state = IDLE
                proxy.strikes = 0
                if msg.speed > 0:
                    speeds[node_id] = msg.speed
                    weight = max(1, round(msg.speed * budget))
                    self.histories[node_id].entries.clear()
                    self.histories[node_id].record(weight, msg.speed)
                else:
                    proxy.state = DEAD
                    log.warning("node %d calibrated at zero speed; dropping it", node_id)
            elif isinstance(msg, protocol.Error) and msg.rid in outstanding:
                del outstanding[msg.rid]
                proxy.state = DEAD
                log.warning("node %d failed calibration (%s); dropping it", node_id, msg.message)
            elif isinstance(msg, protocol.ExitReport):
                for rid, p in list(outstanding.items()):
                    if p.node_id == node_id:
                        del outstanding[rid]
                proxy.state = DEAD
                log.info("node %d exited during calibration: %s", node_id, msg.reason)
        for proxy in outstanding.values():
            proxy.state = DEAD
            log.warning("node %d calibration timed out; dropping it", proxy.node_id)
        return speeds

    # -- the dispatch cycle ----------------------------------------------------

    def cover(self, ranges, ctx_payload, budget_abs: float | None = None, plans_out=None):
        """Dispatch rounds until the given ranges are fully evaluated.

        ``ctx_payload`` is (digest, order, tabu, incumbent). Returns
        (results, uncovered) where results are accepted evaluated
        intervals (begin, end, best_index, best_makespan). Without a
        budget the call either covers everything or raises
        CoverageError; with ``budget_abs`` (absolute monotonic time) it
        stops dispatching when the budget runs out and reports what is
        left as uncovered.
        """
        digest, order, tabu, incumbent = ctx_payload
        pending = deque((b, e) for b, e in ranges if e > b)
        results: list[tuple[int, int, int | None, int | None]] = []
        first_range = True
        stalled = 0

        while pending:
            if budget_abs is not None and time.monotonic() >= budget_abs:
                break
            ready = self._ready_nodes()
            if not ready:
                if budget_abs is None:
                    raise CoverageError("all nodes dead with work remaining")
                break
            begin, end = pending.popleft()
            if not first_range:
                self.redistribution_rounds += 1
            first_range = False

            speeds = [predict(self.histories[p.node_id]) for p in ready]
            slices = plan_partition(speeds, end - begin, begin)
            if plans_out is not None:
                plans_out.append([(p.node_id, len(sl)) for p, sl in zip(ready, slices)])

            outstanding: dict[int, tuple[NodeProxy, NeighborhoodSlice, float]] = {}
            for proxy, speed, nslice in zip(ready, speeds, slices):
                if not nslice:
                    continue
                deadline = len(nslice) / speed * self.config.deadline_slack + self.config.deadline_floor
                if budget_abs is not None:
                    deadline = min(deadline, max(budget_abs - time.monotonic(), 0.05))
                rid = proxy.next_rid()
                try:
                    proxy.send(protocol.Eval(rid, digest, order, tabu, incumbent, nslice, deadline))
                except (OSError, ConnectionError):
                    self._strike(proxy, "send failed")
                    pending.append((nslice.begin, nslice.end))
                    continue
                proxy.state = BUSY
                outstanding[rid] = (proxy, nslice, time.monotonic() + deadline + self.config.response_grace)

            round_moves = self._collect(outstanding, pending, results, budget_abs)
            if round_moves == 0:
                stalled += 1
                if stalled > len(self.proxies) + 2:
                    if budget_abs is None:
                        raise CoverageError("no progress over repeated dispatch rounds")
                    break
            else:
                stalled = 0
        return results, list(pending)

    def _collect(self, outstanding, pending, results, budget_abs) -> int:
        """Drain one round's outstanding requests; returns moves accepted."""
        round_moves = 0
        while outstanding:
            now = time.monotonic()
            next_deadline = min(item[2] for item in outstanding.values())
            if budget_abs is not None:
                next_deadline = min(next_deadline, budget_abs + 0.1)
            timeout = next_deadline - now
            msg_item = None
            if timeout > 0:
                try:
                    msg_item = self.inbox.get(timeout=timeout)
                except queue.Empty:
                    pass
            if msg_item is not None:
                round_moves += self._handle_item(msg_item, outstanding, pending, results)
            now = time.monotonic()
            for rid, (proxy, nslice, deadline) in list(outstanding.items()):
                if now >= deadline:
                    del outstanding[rid]
                    pending.append((nslice.begin, nslice.end))
                    self._strike(proxy, f"timed out on [{nslice.begin},{nslice.end})")
            if budget_abs is not None and now >= budget_abs + 0.1:
                for rid, (proxy, nslice, _) in list(outstanding.items()):
                    del outstanding[rid]
                    pending.append((nslice.begin, nslice.end))
                    proxy.state = SUSPECT  # response may still be in flight; reconnect before reuse
                break
        return round_moves

    def _handle_item(self, item, outstanding, pending, results) -> int:
        kind, node_id, gen, payload = item
        proxy = self.proxies[node_id]
        stale = gen != proxy.generation

        if kind == "lost":
            if stale:
                return 0
            for rid, (p, nslice, _) in list(outstanding.items()):
                if p.node_id == node_id:
                    del outstanding[rid]
                    pending.append((nslice.begin, nslice.end))
            if proxy.state != DEAD:
                self._strike(proxy, f"connection lost: {payload}")
            return 0

        msg = payload
        if isinstance(msg, protocol.Progress):
            log.debug("node %d progress %.2f", node_id, msg.fraction)
            return 0
        if isinstance(msg, protocol.ExitReport):
            for rid, (p, nslice, _) in list(outstanding.items()):
                if p.node_id == node_id:
                    del outstanding[rid]
                    pending.append((nslice.begin, nslice.end))
            proxy.state = DEAD
            log.info("node %d reported exit (%s); excluding it", node_id, msg.reason)
            return 0
        if isinstance(msg, protocol.Error):
            entry = outstanding.pop(msg.rid, None)
            if entry is not None:
                p, nslice, _ = entry
                pending.append((nslice.begin, nslice.end))
                self._strike(p, f"remote error: {msg.message}")
            return 0
        if not isinstance(msg, protocol.EvalResult):
            return 0

        entry = outstanding.pop(msg.rid, None)
        if entry is None:
            # answered after its deadline: the slice is being re-covered, keep the measurement
            self.late_results += 1
            if msg.moves_evaluated > 0 and msg.speed > 0:
                self.histories[node_id].record(msg.moves_evaluated, msg.speed)
            log.info("node %d late result discarded (rid %d)", node_id, msg.rid)
            return 0

        p, nslice, _ = entry
        if not self._result_consistent(msg, nslice):
            pending.append((nslice.begin, nslice.end))
            self._strike(p, "inconsistent result")
            return 0
        accepted_end = nslice.begin + msg.moves_evaluated
        if msg.moves_evaluated > 0:
            results.append((nslice.begin, accepted_end, msg.best_index, msg.best_makespan))
            if msg.speed > 0:
                self.histories[node_id].record(msg.moves_evaluated, msg.speed)
            self.node_moves[node_id] += msg.moves_evaluated
            self.node_elapsed[node_id] += msg.elapsed
        if not msg.complete:
            pending.append((msg.remaining.begin, msg.remaining.end))
        p.state = IDLE
        p.strikes = 0
        return msg.moves_evaluated

    @staticmethod
    def _result_consistent(msg: protocol.EvalResult, nslice: NeighborhoodSlice) -> bool:
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
    """Runs the distributed tabu search over a fixed set of worker addresses.

    ``iteration_audits`` (the accepted intervals) and ``iteration_plans``
    (each dispatch round's (node, moves) shares) keep one entry for each
    of the last ``ITERATION_HISTORY`` iterations, so a long run holds
    bounded memory.
    """

    ITERATION_HISTORY = 128

    def __init__(self, addresses, config: CoordinatorConfig | None = None):
        self.config = config or CoordinatorConfig()
        self.pool = DispatchPool(list(addresses), self.config)
        self.iteration_audits: deque[list[tuple[int, int]]] = deque(maxlen=self.ITERATION_HISTORY)
        self.iteration_plans: deque[list[list[tuple[int, int]]]] = deque(maxlen=self.ITERATION_HISTORY)
        self._digest: str | None = None

    # -- setup ---------------------------------------------------------------

    def calibrate(self, seed: int) -> dict[int, float]:
        """Connect every node and measure its speed; requires one survivor."""
        inst = generate_instance(self.config.calibration_jobs, self.config.calibration_stages,
                                 self.config.calibration_machines, seed)
        self.pool.connect_all()
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
        plans: list[list[tuple[int, int]]] = []
        results, _ = self.pool.cover(
            [(0, total)], (self._digest, ctx.order, ctx.tabu, ctx.incumbent), None, plans_out=plans
        )
        frontier, best_idx, best_ms = merge_prefix(results, 0)
        if frontier != total:
            raise CoverageError(f"coverage stops at {frontier}, expected {total}")
        self.iteration_audits.append(sorted((b, e) for b, e, _, _ in results))
        self.iteration_plans.append(plans)
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
                "mean_speed": predict(history) if history.entries else 0.0,
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
