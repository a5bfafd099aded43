"""Multi-lane neighborhood evaluation: lanes are nodes.

One lane scans inline, on the calling process. More lanes are one
``Coordinator`` over that many lane processes, the dispatcher of workers
and super servers: same plan, deadlines, failure policy and prefix
reducer. A lane is a forked process that runs the worker request loop
(``WorkerServer`` with one lane) on one end of a socket pair, with no
listener, until that socket closes. Lanes are forked on first use and
skip calibration: each starts from one nominal history entry. The lanes
get each new instance as a SET_PROBLEM before its first round.

A failed lane's range goes to the other lanes, and its reconnect forks
a replacement; a lane that fails twice is dead. When no lane is live,
the caller scans the rest inline; only a failing inline scan aborts.

``multiprocessing`` is imported on the first fork, so a process that never
forks a lane (one-lane searches, coordinators, super servers, ``--lanes 1``
workers) does not load it.
"""

from __future__ import annotations

import logging
import os
import socket
import time

from .coordinator import Coordinator
from .instance import ProblemInstance
from .neighborhood import NeighborhoodSlice, neighborhood_size
from .schedule import evaluate_makespan
from .tabu import EvalContext, SliceResult, TabuList, initial_order, merge_prefix, scan_slice

# A fresh lane's assumed speed, in moves/s, about one core on 30x5: it sets
# the first round's deadlines (a slower lane answers with a prefix) and weighs one move.
NOMINAL_LANE_SPEED = 10_000.0
LANE_EXIT_WAIT = 1.0  # seconds close() waits for lanes to exit on EOF before it kills them


class EvaluationError(RuntimeError):
    """No lane was left and the inline scan on the calling process failed too."""


def detected_lane_count() -> int:
    """Physical core count when detectable, logical count otherwise."""
    try:
        import psutil

        cores = psutil.cpu_count(logical=False)
        if cores:
            return cores
    except ImportError:
        pass
    return os.cpu_count() or 1


def _descriptors() -> dict[int, tuple[int, int]]:
    """This process's open descriptors: number -> (device, inode) of what it points at.

    Lists /dev/fd (Linux, macOS, and FreeBSD with fdescfs); where that
    lists nothing beyond stdio, a lane keeps whatever it inherited.
    """
    try:
        names = os.listdir("/dev/fd")
    except OSError:
        return {}
    found = {}
    for name in names:
        try:
            stat = os.fstat(int(name))
        except OSError:
            continue  # the listing's own descriptor, closed since
        found[int(name)] = (stat.st_dev, stat.st_ino)
    return found


def _serve_lane(sock: socket.socket, per_move_delay: float, inherited: dict[int, tuple[int, int]]):
    """A lane process: drop what it inherited, then serve ``sock`` until it closes.

    Fork copies the caller's descriptors (listeners, other lanes' sockets,
    the caller's end of this pair), and while a lane holds them no peer
    sees EOF. ``inherited`` is what the caller held just before the fork;
    multiprocessing's exit-sentinel pipes came later and stay. A dropped
    descriptor is pointed at /dev/null, not closed, so that a Python object
    still wrapping its number cannot close one the lane opens later.
    """
    from .worker import WorkerServer  # worker imports this module

    devnull = os.open(os.devnull, os.O_RDWR)
    for fd, target in _descriptors().items():
        if fd > 2 and fd not in (sock.fileno(), devnull) and inherited.get(fd) == target:
            os.dup2(devnull, fd)
    os.close(devnull)
    logging.disable(logging.INFO)  # one log line per request is the caller's to write
    WorkerServer(lanes=1, per_move_delay=per_move_delay, conn=sock).serve_forever()


class LaneEvaluator:
    """Neighborhood evaluator over ``lanes`` lanes, for contexts of any instance.

    Keep one evaluator alive while there is work: the lanes keep the
    current instance, so a round ships only its context. ``instance``, if
    given, is sent to the lanes first. ``lanes=1`` runs inline, with no
    process. ``per_move_delay`` paces every scan, as a worker's does, for
    benchmarks and tests; a lane reads it when it is forked.
    """

    def __init__(self, instance: ProblemInstance | None = None, lanes: int | None = None,
                 per_move_delay: float = 0.0):
        self.lanes = lanes if lanes is not None else detected_lane_count()
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        self.per_move_delay = per_move_delay
        self._processes: list = []  # multiprocessing.Process, one per lane forked
        self._coordinator = None
        if self.lanes > 1:
            self._coordinator = Coordinator([("lane", i) for i in range(self.lanes)], opener=self._fork_lane)
            if instance is not None:
                self._coordinator.set_problem(instance)  # sent to each lane as it connects
            for proxy in self._coordinator.proxies:
                proxy.history.record(1, NOMINAL_LANE_SPEED)

    def _fork_lane(self, address, timeout: float) -> socket.socket:
        """The opener of every lane: fork a lane process and return our end of its socket pair."""
        import multiprocessing

        self._processes = [p for p in self._processes if p.is_alive()]
        ours, theirs = socket.socketpair()
        try:
            lane = multiprocessing.get_context("fork").Process(
                target=_serve_lane, args=(theirs, self.per_move_delay, _descriptors()),
                name=f"hfstabu-{address[0]}-{address[1]}", daemon=True)
            lane.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._processes.append(lane)
        ours.settimeout(timeout)
        return ours

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Close every lane's socket; lanes exit on EOF, and one that does not within a second is killed."""
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None
        deadline = time.monotonic() + LANE_EXIT_WAIT
        for lane in self._processes:
            lane.join(max(0.0, deadline - time.monotonic()))
            if lane.is_alive():
                lane.kill()
                lane.join()
        self._processes = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, ctx: EvalContext) -> SliceResult:
        """The full neighborhood: one scan's best index and makespan, for any lane count."""
        result, _ = self.evaluate_blocks(ctx, NeighborhoodSlice(0, neighborhood_size(len(ctx.order))), None)
        return result

    def evaluate_blocks(self, ctx: EvalContext, nslice: NeighborhoodSlice,
                        deadline: float | None) -> tuple[SliceResult, int]:
        """Evaluate as much of ``nslice`` as the absolute ``deadline`` (None: no limit) allows.

        Returns (result over the evaluated prefix, prefix end); the prefix
        is contiguous from ``nslice.begin``. What lanes left is scanned here
        when no lane is live or there is no deadline; EvaluationError only if
        that scan fails.
        """
        t0 = time.perf_counter()
        parts, frontier = [], nslice.begin
        coordinator = self._coordinator
        if coordinator is not None and nslice:
            covered, frontier = coordinator.evaluate_blocks(ctx, nslice, deadline)
            parts.append((nslice.begin, frontier, covered.best_index, covered.best_makespan))
        if frontier < nslice.end and (coordinator is None or deadline is None or not coordinator.live_nodes()):
            try:
                best_idx, best_ms, evaluated = scan_slice(ctx.instance, ctx.order, ctx.tabu.entries, ctx.incumbent,
                                                          frontier, nslice.end, deadline, self.per_move_delay)
            except Exception as exc:
                if coordinator is None:
                    raise
                raise EvaluationError(f"no lane covered [{frontier}, {nslice.end}) and the inline scan failed") from exc
            parts.append((frontier, frontier + evaluated, best_idx, best_ms))
        frontier, best_idx, best_ms = merge_prefix(parts, nslice.begin)
        return SliceResult(best_idx, best_ms, frontier - nslice.begin, time.perf_counter() - t0), frontier

    def calibrate(self, inst: ProblemInstance, budget: float) -> float:
        """Measure this evaluator's speed on ``inst`` in moves/second.

        One timed round after a one-move warm-up; the budget caps it. The
        warm-up move forks the lanes, if they are not running yet, before
        the clock. Then one full neighborhood round of the instance's
        initial order is timed, cut short if ``budget`` (counted from the
        warm-up) elapses, and the answer is its moves over its elapsed
        time; if the budget left no move to time, it is the warm-up move's
        speed, so the returned speed is positive.
        """
        if budget <= 0:
            raise ValueError(f"calibration budget must be > 0, got {budget}")
        total = neighborhood_size(inst.num_jobs)
        if total == 0:
            raise ValueError("calibration instance needs at least 2 jobs")
        order = initial_order(inst)
        ctx = EvalContext(inst, order, TabuList(), evaluate_makespan(inst, order))
        deadline = time.monotonic() + budget
        warmup, _ = self.evaluate_blocks(ctx, NeighborhoodSlice(0, 1), None)
        timed, _ = self.evaluate_blocks(ctx, NeighborhoodSlice(0, total), deadline)
        if not timed.moves_evaluated:
            timed = warmup
        return timed.moves_evaluated / timed.elapsed if timed.elapsed > 0 else float(timed.moves_evaluated)
