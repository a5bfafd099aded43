"""Multi-lane neighborhood evaluation: lanes are nodes.

``LaneEvaluator`` is a ``Coordinator`` over forked lane processes, the
dispatcher of workers and super servers: same plan, deadlines, failure
policy and prefix reducer, and the same ``evaluate_blocks``, with the
inline scan turned on. It adds only the lane count, the fork opener and
the reaping of lane processes. A lane is a forked process that runs the
worker request loop (``WorkerServer`` with one lane) on one end of a
socket pair, with no listener, until that socket closes. Lanes are
forked on first use and are never calibrated on their own: like every
node, each starts from ``NOMINAL_SPEED`` and is measured by the rounds
it serves. A lane gets an instance as a SET_PROBLEM right before its
first round of it, and again only once it would have forgotten it; its
one socket is its one connection, so it holds exactly the instances the
evaluator sent it last, and alternating instances ship only their
contexts.

A failed lane's range goes to the other lanes, and the strike closes
its socket, so it is forked anew before its next round; a lane that
fails twice in a row is dead. A lane cut by the budget keeps its socket
and is not replaced: its next round queues behind the cut one, and its
slice comes after the other lanes' until the cut one is answered. A
lane that has not answered it by its own timeout gets a strike. When no
lane is live, or there is no deadline, the caller scans inline what the
lanes left; only a failing inline scan aborts, with ``CoverageError``.
One lane is a coordinator with no nodes: every slice is scanned inline.

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

LANE_EXIT_WAIT = 1.0  # seconds close() waits for lanes to exit on EOF before it kills them


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


class LaneEvaluator(Coordinator):
    """A ``Coordinator`` over ``lanes`` forked lanes that scans inline what they leave.

    Keep one evaluator alive while there is work: each lane keeps the
    last ``protocol.MAX_CACHED_PROBLEMS`` instances it was sent, so a
    round ships only its context. ``instance`` is unused; only perfbench
    still passes it, by position. ``lanes=1`` is a coordinator with no
    nodes, which scans every slice inline. ``per_move_delay``, kept as
    ``inline_delay``, paces every scan, as a worker's does, for
    benchmarks and tests; a lane reads it when it is forked.
    """

    def __init__(self, instance: ProblemInstance | None = None, lanes: int | None = None,
                 per_move_delay: float = 0.0):
        lanes = lanes if lanes is not None else detected_lane_count()
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        super().__init__([("lane", i) for i in range(lanes)] if lanes > 1 else [], opener=self._fork_lane,
                         inline_delay=per_move_delay)
        self._processes: list = []  # multiprocessing.Process, one per lane forked

    @property
    def lanes(self) -> int:
        """The configured lane count, forked or not: what a ``--lanes N`` worker reports in HELLO."""
        return len(self.proxies) or 1

    def _fork_lane(self, address, timeout: float) -> socket.socket:
        """The opener of every lane: fork a lane process and return our end of its socket pair."""
        import multiprocessing

        self._processes = [p for p in self._processes if p.is_alive()]
        ours, theirs = socket.socketpair()
        try:
            lane = multiprocessing.get_context("fork").Process(
                target=_serve_lane, args=(theirs, self.inline_delay, _descriptors()),
                name=f"hfstabu-{address[0]}-{address[1]}", daemon=True)
            lane.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._processes.append(lane)
        return ours

    def close(self):
        """Close every lane's socket; lanes exit on EOF, and one that does not within a second is killed."""
        super().close()
        deadline = time.monotonic() + LANE_EXIT_WAIT
        for lane in self._processes:
            lane.join(max(0.0, deadline - time.monotonic()))
            if lane.is_alive():
                lane.kill()
                lane.join()
        self._processes = []
