"""Super server: a group of workers presented upstream as one worker.

The server speaks the ordinary worker protocol, but its evaluation
backend fans every request out over child nodes using the same
proportional planning, redistribution and fault handling as the top
level coordinator. The accepted child results are reduced with the
shared prefix reducer (``tabu.merge_prefix``): the reply covers the
contiguous prefix of the request, and the rest goes back upstream as
the remaining range. Children may themselves be super servers, so
arbitrary trees compose; the client only ever balances over its direct
children. Calibration forwards to all children concurrently and reports
the sum of their speeds, and the speed reported with each evaluation is
the aggregate throughput of the subtree.
"""

from __future__ import annotations

import logging
import threading
import time

from .coordinator import CoordinatorConfig, DispatchPool
from .instance import ProblemInstance, instance_digest
from .tabu import SliceResult, merge_prefix
from .worker import WorkerServer

log = logging.getLogger(__name__)


class FanoutBackend:
    """Evaluation backend that delegates to child nodes."""

    def __init__(self, children, config: CoordinatorConfig | None = None):
        self.pool = DispatchPool(list(children), config)
        self._problems: dict[str, ProblemInstance] = {}
        self._connected = False
        self._lock = threading.Lock()

    @property
    def lanes(self) -> int:
        # upstream's HELLO asks first; every child is connected once to answer it,
        # later requests connect (or reconnect) the children they pick
        with self._lock:
            if not self._connected:
                self.pool.connect_all()
                self._connected = True
        return sum(p.lanes for p in self.pool.live_nodes())

    def set_problem(self, inst: ProblemInstance) -> str:
        digest = instance_digest(inst)
        self._problems[digest] = inst
        self.pool.set_problem(inst)
        return digest

    def has_problem(self, digest: str) -> bool:
        return digest in self._problems

    def calibrate(self, inst: ProblemInstance, budget: float) -> float:
        speeds = self.pool.calibrate(inst, budget)
        if not speeds:
            raise RuntimeError("no child node completed calibration")
        log.info("subtree calibrated: %d child(ren), %.1f moves/s aggregate",
                 len(speeds), sum(speeds.values()))
        return sum(speeds.values())

    def evaluate(self, digest, order, tabu, incumbent, nslice, deadline) -> tuple[SliceResult, int]:
        if not self.pool.live_nodes():
            raise RuntimeError("all child nodes dead")
        t0 = time.perf_counter()
        results = self.pool.cover(nslice, (digest, order, tabu, incumbent), time.monotonic() + deadline)
        if not results and not self.pool.live_nodes():
            raise RuntimeError("all child nodes dead")
        # anything past the contiguous prefix is redispatched upstream
        frontier, best_idx, best_ms = merge_prefix(results, nslice.begin)
        return SliceResult(best_idx, best_ms, frontier - nslice.begin, time.perf_counter() - t0), frontier

    def close(self):
        self.pool.close()


def serve_as_super_server(host: str, port: int, children,
                          config: CoordinatorConfig | None = None, **kwargs) -> WorkerServer:
    """Create (unstarted) a worker-protocol server backed by child nodes."""
    return WorkerServer(host, port, backend=FanoutBackend(children, config), **kwargs)
