"""Super server: a group of workers presented upstream as one worker.

The server speaks the ordinary worker protocol, but its evaluation
backend holds one ``Coordinator`` over its child nodes, the same class
that drives the top-level search, with the same proportional planning,
redistribution and fault handling. Each EVAL is one call to
``Coordinator.evaluate_blocks``: the reply covers the contiguous prefix
of the request, and the rest goes back upstream as the remaining range.
Children may themselves be super servers, so arbitrary trees compose;
the client only ever balances over its direct children. Calibration
forwards to all children concurrently and reports the sum of their
speeds, and the speed reported with each evaluation is the aggregate
throughput of the subtree.
"""

from __future__ import annotations

import logging
import threading
import time

from .coordinator import Coordinator, CoordinatorConfig
from .instance import ProblemInstance
from .tabu import EvalContext, SliceResult
from .worker import LocalBackend, WorkerServer

log = logging.getLogger(__name__)


class FanoutBackend:
    """Evaluation backend that delegates to child nodes.

    Like a worker's ``LocalBackend``, it keeps only the most recently set
    ``LocalBackend.MAX_CACHED_PROBLEMS`` problems; an EVAL for an evicted
    one is answered "unknown problem".
    """

    def __init__(self, children, config: CoordinatorConfig | None = None):
        self.coordinator = Coordinator(children, config)
        self._problems: dict[str, ProblemInstance] = {}
        self._connected = False
        self._lock = threading.Lock()

    @property
    def lanes(self) -> int:
        # upstream's HELLO asks first; every child is connected once to answer it,
        # later requests connect (or reconnect) the children they pick
        with self._lock:
            if not self._connected:
                self.coordinator.connect_all()
                self._connected = True
        return sum(p.lanes for p in self.coordinator.live_nodes())

    def set_problem(self, inst: ProblemInstance) -> str:
        digest = self.coordinator.set_problem(inst)
        self._problems.pop(digest, None)  # a known problem moves to the newest position
        self._problems[digest] = inst
        if len(self._problems) > LocalBackend.MAX_CACHED_PROBLEMS:
            del self._problems[next(iter(self._problems))]
        return digest

    def has_problem(self, digest: str) -> bool:
        return digest in self._problems

    def calibrate(self, inst: ProblemInstance, budget: float) -> float:
        speeds = self.coordinator.calibrate_on(inst, budget)
        if not speeds:
            raise RuntimeError("no child node completed calibration")
        log.info("subtree calibrated: %d child(ren), %.1f moves/s aggregate",
                 len(speeds), sum(speeds.values()))
        return sum(speeds.values())

    def evaluate(self, digest, order, tabu, incumbent, nslice, deadline) -> tuple[SliceResult, int]:
        coordinator = self.coordinator
        accepted = sum(p.moves for p in coordinator.proxies)
        reply = coordinator.evaluate_blocks(EvalContext(self._problems[digest], order, tabu, incumbent),
                                            nslice, time.monotonic() + deadline)
        if sum(p.moves for p in coordinator.proxies) == accepted and not coordinator.live_nodes():
            raise RuntimeError("all child nodes dead")  # no child result was accepted
        return reply

    def close(self):
        self.coordinator.close()


def serve_as_super_server(host: str, port: int, children,
                          config: CoordinatorConfig | None = None, **kwargs) -> WorkerServer:
    """Create (unstarted) a worker-protocol server backed by child nodes."""
    return WorkerServer(host, port, backend=FanoutBackend(children, config), **kwargs)
