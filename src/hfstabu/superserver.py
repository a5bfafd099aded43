"""Super server: a group of workers presented upstream as one worker.

The server speaks the ordinary worker protocol, but its evaluation
backend holds one ``Coordinator`` over its child nodes, the same class
that drives the top-level search, with the same proportional planning,
redistribution and fault handling. Each EVAL is one call to
``Coordinator.evaluate_blocks``: the reply covers the contiguous prefix
of the request, and the rest goes back upstream as the remaining range.
Children may themselves be super servers, so arbitrary trees compose;
the client only ever balances over its direct children. Children are
never calibrated on their own: like every node, each starts from
``NOMINAL_SPEED`` and is measured by the rounds it serves. So the speed
the super server reports with each evaluation, the warm-up's included, is
the throughput of the subtree.
"""

from __future__ import annotations

import threading

from .coordinator import Coordinator, CoordinatorConfig
from .tabu import SliceResult
from .worker import Backend, WorkerServer


class FanoutBackend(Backend):
    """Evaluation backend that delegates to child nodes: a ``Backend`` over one ``Coordinator``.

    It shares a worker's problem cache; the coordinator sends a problem
    to the children before the first EVAL that needs it.
    """

    def __init__(self, children, config: CoordinatorConfig | None = None):
        self.coordinator = Coordinator(children, config)
        super().__init__(self.coordinator)
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

    def evaluate(self, digest, order, tabu, incumbent, nslice, deadline) -> tuple[SliceResult, int]:
        coordinator = self.coordinator
        accepted = sum(p.moves for p in coordinator.proxies)
        reply = super().evaluate(digest, order, tabu, incumbent, nslice, deadline)
        if sum(p.moves for p in coordinator.proxies) == accepted and not coordinator.live_nodes():
            raise RuntimeError("all child nodes dead")  # no child result was accepted
        return reply


def serve_as_super_server(host: str, port: int, children,
                          config: CoordinatorConfig | None = None, **kwargs) -> WorkerServer:
    """Create (unstarted) a worker-protocol server backed by child nodes."""
    return WorkerServer(host, port, backend=FanoutBackend(children, config), **kwargs)
