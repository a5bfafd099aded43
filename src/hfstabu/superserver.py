"""Super server: a group of workers presented upstream as one worker.

The server speaks the ordinary worker protocol, but its evaluation
backend holds one ``Coordinator`` over its child nodes, the same class
that drives the top-level search, with the same proportional planning,
redistribution and fault handling. Each EVAL is one call to
``Coordinator.evaluate_blocks``: the reply covers the contiguous prefix
of the request, and the rest goes back upstream as the remaining range.
Children may themselves be super servers, so arbitrary trees compose;
the client only ever balances over its direct children. Each child gets
its handshake while the server is built, and its first EVAL in the first
round asked of the server. Like every node, each child starts from
``NOMINAL_SPEED`` and is measured by the rounds it serves, so the speed
the super server reports with each evaluation is the throughput of the
subtree.
"""

from __future__ import annotations

from .coordinator import Coordinator
from .tabu import SliceResult
from .worker import Backend, WorkerServer


class FanoutBackend(Backend):
    """Evaluation backend that delegates to child nodes: a ``Backend`` over one ``Coordinator``.

    It shares a worker's problem cache; the coordinator sends a problem
    to the children before the first EVAL that needs it.
    """

    def __init__(self, children):
        self.coordinator = Coordinator(children)
        super().__init__(self.coordinator)
        self.coordinator.connect_all()  # before the server starts: upstream's HELLO reads the lanes

    @property
    def lanes(self) -> int:
        return sum(p.lanes for p in self.coordinator.live_nodes())

    def evaluate(self, digest, order, tabu, incumbent, nslice, deadline) -> tuple[SliceResult, int]:
        coordinator = self.coordinator
        accepted = sum(p.moves for p in coordinator.proxies)
        reply = super().evaluate(digest, order, tabu, incumbent, nslice, deadline)
        if sum(p.moves for p in coordinator.proxies) == accepted and not coordinator.live_nodes():
            raise RuntimeError("all child nodes dead")  # no child result was accepted
        return reply


def serve_as_super_server(host: str, port: int, children, **kwargs) -> WorkerServer:
    """Create (unstarted) a worker-protocol server backed by child nodes, connected to them."""
    backend = FanoutBackend(children)
    try:
        return WorkerServer(host, port, backend=backend, **kwargs)
    except BaseException:
        backend.close()  # the children's connections are already open
        raise
