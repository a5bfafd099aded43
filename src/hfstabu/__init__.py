"""Parallel/distributed tabu search for multiprocessor-task hybrid flow shops.

The package splits into a plain scheduling core (instances, the
list-scheduling decoder, the insertion-move neighborhood), a tabu
search engine with pluggable neighborhood evaluators, a multi-lane
parallel evaluator, and a distributed layer (wire protocol, worker
daemon, load-balancing coordinator, super servers). The ``hfstabu``
command exposes ``gen``, ``solve``, ``worker`` and ``bench``.
"""

from .instance import (
    InstanceError,
    InstanceParseError,
    InstanceValidationError,
    ProblemInstance,
    generate_instance,
    instance_digest,
    parse_instance,
    serialize_instance,
)
from .neighborhood import Move, NeighborhoodSlice, apply_move, decode_move, neighborhood_size
from .schedule import evaluate_makespan
from .tabu import (
    EvalContext,
    IterationRecord,
    SearchError,
    SearchParams,
    SearchResult,
    SliceResult,
    TabuList,
    diversify,
    initial_order,
    run_search,
    tabu_push,
)
from .parallel import EvaluationError, LaneEvaluator
from .coordinator import (
    CalibrationError,
    Coordinator,
    CoordinatorConfig,
    CoverageError,
    NodePerfHistory,
    PlanningError,
    plan_partition,
    predict,
    run_distributed_search,
)
from .worker import WorkerServer
from .superserver import FanoutBackend, serve_as_super_server

__version__ = "0.1.0"

__all__ = [
    "InstanceError",
    "InstanceParseError",
    "InstanceValidationError",
    "ProblemInstance",
    "generate_instance",
    "instance_digest",
    "parse_instance",
    "serialize_instance",
    "Move",
    "NeighborhoodSlice",
    "apply_move",
    "decode_move",
    "neighborhood_size",
    "evaluate_makespan",
    "EvalContext",
    "IterationRecord",
    "SearchError",
    "SearchParams",
    "SearchResult",
    "SliceResult",
    "TabuList",
    "diversify",
    "initial_order",
    "run_search",
    "tabu_push",
    "EvaluationError",
    "LaneEvaluator",
    "CalibrationError",
    "Coordinator",
    "CoordinatorConfig",
    "CoverageError",
    "NodePerfHistory",
    "PlanningError",
    "plan_partition",
    "predict",
    "run_distributed_search",
    "WorkerServer",
    "FanoutBackend",
    "serve_as_super_server",
]
