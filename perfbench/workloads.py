"""Workload definitions, the reason for each, and the layer -> end-to-end map.

Every workload is a closed loop: one search loop (in-process, or the
coordinator for the distributed ones) waits for each iteration before it
starts the next. The instance is ``generate_instance(jobs, stages, 5,
seed)`` with the seed given on the command line, and every search uses
the default ``SearchParams`` (tenure 7, diversify after 20 iterations),
as ``hfstabu solve`` does. At most two compute processes run at once.

Later issues cite workloads by name and layer metrics by the names in
``LAYER_EFFECTS``.
"""

from __future__ import annotations

from dataclasses import dataclass

MACHINES_PER_STAGE = 5

# The default seed, and the held-out seed on which a claimed gain must
# also hold (it is not used while a change is being written).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# Every run times at least this many iterations, so that the p90 of the
# per-iteration time has at least ten samples beyond it.
MIN_ITERATIONS = 100

# Injected per-move sleep on the slow worker of dist-30x5-hetero. It makes
# that worker calibrate at roughly half the speed of the undelayed one.
HETERO_SLOW_DELAY_S = 0.0002


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    stages: int
    mode: str  # "local" | "flat" | "tree"
    # per-move delay of each worker daemon (flat and tree only); every
    # worker runs with --lanes 1
    worker_delays: tuple[float, ...]
    why: str

    @property
    def moves(self) -> int:
        return self.jobs * (self.jobs - 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "local-30x5", 30, 5, "local", (),
            "In-process with one lane per core. A round scans 870 moves, so the decoder does "
            "almost all of the work and pool dispatch is about 1%. Batch decoding must show here.",
        ),
        Workload(
            "local-10x2", 10, 2, "local", (),
            "In-process with one lane per core. A round is 90 moves at about 3 ms, so lane "
            "dispatch and the engine are a large share. Bypass workload for decoder changes; "
            "a lane path that adds IPC regresses here.",
        ),
        Workload(
            "dist-30x5-hetero", 30, 5, "flat", (0.0, HETERO_SLOW_DELAY_S),
            "Coordinator in the benchmark process over two loopback --lanes 1 workers, one "
            "about half as fast. Proportional planning, calibration and deadlines set the "
            "iteration time; the only workload where per-move cost drifting from calibration "
            "shows, as imbalance.",
        ),
        Workload(
            "tree-10x5", 10, 5, "tree", (0.0, 0.0),
            "Coordinator -> one super server in its own process -> two --lanes 1 workers. A "
            "small scan, so the codec, two network hops, the coordinator and the super "
            "server's reduce dominate. The only workload that runs the super server.",
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload. Recorded before any optimisation, so a later change can be
# checked against the prediction (choosing-metrics section 3).
LAYER_EFFECTS = {
    "schedule.decode_us": "iter_ms_p50 and moves_per_s on local-30x5; damped on dist-30x5-hetero "
                          "by the slow worker's sleep; little change on local-10x2 and tree-10x5",
    "tabu.scan_moves_per_s": "moves_per_s on local-30x5; also tracks host speed drift",
    "tabu.engine_ms": "iter_ms_p50 on local-10x2 only",
    "parallel.round_ms": "iter_ms_p50 and iter_ms_p90 on local-10x2; no pool on the distributed "
                         "workloads",
    "parallel.overhead_ms": "iter_ms_p50 and iter_ms_p90 on local-10x2",
    "parallel.efficiency": "iter_ms_p50 and iter_ms_p90 on local-10x2",
    "protocol.eval_bytes": "iter_ms_p50 on tree-10x5",
    "protocol.eval_codec_us": "iter_ms_p50 on tree-10x5; invisible elsewhere",
    "protocol.result_codec_us": "iter_ms_p50 on tree-10x5",
    "protocol.set_problem_bytes": "setup_s on tree-10x5 and dist-30x5-hetero, negligibly",
    "protocol.set_problem_codec_us": "setup_s on tree-10x5 and dist-30x5-hetero, negligibly",
    "worker.busy_ms": "moves_per_s on dist-30x5-hetero",
    "worker.speed_moves_per_s": "moves_per_s on dist-30x5-hetero",
    "worker.busy_frac": "moves_per_s on dist-30x5-hetero",
    "coordinator.overhead_ms": "iter_ms_p50 on tree-10x5, then on dist-30x5-hetero",
    "coordinator.imbalance": "iter_ms_p50 and iter_ms_p90 on dist-30x5-hetero",
    "coordinator.redistribution_rounds": "iter_ms_p90 on dist-30x5-hetero and tree-10x5",
    "coordinator.late_results": "iter_ms_p90 on dist-30x5-hetero and tree-10x5",
    "coordinator.calibrate_s": "setup_s on dist-30x5-hetero and tree-10x5",
    "superserver.overhead_ms": "iter_ms_p50 on tree-10x5",
    "trace.overhead_ms": "none: traced minus untraced iter_ms_p50 of the same run",
}

# Layers a workload does not run; their metrics read 0 there.
ABSENT_LAYERS = {
    "local": ("worker", "coordinator", "superserver"),
    "flat": ("parallel", "superserver"),
    "tree": ("parallel",),
}
