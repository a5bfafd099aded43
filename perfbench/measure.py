"""One benchmark run: set-up, timed phases, side measurements, the gate.

A run builds its instance from the seed, sets the evaluator up several
times (the last one is kept), then runs the tabu search through the
public entry points ``hfstabu solve`` uses: ``LaneEvaluator.evaluate``
or ``Coordinator.evaluate`` passed to ``run_search``. A phase runs the
search until it has timed ``min_iterations`` iterations and ``seconds``
have passed. An iteration is the time between two ``on_iteration``
callbacks: one evaluator call plus the engine step.

The untraced phase gives the end-to-end metrics. The traced run adds a
second, traced phase that records spans around the calls into each
layer, then takes side measurements (a one-lane scan, direct decodes,
codec round trips) on sampled iteration contexts, outside the iteration
spans. Every phase's trajectory is compared with a one-lane in-process
run of the same instance and seed; a phase that does not match, whose
evaluator raised or whose daemon died counts all its iterations failed.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

from hfstabu import (
    Coordinator,
    EvalContext,
    LaneEvaluator,
    NeighborhoodSlice,
    SearchError,
    SearchParams,
    SearchResult,
    TabuList,
    apply_move,
    decode_move,
    evaluate_makespan,
    generate_instance,
    initial_order,
    instance_digest,
    neighborhood_size,
    protocol,
    run_search,
)
from hfstabu.bench import trace_digest
from hfstabu.parallel import detected_lane_count
from hfstabu.tabu import scan_slice

from nodes import Cluster
from workloads import ABSENT_LAYERS, MACHINES_PER_STAGE, MIN_ITERATIONS, Workload

# Set-up is repeated and its median reported; distributed set-up is
# dominated by the 2 s calibration budget, so it is repeated less.
LOCAL_SETUPS = 5
DISTRIBUTED_SETUPS = 3
# A phase ends here even short of min_iterations, so a very slow host
# still finishes inside the run time limit (with fewer p90 samples).
MAX_PHASE_S = 60.0
# Timed iterations between two advances of the lockstep reference.
REFERENCE_BLOCK_S = 1.0
# Side measurements use the context of every SAMPLE_STRIDE-th iteration,
# at most MAX_SAMPLES of them.
SAMPLE_STRIDE = 10
MAX_SAMPLES = 10
DECODE_CANDIDATES = 32
CODEC_REPEATS = 200
SET_PROBLEM_REPEATS = 20
_UNBOUNDED = 10**9

# Per-layer metrics and their units; a layer a workload does not run reads 0.
LAYER_UNITS = {
    "schedule.decode_us": "us",
    "tabu.scan_moves_per_s": "1/s",
    "tabu.engine_ms": "ms",
    "parallel.round_ms": "ms",
    "parallel.overhead_ms": "ms",
    "parallel.efficiency": "ratio",
    "protocol.eval_bytes": "B",
    "protocol.eval_codec_us": "us",
    "protocol.result_codec_us": "us",
    "protocol.set_problem_bytes": "B",
    "protocol.set_problem_codec_us": "us",
    "worker.busy_ms": "ms",
    "worker.speed_moves_per_s": "1/s",
    "worker.busy_frac": "ratio",
    "coordinator.overhead_ms": "ms",
    "coordinator.imbalance": "ratio",
    "coordinator.redistribution_rounds": "count",
    "coordinator.late_results": "count",
    "coordinator.calibrate_s": "s",
    "superserver.overhead_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tracer:
    """Spans kept in memory as [id, parent, name, start, end]; written out at the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []

    def open(self, name: str, parent: int | None = None, start: float | None = None) -> int:
        self.spans.append([len(self.spans) + 1, parent, name,
                           time.perf_counter() if start is None else start, None])
        return len(self.spans)

    def close(self, sid: int, end: float | None = None):
        self.spans[sid - 1][4] = time.perf_counter() if end is None else end

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        sid = self.open(name, parent)
        try:
            yield sid
        finally:
            self.close(sid)

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name and s[4] is not None]

    def self_times(self, name: str) -> list[float]:
        """Duration of each closed span of this name minus its closed child spans."""
        covered: dict[int, float] = {}
        for sid, parent, _, start, end in self.spans:
            if parent is not None and end is not None:
                covered[parent] = covered.get(parent, 0.0) + end - start
        return [s[4] - s[3] - covered.get(s[0], 0.0)
                for s in self.spans if s[2] == name and s[4] is not None]

    def write(self, path):
        """One JSON object per closed span; a span cut by the end of a phase is left out."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                if end is not None:
                    fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")


class _Stop(Exception):
    """Raised from on_iteration to end a search."""


class LockstepReference:
    """The one-lane in-process search every phase is checked against.

    It runs the same instance and seed on a thread of its own and
    computes iterations only when ``advance_to`` asks, waiting in between.
    A phase advances it after every REFERENCE_BLOCK_S of timed iterations,
    which spreads the timed iterations over about twice the wall time at
    no extra cost, so a burst of host speed lasting a few seconds moves
    the per-run median less, while iterations still run back to back.
    """

    def __init__(self, inst, seed: int):
        self.records: list = []
        self.error: str | None = None
        self._go = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._stop = False
        self._thread = threading.Thread(target=self._run, args=(inst, seed), daemon=True)
        self._thread.start()

    def _run(self, inst, seed: int):
        def on_iteration(record):
            self.records.append(record)
            self._done.release()
            self._go.acquire()
            if self._stop:
                raise _Stop

        try:
            self._go.acquire()
            if not self._stop:
                with LaneEvaluator(inst, 1) as evaluator:
                    run_search(inst, SearchParams(iterations=_UNBOUNDED, seed=seed), evaluator.evaluate,
                               on_iteration)
        except _Stop:
            pass
        except Exception as exc:  # reported as a failed phase, never raised into the timed loop
            self.error = f"reference search failed: {exc!r}"
        finally:
            self._done.release()

    def advance_to(self, iterations: int):
        """Compute reference iterations until there are ``iterations`` of them."""
        while len(self.records) < iterations and self._thread.is_alive():
            self._go.release()
            self._done.acquire()

    def close(self):
        self._stop = True
        self._go.release()
        self._thread.join()


@dataclass
class Phase:
    traced: bool
    records: list = field(default_factory=list)
    iter_s: list[float] = field(default_factory=list)
    reference: list = field(default_factory=list)
    error: str | None = None
    dead: list[str] = field(default_factory=list)
    mismatch: str | None = None
    # traced phases only
    eval_s: list[float] = field(default_factory=list)
    samples: list = field(default_factory=list)      # (ctx, SliceResult, evaluate seconds)
    snapshots: list = field(default_factory=list)    # node_stats() before the phase, then per iteration
    redistribution_rounds: int = 0
    late_results: int = 0
    child_evals: list = field(default_factory=list)  # per child daemon: [(moves, busy s)] of the phase

    @property
    def attempted(self) -> int:
        return len(self.records) + (1 if self.error else 0)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.dead or self.mismatch)


def run_phase(inst, seed: int, evaluate, seconds: float, min_iterations: int,
              tracer: Tracer | None = None, coordinator=None, cluster: Cluster | None = None) -> Phase:
    """Run one search, advancing the reference between blocks of iterations, to the phase limit.

    The phase ends once it has timed ``min_iterations`` iterations and
    ``seconds`` of iteration time, or after MAX_PHASE_S of wall time.
    """
    phase = Phase(traced=tracer is not None)
    records = phase.records
    starts: list[float] = []
    ends: list[float] = []
    timed = 0.0
    next_advance = REFERENCE_BLOCK_S
    iteration = None  # the open iteration span

    if tracer is not None:
        search = tracer.open("tabu.run_search")
        eval_name = ("coordinator.Coordinator.evaluate" if coordinator is not None
                     else "parallel.LaneEvaluator.evaluate")
        inner = evaluate

        def evaluate(ctx):
            start = time.perf_counter()
            sid = tracer.open(eval_name, iteration, start)
            result = inner(ctx)
            end = time.perf_counter()
            tracer.close(sid, end)
            phase.eval_s.append(end - start)
            if len(records) % SAMPLE_STRIDE == 0 and len(phase.samples) < MAX_SAMPLES:
                phase.samples.append((ctx, result, end - start))
            if coordinator is not None:
                with tracer.span("probe.node_stats", iteration):
                    phase.snapshots.append(coordinator.node_stats())
            return result

    def advance_reference():
        if tracer is None:
            reference.advance_to(len(records))
        else:
            with tracer.span("reference.advance", search):
                reference.advance_to(len(records))

    def on_iteration(record):
        nonlocal timed, next_advance, iteration
        end = time.perf_counter()
        ends.append(end)
        records.append(record)
        timed += end - starts[-1]
        if tracer is not None:
            tracer.close(iteration, end)
        if cluster is not None:
            phase.dead = cluster.dead()
            if phase.dead:
                raise _Stop
        if (len(records) >= min_iterations and timed >= seconds) or end - starts[0] >= MAX_PHASE_S:
            raise _Stop
        if timed >= next_advance:
            next_advance = timed + REFERENCE_BLOCK_S
            advance_reference()
        starts.append(time.perf_counter())
        if tracer is not None:
            iteration = tracer.open("tabu.iteration", search, starts[-1])

    if coordinator is not None and tracer is not None:
        phase.snapshots.append(coordinator.node_stats())
        rounds, late = coordinator.redistribution_rounds, coordinator.late_results
    reference = LockstepReference(inst, seed)
    try:
        starts.append(time.perf_counter())
        if tracer is not None:
            iteration = tracer.open("tabu.iteration", search, starts[0])
        try:
            run_search(inst, SearchParams(iterations=_UNBOUNDED, seed=seed), evaluate, on_iteration)
        except _Stop:
            pass
        except SearchError as exc:
            phase.error = str(exc)
        advance_reference()
    finally:
        reference.close()
    if tracer is not None:
        tracer.close(search)
    if coordinator is not None and tracer is not None:
        phase.redistribution_rounds = coordinator.redistribution_rounds - rounds
        phase.late_results = coordinator.late_results - late
    phase.iter_s = [e - s for s, e in zip(starts, ends)]
    phase.reference = reference.records
    phase.mismatch = reference.error
    return phase


def _initial_context(inst, tenure: int) -> EvalContext:
    order = initial_order(inst)
    return EvalContext(inst, order, TabuList((), tenure), evaluate_makespan(inst, order))


def setup_local(inst, lanes: int, repeats: int, tracer: Tracer, stack: contextlib.ExitStack):
    """Build the lane pool and warm it with one evaluate, ``repeats`` times; keep the last."""
    ctx = _initial_context(inst, SearchParams(iterations=1).tenure)
    evaluator = None
    for _ in range(repeats):
        if evaluator is not None:
            evaluator.close()
        with tracer.span("setup") as sid:
            with tracer.span("parallel.LaneEvaluator", sid):
                evaluator = stack.enter_context(LaneEvaluator(inst, lanes))
            with tracer.span("parallel.LaneEvaluator.evaluate", sid):
                evaluator.evaluate(ctx)  # lanes start lazily; the trajectory is unaffected
    return evaluator


def setup_distributed(inst, seed: int, endpoints, repeats: int, tracer: Tracer,
                      stack: contextlib.ExitStack):
    """Connect, calibrate and send the problem, ``repeats`` times; keep the last coordinator."""
    coordinator = None
    speeds = {}
    for _ in range(repeats):
        if coordinator is not None:
            coordinator.close()
        with tracer.span("setup") as sid:
            coordinator = stack.enter_context(Coordinator(endpoints))
            with tracer.span("coordinator.calibrate", sid):
                speeds = coordinator.calibrate(seed)
            with tracer.span("coordinator.set_problem", sid):
                coordinator.set_problem(inst)
    return coordinator, speeds


def digest(records) -> str:
    return trace_digest(SearchResult((), 0, 0, tuple(records)))


def gate(phase: Phase, reference_digest: str | None = None):
    """Compare a phase's trajectory digest and best makespan with its reference's."""
    n = len(phase.records)
    if n == 0 or phase.mismatch:
        return
    reference = phase.reference[:n]
    want = reference_digest or digest(reference)
    got = digest(phase.records)
    if got != want:
        phase.mismatch = f"trajectory digest {got} != reference {want} over {n} iterations"
    elif phase.records[-1].incumbent != reference[-1].incumbent:
        phase.mismatch = f"best makespan {phase.records[-1].incumbent} != reference {reference[-1].incumbent}"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload: Workload, phase: Phase, setup_s: list[float], peak_rss_mb: float) -> dict:
    iter_s = phase.iter_s
    p90 = statistics.quantiles(iter_s, n=10, method="inclusive")[8] if len(iter_s) > 1 else _median(iter_s)
    total = sum(iter_s)
    return {
        "iter_ms_p50": (_median(iter_s) * 1e3, "ms"),
        "iter_ms_p90": (p90 * 1e3, "ms"),
        "moves_per_s": (len(iter_s) * workload.moves / total if total else 0.0, "1/s"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def side_measurements(inst, workload: Workload, phase: Phase, tracer: Tracer) -> dict:
    """Scan, decode and codec timings on the sampled contexts, outside the iteration spans."""
    n = inst.num_jobs
    total = neighborhood_size(n)
    inst_digest = instance_digest(inst)
    step = max(1, total // DECODE_CANDIDATES)
    out = {"scan_s": [], "decode_us": [], "eval_bytes": [], "eval_codec_us": [], "result_codec_us": []}
    side = tracer.open("side")
    for ctx, result, eval_s in phase.samples:
        with tracer.span("side.scan_slice", side):
            t0 = time.perf_counter()
            scan_slice(inst, ctx.order, ctx.tabu.entries, ctx.incumbent, 0, total)
            out["scan_s"].append(time.perf_counter() - t0)
        candidates = [apply_move(ctx.order, decode_move(k, n)) for k in range(0, total, step)]
        with tracer.span("side.evaluate_makespan", side):
            t0 = time.perf_counter()
            for cand in candidates:
                evaluate_makespan(inst, cand)
            out["decode_us"].append((time.perf_counter() - t0) / len(candidates) * 1e6)
        eval_msg = protocol.Eval(1, inst_digest, ctx.order, ctx.tabu, ctx.incumbent,
                                 NeighborhoodSlice(0, total), 1.0)
        result_msg = protocol.EvalResult(1, result.best_index, result.best_makespan, total,
                                         eval_s, total / eval_s, True)
        out["eval_bytes"].append(len(protocol.encode(eval_msg)))
        with tracer.span("side.protocol.Eval", side):
            out["eval_codec_us"].append(_codec_us(eval_msg, CODEC_REPEATS))
        with tracer.span("side.protocol.EvalResult", side):
            out["result_codec_us"].append(_codec_us(result_msg, CODEC_REPEATS))
    set_problem = protocol.SetProblem(1, inst)
    with tracer.span("side.protocol.SetProblem", side):
        out["set_problem_codec_us"] = _codec_us(set_problem, SET_PROBLEM_REPEATS)
    out["set_problem_bytes"] = len(protocol.encode(set_problem))
    tracer.close(side)
    return out


def _codec_us(msg, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        decoded = protocol.decode(protocol.encode(msg))
    elapsed = time.perf_counter() - t0
    if decoded != msg:
        raise AssertionError(f"{msg.TYPE} does not survive an encode/decode round trip")
    return elapsed / repeats * 1e6


def _node_deltas(snapshots, key: str) -> list[list[float]]:
    """Per iteration, per node: the increase of a node_stats() counter."""
    nodes = sorted(snapshots[0])
    return [[after[i][key] - before[i][key] for i in nodes] for before, after in zip(snapshots, snapshots[1:])]


def layer_metrics(workload: Workload, inst, phase: Phase, tracer: Tracer, lanes: int,
                  calibrate_s: list[float], untraced_p50_ms: float) -> dict:
    side = side_measurements(inst, workload, phase, tracer)
    total = neighborhood_size(inst.num_jobs)
    metrics = {name: (0.0, unit) for name, unit in LAYER_UNITS.items()}

    def put(name, value):
        metrics[name] = (value, LAYER_UNITS[name])

    put("schedule.decode_us", _median(side["decode_us"]))
    put("tabu.scan_moves_per_s", _median([total / s for s in side["scan_s"]]))
    put("tabu.engine_ms", _median(tracer.self_times("tabu.iteration")) * 1e3)
    put("protocol.eval_bytes", _median(side["eval_bytes"]))
    put("protocol.eval_codec_us", _median(side["eval_codec_us"]))
    put("protocol.result_codec_us", _median(side["result_codec_us"]))
    put("protocol.set_problem_bytes", side["set_problem_bytes"])
    put("protocol.set_problem_codec_us", side["set_problem_codec_us"])
    put("trace.overhead_ms", _median(phase.iter_s) * 1e3 - untraced_p50_ms)

    if workload.mode == "local":
        ideal = [scan / lanes for scan in side["scan_s"]]
        sampled = [eval_s for _, _, eval_s in phase.samples]
        put("parallel.round_ms", _median(phase.eval_s) * 1e3)
        put("parallel.overhead_ms", _median([(e - i) * 1e3 for e, i in zip(sampled, ideal)]))
        put("parallel.efficiency", _median([i / e for e, i in zip(sampled, ideal)]))
        return metrics

    busy = _node_deltas(phase.snapshots, "busy_seconds")
    put("coordinator.overhead_ms", _median([(e - max(b)) * 1e3 for e, b in zip(phase.eval_s, busy)]))
    put("coordinator.imbalance", _median([max(b) / (sum(b) / len(b)) for b in busy if sum(b) > 0]))
    put("coordinator.redistribution_rounds", phase.redistribution_rounds)
    put("coordinator.late_results", phase.late_results)
    put("coordinator.calibrate_s", _median(calibrate_s))

    if workload.mode == "flat":
        worker_busy = busy
        worker_moves = sum(map(sum, _node_deltas(phase.snapshots, "moves")))
    else:
        # the workers behind the super server, from their per-EVAL log lines;
        # iteration k is each child's k-th EVAL when every child served one
        # EVAL per iteration (no redistribution inside the super server)
        evals = phase.child_evals
        aligned = all(len(e) == len(busy) for e in evals)
        worker_busy = [[s for _, s in row] for row in zip(*evals)] if aligned else []
        worker_moves = sum(m for e in evals for m, _ in e) if aligned else 0
        put("superserver.overhead_ms", _median([(b[0] - max(w)) * 1e3 for b, w in zip(busy, worker_busy)]))
    busy_total = sum(map(sum, worker_busy))
    if busy_total and phase.eval_s:
        # a mean, not a median: the log lines give busy times in whole milliseconds
        put("worker.busy_ms", busy_total / (len(worker_busy) * len(worker_busy[0])) * 1e3)
        put("worker.speed_moves_per_s", worker_moves / busy_total)
        put("worker.busy_frac", busy_total / (len(worker_busy[0]) * sum(phase.eval_s)))
    return metrics


@dataclass
class RunResult:
    metrics: dict
    phases: list
    info: dict

    @property
    def attempted(self) -> int:
        return max(1, sum(p.attempted for p in self.phases))

    @property
    def failed(self) -> int:
        return sum(p.attempted for p in self.phases if p.failed)


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 min_iterations: int = MIN_ITERATIONS, setups: int | None = None,
                 reference_digest: str | None = None, spans_path=None) -> RunResult:
    inst = generate_instance(workload.jobs, workload.stages, MACHINES_PER_STAGE, seed)
    tracer = Tracer(f"{workload.name}-seed{seed}")
    lanes = detected_lane_count() if workload.mode == "local" else 1
    info = {"instance_digest": instance_digest(inst), "lanes": lanes}
    phases: list[Phase] = []
    calibrate_s: list[float] = []
    workers = []

    with contextlib.ExitStack() as stack:
        if workload.mode == "local":
            coordinator = cluster = None
            evaluator = setup_local(inst, lanes, setups or LOCAL_SETUPS, tracer, stack)
            evaluate = evaluator.evaluate
        else:
            cluster = stack.enter_context(Cluster())
            workers = [cluster.worker(delay) for delay in workload.worker_delays]
            top = [cluster.super_server(workers)] if workload.mode == "tree" else workers
            coordinator, speeds = setup_distributed(inst, seed, [n.address for n in top],
                                                    setups or DISTRIBUTED_SETUPS, tracer, stack)
            info["calibrated_moves_per_s"] = {top[i].name: round(s, 1) for i, s in sorted(speeds.items())}
            calibrate_s = tracer.durations("coordinator.calibrate")
            evaluate = coordinator.evaluate
        setup_s = tracer.durations("setup")

        phases.append(run_phase(inst, seed, evaluate, seconds, min_iterations, None, coordinator, cluster))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            marks = [len(w.eval_busy()) for w in workers]
            phase = run_phase(inst, seed, evaluate, seconds, min_iterations, tracer, coordinator, cluster)
            if workload.mode == "tree" and not phase.failed:
                expected = [m + len(phase.records) for m in marks]
                cluster.wait_for_evals(workers, expected)
                phase.child_evals = [w.eval_busy()[m:] for w, m in zip(workers, marks)]
            phases.append(phase)

    for phase in phases:
        gate(phase, reference_digest)
    info["trajectory_digest"] = [digest(p.records) for p in phases]
    info["iterations"] = [len(p.records) for p in phases]

    if traced:
        untraced_p50 = _median(phases[0].iter_s) * 1e3
        metrics = layer_metrics(workload, inst, phases[1], tracer, lanes, calibrate_s, untraced_p50)
        info["absent_layers"] = list(ABSENT_LAYERS[workload.mode])
        if spans_path is not None:
            tracer.write(spans_path)
    else:
        metrics = end_to_end(workload, phases[0], setup_s, peak_rss_mb)
    return RunResult(metrics, phases, info)
