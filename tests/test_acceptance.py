"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 5 measures real parallel speedup and therefore requires
at least 4 physical cores; on smaller hosts it skips with an explanation.
"""

import itertools
import random
import time

import pytest

from hfstabu.coordinator import Coordinator, CoordinatorConfig, NodePerfHistory, predict
from hfstabu.instance import generate_instance
from hfstabu.neighborhood import NeighborhoodSlice, decode_move, neighborhood_size
from hfstabu.parallel import LaneEvaluator
from hfstabu.schedule import evaluate_makespan
from hfstabu.superserver import serve_as_super_server
from hfstabu.tabu import (
    EvalContext,
    SearchParams,
    TabuList,
    merge_prefix,
    run_search,
)
from hfstabu.worker import WorkerServer

from netharness import LatencyRelay, SubprocessWorker, record_cover
from oracles import build_schedule, evaluate_slice, random_small_instance, simulate, verify_exact_cover


def report(criterion, name, detail=""):
    print(f"[acceptance] criterion {criterion:>2} ({name}): PASS  {detail}")


def physical_cores():
    try:
        import psutil

        cores = psutil.cpu_count(logical=False)
        if cores:
            return cores
    except ImportError:
        pass
    import os

    return os.cpu_count() or 1


def fast_config(**overrides):
    defaults = dict(calibration_budget=0.2, calibration_jobs=6, calibration_stages=2,
                    calibration_machines=2, calibration_grace=5.0)
    defaults.update(overrides)
    return CoordinatorConfig(**defaults)


def sequential_evaluator(ctx):
    total = neighborhood_size(len(ctx.order))
    return evaluate_slice(ctx.instance, ctx.order, ctx.tabu, ctx.incumbent, NeighborhoodSlice(0, total))


def trace_key(result):
    return [(r.iteration, r.move_index, r.makespan, r.incumbent) for r in result.trace]


def timed_local_run(inst, params, lanes):
    with LaneEvaluator(inst, lanes) as evaluator:
        t0 = time.perf_counter()
        result = run_search(inst, params, evaluator.evaluate)
        return time.perf_counter() - t0, result


# -- criterion 1 -----------------------------------------------------------------


def test_criterion_1_decoder_oracle_equivalence():
    rng = random.Random(20260810)
    t0 = time.perf_counter()
    for _ in range(200):
        inst = random_small_instance(rng, max_jobs=6, max_stages=3, max_machines=3)
        order = list(range(inst.num_jobs))
        rng.shuffle(order)
        decoded = build_schedule(inst, tuple(order))
        sim_makespan, _ = simulate(inst, order)
        assert decoded.makespan == sim_makespan
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    report(1, "decoder oracle equivalence", f"200 instances exact in {elapsed:.2f}s")


# -- criterion 2 -----------------------------------------------------------------


def test_criterion_2_neighborhood_bijection():
    t0 = time.perf_counter()
    for n in range(2, 11):
        total = neighborhood_size(n)
        seen = set()
        for k in range(total):
            mv = decode_move(k, n)
            assert 0 <= mv.from_pos < n and 0 <= mv.to_pos < n and mv.from_pos != mv.to_pos
            seen.add((mv.from_pos, mv.to_pos))
        assert len(seen) == total == n * (n - 1)
        assert seen == {(f, t) for f in range(n) for t in range(n) if f != t}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(2, "neighborhood bijection", f"n=2..10 exhaustive in {elapsed:.3f}s")


# -- criterion 3 -----------------------------------------------------------------


def test_criterion_3_partition_independence():
    rng = random.Random(31337)
    for _ in range(50):
        inst = random_small_instance(rng, max_jobs=8, min_jobs=4, max_stages=3, max_machines=3)
        n = inst.num_jobs
        order = tuple(rng.sample(range(n), n))
        entries = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6)))
        tabu = TabuList(entries, tenure=7)
        incumbent = rng.choice([evaluate_makespan(inst, order), rng.randint(1, 30), 10**6])
        total = neighborhood_size(n)
        whole = evaluate_slice(inst, order, tabu, incumbent, NeighborhoodSlice(0, total))
        for _ in range(20):
            cuts = sorted(rng.sample(range(total + 1), rng.randint(0, min(8, total))))
            bounds = [0] + cuts + [total]
            parts = []
            for b, e in zip(bounds, bounds[1:]):
                res = evaluate_slice(inst, order, tabu, incumbent, NeighborhoodSlice(b, e))
                parts.append((b, b + res.moves_evaluated, res.best_index, res.best_makespan))
            assert merge_prefix(parts[::-1], 0) == (total, whole.best_index, whole.best_makespan)
    report(3, "partition independence", "50 contexts x 20 partitions exact")


# -- criterion 4 -----------------------------------------------------------------


def test_criterion_4_determinism_ladder():
    inst = generate_instance(10, 5, 5, seed=4242)
    params = SearchParams(iterations=100, seed=42, diversify_after=10)

    sequential = run_search(inst, params, sequential_evaluator)
    reference = trace_key(sequential)
    labels = ["sequential"]

    with LaneEvaluator(inst, 4) as evaluator:
        parallel = run_search(inst, params, evaluator.evaluate)
    assert trace_key(parallel) == reference
    assert parallel.best_order == sequential.best_order
    labels.append("4-lane")

    with WorkerServer("127.0.0.1", 0, lanes=1) as w:
        single = Coordinator([w.address], fast_config())
        try:
            got = single.run(inst, params)
        finally:
            single.close()
    assert trace_key(got) == reference
    assert got.best_order == sequential.best_order
    labels.append("1 worker")

    workers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(3)]
    for w in workers:
        w.start()
    try:
        triple = Coordinator([w.address for w in workers], fast_config())
        try:
            got = triple.run(inst, params)
        finally:
            triple.close()
        assert trace_key(got) == reference
        assert got.best_order == sequential.best_order
    finally:
        for w in workers:
            w.shutdown()
    labels.append("3 workers")

    leaves = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(3)]
    for w in leaves:
        w.start()
    sup = serve_as_super_server("127.0.0.1", 0, [leaves[0].address, leaves[1].address], fast_config())
    sup.start()
    try:
        tree = Coordinator([sup.address, leaves[2].address], fast_config())
        try:
            got = tree.run(inst, params)
        finally:
            tree.close()
        assert trace_key(got) == reference
        assert got.best_order == sequential.best_order
    finally:
        sup.shutdown()
        for w in leaves:
            w.shutdown()
    labels.append("super-server tree")

    assert any(r.incumbent < sequential.initial_makespan for r in sequential.trace)
    report(4, "determinism ladder", f"identical traces: {', '.join(labels)}")


# -- criteria 5 and 6 ---------------------------------------------------------------


@pytest.mark.skipif(
    physical_cores() < 4,
    reason=f"host has {physical_cores()} physical core(s); the parallel speedup "
           "measurement is defined for hosts with at least 4",
)
def test_criterion_5_parallel_speedup():
    inst = generate_instance(50, 10, 5, seed=1)
    params = SearchParams(iterations=100, seed=1)
    t1, r1 = timed_local_run(inst, params, 1)
    t4, r4 = timed_local_run(inst, params, 4)
    assert trace_key(r1) == trace_key(r4)
    speedup = t1 / t4
    assert 3.0 <= speedup <= 4.3, f"4-lane speedup {speedup:.2f} outside [3.0, 4.3]"
    report(5, "parallel speedup", f"50x10x5: {t1:.1f}s -> {t4:.1f}s, speedup {speedup:.2f}")


def test_criterion_6_small_problem_threshold():
    inst = generate_instance(10, 2, 5, seed=1)
    params = SearchParams(iterations=100, seed=1)
    t1, r1 = timed_local_run(inst, params, 1)
    t4, r4 = timed_local_run(inst, params, 4)
    assert trace_key(r1) == trace_key(r4)
    speedup = t1 / t4
    assert speedup < 1.5, f"10x2x5 4-lane speedup {speedup:.2f}, expected below 1.5"
    report(6, "small-problem threshold", f"10x2x5 speedup {speedup:.2f} < 1.5")


# -- criterion 7 -----------------------------------------------------------------


def test_criterion_7_proportional_balancing(monkeypatch):
    inst = generate_instance(10, 2, 5, seed=7)
    fast = WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.004)
    slow = WorkerServer("127.0.0.1", 0, lanes=1, per_move_delay=0.016)
    fast.start()
    slow.start()
    coordinator = Coordinator([fast.address, slow.address], fast_config(calibration_budget=0.4))
    _, plans = record_cover(monkeypatch, coordinator)
    try:
        coordinator.run(inst, SearchParams(iterations=11, seed=7))
        plan = plans[10][0]  # first dispatch round of iteration 10, in node order
        ratio = plan[0] / plan[1]
        assert abs(ratio / 4.0 - 1.0) <= 0.10, f"plan ratio {ratio:.2f} not within 10% of 4:1"
        report(7, "proportional balancing",
               f"sizes {plan[0]}:{plan[1]} after 10 iterations (ratio {ratio:.2f})")
    finally:
        coordinator.close()
        fast.shutdown()
        slow.shutdown()


# -- criterion 8 -----------------------------------------------------------------


def test_criterion_8_fault_tolerance():
    inst = generate_instance(10, 5, 5, seed=88)
    params = SearchParams(iterations=100, seed=88)
    total = neighborhood_size(10)

    def run_with_workers(kill_at=None):
        workers = [SubprocessWorker(lanes=1) for _ in range(3)]
        coordinator = Coordinator([w.address for w in workers], fast_config())
        try:
            killed = []

            def maybe_kill(record):
                if kill_at is not None and record.iteration == kill_at - 1 and not killed:
                    workers[1].kill()
                    killed.append(True)

            with pytest.MonkeyPatch.context() as monkeypatch:
                audits, _ = record_cover(monkeypatch, coordinator)
                result = coordinator.run(inst, params, on_iteration=maybe_kill)
            states = [p.state for p in coordinator.proxies]
            return result, audits, states
        finally:
            coordinator.close()
            for w in workers:
                w.kill()

    baseline, base_audits, _ = run_with_workers(kill_at=None)
    failed, audits, states = run_with_workers(kill_at=50)

    assert len(audits) == 100
    for audit in audits:
        verify_exact_cover([(b, e, None, None) for b, e in audit], 0, total)
    assert states[1] == "dead"
    assert failed.best_makespan == baseline.best_makespan
    assert failed.best_order == baseline.best_order
    assert trace_key(failed) == trace_key(baseline)
    report(8, "fault tolerance",
           "worker killed at iteration 50/100; coverage exact, incumbent unchanged")


# -- criterion 9 -----------------------------------------------------------------


def test_criterion_9_predictor_arithmetic():
    assert predict(NodePerfHistory([(100, 10.0), (300, 20.0)])) == 17.5
    assert predict(NodePerfHistory([(7, 123.0)])) == 123.0
    assert predict(NodePerfHistory([(1, 4.0), (10**6, 4.0), (3, 4.0)])) == 4.0
    assert predict(NodePerfHistory([(50, 2.0), (50, 6.0)])) == 4.0
    with pytest.raises(ValueError):
        predict(NodePerfHistory())
    report(9, "predictor arithmetic", "weighted-average formula exact")


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_hardware_bound_results_stated_and_latency_run():
    with open("README.md", encoding="utf-8") as fh:
        readme = fh.read()
    assert "hardware-bound" in readme, "README must state which published numbers are hardware-bound"

    inst = generate_instance(10, 2, 5, seed=10)
    params = SearchParams(iterations=5, seed=10)
    with WorkerServer("127.0.0.1", 0, lanes=1) as worker:
        plain = Coordinator([worker.address], fast_config())
        try:
            t0 = time.perf_counter()
            base = plain.run(inst, params)
            base_wall = time.perf_counter() - t0
        finally:
            plain.close()
        with LatencyRelay(worker.address, up_s=0.1, down_s=0.1) as relay:
            lagged = Coordinator([relay.address], fast_config())
            try:
                t0 = time.perf_counter()
                slow = lagged.run(inst, params)
                slow_wall = time.perf_counter() - t0
            finally:
                lagged.close()
    assert trace_key(slow) == trace_key(base)
    overhead = slow_wall - base_wall
    assert overhead >= 0.6, f"expected visible latency overhead, got {overhead:.2f}s"
    report(10, "non-reproducible results stated",
           f"latency-injected trajectory identical; overhead {overhead:.2f}s over {base_wall:.2f}s")


# -- criterion 11 ----------------------------------------------------------------


def test_criterion_11_heuristic_sanity():
    rng = random.Random(20260810)
    improved = 0
    for k in range(30):
        n = rng.randint(5, 7)
        m = rng.randint(2, 3)
        machines = rng.randint(2, 3)
        inst = generate_instance(n, m, machines, seed=rng.randrange(2**31))
        optimum = min(evaluate_makespan(inst, perm) for perm in itertools.permutations(range(n)))
        result = run_search(inst, SearchParams(iterations=100, seed=k), sequential_evaluator)
        assert result.best_makespan >= optimum, "reported makespan below the exhaustive optimum"
        if result.best_makespan < result.initial_makespan:
            improved += 1
    assert improved >= 24, f"improved only {improved}/30 initial solutions (need 80%)"
    report(11, "heuristic sanity", f"never below optimum; improved {improved}/30 initial solutions")
