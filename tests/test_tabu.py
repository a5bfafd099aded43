import functools
import random
import time

import pytest

from hfstabu.bench import trace_digest
from hfstabu.instance import ProblemInstance, generate_instance
from hfstabu.neighborhood import Move, NeighborhoodSlice, apply_move, decode_move, neighborhood_size
from hfstabu.schedule import evaluate_makespan
from hfstabu.tabu import (
    EvalContext,
    SearchError,
    SearchParams,
    TabuList,
    diversify,
    initial_order,
    merge_prefix,
    run_search,
    scan_slice,
    tabu_push,
)

from oracles import (build_schedule, encode_move, evaluate_slice, exhaustive_optimum, is_tabu, random_small_instance,
                     reference_scan)


def full_slice(n):
    return NeighborhoodSlice(0, neighborhood_size(n))


def sequential_evaluator(ctx):
    return evaluate_slice(ctx.instance, ctx.order, ctx.tabu, ctx.incumbent, full_slice(len(ctx.order)))


# -- tabu list ----------------------------------------------------------------


def test_reverse_insertion_is_tabu():
    order = (0, 1, 2, 3)
    mv = Move(0, 2)
    tabu = tabu_push(TabuList(), mv, order)
    moved = apply_move(order, mv)  # (1, 2, 0, 3)
    assert is_tabu(tabu.entries, Move(2, 0), moved)
    assert not is_tabu(tabu.entries, Move(2, 1), moved)


def test_fifo_eviction_beyond_tenure():
    order = tuple(range(8))
    tabu = TabuList((), tenure=2)
    tabu = tabu_push(tabu, Move(0, 5), order)
    first_attr = (0, 0)
    assert first_attr in tabu.entries
    tabu = tabu_push(tabu, Move(1, 5), order)
    tabu = tabu_push(tabu, Move(2, 5), order)
    assert len(tabu.entries) == 2
    assert first_attr not in tabu.entries


def test_empty_list_nothing_tabu():
    order = (0, 1, 2)
    for k in range(neighborhood_size(3)):
        assert not is_tabu(TabuList().entries, decode_move(k, 3), order)


def test_tabu_list_validation():
    with pytest.raises(ValueError):
        TabuList((), tenure=0)
    with pytest.raises(ValueError):
        TabuList(((0, 0), (1, 1)), tenure=1)


# -- slice evaluation ---------------------------------------------------------


def test_two_job_instance_picks_better_move():
    inst = ProblemInstance(2, 1, (1,), ((2,), (5,)), ((1,), (1,)))
    # both moves produce the same two-job sequences; brute force over both
    order = (0, 1)
    res = evaluate_slice(inst, order, TabuList(), 10**9, full_slice(2))
    expected = min(
        ((build_schedule(inst, apply_move(order, decode_move(k, 2))).makespan, k) for k in range(2))
    )
    assert (res.best_makespan, res.best_index) == expected
    assert res.moves_evaluated == 2


def test_tie_breaks_to_smallest_index():
    # unit durations at a single 1-processor stage: every order has equal makespan
    inst = ProblemInstance(3, 1, (1,), ((1,), (1,), (1,)), ((1,), (1,), (1,)))
    res = evaluate_slice(inst, (0, 1, 2), TabuList(), 10**9, full_slice(3))
    assert res.best_index == 0
    assert res.best_makespan == 3


def test_all_tabu_no_aspiration_yields_none():
    inst = ProblemInstance(2, 1, (1,), ((2,), (5,)), ((1,), (1,)))
    order = (0, 1)
    entries = tuple((order[decode_move(k, 2).from_pos], decode_move(k, 2).to_pos) for k in range(2))
    tabu = TabuList(entries, tenure=4)
    res = evaluate_slice(inst, order, tabu, 0, full_slice(2))  # incumbent 0: nothing aspires
    assert res.best_index is None and res.best_makespan is None
    assert res.moves_evaluated == 2


def test_aspiration_overrides_tabu():
    inst = ProblemInstance(2, 1, (1,), ((2,), (5,)), ((1,), (1,)))
    order = (0, 1)
    entries = tuple((order[decode_move(k, 2).from_pos], decode_move(k, 2).to_pos) for k in range(2))
    tabu = TabuList(entries, tenure=4)
    res = evaluate_slice(inst, order, tabu, 10**9, full_slice(2))
    assert res.best_index is not None  # every move beats an infinite incumbent


def test_scan_matches_reference_scan():
    rng = random.Random(2024)
    seen = set()
    for trial in range(250):
        # durations of 1-2 make many processors free at the same time
        inst = random_small_instance(rng, max_jobs=6, max_stages=3, max_machines=4, min_jobs=2,
                                     duration_cap=2 if trial % 2 else 9)
        for i, mi in enumerate(inst.processors_per_stage):
            if mi == 1:
                seen.add("mi == 1")
            elif any(w[i] == mi for w in inst.widths):
                seen.add("q == mi > 1")
        n = inst.num_jobs
        order = tuple(rng.sample(range(n), n))
        total = neighborhood_size(n)
        moves = [decode_move(k, n) for k in rng.sample(range(total), min(total, 4))]
        tabu = tuple((order[mv.from_pos], mv.to_pos) for mv in moves) + ((rng.randrange(n), rng.randrange(n)),)
        incumbent = evaluate_makespan(inst, order) + rng.randint(-2, 1)
        begin = rng.randrange(total)
        for lo, hi in ((0, total), (begin, rng.randint(begin + 1, total))):
            assert scan_slice(inst, order, tabu, incumbent, lo, hi) == reference_scan(
                inst, order, tabu, incumbent, lo, hi
            )
    assert {"mi == 1", "q == mi > 1"} <= seen


def _trajectory(inst, iterations, seed=1):
    """(result, contexts) of a one-lane search."""
    contexts = []

    def record(ctx):
        contexts.append(ctx)
        return sequential_evaluator(ctx)

    return run_search(inst, SearchParams(iterations=iterations, seed=seed), record), contexts


@functools.cache
def _benchmark_trajectory(seed):
    """Ten iterations on the benchmark's 30x5 instance of ``seed``: (result, contexts)."""
    return _trajectory(generate_instance(30, 5, 5, seed), 10, seed)


def _inner(rng, group, span):
    """A move index strictly inside the from-position group ``group``."""
    return group * span + rng.randint(1, span - 1)


def test_scan_matches_reference_on_a_search_trajectory():
    # contexts of a real search: the tabu entries are moves the search made
    inst = generate_instance(10, 5, 5, seed=1)
    n, span = 10, 9
    total = neighborhood_size(n)
    rng = random.Random(99)
    aspired = 0
    for it, ctx in enumerate(_trajectory(inst, 60)[1]):
        first = rng.randrange(n)
        last = rng.randrange(first, n)
        scans = [(*sorted((_inner(rng, first, span), _inner(rng, last, span))), ctx.incumbent)]
        if it % 5 == 0:
            scans.append((0, total, ctx.incumbent))
        # a few moves around each move back to a tabu position, also scanned against the
        # current makespan, which that move beats whenever it improves on it
        current = evaluate_makespan(inst, ctx.order)
        for job, pos in ctx.tabu.entries:
            if ctx.order.index(job) != pos:
                k = encode_move(Move(ctx.order.index(job), pos), n)
                lo, hi = max(0, k - rng.randint(0, 4)), min(total, k + rng.randint(1, 5))
                scans += [(lo, hi, ctx.incumbent), (lo, hi, current)]
        for lo, hi, incumbent in scans:
            expected = reference_scan(inst, ctx.order, ctx.tabu.entries, incumbent, lo, hi)
            assert scan_slice(inst, ctx.order, ctx.tabu.entries, incumbent, lo, hi) == expected
            if expected[0] is not None:
                mv = decode_move(expected[0], n)
                aspired += (ctx.order[mv.from_pos], mv.to_pos) in ctx.tabu.entries
    assert aspired >= 5


@pytest.mark.parametrize("seed", [1, 7])
def test_scan_matches_reference_on_the_benchmark_instance(seed):
    # the benchmark checks every lane mode against the same scan_slice, so only an oracle
    # catches a decoder error on its instances; 30 jobs at 5 processors give long runs of
    # stage-0 tasks narrower than the stage between full-width ones
    inst = generate_instance(30, 5, 5, seed)
    n, span = 30, 29
    total = neighborhood_size(n)
    rng = random.Random(seed)
    _, contexts = _benchmark_trajectory(seed)
    for it, ctx in enumerate(contexts):
        first = rng.randrange(n)
        # from inside one group to inside the same group or a later one
        lo, hi = sorted((_inner(rng, first, span), _inner(rng, rng.randrange(first, min(n, first + 8)), span)))
        scans = [(lo, hi + 1)]
        if it % 5 == 0:
            scans.append((0, total))
        for lo, hi in scans:
            assert scan_slice(inst, ctx.order, ctx.tabu.entries, ctx.incumbent, lo, hi) == reference_scan(
                inst, ctx.order, ctx.tabu.entries, ctx.incumbent, lo, hi
            )


@pytest.mark.parametrize("seed, digest, best", [(1, "494cd4bbb7e485b4", 1548), (7, "3f7ba1833c9be870", 1328)])
def test_benchmark_trajectory_is_pinned(seed, digest, best):
    # the same trajectory on every supported Python version: `hfstabu bench local --sizes 30x5
    # --iterations 10 --seed 1` gives this digest on 3.10 to 3.13
    result, _ = _benchmark_trajectory(seed)
    assert (trace_digest(result), result.best_makespan) == (digest, best)


def test_scan_cut_by_deadline_is_a_prefix():
    inst = generate_instance(10, 5, 5, seed=1)
    rng = random.Random(5)
    cut = 0
    for ctx in _trajectory(inst, 60)[1][::6]:
        begin = _inner(rng, rng.randrange(3), 9)
        end = neighborhood_size(10)
        deadline = time.monotonic() + 0.03
        best_index, best_makespan, evaluated = scan_slice(
            inst, ctx.order, ctx.tabu.entries, ctx.incumbent, begin, end, deadline, per_move_delay=0.001
        )
        # the sleeps alone outlast the deadline
        assert evaluated < end - begin
        cut += evaluated > 0
        assert (best_index, best_makespan, evaluated) == reference_scan(
            inst, ctx.order, ctx.tabu.entries, ctx.incumbent, begin, begin + evaluated
        )
    assert cut


def test_partition_independence_small():
    rng = random.Random(515)
    for _ in range(20):
        inst = random_small_instance(rng, max_jobs=6, min_jobs=3)
        n = inst.num_jobs
        order = tuple(rng.sample(range(n), n))
        incumbent = evaluate_makespan(inst, order)
        total = neighborhood_size(n)
        whole = evaluate_slice(inst, order, TabuList(), incumbent, NeighborhoodSlice(0, total))
        cuts = sorted(rng.sample(range(total + 1), min(3, total)))
        bounds = [0] + cuts + [total]
        parts = []
        for b, e in zip(bounds, bounds[1:]):
            res = evaluate_slice(inst, order, TabuList(), incumbent, NeighborhoodSlice(b, e))
            parts.append((b, b + res.moves_evaluated, res.best_index, res.best_makespan))
        assert merge_prefix(parts[::-1], 0) == (total, whole.best_index, whole.best_makespan)


def test_merge_handles_all_empty():
    assert merge_prefix([], 7) == (7, None, None)
    assert merge_prefix([(3, 3, None, None), (3, 5, None, None)], 3) == (5, None, None)


@pytest.mark.parametrize(
    "parts, begin, expected",
    [
        ([(0, 4, 1, 50), (5, 9, 6, 10)], 0, (4, 1, 50)),
        ([(0, 4, 1, 50), (5, 9, 6, 10)], 2, (2, None, None)),
        ([(0, 5, 2, 40), (4, 9, 6, 10), (9, 12, 10, 30)], 0, (5, 2, 40)),
        # block [4, 8) evaluated only up to 6: the completed block [8, 12) is dropped
        ([(8, 12, 9, 5), (0, 4, 3, 20), (4, 6, 5, 30)], 0, (6, 3, 20)),
        ([(10, 20, 15, 7), (0, 10, 8, 7), (20, 30, 21, 9)], 0, (30, 8, 7)),
    ],
    ids=["gap", "nothing-at-begin", "overlap", "partial-block", "tie-across-parts"],
)
def test_merge_prefix_positions(parts, begin, expected):
    assert merge_prefix(parts, begin) == expected


# -- diversification ----------------------------------------------------------


def test_diversify_strength_zero_is_identity():
    rng = random.Random(1)
    assert diversify((2, 0, 1), 0, rng) == (2, 0, 1)


def test_diversify_deterministic_for_seed():
    a = diversify(tuple(range(6)), 6, random.Random(33))
    b = diversify(tuple(range(6)), 6, random.Random(33))
    assert a == b


def test_diversify_preserves_multiset_many_seeds():
    order = tuple(range(5))
    for seed in range(1000):
        out = diversify(order, 5, random.Random(seed))
        assert sorted(out) == list(range(5))


# -- the search loop ----------------------------------------------------------


def test_single_job_returns_immediately():
    inst = ProblemInstance(1, 2, (1, 1), ((3, 4),), ((1, 1),))
    res = run_search(inst, SearchParams(iterations=50, seed=1), sequential_evaluator)
    assert res.best_order == (0,)
    assert res.trace == ()
    assert res.best_makespan == 7


def test_initial_order_is_lpt_with_id_ties():
    inst = ProblemInstance(3, 1, (1,), ((2,), (5,), (2,)), ((1,), (1,), (1,)))
    assert initial_order(inst) == (1, 0, 2)


def test_incumbent_monotone_and_consistent():
    inst = generate_instance(9, 3, 3, seed=14)
    res = run_search(inst, SearchParams(iterations=60, seed=3), sequential_evaluator)
    incumbents = [r.incumbent for r in res.trace]
    assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))
    assert incumbents[0] <= res.initial_makespan
    assert res.best_makespan == build_schedule(inst, res.best_order).makespan
    assert res.best_makespan == incumbents[-1]


def test_trace_deterministic():
    inst = generate_instance(8, 2, 3, seed=21)
    params = SearchParams(iterations=80, seed=5, diversify_after=8)
    a = run_search(inst, params, sequential_evaluator)
    b = run_search(inst, params, sequential_evaluator)
    assert a.trace == b.trace
    assert a.best_order == b.best_order


def test_search_never_beats_exhaustive_optimum():
    rng = random.Random(606)
    for _ in range(6):
        inst = random_small_instance(rng, max_jobs=6, min_jobs=4, max_stages=2)
        res = run_search(inst, SearchParams(iterations=40, seed=9), sequential_evaluator)
        assert res.best_makespan >= exhaustive_optimum(inst)


def test_evaluator_failure_carries_incumbent():
    inst = generate_instance(6, 2, 2, seed=2)
    calls = {"n": 0}

    def flaky(ctx):
        calls["n"] += 1
        if calls["n"] >= 4:
            raise RuntimeError("boom")
        return sequential_evaluator(ctx)

    with pytest.raises(SearchError) as err:
        run_search(inst, SearchParams(iterations=20, seed=1), flaky)
    assert err.value.best_makespan >= 1
    assert len(err.value.trace) == 3
    assert sorted(err.value.best_order) == list(range(6))


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(iterations=0)
    with pytest.raises(ValueError):
        SearchParams(iterations=1, tenure=0)
    with pytest.raises(ValueError):
        SearchParams(iterations=1, diversify_after=-1)
