import math
import random

import pytest

from hfstabu.instance import ProblemInstance, generate_instance
from hfstabu.neighborhood import Move, apply_move
from hfstabu.schedule import evaluate_makespan, insertion_decoder

from oracles import (Schedule, audit_schedule, build_schedule, lower_bound, max_completion, random_small_instance,
                     simulate)


def test_single_task():
    inst = ProblemInstance(1, 1, (1,), ((5,),), ((1,),))
    sched = build_schedule(inst, (0,))
    assert sched.makespan == 5
    assert sched.start == ((0,),)
    assert sched.completion == ((5,),)
    assert sched.assignment == (((0,),),)


def test_full_width_tasks_serialize():
    # both jobs need the whole stage, so they cannot overlap
    inst = ProblemInstance(2, 1, (2,), ((3,), (4,)), ((2,), (2,)))
    sched = build_schedule(inst, (0, 1))
    assert sched.makespan == 7
    assert sched.start[0][0] == 0 and sched.start[1][0] == 3


def test_two_stage_chain_example():
    inst = ProblemInstance(2, 2, (1, 1), ((2, 2), (3, 1)), ((1, 1), (1, 1)))
    sched = build_schedule(inst, (0, 1))
    assert sched.completion == ((2, 4), (5, 6))
    assert sched.start == ((0, 2), (2, 5))
    assert sched.makespan == 6


def test_makespan_is_max_completion():
    sched = Schedule(
        start=((0, 0), (0, 0)),
        completion=((0, 9), (0, 0)),
        assignment=(((0,), (0,)), ((0,), (0,))),
        makespan=9,
    )
    assert max_completion(sched) == 9


def test_decoder_matches_simulator_and_audits():
    rng = random.Random(1407)
    for _ in range(200):
        inst = random_small_instance(rng)
        order = list(range(inst.num_jobs))
        rng.shuffle(order)
        sched = build_schedule(inst, tuple(order))
        audit_schedule(inst, sched)
        sim_makespan, sim_completion = simulate(inst, order)
        assert sched.makespan == sim_makespan
        assert sched.completion == tuple(tuple(row) for row in sim_completion)


def test_no_op_move_matches_build_schedule():
    # evaluate_makespan is the insertion decoder's no-op move of the last job
    rng = random.Random(88)
    for _ in range(150):
        inst = random_small_instance(rng, max_jobs=8, max_stages=4, max_machines=4)
        order = list(range(inst.num_jobs))
        rng.shuffle(order)
        assert evaluate_makespan(inst, order) == build_schedule(inst, order).makespan


@pytest.mark.parametrize("seed", [1, 7])
def test_no_op_move_matches_build_schedule_on_30x5(seed):
    inst = generate_instance(30, 5, 5, seed)
    rng = random.Random(seed)
    for _ in range(200):
        order = rng.sample(range(30), 30)
        assert evaluate_makespan(inst, order) == build_schedule(inst, order).makespan


def _stage0_cases(inst, job, later, before, after):
    """The stage-0 cases that inserting ``job`` before the reference jobs ``later`` meets.

    ``before`` and ``after`` are the oracle schedules of the reference (the
    moved job last, which stage 0 dispatches after every other job) and of
    the candidate. A stage-0 task that takes every processor frees them
    all at one time, in both schedules, so the jobs after it complete as
    in the reference, shifted by the difference of its completions.
    """
    m0 = inst.processors_per_stage[0]
    cases = {"inserted job full width"} if inst.widths[job][0] == m0 else set()
    full = [j for j in later if inst.widths[j][0] == m0]
    if not full:
        return cases | {"no full-width task after to_pos"}
    delta = after.completion[full[0]][0] - before.completion[full[0]][0]
    assert delta >= 0
    cases.add("full width after to_pos, delta > 0" if delta else "full width after to_pos, delta == 0")
    if full[0] == later[-1]:
        cases.add("full width at the last rank")
    return cases


def test_insertion_decoder_matches_full_decodes():
    rng = random.Random(31)
    seen = set()
    for trial in range(300):
        # durations of 1-2 make many tasks ready, and processors free, at the same time
        inst = random_small_instance(rng, max_jobs=12, max_stages=5, max_machines=4, min_jobs=2,
                                     duration_cap=2 if trial % 2 else 30)
        n = inst.num_jobs
        seen.update(name for name, hit in (("n == 2", n == 2), ("one stage", inst.num_stages == 1),
                                           ("mi == 1", 1 in inst.processors_per_stage)) if hit)
        order = tuple(rng.sample(range(n), n))
        for from_pos in range(n):
            makespan_below = insertion_decoder(inst, order, from_pos)
            job, rest = order[from_pos], order[:from_pos] + order[from_pos + 1:]
            before = build_schedule(inst, rest + (job,))
            for to_pos in range(n):
                # to_pos == from_pos is the no-op move, which apply_move refuses: the order itself
                moved = order if to_pos == from_pos else apply_move(order, Move(from_pos, to_pos))
                after = build_schedule(inst, moved)
                seen |= _stage0_cases(inst, job, rest[to_pos:], before, after)
                exact = after.makespan
                assert makespan_below(to_pos, math.inf) == exact
                bound = exact + rng.randint(-3, 3)
                got = makespan_below(to_pos, bound)
                # exact below the bound; at or above it, either exact or stopped
                assert got == exact or (got is None and exact >= bound)
    assert seen == {"n == 2", "one stage", "mi == 1", "inserted job full width", "no full-width task after to_pos",
                    "full width after to_pos, delta > 0", "full width after to_pos, delta == 0",
                    "full width at the last rank"}


def test_lower_bounds_hold():
    rng = random.Random(4451)
    for _ in range(100):
        inst = random_small_instance(rng)
        order = list(range(inst.num_jobs))
        rng.shuffle(order)
        sched = build_schedule(inst, order)
        assert sched.makespan >= lower_bound(inst)
        # the raw stage-area bound without rounding
        for i in range(inst.num_stages):
            load = sum(inst.durations[j][i] * inst.widths[j][i] for j in range(inst.num_jobs))
            assert sched.makespan * inst.processors_per_stage[i] >= load


def test_decoder_is_pure():
    inst = generate_instance(8, 3, 3, seed=6)
    order = tuple(range(8))
    assert build_schedule(inst, order) == build_schedule(inst, order)


def test_decoder_prefers_low_processor_index():
    inst = ProblemInstance(2, 1, (3,), ((4,), (4,)), ((1,), (2,)))
    sched = build_schedule(inst, (0, 1))
    assert sched.assignment[0][0] == (0,)
    assert sched.assignment[1][0] == (1, 2)


def test_build_schedule_rejects_bad_permutation():
    inst = generate_instance(3, 1, 1, seed=0)
    with pytest.raises(ValueError):
        build_schedule(inst, (0, 1))
    with pytest.raises(ValueError):
        build_schedule(inst, (0, 1, 1))
