import json
import random

import pytest

from hfstabu.instance import (
    InstanceParseError,
    InstanceValidationError,
    ProblemInstance,
    generate_instance,
    instance_digest,
    parse_instance,
    serialize_instance,
)


def test_generate_is_deterministic():
    a = generate_instance(12, 4, 3, seed=99)
    b = generate_instance(12, 4, 3, seed=99)
    assert a == b
    assert serialize_instance(a) == serialize_instance(b)


def test_generate_single_task_width_forced_to_one():
    inst = generate_instance(1, 1, 1, seed=5)
    assert inst.widths == ((1,),)
    assert inst.durations[0][0] >= 1


def test_generate_table_shape_50x10():
    inst = generate_instance(50, 10, 5, seed=3)
    assert inst.num_jobs == 50 and inst.num_stages == 10
    assert len(inst.durations) == 50 and all(len(r) == 10 for r in inst.durations)
    assert all(1 <= w <= 5 for row in inst.widths for w in row)
    assert all(1 <= p <= 100 for row in inst.durations for p in row)
    assert inst.processors_per_stage == (5,) * 10


def test_generate_different_seeds_differ():
    assert generate_instance(10, 3, 4, seed=1) != generate_instance(10, 3, 4, seed=2)


@pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-3, 2, 2)])
def test_generate_rejects_bad_dimensions(bad):
    with pytest.raises(InstanceValidationError):
        generate_instance(*bad, seed=0)


def test_serialize_parse_round_trip():
    inst = generate_instance(10, 2, 4, seed=11)
    assert parse_instance(serialize_instance(inst)) == inst


def test_round_trip_random_instances():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 8), rng.randint(1, 4)
        inst = generate_instance(n, m, rng.randint(1, 5), seed=rng.randrange(10**6))
        assert parse_instance(serialize_instance(inst)) == inst


def test_parse_rejects_width_over_capacity():
    obj = {"n": 1, "m": 1, "machines": [2], "p": [[4]], "size": [[3]]}
    with pytest.raises(InstanceValidationError, match="widths"):
        parse_instance(json.dumps(obj))


def test_parse_rejects_empty_input():
    with pytest.raises(InstanceParseError, match="empty"):
        parse_instance(b"")


def test_parse_error_reports_position():
    with pytest.raises(InstanceParseError, match=r"line \d+ column \d+"):
        parse_instance('{"n": 1,,}')


def test_parse_error_names_missing_field():
    with pytest.raises(InstanceParseError, match="machines"):
        parse_instance(json.dumps({"n": 1, "m": 1, "p": [[1]], "size": [[1]]}))


def test_parse_rejects_non_integer_entries():
    obj = {"n": 1, "m": 1, "machines": [1], "p": [[1.5]], "size": [[1]]}
    with pytest.raises(InstanceValidationError):
        parse_instance(json.dumps(obj))


def test_constructor_rejects_zero_duration():
    with pytest.raises(InstanceValidationError, match="durations"):
        ProblemInstance(1, 1, (1,), ((0,),), ((1,),))


def test_constructor_rejects_dimension_mismatch():
    with pytest.raises(InstanceValidationError):
        ProblemInstance(2, 2, (1, 1), ((1, 2),), ((1, 1), (1, 1)))


def test_digest_tracks_content():
    a = generate_instance(5, 2, 3, seed=1)
    b = generate_instance(5, 2, 3, seed=1)
    c = generate_instance(5, 2, 3, seed=2)
    assert instance_digest(a) == instance_digest(b)
    assert instance_digest(a) != instance_digest(c)
    assert len(instance_digest(a)) == 64


def test_total_work():
    inst = ProblemInstance(2, 2, (1, 2), ((2, 3), (4, 1)), ((1, 1), (1, 2)))
    assert inst.total_work(0) == 5
    assert inst.total_work(1) == 5


def test_stage_columns_are_the_transposed_rows():
    inst = ProblemInstance(2, 3, (1, 2, 3), ((1, 2, 3), (4, 5, 6)), ((1, 2, 1), (1, 1, 3)))
    digest = instance_digest(inst)
    assert inst.stage_columns == ((1, (1, 4), (1, 1)), (2, (2, 5), (2, 1)), (3, (3, 6), (1, 3)))
    # each job's work at the stages after this one
    assert inst.stage_tails == ((5, 11), (3, 6), (0, 0))
    assert ProblemInstance(2, 1, (1,), ((7,), (9,)), ((1,), (1,))).stage_tails == ((0, 0),)
    # the cached layout is not part of the instance's identity
    assert inst == ProblemInstance(2, 3, (1, 2, 3), ((1, 2, 3), (4, 5, 6)), ((1, 2, 1), (1, 1, 3)))
    assert instance_digest(inst) == digest
