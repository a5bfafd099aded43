import dataclasses
import json
import random
import re
import socket
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfstabu import protocol
from hfstabu.instance import generate_instance
from hfstabu.neighborhood import NeighborhoodSlice
from hfstabu.protocol import (
    PROTOCOL_VERSION,
    Error,
    Eval,
    EvalResult,
    ExitReport,
    Hello,
    ProtocolError,
    SetProblem,
    decode,
    encode,
    read_frames,
)
from hfstabu.tabu import TabuList

INST = generate_instance(6, 3, 4, seed=123)


def sample_messages():
    return [
        Hello(1, PROTOCOL_VERSION, 4),
        SetProblem(3, INST),
        Eval(4, "ab" * 32, (2, 0, 1, 3, 5, 4), TabuList(((1, 2), (0, 4)), 7), 341,
             NeighborhoodSlice(0, 2450), 12.5),
        EvalResult(4, 17, 322, 2450, 1.25, 1960.0, True, None),
        EvalResult(5, 3, 340, 100, 0.5, 200.0, False, NeighborhoodSlice(100, 2450)),
        EvalResult(6, None, None, 0, 0.01, 0.0, False, NeighborhoodSlice(0, 2450)),
        Error(9, "unknown problem"),
        ExitReport("shutdown", 12, 51234),
    ]


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: m.TYPE + str(getattr(m, "rid", "")))
def test_round_trip_identity(msg):
    frame = encode(msg)
    assert frame.endswith(b"\n")
    assert b"\n" not in frame[:-1]
    assert decode(frame) == msg


def test_round_trip_random_corpus():
    rng = random.Random(2024)
    instances = [generate_instance(rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 4),
                                   seed=rng.randrange(10**6)) for _ in range(5)]
    count = 0
    for _ in range(1000):
        kind = rng.randrange(6)
        rid = rng.randrange(10**9)
        if kind == 0:
            msg = Hello(rid, (1, rng.randrange(5)), rng.randrange(64))
        elif kind == 1:
            msg = SetProblem(rid, rng.choice(instances))
        elif kind == 2:
            n = rng.randint(2, 8)
            order = tuple(rng.sample(range(n), n))
            entries = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4)))
            begin = rng.randrange(n * (n - 1))
            end = rng.randint(begin + 1, n * (n - 1))
            msg = Eval(rid, "%064x" % rng.randrange(16**64), order, TabuList(entries, 7),
                       rng.randrange(10**6), NeighborhoodSlice(begin, end), rng.random() * 100)
        elif kind == 3:
            moves = rng.randrange(500)
            if rng.random() < 0.5:
                msg = EvalResult(rid, rng.randrange(1000) if moves else None,
                                 rng.randrange(10**5) if moves else None,
                                 moves, rng.random(), rng.random() * 1e4, True, None)
            else:
                begin = rng.randrange(1000)
                msg = EvalResult(rid, None, None, moves, rng.random(), rng.random() * 1e4,
                                 False, NeighborhoodSlice(begin, begin + 1 + rng.randrange(100)))
        elif kind == 4:
            msg = Error(rid, "e" * rng.randrange(40))
        else:
            msg = ExitReport("shutdown", rng.randrange(100), rng.randrange(10**7))
        assert decode(encode(msg)) == msg
        count += 1
    assert count == 1000


# -- totality ---------------------------------------------------------------------


@given(st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_decoder_never_crashes_on_fuzz(blob):
    try:
        decode(blob)
    except ProtocolError:
        pass


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_decoder_never_crashes_on_text_fuzz(text):
    try:
        decode(text)
    except ProtocolError:
        pass


def test_mutated_valid_frames_yield_protocol_errors():
    rng = random.Random(7)
    frames = [encode(m) for m in sample_messages()]
    for frame in frames:
        for _ in range(40):
            mutated = bytearray(frame)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                decode(bytes(mutated))
            except ProtocolError:
                pass


# -- specific validation ------------------------------------------------------------


def test_truncated_frame_rejected():
    frame = encode(Eval(1, "00" * 32, (1, 0), TabuList(), 5, NeighborhoodSlice(0, 2), 1.0))
    with pytest.raises(ProtocolError):
        decode(frame[: len(frame) // 2])


def test_unknown_type_rejected():
    with pytest.raises(ProtocolError, match="unknown message type"):
        decode(json.dumps({"type": "NOPE", "rid": 1}))


def test_missing_field_names_field():
    body = json.loads(encode(Eval(1, "00" * 32, (1, 0), TabuList(), 5, NeighborhoodSlice(0, 2), 1.0)))
    del body["deadline"]
    with pytest.raises(ProtocolError, match="deadline") as err:
        decode(json.dumps(body))
    assert err.value.field == "deadline"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["NaN", "Infinity", "-Infinity", "too large for a float"])
@pytest.mark.parametrize("msg, field", [
    (Eval(1, "00" * 32, (1, 0), TabuList(), 5, NeighborhoodSlice(0, 2), 1.0), "deadline"),
    (EvalResult(4, 17, 322, 2450, 1.25, 1960.0, True, None), "elapsed"),
    (EvalResult(4, 17, 322, 2450, 1.25, 1960.0, True, None), "speed"),
], ids=["EVAL.deadline", "EVAL_RESULT.elapsed", "EVAL_RESULT.speed"])
def test_non_finite_numbers_are_refused_both_ways(msg, field, value):
    body = json.loads(encode(msg))
    body[field] = value
    with pytest.raises(ProtocolError, match=field) as err:
        decode(json.dumps(body))  # json writes NaN and Infinity unless told not to
    assert err.value.field == field
    if isinstance(value, float):
        with pytest.raises(ValueError):
            encode(dataclasses.replace(msg, **{field: value}))


def test_incomplete_result_requires_remaining():
    frame = {"type": "EVAL_RESULT", "rid": 1, "best_index": None, "best_makespan": None,
             "moves_evaluated": 0, "elapsed": 0.1, "speed": 0.0, "complete": False, "remaining": None}
    with pytest.raises(ProtocolError, match="remaining"):
        decode(json.dumps(frame))
    frame["remaining"] = [5, 5]
    with pytest.raises(ProtocolError, match="remaining"):
        decode(json.dumps(frame))


def test_complete_result_must_not_carry_remaining():
    frame = {"type": "EVAL_RESULT", "rid": 1, "best_index": 0, "best_makespan": 10,
             "moves_evaluated": 4, "elapsed": 0.1, "speed": 40.0, "complete": True, "remaining": [4, 8]}
    with pytest.raises(ProtocolError, match="remaining"):
        decode(json.dumps(frame))


def test_exit_report_must_not_carry_rid():
    with pytest.raises(ProtocolError, match="request id"):
        decode(json.dumps({"type": "EXIT_REPORT", "rid": 4, "reason": "x",
                           "requests_served": 0, "moves_evaluated": 0}))


def test_missing_rid_rejected_for_other_types():
    with pytest.raises(ProtocolError, match="rid"):
        decode(json.dumps({"type": "ERROR", "message": "unknown problem"}))


def test_eval_rejects_non_permutation_order():
    body = json.loads(encode(Eval(1, "00" * 32, (1, 0), TabuList(), 5, NeighborhoodSlice(0, 2), 1.0)))
    body["order"] = [0, 0]
    with pytest.raises(ProtocolError, match="permutation"):
        decode(json.dumps(body))


def test_set_problem_rejects_bad_instance():
    frame = {"type": "SET_PROBLEM", "rid": 1,
             "instance": {"n": 1, "m": 1, "machines": [1], "p": [[0]], "size": [[1]]}}
    with pytest.raises(ProtocolError, match="instance"):
        decode(json.dumps(frame))


def test_tabu_longer_than_tenure_rejected():
    body = json.loads(encode(Eval(1, "00" * 32, (1, 0), TabuList(), 5, NeighborhoodSlice(0, 2), 1.0)))
    body["tabu"] = {"entries": [[0, 1], [1, 0]], "tenure": 1}
    with pytest.raises(ProtocolError, match="tenure"):
        decode(json.dumps(body))


def test_progress_frame_rejected_as_unknown_type():
    # PROGRESS is no longer a message type: no worker sent it and every client skipped it
    with pytest.raises(ProtocolError, match="unknown message type"):
        decode(json.dumps({"type": "PROGRESS", "rid": 1, "fraction": 0.5}))


def test_protocol_doc_names_every_message_type_and_the_version():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "protocol.md").read_text()
    headings = re.findall(r"^### ([A-Z_]+)", doc, flags=re.MULTILINE)
    assert sorted(headings) == sorted(protocol._REGISTRY)
    assert f"Protocol version is `{PROTOCOL_VERSION[0]}.{PROTOCOL_VERSION[1]}`" in doc


def test_non_object_frames_rejected():
    for payload in ("[]", "3", '"x"', "null", "true"):
        with pytest.raises(ProtocolError):
            decode(payload)


# -- frame reader --------------------------------------------------------------------


@pytest.fixture
def pair():
    reader, writer = socket.socketpair()
    yield reader, writer
    reader.close()
    writer.close()


def test_read_frames_keeps_a_split_frame_until_it_is_whole(pair):
    reader, writer = pair
    frame = encode(SetProblem(3, INST))
    buffer = bytearray()
    writer.sendall(frame[:40])
    assert read_frames(reader, buffer) == ([], None)
    assert buffer == frame[:40]
    writer.sendall(frame[40:])
    assert read_frames(reader, buffer) == ([SetProblem(3, INST)], None)
    assert buffer == b""


def test_read_frames_returns_every_frame_of_one_read(pair):
    reader, writer = pair
    messages = [Hello(1, PROTOCOL_VERSION, 2), SetProblem(2, INST)]
    tail = encode(Error(3, "x"))[:5]
    writer.sendall(b"".join(encode(m) for m in messages) + tail)
    buffer = bytearray()
    assert read_frames(reader, buffer) == (messages, None)
    assert buffer == tail


def test_read_frames_refuses_a_line_longer_than_a_frame(pair, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 100)
    reader, writer = pair
    writer.sendall(encode(Error(1, "x")) + b"y" * 101)
    messages, closed = read_frames(reader, bytearray())
    assert messages == [Error(1, "x")]
    assert isinstance(closed, ProtocolError) and "longer than 100 bytes" in str(closed)


def test_read_frames_stops_at_a_malformed_frame(pair):
    reader, writer = pair
    writer.sendall(encode(Hello(1, PROTOCOL_VERSION, 2)) + b"not json\n" + encode(Error(2, "x")))
    messages, closed = read_frames(reader, bytearray())
    assert messages == [Hello(1, PROTOCOL_VERSION, 2)]
    assert isinstance(closed, ProtocolError)


def test_read_frames_drops_a_partial_line_at_eof(pair):
    reader, writer = pair
    writer.sendall(encode(Hello(1, PROTOCOL_VERSION, 2)) + b'{"type":"HEL')
    writer.close()
    buffer = bytearray()
    assert read_frames(reader, buffer) == ([Hello(1, PROTOCOL_VERSION, 2)], None)
    messages, closed = read_frames(reader, buffer)
    assert messages == []
    assert isinstance(closed, ConnectionError) and str(closed) == "connection closed"


def test_read_frames_reports_a_reset_connection(pair):
    reader, writer = pair
    reader.sendall(b"unread\n")
    writer.close()  # closing with unread data resets the connection
    messages, closed = read_frames(reader, bytearray())
    assert messages == []
    assert isinstance(closed, ConnectionResetError)
