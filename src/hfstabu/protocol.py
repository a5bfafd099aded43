"""Wire protocol between the coordinator and worker daemons.

Framing: one UTF-8 JSON object per message, newline-terminated, no
embedded newlines, at most ``MAX_FRAME_BYTES``. Every frame carries a
``type`` and, except for EXIT_REPORT, a ``rid`` (request id); replies
echo the rid of the request they answer. A client waits on at most one
EVAL per connection; after a budget cut it may send the next one while
the cut one is still served, and the worker answers them in order.
Start-up is a HELLO exchange; a problem goes out as a SET_PROBLEM right
before a connection's first EVAL of it, and again only once the node
would have forgotten it (``MAX_CACHED_PROBLEMS``). A node keeps problems
per connection: a digest names a problem only on the connection that
sent it. A node's first EVAL is an ordinary one.

Message types and bodies
------------------------
HELLO            version [major, minor], lanes        (both directions)
SET_PROBLEM      instance (stored under its canonical digest; no reply)
EVAL             digest, order, tabu {entries, tenure}, incumbent,
                 slice [begin, end), deadline (seconds of compute budget)
EVAL_RESULT      best_index, best_makespan, moves_evaluated, elapsed,
                 speed, complete, remaining [begin, end) when incomplete
ERROR            message
EXIT_REPORT      reason, requests_served, moves_evaluated   (no rid)

The codec is total: decoding never raises anything but ProtocolError,
naming the offending field, and decode(encode(m)) == m for every valid
message; neither passes NaN or an infinity. ``read_frames`` splits what a
ready socket delivers into frames, for the coordinator's collect loop and
the worker's loop alike.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .instance import InstanceError, ProblemInstance, instance_from_obj, instance_to_obj
from .neighborhood import NeighborhoodSlice
from .tabu import TabuList

PROTOCOL_VERSION = (2, 0)
READ_SIZE = 65536
MAX_FRAME_BYTES = 64 << 20  # a partial frame longer than this closes the connection
MAX_CACHED_PROBLEMS = 4  # a node keeps the problems of each connection's last this many SET_PROBLEMs


class ProtocolError(Exception):
    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _need(body: dict, msg_type: str, key: str):
    if key not in body:
        raise ProtocolError(f"{msg_type}: missing field {key!r}", field=key)
    return body[key]


def _need_int(body, msg_type, key, minimum=None):
    v = _need(body, msg_type, key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ProtocolError(f"{msg_type}.{key}: expected an integer", field=key)
    if minimum is not None and v < minimum:
        raise ProtocolError(f"{msg_type}.{key}: must be >= {minimum}, got {v}", field=key)
    return v


def _need_number(body, msg_type, key, minimum=None):
    v = _need(body, msg_type, key)
    # NaN fails every comparison; an integer too large for a float is refused too
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ProtocolError(f"{msg_type}.{key}: expected a finite number", field=key)
    if minimum is not None and v < minimum:
        raise ProtocolError(f"{msg_type}.{key}: must be >= {minimum}, got {v}", field=key)
    return float(v)


def _need_str(body, msg_type, key):
    v = _need(body, msg_type, key)
    if not isinstance(v, str):
        raise ProtocolError(f"{msg_type}.{key}: expected a string", field=key)
    return v


def _need_bool(body, msg_type, key):
    v = _need(body, msg_type, key)
    if not isinstance(v, bool):
        raise ProtocolError(f"{msg_type}.{key}: expected a boolean", field=key)
    return v


def _need_slice(body, msg_type, key, allow_empty=False) -> NeighborhoodSlice:
    v = _need(body, msg_type, key)
    if (not isinstance(v, list) or len(v) != 2
            or any(not isinstance(x, int) or isinstance(x, bool) for x in v)):
        raise ProtocolError(f"{msg_type}.{key}: expected [begin, end]", field=key)
    begin, end = v
    if begin < 0 or end < begin or (not allow_empty and end == begin):
        raise ProtocolError(f"{msg_type}.{key}: invalid range [{begin}, {end})", field=key)
    return NeighborhoodSlice(begin, end)


def _need_instance(body, msg_type, key) -> ProblemInstance:
    v = _need(body, msg_type, key)
    try:
        return instance_from_obj(v)
    except InstanceError as exc:
        raise ProtocolError(f"{msg_type}.{key}: {exc}", field=key) from exc


def _need_order(body, msg_type, key) -> tuple[int, ...]:
    v = _need(body, msg_type, key)
    if not isinstance(v, list) or any(not isinstance(x, int) or isinstance(x, bool) for x in v):
        raise ProtocolError(f"{msg_type}.{key}: expected a list of integers", field=key)
    if sorted(v) != list(range(len(v))):
        raise ProtocolError(f"{msg_type}.{key}: not a permutation of 0..{len(v) - 1}", field=key)
    return tuple(v)


def _need_tabu(body, msg_type, key) -> TabuList:
    v = _need(body, msg_type, key)
    if not isinstance(v, dict):
        raise ProtocolError(f"{msg_type}.{key}: expected an object", field=key)
    entries = v.get("entries")
    tenure = v.get("tenure")
    if (not isinstance(entries, list)
            or any(not isinstance(e, list) or len(e) != 2
                   or any(not isinstance(x, int) or isinstance(x, bool) for x in e)
                   for e in entries)):
        raise ProtocolError(f"{msg_type}.{key}.entries: expected a list of [job, pos] pairs", field=key)
    if not isinstance(tenure, int) or isinstance(tenure, bool) or tenure < 1:
        raise ProtocolError(f"{msg_type}.{key}.tenure: expected an integer >= 1", field=key)
    if len(entries) > tenure:
        raise ProtocolError(f"{msg_type}.{key}: more entries than tenure allows", field=key)
    return TabuList(tuple((e[0], e[1]) for e in entries), tenure)


@dataclass(frozen=True)
class Hello:
    rid: int
    version: tuple[int, int] = PROTOCOL_VERSION
    lanes: int = 0

    TYPE = "HELLO"

    def body(self):
        return {"version": list(self.version), "lanes": self.lanes}

    @classmethod
    def from_body(cls, rid, body):
        v = _need(body, cls.TYPE, "version")
        if (not isinstance(v, list) or len(v) != 2
                or any(not isinstance(x, int) or isinstance(x, bool) for x in v)):
            raise ProtocolError("HELLO.version: expected [major, minor]", field="version")
        return cls(rid, (v[0], v[1]), _need_int(body, cls.TYPE, "lanes", minimum=0))


@dataclass(frozen=True)
class SetProblem:
    rid: int
    instance: ProblemInstance

    TYPE = "SET_PROBLEM"

    def body(self):
        return {"instance": instance_to_obj(self.instance)}

    @classmethod
    def from_body(cls, rid, body):
        return cls(rid, _need_instance(body, cls.TYPE, "instance"))


@dataclass(frozen=True)
class Eval:
    rid: int
    digest: str
    order: tuple[int, ...]
    tabu: TabuList
    incumbent: int
    nslice: NeighborhoodSlice
    deadline: float

    TYPE = "EVAL"

    def body(self):
        return {
            "digest": self.digest,
            "order": list(self.order),
            "tabu": {"entries": [list(e) for e in self.tabu.entries], "tenure": self.tabu.tenure},
            "incumbent": self.incumbent,
            "slice": [self.nslice.begin, self.nslice.end],
            "deadline": self.deadline,
        }

    @classmethod
    def from_body(cls, rid, body):
        return cls(
            rid,
            _need_str(body, cls.TYPE, "digest"),
            _need_order(body, cls.TYPE, "order"),
            _need_tabu(body, cls.TYPE, "tabu"),
            _need_int(body, cls.TYPE, "incumbent", minimum=0),
            _need_slice(body, cls.TYPE, "slice"),
            _need_number(body, cls.TYPE, "deadline", minimum=0.0),
        )


@dataclass(frozen=True)
class EvalResult:
    rid: int
    best_index: int | None
    best_makespan: int | None
    moves_evaluated: int
    elapsed: float
    speed: float
    complete: bool
    remaining: NeighborhoodSlice | None = None

    TYPE = "EVAL_RESULT"

    def body(self):
        return {
            "best_index": self.best_index,
            "best_makespan": self.best_makespan,
            "moves_evaluated": self.moves_evaluated,
            "elapsed": self.elapsed,
            "speed": self.speed,
            "complete": self.complete,
            "remaining": None if self.remaining is None else [self.remaining.begin, self.remaining.end],
        }

    @classmethod
    def from_body(cls, rid, body):
        best_index = body.get("best_index")
        best_makespan = body.get("best_makespan")
        for key, v in (("best_index", best_index), ("best_makespan", best_makespan)):
            if v is not None and (not isinstance(v, int) or isinstance(v, bool)):
                raise ProtocolError(f"EVAL_RESULT.{key}: expected an integer or null", field=key)
        if (best_index is None) != (best_makespan is None):
            raise ProtocolError("EVAL_RESULT: best_index and best_makespan must be paired",
                                field="best_index")
        complete = _need_bool(body, cls.TYPE, "complete")
        remaining = None
        if body.get("remaining") is not None:
            remaining = _need_slice(body, cls.TYPE, "remaining")
        if not complete and (remaining is None or not remaining):
            raise ProtocolError("EVAL_RESULT: incomplete result requires a nonempty remaining range",
                                field="remaining")
        if complete and remaining is not None:
            raise ProtocolError("EVAL_RESULT: complete result must not carry a remaining range",
                                field="remaining")
        return cls(
            rid,
            best_index,
            best_makespan,
            _need_int(body, cls.TYPE, "moves_evaluated", minimum=0),
            _need_number(body, cls.TYPE, "elapsed", minimum=0.0),
            _need_number(body, cls.TYPE, "speed", minimum=0.0),
            complete,
            remaining,
        )


@dataclass(frozen=True)
class Error:
    rid: int
    message: str

    TYPE = "ERROR"

    def body(self):
        return {"message": self.message}

    @classmethod
    def from_body(cls, rid, body):
        return cls(rid, _need_str(body, cls.TYPE, "message"))


@dataclass(frozen=True)
class ExitReport:
    reason: str
    requests_served: int
    moves_evaluated: int

    TYPE = "EXIT_REPORT"

    def body(self):
        return {
            "reason": self.reason,
            "requests_served": self.requests_served,
            "moves_evaluated": self.moves_evaluated,
        }

    @classmethod
    def from_body(cls, rid, body):
        if rid is not None:
            raise ProtocolError("EXIT_REPORT: must not carry a request id", field="rid")
        return cls(
            _need_str(body, cls.TYPE, "reason"),
            _need_int(body, cls.TYPE, "requests_served", minimum=0),
            _need_int(body, cls.TYPE, "moves_evaluated", minimum=0),
        )


Message = Hello | SetProblem | Eval | EvalResult | Error | ExitReport

_REGISTRY = {
    cls.TYPE: cls
    for cls in (Hello, SetProblem, Eval, EvalResult, Error, ExitReport)
}


def encode(msg: Message) -> bytes:
    """Serialize a message into one newline-terminated JSON frame."""
    frame = {"type": msg.TYPE}
    if msg.TYPE != ExitReport.TYPE:
        frame["rid"] = msg.rid
    frame.update(msg.body())
    return json.dumps(frame, separators=(",", ":"), allow_nan=False).encode("utf-8") + b"\n"


def decode(line: bytes | str) -> Message:
    """Parse one frame; raises ProtocolError on any malformed input."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed frame: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    msg_type = obj.get("type")
    if not isinstance(msg_type, str) or msg_type not in _REGISTRY:
        raise ProtocolError(f"unknown message type {msg_type!r}", field="type")
    rid = obj.get("rid")
    if msg_type != ExitReport.TYPE:
        if not isinstance(rid, int) or isinstance(rid, bool):
            raise ProtocolError(f"{msg_type}.rid: expected an integer", field="rid")
    try:
        return _REGISTRY[msg_type].from_body(rid, obj)
    except ProtocolError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ProtocolError(f"{msg_type}: invalid body: {exc}") from exc


def read_frames(sock, buffer: bytearray) -> tuple[list[Message], Exception | None]:
    """Read a ready socket once into its ``buffer``: (messages, why it closed).

    Every complete frame is decoded; a partial line stays in ``buffer``.
    The second item is None while the connection is usable. Otherwise it
    is the reason to close it: a ConnectionError at EOF (a partial line is
    then dropped), the OSError of a reset connection, or a ProtocolError
    for a malformed frame (the frames before it are returned, the rest is
    not decoded) or for a partial line longer than ``MAX_FRAME_BYTES``.
    """
    try:
        chunk = sock.recv(READ_SIZE)
    except OSError as exc:
        return [], exc
    buffer += chunk
    lines = []
    if b"\n" in chunk:  # otherwise the buffer still holds one partial line
        *lines, buffer[:] = buffer.split(b"\n")
    messages: list[Message] = []
    for line in lines:
        try:
            messages.append(decode(bytes(line)))
        except ProtocolError as exc:
            return messages, exc
    if len(buffer) > MAX_FRAME_BYTES:
        return messages, ProtocolError(f"frame longer than {MAX_FRAME_BYTES} bytes")
    return messages, None if chunk else ConnectionError("connection closed")
