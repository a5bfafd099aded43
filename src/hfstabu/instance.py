"""Problem model for multiprocessor-task hybrid flow shop instances.

An instance describes ``num_jobs`` jobs that each cross ``num_stages``
stages in order. Stage ``i`` provides ``processors_per_stage[i]``
identical processors. The task of job ``j`` at stage ``i`` needs
``widths[j][i]`` processors simultaneously for ``durations[j][i]`` time
units. All times are non-negative integers.

The on-disk format is a single UTF-8 JSON object::

    {"n": int, "m": int, "machines": [int, ...],
     "p": [[int, ...], ...], "size": [[int, ...], ...]}

where rows index jobs and columns index stages. ``serialize_instance``
emits the canonical encoding (compact separators, sorted keys); the
instance digest is the SHA-256 of exactly those bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property

# The standard library's OpenSSL-backed module maps libcrypto, a few MB of
# resident memory in every process, to hash a few KB once per problem;
# CPython's builtin module gives the same digests at no cost.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256


class InstanceError(ValueError):
    """Base class for instance parsing and validation failures."""


class InstanceParseError(InstanceError):
    """Malformed input: bad syntax, missing or mistyped fields."""


class InstanceValidationError(InstanceError):
    """Structurally well-formed input that violates an instance invariant."""


def _as_matrix(name: str, rows, num_jobs: int, num_stages: int) -> tuple[tuple[int, ...], ...]:
    out = []
    if len(rows) != num_jobs:
        raise InstanceValidationError(f"{name}: expected {num_jobs} rows, got {len(rows)}")
    for j, row in enumerate(rows):
        row = tuple(row)
        if len(row) != num_stages:
            raise InstanceValidationError(f"{name}[{j}]: expected {num_stages} columns, got {len(row)}")
        for i, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InstanceValidationError(f"{name}[{j}][{i}]: expected an integer, got {v!r}")
        out.append(row)
    return tuple(out)


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable hybrid flow shop instance.

    Invariants enforced at construction: positive dimensions, every
    duration > 0, and 1 <= widths[j][i] <= processors_per_stage[i].
    """

    num_jobs: int
    num_stages: int
    processors_per_stage: tuple[int, ...]
    durations: tuple[tuple[int, ...], ...]
    widths: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_jobs < 1:
            raise InstanceValidationError(f"num_jobs must be >= 1, got {self.num_jobs}")
        if self.num_stages < 1:
            raise InstanceValidationError(f"num_stages must be >= 1, got {self.num_stages}")
        machines = tuple(self.processors_per_stage)
        object.__setattr__(self, "processors_per_stage", machines)
        if len(machines) != self.num_stages:
            raise InstanceValidationError(
                f"processors_per_stage: expected {self.num_stages} entries, got {len(machines)}"
            )
        for i, mi in enumerate(machines):
            if not isinstance(mi, int) or isinstance(mi, bool) or mi < 1:
                raise InstanceValidationError(f"processors_per_stage[{i}]: must be an integer >= 1, got {mi!r}")
        durations = _as_matrix("durations", self.durations, self.num_jobs, self.num_stages)
        widths = _as_matrix("widths", self.widths, self.num_jobs, self.num_stages)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "widths", widths)
        for j in range(self.num_jobs):
            for i in range(self.num_stages):
                if durations[j][i] <= 0:
                    raise InstanceValidationError(f"durations[{j}][{i}]: must be > 0, got {durations[j][i]}")
                w = widths[j][i]
                if w < 1 or w > machines[i]:
                    raise InstanceValidationError(
                        f"widths[{j}][{i}]: {w} outside [1, {machines[i]}] for stage {i}"
                    )

    @cached_property
    def stage_columns(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        """Per stage: (processors, durations by job, widths by job).

        Laid out once per instance, so the decoder reads one column per
        stage instead of indexing every job's row.
        """
        return tuple(zip(self.processors_per_stage, zip(*self.durations), zip(*self.widths)))

    @cached_property
    def stage_tails(self) -> tuple[tuple[int, ...], ...]:
        """Per stage: each job's summed durations at the later stages, by job.

        A task that completes at t at stage i ends its job no earlier
        than t + stage_tails[i][job], which bounds the makespan from
        below. Laid out once per instance, like ``stage_columns``.
        """
        tails = [(0,) * self.num_jobs]
        for dur in reversed(tuple(zip(*self.durations))[1:]):
            tails.append(tuple(map(int.__add__, tails[-1], dur)))
        return tuple(reversed(tails))

    @cached_property
    def digest(self) -> str:
        """Hex SHA-256 of the canonical serialization, computed once per instance."""
        return sha256(serialize_instance(self)).hexdigest()

    def total_work(self, job: int) -> int:
        """Sum of the job's durations across all stages."""
        return sum(self.durations[job])


def generate_instance(num_jobs: int, num_stages: int, machines_per_stage: int, seed: int) -> ProblemInstance:
    """Deterministically generate a random instance.

    Durations are uniform integers in [1, 100]; widths are uniform
    integers in [1, machines_per_stage]. The same arguments always
    produce the same instance.
    """
    if num_jobs < 1 or num_stages < 1 or machines_per_stage < 1:
        raise InstanceValidationError(
            f"dimensions must be >= 1, got jobs={num_jobs} stages={num_stages} machines={machines_per_stage}"
        )
    rng = random.Random(seed)
    durations = tuple(
        tuple(rng.randint(1, 100) for _ in range(num_stages)) for _ in range(num_jobs)
    )
    widths = tuple(
        tuple(rng.randint(1, machines_per_stage) for _ in range(num_stages)) for _ in range(num_jobs)
    )
    return ProblemInstance(
        num_jobs=num_jobs,
        num_stages=num_stages,
        processors_per_stage=(machines_per_stage,) * num_stages,
        durations=durations,
        widths=widths,
    )


def instance_to_obj(inst: ProblemInstance) -> dict:
    """Plain-JSON representation used by the file format and the wire protocol."""
    return {
        "n": inst.num_jobs,
        "m": inst.num_stages,
        "machines": list(inst.processors_per_stage),
        "p": [list(row) for row in inst.durations],
        "size": [list(row) for row in inst.widths],
    }


def instance_from_obj(obj) -> ProblemInstance:
    """Build an instance from a decoded JSON object, checking shape and invariants."""
    if not isinstance(obj, dict):
        raise InstanceParseError(f"expected a JSON object, got {type(obj).__name__}")
    for key, kind in (("n", int), ("m", int), ("machines", list), ("p", list), ("size", list)):
        if key not in obj:
            raise InstanceParseError(f"missing field {key!r}")
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise InstanceParseError(f"field {key!r}: expected {kind.__name__}")
    for key in ("p", "size"):
        for j, row in enumerate(obj[key]):
            if not isinstance(row, list):
                raise InstanceParseError(f"field {key!r}[{j}]: expected a list")
    try:
        return ProblemInstance(
            num_jobs=obj["n"],
            num_stages=obj["m"],
            processors_per_stage=tuple(obj["machines"]),
            durations=tuple(tuple(row) for row in obj["p"]),
            widths=tuple(tuple(row) for row in obj["size"]),
        )
    except TypeError as exc:
        raise InstanceParseError(str(exc)) from exc


def parse_instance(data: bytes | str) -> ProblemInstance:
    """Parse the JSON instance format; see the module docstring.

    Raises InstanceParseError with line/column information on malformed
    syntax and InstanceValidationError when an invariant is violated.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InstanceParseError(f"not valid UTF-8: {exc}") from exc
    if not data.strip():
        raise InstanceParseError("empty input")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return instance_from_obj(obj)


def serialize_instance(inst: ProblemInstance) -> bytes:
    """Canonical byte encoding; parse_instance(serialize_instance(x)) == x."""
    return json.dumps(instance_to_obj(inst), separators=(",", ":"), sort_keys=True).encode("utf-8")


def instance_digest(inst: ProblemInstance) -> str:
    """Hex SHA-256 of the canonical serialization."""
    return inst.digest
