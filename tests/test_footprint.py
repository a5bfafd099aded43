"""What a process loads: digests come from CPython's builtin SHA-256, not
OpenSSL's hashlib, and multiprocessing loads only where a lane forks."""

import hashlib
import json
import os
import random
import subprocess
import sys

import hfstabu
from hfstabu.bench import trace_digest
from hfstabu.instance import generate_instance, instance_digest, serialize_instance
from hfstabu.tabu import IterationRecord, SearchResult

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hfstabu.__file__)))

TRACE = SearchResult((1, 0, 2), 40, 55, (IterationRecord(0, 3, 48, 48), IterationRecord(1, None, None, 48),
                                         IterationRecord(2, 1, 40, 40)))


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports hfstabu from this tree; its last line is JSON."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_instance_digest_is_hashlib_sha256():
    rng = random.Random(14)
    for _ in range(50):
        inst = generate_instance(rng.randint(1, 30), rng.randint(1, 8), rng.randint(1, 6), seed=rng.randrange(10**6))
        assert instance_digest(inst) == hashlib.sha256(serialize_instance(inst)).hexdigest()


def test_trace_digest_is_hashlib_sha256():
    assert trace_digest(TRACE) == hashlib.sha256(b"3:48,None:48,1:40").hexdigest()[:16]


def test_every_sha256_import_branch_gives_the_same_digests():
    code = """
import json, sys
for name in {blocked!r}:
    sys.modules[name] = None  # the import of a module set to None raises ImportError
from hfstabu.bench import trace_digest
from hfstabu.instance import generate_instance, instance_digest, sha256
from hfstabu.tabu import IterationRecord, SearchResult
trace = SearchResult((1, 0, 2), 40, 55, (IterationRecord(0, 3, 48, 48), IterationRecord(1, None, None, 48),
                                         IterationRecord(2, 1, 40, 40)))
print(json.dumps({{"source": sha256.__module__, "trace": trace_digest(trace),
                  "instances": [instance_digest(generate_instance(n, 3, 2, seed=n)) for n in (1, 10, 30)]}}))
"""
    want = {"trace": trace_digest(TRACE),
            "instances": [instance_digest(generate_instance(n, 3, 2, seed=n)) for n in (1, 10, 30)]}
    sources = []
    for blocked in ((), ("_sha2",), ("_sha2", "_sha256")):
        got = run_fresh(code.format(blocked=blocked))
        sources.append(got.pop("source"))
        assert got == want, blocked
    assert sources[0] != "_hashlib"  # the builtin module, when nothing is blocked
    assert sources[-1] == "_hashlib"  # hashlib, when no builtin module is left


GUARD = """
import json, sys
from hfstabu.bench import trace_digest
from hfstabu.coordinator import Coordinator
from hfstabu.instance import generate_instance
from hfstabu.parallel import LaneEvaluator
from hfstabu.schedule import evaluate_makespan
from hfstabu.tabu import EvalContext, SearchParams, TabuList, initial_order, run_search
from hfstabu.worker import WorkerServer

def loaded():
    return sorted(name for name in ("_hashlib", "multiprocessing") if name in sys.modules)

inst = generate_instance(8, 3, 3, seed=4)
order = initial_order(inst)
ctx = EvalContext(inst, order, TabuList(), evaluate_makespan(inst, order))
with LaneEvaluator(lanes=1) as evaluator:
    trace_digest(run_search(inst, SearchParams(iterations=5, seed=1), evaluator.evaluate))
with WorkerServer("127.0.0.1", 0, lanes=1) as server:
    coordinator = Coordinator([server.address])
    try:
        coordinator.handshake()
        coordinator.evaluate(ctx)
    finally:
        coordinator.close()
without_lanes = loaded()
with LaneEvaluator(lanes=2) as evaluator:
    evaluator.evaluate(ctx)
print(json.dumps({"without_lanes": without_lanes, "with_lanes": loaded()}))
"""


def test_only_forking_lanes_load_multiprocessing_and_nothing_loads_openssl():
    got = run_fresh(GUARD)
    assert got["without_lanes"] == []
    assert got["with_lanes"] == ["multiprocessing"]
