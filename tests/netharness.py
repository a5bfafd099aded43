"""Test-side networking helpers: a minimal blocking wire client,
subprocess worker management, and lane process failure injection."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
from multiprocessing.connection import wait as wait_for_exit

from hfstabu import protocol
from hfstabu.instance import ProblemInstance, instance_digest
from hfstabu.neighborhood import NeighborhoodSlice
from hfstabu.protocol import PROTOCOL_VERSION
from hfstabu.tabu import TabuList


class WireClient:
    """Single-connection blocking client used to poke workers directly."""

    def __init__(self, address, timeout=30.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.reader = self.sock.makefile("rb")
        self._rid = 0

    def next_rid(self):
        self._rid += 1
        return self._rid

    def send(self, msg):
        self.sock.sendall(protocol.encode(msg))

    def send_raw(self, data: bytes):
        self.sock.sendall(data)

    def recv(self):
        line = self.reader.readline()
        if not line:
            raise ConnectionError("connection closed")
        return protocol.decode(line)

    def hello(self):
        rid = self.next_rid()
        self.send(protocol.Hello(rid, PROTOCOL_VERSION, 0))
        reply = self.recv()
        assert reply.rid == rid
        return reply

    def set_problem(self, inst: ProblemInstance) -> str:
        self.send(protocol.SetProblem(self.next_rid(), inst))
        return instance_digest(inst)

    def eval(self, digest, order, tabu, incumbent, begin, end, deadline):
        rid = self.next_rid()
        self.send(protocol.Eval(rid, digest, tuple(order), tabu, incumbent,
                                NeighborhoodSlice(begin, end), deadline))
        reply = self.recv()
        assert getattr(reply, "rid", None) == rid, f"unexpected reply {reply}"
        return reply

    def calibrate(self, inst, budget):
        rid = self.next_rid()
        self.send(protocol.Calibrate(rid, inst, budget))
        reply = self.recv()
        assert reply.rid == rid
        return reply

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def empty_tabu():
    return TabuList((), 7)


class SubprocessWorker:
    """A worker daemon in its own process; killable with SIGKILL."""

    def __init__(self, lanes=1, per_move_delay=0.0, extra_args=()):
        args = [sys.executable, "-m", "hfstabu", "worker", "--bind", "127.0.0.1:0",
                "--lanes", str(lanes)]
        if per_move_delay:
            args += ["--per-move-delay", str(per_move_delay)]
        args += list(extra_args)
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     text=True, start_new_session=True)
        line = self.proc.stdout.readline()
        info = json.loads(line)
        assert info["event"] == "ready"
        self.address = (info["host"], info["port"])

    def kill(self):
        """Hard kill (SIGKILL to the process group), as in a host failure."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=10)

    def terminate(self):
        """Graceful stop (SIGTERM), triggering the exit report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.kill()
        return False


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def kill_lane_child(known) -> int:
    """SIGKILL one multiprocessing child of this process not in ``known``.

    Waits for the child to exit but leaves reaping it to its owner (the
    lane pool). Returns the killed pid.
    """
    victim = next(p for p in multiprocessing.active_children() if p not in known)
    os.kill(victim.pid, signal.SIGKILL)
    assert wait_for_exit([victim.sentinel], timeout=10), "lane child survived SIGKILL"
    return victim.pid
