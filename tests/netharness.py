"""Test-side networking helpers: a minimal blocking wire client, a
latency relay, subprocess worker management, a recorder of the
coordinator's dispatch rounds, and lane process failure injection."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from multiprocessing.connection import wait as wait_for_exit

from hfstabu import coordinator as coordinator_module
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


class LatencyRelay:
    """A TCP relay to ``target`` that holds every line for a while.

    Each line travelling to the target is forwarded ``up_s`` seconds after
    it was read, each line coming back ``down_s`` seconds after, one line
    at a time per direction. When either side of a relayed connection
    closes, the relay closes both.
    """

    def __init__(self, target, up_s: float, down_s: float):
        self.target = target
        self.up_s = up_s
        self.down_s = down_s
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._sockets = [self._listener]
        self._threads = [threading.Thread(target=self._accept_loop, daemon=True)]
        self._threads[0].start()

    def _accept_loop(self):
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # closed
            try:
                server = socket.create_connection(self.target)
            except OSError:
                client.close()
                continue
            self._sockets += [client, server]
            for src, dst, delay in ((client, server, self.up_s), (server, client, self.down_s)):
                thread = threading.Thread(target=self._pump, args=(src, dst, delay), daemon=True)
                self._threads.append(thread)
                thread.start()

    @staticmethod
    def _pump(src, dst, delay):
        try:
            with src.makefile("rb") as lines:
                for line in lines:
                    time.sleep(delay)
                    dst.sendall(line)
        except OSError:
            pass
        _shut(src, dst)

    def close(self):
        _shut(*self._sockets)
        for thread in self._threads:
            thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _shut(*sockets):
    # shutdown() wakes a thread blocked on the socket; close() alone would not
    for sock in sockets:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()


def record_cover(monkeypatch, pool):
    """Record what each ``pool.cover`` call dispatched and accepted.

    Returns (audits, plans), each with one entry per call: the sorted
    (begin, end) intervals it accepted, and the move counts of each of its
    dispatch rounds in ready-node order.
    """
    audits, plans = [], []
    cover, plan_partition = pool.cover, coordinator_module.plan_partition

    def recording_cover(*args, **kwargs):
        plans.append([])
        results = cover(*args, **kwargs)
        audits.append(sorted((begin, end) for begin, end, _, _ in results))
        return results

    def recording_plan(*args, **kwargs):
        slices = plan_partition(*args, **kwargs)
        plans[-1].append([len(s) for s in slices])
        return slices

    monkeypatch.setattr(pool, "cover", recording_cover)
    monkeypatch.setattr(coordinator_module, "plan_partition", recording_plan)
    return audits, plans


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
