"""Worker and super-server daemons as child processes of the benchmark.

Each daemon binds port 0 and announces its address in a JSON ready line
on stdout. Its stderr is drained by a thread into memory, because the
daemons log one ``EVAL [b,e) moves=... complete=... <s>s`` line per
request and the traced run reads the busy time of each request from
those lines. ``Cluster`` terminates and reaps every daemon it started
when its ``with`` block exits, whatever happened inside it.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 5.0

_EVAL_LINE = re.compile(r"EVAL \[\d+,\d+\) moves=(\d+) complete=\w+ ([0-9.]+)s")


class NodeError(RuntimeError):
    """A daemon failed to start."""


class NodeProcess:
    """One daemon: its process, its announced address and its stderr lines."""

    def __init__(self, name: str, argv: list[str]):
        self.name = name
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.lines: list[str] = []
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()
        self.address = self._read_ready()

    def _drain_stderr(self):
        for raw in self.proc.stderr:
            self.lines.append(raw.decode("utf-8", "replace").rstrip("\n"))

    def _read_ready(self) -> tuple[str, int]:
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        try:
            event = json.loads(line)
            return event["host"], int(event["port"])
        except (ValueError, KeyError, TypeError):
            pass
        self.stop()
        tail = "\n".join(self.lines[-5:])
        raise NodeError(f"{self.name} sent no ready line (exit code {self.proc.returncode}):\n{tail}")

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def alive(self) -> bool:
        return self.proc.poll() is None

    def eval_busy(self) -> list[tuple[int, float]]:
        """(moves, busy seconds) of every EVAL the daemon has logged."""
        out = []
        for line in self.lines:
            match = _EVAL_LINE.search(line)
            if match:
                out.append((int(match.group(1)), float(match.group(2))))
        return out

    def stop(self):
        """Terminate the daemon and reap it; kill it if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(STOP_TIMEOUT_S)
        self.proc.stdout.close()
        self.proc.stderr.close()


class Cluster:
    """The daemons of one workload, started in order and stopped in reverse."""

    def __init__(self):
        self.nodes: list[NodeProcess] = []

    def worker(self, per_move_delay: float) -> NodeProcess:
        argv = [sys.executable, "-m", "hfstabu", "worker", "--bind", "127.0.0.1:0", "--lanes", "1"]
        if per_move_delay:
            argv += ["--per-move-delay", repr(per_move_delay)]
        return self._add(NodeProcess(f"worker{len(self.nodes)}", argv))

    def super_server(self, children: list[NodeProcess]) -> NodeProcess:
        argv = [sys.executable, str(HERE / "super_server.py"), "--bind", "127.0.0.1:0",
                "--children", ",".join(c.endpoint for c in children)]
        return self._add(NodeProcess("superserver", argv))

    def _add(self, node: NodeProcess) -> NodeProcess:
        self.nodes.append(node)
        return node

    def dead(self) -> list[str]:
        return [n.name for n in self.nodes if not n.alive()]

    def wait_for_evals(self, nodes, counts: list[int], timeout: float = 2.0):
        """Wait until each node has logged at least the given number of EVAL lines."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if all(len(n.eval_busy()) >= c for n, c in zip(nodes, counts)):
                return
            time.sleep(0.01)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for node in reversed(self.nodes):
            node.stop()
        return False
