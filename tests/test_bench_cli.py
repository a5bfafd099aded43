import io
import json
import multiprocessing
import subprocess
import sys

import pytest

import hfstabu.bench
from hfstabu.bench import CSV_HEADER, bench_distributed, bench_local, full_grid, write_csv
from hfstabu.coordinator import CoordinatorConfig
from hfstabu.instance import parse_instance
from hfstabu.neighborhood import NeighborhoodSlice, neighborhood_size
from hfstabu.worker import WorkerServer

from netharness import SubprocessWorker, WireClient, empty_tabu


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "hfstabu", *args],
                          capture_output=True, text=True, timeout=120, **kwargs)


def fast_config():
    return CoordinatorConfig(calibration_budget=0.15, calibration_jobs=6,
                             calibration_stages=2, calibration_machines=2)


# -- bench harness ----------------------------------------------------------------


def test_bench_local_csv_shape_and_reproducibility():
    sizes = [(6, 2), (8, 2)]
    rows, meta = bench_local(sizes, [1, 2], iterations=4, seed=5, machines=3)
    assert len(rows) == 4
    out = io.StringIO()
    write_csv(out, rows, meta)
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("# ")
    embedded = json.loads(lines[0][2:])
    assert embedded["seed"] == 5
    assert set(embedded["instances"]) == {"6x2", "8x2"}
    assert all(len(d) == 64 for d in embedded["instances"].values())
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + len(rows)
    # lanes=1 baseline rows have speedup 1.0
    for row in rows:
        if row.key == 1:
            assert row.speedup == pytest.approx(1.0)
    # identical trajectories independent of lane count and across reruns
    rows2, meta2 = bench_local(sizes, [1, 2], iterations=4, seed=5, machines=3)
    assert meta2["cells"] == meta["cells"]
    by_size = {}
    for key, cell in meta["cells"].items():
        size = key.split("@")[0]
        by_size.setdefault(size, set()).add((cell["best_makespan"], cell["trace"]))
    assert all(len(v) == 1 for v in by_size.values())


def test_bench_local_starts_lanes_before_the_clock(monkeypatch):
    alive = {}
    run_search = hfstabu.bench.run_search

    def recording_run_search(inst, params, evaluator, *args, **kwargs):
        alive[evaluator.__self__.lanes] = len(multiprocessing.active_children())
        return run_search(inst, params, evaluator, *args, **kwargs)

    monkeypatch.setattr(hfstabu.bench, "run_search", recording_run_search)
    bench_local([(6, 2)], [1, 2], iterations=2, seed=5, machines=3)
    assert alive[2] >= 2


def test_bench_distributed_utilization_accounting():
    servers = [WorkerServer("127.0.0.1", 0, lanes=1) for _ in range(2)]
    for s in servers:
        s.start()
    try:
        iterations = 3
        rows, meta = bench_distributed([s.address for s in servers], [(6, 2)], iterations,
                                       seed=5, machines=3, config=fast_config())
        assert len(rows) == 2  # host counts 1 and 2
        total_moves = neighborhood_size(6) * iterations
        for key, cell in meta["cells"].items():
            assigned = sum(node["moves"] for node in cell["nodes"].values())
            assert assigned == total_moves
        # same trajectory irrespective of host count
        traces = {cell["trace"] for cell in meta["cells"].values()}
        assert len(traces) == 1
    finally:
        for s in servers:
            s.shutdown()


def test_full_grid_shape():
    grid = full_grid()
    assert len(grid) == 12
    assert (50, 10) in grid and (10, 2) in grid


# -- CLI ---------------------------------------------------------------------------


def test_cli_gen_deterministic_and_parseable(tmp_path):
    out1 = run_cli("gen", "--jobs", "6", "--stages", "3", "--machines", "4", "--seed", "9")
    out2 = run_cli("gen", "--jobs", "6", "--stages", "3", "--machines", "4", "--seed", "9")
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout
    inst = parse_instance(out1.stdout)
    assert inst.num_jobs == 6 and inst.num_stages == 3

    target = tmp_path / "inst.json"
    out3 = run_cli("gen", "--jobs", "6", "--stages", "3", "--machines", "4", "--seed", "9",
                   "-o", str(target))
    assert out3.returncode == 0
    assert parse_instance(target.read_bytes()) == inst


def test_cli_solve_local_emits_trace_and_summary(tmp_path):
    target = tmp_path / "inst.json"
    run_cli("gen", "--jobs", "7", "--stages", "2", "--machines", "3", "--seed", "3",
            "-o", str(target))
    out = run_cli("solve", "--instance", str(target), "--iterations", "8", "--seed", "1",
                  "--lanes", "1")
    assert out.returncode == 0
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    trace = [l for l in lines if "iteration" in l]
    summaries = [l for l in lines if "best_makespan" in l]
    assert len(trace) == 8
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary["best_makespan"] <= summary["initial_makespan"]
    assert sorted(summary["best_order"]) == list(range(7))
    assert summary["nodes"] is None


def test_cli_solve_distributed_matches_local(tmp_path):
    target = tmp_path / "inst.json"
    run_cli("gen", "--jobs", "7", "--stages", "2", "--machines", "3", "--seed", "3",
            "-o", str(target))
    local = run_cli("solve", "--instance", str(target), "--iterations", "8", "--seed", "1",
                    "--lanes", "1")
    with SubprocessWorker(lanes=1) as worker:
        remote = run_cli("solve", "--instance", str(target), "--iterations", "8", "--seed", "1",
                         "--nodes", f"{worker.address[0]}:{worker.address[1]}",
                         "--calibration-budget", "0.2")
    assert remote.returncode == 0
    local_lines = [json.loads(l) for l in local.stdout.splitlines()]
    remote_lines = [json.loads(l) for l in remote.stdout.splitlines()]
    local_trace = [l for l in local_lines if "iteration" in l]
    remote_trace = [l for l in remote_lines if "iteration" in l]
    assert local_trace == remote_trace
    local_summary = local_lines[-1]
    remote_summary = remote_lines[-1]
    assert remote_summary["best_makespan"] == local_summary["best_makespan"]
    assert remote_summary["best_order"] == local_summary["best_order"]
    assert remote_summary["nodes"] is not None


def test_cli_worker_ready_line_and_sigterm_exit_report():
    import socket as socketlib

    from hfstabu import protocol

    worker = SubprocessWorker(lanes=1)
    try:
        sock = socketlib.create_connection(worker.address, timeout=10)
        reader = sock.makefile("rb")
        sock.sendall(protocol.encode(protocol.Hello(1, protocol.PROTOCOL_VERSION, 0)))
        reply = protocol.decode(reader.readline())
        assert isinstance(reply, protocol.Hello)
        worker.proc.send_signal(__import__("signal").SIGTERM)
        report = protocol.decode(reader.readline())
        assert isinstance(report, protocol.ExitReport)
        assert "signal" in report.reason
        worker.proc.wait(timeout=10)
        assert worker.proc.returncode == 0
        sock.close()
    finally:
        worker.kill()


def test_cli_worker_answers_the_running_eval_before_sigterm_exit():
    import signal
    import time

    from hfstabu import protocol
    from hfstabu.instance import generate_instance

    inst = generate_instance(8, 3, 3, seed=42)
    order = tuple(range(8))
    with SubprocessWorker(lanes=1, per_move_delay=0.005) as worker, WireClient(worker.address) as client:
        client.hello()
        digest = client.set_problem(inst)
        # a short evaluation first, so the long one starts as soon as it arrives
        assert isinstance(client.eval(digest, order, empty_tabu(), 10**6, 0, 4, 10.0), protocol.EvalResult)
        rid = client.next_rid()
        # 56 moves at 5 ms each: about 0.28 s
        client.send(protocol.Eval(rid, digest, order, empty_tabu(), 10**6,
                                  NeighborhoodSlice(0, neighborhood_size(8)), 10.0))
        time.sleep(0.1)
        worker.proc.send_signal(signal.SIGTERM)
        reply = client.recv()
        assert isinstance(reply, protocol.EvalResult) and reply.rid == rid
        assert reply.complete
        report = client.recv()
        assert isinstance(report, protocol.ExitReport)
        assert "signal" in report.reason
        assert worker.proc.wait(timeout=10) == 0


def test_cli_bench_local_writes_csv(tmp_path):
    out_file = tmp_path / "bench.csv"
    out = run_cli("bench", "local", "--sizes", "6x2", "--lanes", "1,2", "--iterations", "3",
                  "--seed", "2", "--machines", "3", "-o", str(out_file))
    assert out.returncode == 0
    lines = out_file.read_text().splitlines()
    assert lines[1] == CSV_HEADER
    assert len(lines) == 4  # meta + header + two rows
    meta = json.loads(lines[0][2:])
    assert meta["iterations"] == 3


def test_cli_rejects_bad_endpoint():
    out = run_cli("solve", "--instance", "x.json", "--iterations", "1", "--seed", "0",
                  "--nodes", "localhost")
    assert out.returncode != 0


def test_cli_error_reporting_without_traceback(tmp_path):
    missing = tmp_path / "missing.json"
    out = run_cli("solve", "--instance", str(missing), "--iterations", "1", "--seed", "0")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1,,}')
    out = run_cli("solve", "--instance", str(bad), "--iterations", "1", "--seed", "0")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr

    # numeric options are checked when the arguments are parsed
    solve = ["solve", "--instance", str(missing), "--seed", "0"]
    for extra in (["--iterations", "0"], ["--iterations", "1", "--tenure", "0"],
                  ["--iterations", "1", "--lanes", "-1"], ["--iterations", "1", "--lanes", "0"],
                  ["--iterations", "1", "--diversify-after", "-1"],
                  ["--iterations", "1", "--diversify-strength", "-1"],
                  ["--iterations", "1", "--calibration-budget", "0"]):
        out = run_cli(*solve, *extra)
        assert out.returncode == 2, extra
        assert "Traceback" not in out.stderr
        assert f"argument {extra[-2]}: expected" in out.stderr


def test_cli_worker_lanes_flag_sets_the_ready_line_lanes():
    proc = subprocess.Popen([sys.executable, "-m", "hfstabu", "worker", "--bind", "127.0.0.1:0",
                             "--lanes", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        info = json.loads(proc.stdout.readline())
        assert info["lanes"] == 2
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
