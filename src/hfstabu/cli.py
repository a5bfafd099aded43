"""Command line entry points: gen, solve, worker, bench."""

from __future__ import annotations

import argparse
import json
import logging
import math
import signal
import sys
import time

from .bench import DESK_GRID, bench_distributed, bench_local, full_grid, write_csv
from .coordinator import Coordinator, CoverageError, HandshakeError
from .instance import InstanceError, generate_instance, parse_instance, serialize_instance
from .parallel import LaneEvaluator, detected_lane_count
from .tabu import SearchError, SearchParams, run_search
from .worker import WorkerServer

log = logging.getLogger("hfstabu")


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _parse_nodes(text: str) -> list[tuple[str, int]]:
    return [_parse_endpoint(part) for part in text.split(",") if part]


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for part in text.split(","):
        n, sep, m = part.partition("x")
        if not sep or not n.isdigit() or not m.isdigit():
            raise argparse.ArgumentTypeError(f"expected NxM, got {part!r}")
        sizes.append((int(n), int(m)))
    return sizes


def _checked(convert, accept, name: str):
    """An argparse type: ``convert`` the text, and refuse a value that ``accept`` rejects."""
    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {name}, got {text!r}")
    return parse


_positive_int = _checked(int, lambda value: value > 0, "a positive integer")
_non_negative_int = _checked(int, lambda value: value >= 0, "a non-negative integer")
# NaN fails every comparison, so this refuses it along with the infinities
_non_negative_float = _checked(float, lambda value: 0 <= value < math.inf, "a non-negative finite number")


def _parse_ints(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",") if part]


def cmd_gen(args) -> int:
    inst = generate_instance(args.jobs, args.stages, args.machines, args.seed)
    data = serialize_instance(inst) + b"\n"
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 0


def cmd_solve(args) -> int:
    with open(args.instance, "rb") as fh:
        inst = parse_instance(fh.read())
    params = SearchParams(
        iterations=args.iterations,
        tenure=args.tenure,
        diversify_after=args.diversify_after,
        diversify_strength=args.diversify_strength,
        seed=args.seed,
    )

    def emit(record):
        print(json.dumps({
            "iteration": record.iteration,
            "move": record.move_index,
            "makespan": record.makespan,
            "incumbent": record.incumbent,
        }), flush=True)

    t0 = time.perf_counter()
    nodes_summary = None
    if args.nodes:
        with Coordinator(args.nodes) as coordinator:
            result = coordinator.run(inst, params, on_iteration=emit)
            nodes_summary = coordinator.node_stats()
    else:
        with LaneEvaluator(lanes=args.lanes) as evaluator:  # no --lanes: detected cores
            result = run_search(inst, params, evaluator.evaluate, on_iteration=emit)
    wall = time.perf_counter() - t0

    print(json.dumps({
        "best_makespan": result.best_makespan,
        "initial_makespan": result.initial_makespan,
        "best_order": list(result.best_order),
        "iterations": len(result.trace),
        "wall_s": round(wall, 3),
        "nodes": nodes_summary,
    }), flush=True)
    return 0


def cmd_worker(args) -> int:
    host, port = args.bind
    server = WorkerServer(host, port, lanes=args.lanes, per_move_delay=args.per_move_delay)
    log.info("worker listening on %s:%d with %d lane(s)", *server.address, server.lanes)
    print(json.dumps({"event": "ready", "host": server.address[0], "port": server.address[1],
                      "lanes": server.lanes}), flush=True)

    def stop(signum, frame):
        server.shutdown(reason=f"signal {signum}")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    server.serve_forever()
    return 0


def cmd_bench(args) -> int:
    sizes = args.sizes if args.sizes else (list(full_grid()) if args.full else list(DESK_GRID))
    if args.mode == "local":
        lanes = args.lanes if args.lanes else sorted({1, detected_lane_count()})
        rows, meta = bench_local(sizes, lanes, args.iterations, args.seed,
                                 machines=args.machines, repeats=args.repeats)
    else:
        if not args.nodes:
            log.error("bench distributed requires --nodes")
            return 2
        rows, meta = bench_distributed(args.nodes, sizes, args.iterations, args.seed, machines=args.machines)
    if args.output:
        with open(args.output, "w") as fh:
            write_csv(fh, rows, meta)
    else:
        write_csv(sys.stdout, rows, meta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hfstabu",
                                     description="Tabu search for multiprocessor-task hybrid flow shops")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging (stderr)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--machines", type=int, default=5, help="processors per stage (default 5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run the solver; trace and summary as line JSON on stdout")
    p.add_argument("--instance", required=True)
    p.add_argument("--iterations", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    where = p.add_mutually_exclusive_group()
    where.add_argument("--nodes", type=_parse_nodes, default=None,
                       help="comma-separated worker endpoints; absent: solve in process")
    where.add_argument("--lanes", type=_positive_int, default=None,
                       help="lane count for the in-process solver (default: detected cores)")
    p.add_argument("--tenure", type=_positive_int, default=7)
    p.add_argument("--diversify-after", type=_non_negative_int, default=20)
    p.add_argument("--diversify-strength", type=_non_negative_int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("worker", help="run an evaluation worker daemon")
    p.add_argument("--bind", type=_parse_endpoint, required=True, help="HOST:PORT (port 0 picks a free port)")
    p.add_argument("--lanes", type=_positive_int, default=None,
                   help="lane count (default: detected cores)")
    p.add_argument("--per-move-delay", type=_non_negative_float, default=0.0,
                   help="pace every scan at one move per SECONDS (testing aid)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("bench", help="timing grids; CSV on stdout or --output")
    p.add_argument("mode", choices=("local", "distributed"))
    p.add_argument("--sizes", type=_parse_sizes, default=None, help="grid cells as NxM,NxM,...")
    p.add_argument("--full", action="store_true", help="use the full 10/30/50-job grid")
    p.add_argument("--lanes", type=_parse_ints, default=None, help="lane counts for local mode")
    p.add_argument("--nodes", type=_parse_nodes, default=None, help="worker endpoints for distributed mode")
    p.add_argument("--iterations", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--machines", type=int, default=5)
    p.add_argument("--repeats", type=_positive_int, default=1)
    p.add_argument("-o", "--output", help="CSV output file (default stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    if args.command == "worker" and args.verbose == 0:
        level = logging.INFO  # workers log one line per request by default
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        return args.func(args)
    except (InstanceError, SearchError, HandshakeError, CoverageError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
