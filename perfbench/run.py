"""The hfstabu benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; the package is imported from
``src/`` (it need not be installed). A single-workload run prints its
metrics by name, unit and sample count, writes a result file (and, when
traced, a span file) under ``perfbench/out/``, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. It exits non-zero when any iteration failed
or a trajectory differs from the one-lane reference. ``--workload all``
runs every workload untraced and traced, each in a fresh process, and
writes one summary file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, HELD_OUT_SEED, LAYER_EFFECTS, MIN_ITERATIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run that has not finished by then is stopped and reported as failed.
RUN_LIMIT_S = 170
# Printed and written to the result file, but left out of the result line:
# on a shared 2-CPU host the iteration-time tail moves by up to half from
# run to run, which no regression bound of 25% or less can hold.
UNBOUNDED = ("iter_ms_p90",)


def host_record() -> dict:
    from hfstabu.parallel import detected_lane_count

    nproc = os.cpu_count() or 1
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "psutil_present": importlib.util.find_spec("psutil") is not None,
        "detected_lane_count": detected_lane_count(),
        "lane_speedup_note": f"lane speedup above {nproc} cannot be measured with {nproc} CPUs",
    }


def _import_package() -> str | None:
    """Put src/ first on the path; return an error message if hfstabu is not there."""
    if not (SRC / "hfstabu" / "__init__.py").is_file():
        return f"no hfstabu sources under {SRC}; run from the root of a source checkout"
    sys.path.insert(0, str(SRC))
    import hfstabu

    if Path(hfstabu.__file__).resolve().parent != SRC / "hfstabu":
        return f"imported hfstabu from {hfstabu.__file__}, not from {SRC}"
    return None


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def run_one(args) -> int:
    import measure

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = measure.run_workload(
        workload, args.seed, args.seconds, traced,
        min_iterations=args.min_iterations, setups=args.setups,
        reference_digest=args.reference_digest,
        spans_path=OUT / f"spans-{workload.name}-seed{args.seed}.jsonl" if traced else None,
    )
    attempted, failed = result.attempted, result.failed

    print(f"workload {workload.name}  seed {args.seed}  instance {result.info['instance_digest'][:16]}  "
          f"lanes {result.info['lanes']}  {'traced' if traced else 'untraced'}")
    samples = result.info["iterations"][-1]
    for name, (value, unit) in result.metrics.items():
        note = f"  ({samples} iterations)" if name.startswith("iter_ms") or name == "moves_per_s" else ""
        print(f"  {name:34s} {value:14.4f} {unit}{note}")
    print(f"  {'failed_frac':34s} {failed / attempted:14.4f} ratio  ({failed}/{attempted} iterations)")
    for i, phase in enumerate(result.phases):
        status = phase.mismatch or phase.error or (f"daemon died: {phase.dead}" if phase.dead else "ok")
        print(f"  phase {i} ({'traced' if phase.traced else 'untraced'}): {len(phase.records)} iterations, "
              f"trajectory {result.info['trajectory_digest'][i]} vs one-lane reference: {status}")

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "traced": traced,
        "host": host_record(),
        **result.info,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result.metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "phases": [{"traced": p.traced, "iterations": len(p.records), "error": p.error,
                    "dead": p.dead, "mismatch": p.mismatch} for p in result.phases],
    }
    if traced:
        record["layer_effects"] = LAYER_EFFECTS
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric for name, metric in record["metrics"].items() if name not in UNBOUNDED},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process; one summary file."""
    summary = {"seed": args.seed, "seconds": args.seconds, "host": host_record(), "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = summary["workloads"][name] = {"why": WORKLOADS[name].why}
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                entry["trace" if trace else "untraced"] = json.loads(lines[-1])
            except (IndexError, ValueError):
                entry["trace" if trace else "untraced"] = None
            if proc.returncode != 0:
                status = 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"summary-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"summary written to {path.relative_to(ROOT)}; {'all runs passed' if status == 0 else 'FAILURES'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hfstabu benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="minimum timed length of a phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-iterations", type=int, default=MIN_ITERATIONS,
                        help="minimum timed iterations of a phase (lowered only by the smoke check)")
    parser.add_argument("--setups", type=int, default=None,
                        help="set-up repetitions (lowered only by the smoke check)")
    parser.add_argument("--reference-digest", default=None,
                        help="replace the reference trajectory digest (tests the correctness gate)")
    args = parser.parse_args(argv)

    error = _import_package()
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    t0 = time.perf_counter()
    try:
        return run_one(args)
    except TimeoutError as exc:
        print(f"{exc} after {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
