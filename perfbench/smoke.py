"""Smoke check of the benchmark itself, at minimal length.

    python3 perfbench/smoke.py

Runs every workload (those of BENCHMARK.json and any others defined in
workloads.py) untraced and traced for a few iterations and checks that:

* every metric BENCHMARK.json names is printed, with its unit, in the
  result line and in the human-readable lines;
* the span file of each traced run parses and its spans nest;
* the correctness gate fires when it is fed a wrong trajectory digest;
* without the package sources the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SHORT = ["--seed", "1", "--seconds", "0", "--min-iterations", "3", "--setups", "1"]
SPAN_KEYS = {"run", "id", "parent", "name", "start", "end"}


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str):
    if not condition:
        raise SmokeFailure(message)


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--trace", str(trace), *SHORT, *extra]
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(workload: str, trace: int, wanted: dict[str, str]):
    code, lines = run(workload, trace)
    check(code == 0, f"{workload} trace {trace}: exit code {code}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {set(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace}: {result['failed']}/{result['attempted']} iterations failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == wanted, f"{workload} trace {trace}: metrics {got} differ from BENCHMARK.json {wanted}")
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          f"{workload} trace {trace}: a metric value is not a number")
    printed = {(parts[0], parts[2]) for parts in map(str.split, lines[:-1]) if len(parts) >= 3}
    for name, unit in wanted.items():
        check((name, unit) in printed, f"{workload} trace {trace}: no printed line for {name} [{unit}]")


def check_spans(workload: str):
    spans = [json.loads(line) for line in (OUT / f"spans-{workload}-seed1.jsonl").read_text().splitlines()]
    ids = {s["id"] for s in spans}
    for span in spans:
        check(set(span) == SPAN_KEYS, f"{workload}: span keys {set(span)}")
        check(span["end"] >= span["start"], f"{workload}: span {span['id']} ends before it starts")
        check(span["parent"] is None or span["parent"] in ids, f"{workload}: span {span['id']} has no parent")
    names = {s["name"] for s in spans}
    for name in ("setup", "tabu.run_search", "tabu.iteration", "side.scan_slice"):
        check(name in names, f"{workload}: no {name} span")


def check_gate():
    code, lines = run("local-10x2", 0, "--reference-digest", "0" * 16)
    result = json.loads(lines[-1])
    check(code != 0, "a wrong reference digest did not make the run exit non-zero")
    check(not result["correct"] and result["failed"] == result["attempted"],
          "a wrong reference digest did not count every iteration failed")


def check_bare_directory():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines = run("local-10x2", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0, "the benchmark exited 0 without the package sources")
    check(not any(line.startswith("{") for line in lines), "the benchmark printed a result without sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                check_metrics(workload, trace, wanted[trace])
            check_spans(workload)
            print(f"ok  {workload}: metrics, units and spans", flush=True)
        check_gate()
        print("ok  correctness gate fires on a wrong digest", flush=True)
        check_bare_directory()
        print("ok  no sources: non-zero exit, no result", flush=True)
    except SmokeFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
