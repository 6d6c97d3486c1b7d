"""Smoke test of the benchmark itself; exits non-zero on the first failed check.

Run from the root of a source checkout:

    python3 perfbench/smoke.py

For every workload at a tiny size and the default seed it checks that

* the untraced run prints every end-to-end metric of BENCHMARK.json, and the
  traced run every per-layer metric, each a finite number with its unit;
* ``correct`` is true and ``failed`` is 0;
* a second untraced run reproduces the output digests (the ledger compares
  them), and the traced run reports the determinism counters.

It also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, WORK, WORKLOADS
from tracing import COUNTERS, PER_LAYER


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def result_of(proc: subprocess.CompletedProcess, label: str) -> tuple[dict, dict]:
    check(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label} failed {result['failed']} of {result['attempted']}: {record}")
    return record, result


def check_metrics(result: dict, expected: list, label: str) -> None:
    got = result["metrics"]
    check(set(got) == {name for name, _ in expected},
          f"{label} metric names differ: {sorted(set(got) ^ {n for n, _ in expected})}")
    for name, unit in expected:
        value = got[name]["value"]
        check(got[name]["unit"] == unit, f"{label} {name} unit {got[name]['unit']} != {unit}")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label} {name} = {value!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(per_layer == [(name, unit) for name, unit, _ in PER_LAYER],
          "BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload list")

    for workload in WORKLOADS:
        first, result = result_of(bench(ROOT, workload, 0), f"{workload} untraced")
        check_metrics(result, end_to_end, workload)
        check(first["output_sha256"], f"{workload} reported no output digests")
        second, _ = result_of(bench(ROOT, workload, 0), f"{workload} repeat")
        check(second["output_sha256"] == first["output_sha256"],
              f"{workload} digests changed between runs")
        traced, result = result_of(bench(ROOT, workload, 1), f"{workload} traced")
        check_metrics(result, per_layer, f"{workload} traced")
        check(set(traced["counters"]) == set(COUNTERS), f"{workload} counters")
        print(f"ok {workload}: {len(end_to_end)} end-to-end and {len(per_layer)} "
              f"per-layer metrics, counters {traced['counters']}")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "bisect", 0)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and "metrics" not in proc.stdout,
          "the benchmark ran without a source tree")
    print("ok refuses to run without a source tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
