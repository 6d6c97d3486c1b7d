"""Benchmark of the nddc simulation lab: one workload per invocation.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fig3-sweep --seed 0 --seconds 25 --trace 0

Workloads (``--seed 0`` replays the reference experiments exactly):

* ``fig3-sweep``  the fig3 reaction-gap grid, 651 cells, through the process pool;
* ``bisect``      the 12 landmark boundary bisections of acceptance criteria 1 and 4;
* ``theorems``    both randomized theorem suites with their Lyapunov/a-priori monitors;
* ``cli-outputs`` ``nddc figure fig1|fig2|fig4`` and an N-agent ``nddc run`` with
  diagnostics, called in-process; the trajectory CSV writers dominate.

Each invocation times set-up in several fresh interpreters, then runs the
workload in one more fresh interpreter for ``--seconds`` and prints, as its
last line, ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones (median over passes); with
``--trace 1`` they are the per-layer ones from ``tracing.PER_LAYER``. The line
before it is a record of the environment, output digests and traced counters.
``--size tiny`` shrinks every workload for ``perfbench/smoke.py``.

Determinism: every pass must reproduce the first pass's output digests, and a
ledger under ``.perfbench_out/`` holds the digests and traced counters of
earlier runs of the same code at the same seed; any mismatch is a failed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_out"
WORKLOADS = ("fig3-sweep", "bisect", "theorems", "cli-outputs")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "NDDC_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _ledger_check(key: str, record: dict) -> int:
    """Compare digests and counters with earlier runs of this key; count mismatches."""
    path = WORK / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    entry = ledger.setdefault(key, {})
    mismatches = 0
    for field in ("digests", "counters"):
        if field not in record:
            continue
        if field in entry:
            mismatches += entry[field] != record[field]
        else:
            entry[field] = record[field]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(path)
    return mismatches


def _worker(args, env, setup_only: bool, timeout: float) -> tuple[int, str, str]:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workers", str(min(2, _nproc())),
           "--workdir", str(WORK / args.workload)]
    if setup_only:
        cmd.append("--setup-only")
    # The worker leads its own process group, so an overrun takes its pool
    # processes down with it.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1, "", "error: worker overran the time limit\n"
    return proc.returncode, out, err


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "nddc" / "__init__.py").is_file():
        print(f"error: no nddc source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2

    environment = {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }
    WORK.mkdir(exist_ok=True)
    env = _child_env()

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _, err = _worker(args, env, True, DEADLINE_S - (time.monotonic() - started))
        setups.append(time.perf_counter() - t0)
        if code != 0:
            sys.stderr.write(err)
            return 1
    code, out, err = _worker(args, env, False, DEADLINE_S - (time.monotonic() - started))
    if code != 0:
        sys.stderr.write(err)
        return 1
    record = json.loads(out.strip().splitlines()[-1])
    if not Path(record.pop("nddc_file")).resolve().is_relative_to(ROOT / "src"):
        print("error: worker imported nddc from outside this checkout", file=sys.stderr)
        return 1
    environment["numpy"] = record.pop("numpy")

    key = f"{args.workload}|seed={args.seed}|size={args.size}|code={_code_hash()[:16]}"
    ledger_mismatches = _ledger_check(key, record)
    attempted = record["ops_per_pass"] * record["passes"]
    failed = min(attempted, record["failed"] + record["digest_mismatches"] + ledger_mismatches)

    if args.trace:
        metrics = {name: {"value": record["layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(record["walls"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(record["cpus"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }
    print(json.dumps({
        "record": {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "environment": environment,
            "setup_samples_s": setups, "pass_walls_s": record["walls"],
            "peak_rss_mib": record["peak_rss_mib"],
            "pass_cpus_s": record["cpus"], "failed_frac": failed / attempted,
            "digest_mismatches": record["digest_mismatches"],
            "ledger_key": key, "ledger_mismatches": ledger_mismatches,
            "output_sha256": record["digests"], "counters": record.get("counters"),
            "info": record["info"],
        }
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
