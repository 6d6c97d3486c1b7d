"""One workload in a fresh interpreter: set up, then timed passes until the time is up.

Started by ``run.py``; prints one JSON object as its last line. With
``--setup-only`` it stops after building the inputs, which is what ``run.py``
times as set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing


def _cpu() -> float:
    # Pool processes count once the pool has joined them, which grid_sweep does.
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed_pass(workload, out: Path):
    if out.exists():
        shutil.rmtree(out)
    out.mkdir()
    cpu0, wall0 = _cpu(), time.perf_counter()
    result = workload.run_pass(out)
    return time.perf_counter() - wall0, _cpu() - cpu0, result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)
    import numpy
    import nddc
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size, Path("."), args.workers)
    if args.setup_only:
        return 0

    out = Path("out")
    walls, cpus, results = [], [], []
    traced_walls, first_tracer = [], None
    started = time.perf_counter()
    # A run is whole passes: at least one, and no pass that would end past
    # the time limit judging by the median pass so far. A traced run
    # alternates untraced and traced passes and keeps the spans of the first
    # traced pass.
    while True:
        wall, cpu, result = _timed_pass(workload, out)
        walls.append(wall)
        cpus.append(cpu)
        results.append(result)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            try:
                wall, _, result = _timed_pass(workload, out)
            finally:
                tracer.restore()
            traced_walls.append(wall - tracing.probe_seconds(tracer.spans))
            results.append(result)
            first_tracer = first_tracer or tracer
        elapsed = time.perf_counter() - started
        per_round = statistics.median(walls) + (
            statistics.median(traced_walls) if args.trace else 0.0)
        if elapsed + per_round > args.seconds:
            break

    record = {
        "ops_per_pass": workload.ops,
        "passes": len(results),
        "walls": walls,
        "cpus": cpus,
        "failed": sum(r.failed for r in results),
        "digests": results[0].digests,
        "digest_mismatches": sum(r.digests != results[0].digests for r in results),
        "info": results[0].info,
        "numpy": numpy.__version__,
        "nddc_file": nddc.__file__,
    }
    if args.trace:
        serial_run_s = 0.0
        if args.workload == "fig3-sweep":
            tracing.instrument(first_tracer)
            try:
                serial_run_s = _serial_cells(workload, first_tracer)
            finally:
                first_tracer.restore()
        metrics = tracing.layer_metrics(first_tracer.spans)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        if serial_run_s:
            metrics["sweep.pool_efficiency"] = serial_run_s / (
                workload.workers * metrics["sweep.grid_sweep.s"])
        if "threshold_err" in results[0].info:
            metrics["sweep.threshold_err"] = results[0].info["threshold_err"]
        record["layer"] = metrics
        record["counters"] = {k: metrics[k] for k in tracing.COUNTERS}

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mib"] = max(own, children) / 1024.0
    if args.trace:
        record["layer"]["process.peak_rss_mib"] = record["peak_rss_mib"]
    print(json.dumps(record))
    return 0


def _serial_cells(workload, tracer) -> float:
    """Run every fig3 cell in this process, as the pool would, and sum run() time."""
    from nddc import sweep

    first = len(tracer.spans)
    for tau in workload.tau:
        for lam in workload.lam:
            cfg = sweep.cell_config(workload.settings, float(lam), float(tau))
            sweep.run(cfg, tol_low=workload.settings.tol_low,
                      tol_high=workload.settings.tol_high)
    return sum(s.duration for s in tracer.spans[first:] if s.name == "integrator.run")


if __name__ == "__main__":
    sys.exit(main())
