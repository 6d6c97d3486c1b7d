"""Span tracing from outside the program, and the per-layer metrics built from it.

The benchmark never edits ``nddc``. It wraps the module attributes that
callers look up at call time (``nddc.sweep.run``, ``nddc.cli.run_sim``,
``nddc.io.write_*`` ...), records one span per call in memory, and turns the
spans into per-layer metrics when the traced pass is over.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

SCALAR_MODELS = ("two-agent-transmission", "two-agent-reaction")
MODELS = ("transmission", "reaction") + SCALAR_MODELS
CLI_COMMANDS = ("figure-fig1", "figure-fig2", "figure-fig4", "run")

# Per-layer metrics: (name, unit, the end-to-end metric it should move and on
# which workload). Every traced run reports every name; a layer that a
# workload does not load reports 0.
PER_LAYER = [
    ("integrator.run.s", "s", "wall_s on theorems and bisect"),
    ("integrator.run.calls", "count", "wall_s on theorems and bisect"),
    ("integrator.steps", "count",
     "wall_s on theorems and bisect; falls on fig3-sweep when runs exit early"),
    *[(f"integrator.us_per_step.{m}", "us",
       "wall_s on theorems and the cli-outputs run command; no move on fig3-sweep or bisect")
      for m in MODELS[:2]],
    *[(f"integrator.us_per_step.{m}", "us",
       "wall_s on bisect and fig3-sweep; no move on theorems")
      for m in SCALAR_MODELS],
    ("integrator.aborts", "count", "wall_s on fig3-sweep"),
    ("integrator.aborted_frac", "fraction", "wall_s on fig3-sweep"),
    ("core.diameter_series.s", "s", "wall_s on theorems and cli-outputs"),
    ("diagnostics.classify_series.s", "s", "wall_s on theorems and cli-outputs"),
    ("diagnostics.track_ij.s", "s", "wall_s on theorems"),
    ("diagnostics.lyap_transmission.s", "s", "wall_s on theorems"),
    ("diagnostics.lyap_reaction.s", "s", "wall_s on theorems"),
    ("diagnostics.apriori_bounds.s", "s", "wall_s on theorems"),
    ("diagnostics.violations", "count", "ok_frac on theorems"),
    ("sweep.grid_sweep.s", "s", "wall_s and cpu_s on fig3-sweep only"),
    ("sweep.inconclusive_cells", "count", "wall_s and cpu_s on fig3-sweep only"),
    ("sweep.inconclusive_frac", "fraction", "wall_s and cpu_s on fig3-sweep only"),
    ("sweep.pool_efficiency", "fraction", "wall_s and cpu_s on fig3-sweep only"),
    ("sweep.boundary_bisect.s", "s", "wall_s on bisect only"),
    ("sweep.runs_per_bisection", "count", "wall_s on bisect only"),
    ("sweep.retries", "count", "wall_s on bisect only"),
    ("sweep.retry_frac", "fraction", "wall_s on bisect only"),
    ("sweep.retry_time_frac", "fraction", "wall_s on bisect only"),
    ("sweep.threshold_err", "1", "ok_frac on bisect"),
    ("harness.instance.s", "s", "setup_s on theorems"),
    ("io.write_trajectory_csv.s", "s", "wall_s on cli-outputs"),
    ("io.trajectory_rows_per_s", "1/s", "wall_s on cli-outputs"),
    ("io.bytes_written", "B", "wall_s on cli-outputs"),
    ("io.write_ij_csv.s", "s", "wall_s on cli-outputs"),
    ("io.write_lyapunov_csv.s", "s", "wall_s on cli-outputs"),
    ("io.write_grid.s", "s", "wall_s on cli-outputs; negligible on fig3-sweep"),
    ("io.write_manifest.s", "s", "wall_s on cli-outputs"),
    ("io.parse_config.s", "s", "wall_s on cli-outputs"),
    *[(f"cli.main.{c}.s", "s", "wall_s on cli-outputs") for c in CLI_COMMANDS],
    ("cli.self_s", "s", "wall_s on cli-outputs"),
    ("trace.overhead_s", "s", "none: traced minus untraced pass wall time"),
    # Peak memory follows the largest trajectory, which on theorems depends
    # on the seed; it is reported here rather than gated end to end.
    ("process.peak_rss_mib", "MiB", "none gated; grows with the largest trajectory held"),
]

# Traced counters that must repeat exactly between runs at one seed.
COUNTERS = ("integrator.steps", "integrator.run.calls", "integrator.aborts",
            "sweep.retries", "sweep.inconclusive_cells")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; wraps module attributes until ``restore``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def timed(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Replace ``module.attr`` by a traced call; ``annotate(span, args, result)``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self.close(index)
            if annotate is not None:
                annotate(span, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from nddc import cli, core, diagnostics, harness, io, sweep

    diameter_series = core.diameter_series
    classify_series = diagnostics.classify_series

    def on_run(span, args, traj):
        config = args[0]
        span.attrs.update(model=config.model.value, m=config.steps_per_delay,
                          steps=traj.n_steps, aborted=bool(traj.evidence.aborted))
        # Re-run the assembly helpers on the result to estimate their share
        # inside run(); these spans are subtracted from the traced wall time.
        if not config.model.is_scalar:
            tracer.timed("core.diameter_series", diameter_series, traj.states)
        tracer.timed("diagnostics.classify_series", classify_series, traj.diameters,
                     aborted=traj.evidence.aborted, abort_step=traj.evidence.abort_step)

    for module, attr in ((sweep, "run"), (harness, "run"), (cli, "run_sim")):
        tracer.wrap(module, attr, "integrator.run", on_run)

    def on_grid(span, args, grid):
        span.attrs.update(cells=int(grid.raster.size),
                          inconclusive=int((grid.raster == "inconclusive").sum()))

    tracer.wrap(sweep, "grid_sweep", "sweep.grid_sweep", on_grid)
    tracer.wrap(sweep, "boundary_bisect", "sweep.boundary_bisect")

    for attr in ("transmission_instance", "reaction_instance"):
        tracer.wrap(harness, attr, "harness.instance")

    def on_lyap(span, args, series):
        span.attrs["violations"] = int(series.violations)

    def on_apriori(span, args, bounds):
        span.attrs["violations"] = 0 if bounds.holds else 1

    tracer.wrap(diagnostics, "track_ij", "diagnostics.track_ij")
    tracer.wrap(diagnostics, "lyap_transmission", "diagnostics.lyap_transmission", on_lyap)
    tracer.wrap(diagnostics, "lyap_reaction", "diagnostics.lyap_reaction", on_lyap)
    tracer.wrap(diagnostics, "apriori_bounds", "diagnostics.apriori_bounds", on_apriori)

    def on_write(span, args, _):
        span.attrs["bytes"] = os.path.getsize(args[-1])
        if span.name == "io.write_trajectory_csv":
            span.attrs["rows"] = len(args[0].times)

    for attr, name in (("write_trajectory_csv", "io.write_trajectory_csv"),
                       ("write_ij_csv", "io.write_ij_csv"),
                       ("write_lyapunov_csv", "io.write_lyapunov_csv"),
                       ("write_grid_csv", "io.write_grid"),
                       ("write_grid_json", "io.write_grid"),
                       ("write_manifest", "io.write_manifest")):
        tracer.wrap(io, attr, name, on_write)
    tracer.wrap(io, "parse_config", "io.parse_config")

    def on_main(span, args, _):
        argv = list(args[0])
        span.attrs["command"] = "-".join(argv[:2]) if argv[0] == "figure" else argv[0]

    tracer.wrap(cli, "main", "cli.main", on_main)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into every PER_LAYER metric (0 where a layer is unused).

    ``sweep.pool_efficiency`` and ``trace.overhead_s`` need more than one
    pass and are filled in by the caller.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    # A run that raised has no trajectory to count.
    runs = [s for s in spans if s.name == "integrator.run" and "steps" in s.attrs]
    out["integrator.run.s"] = sum(s.duration for s in runs)
    out["integrator.run.calls"] = len(runs)
    out["integrator.steps"] = sum(s.attrs["steps"] for s in runs)
    for model in MODELS:
        mine = [s for s in runs if s.attrs["model"] == model]
        steps = sum(s.attrs["steps"] for s in mine)
        out[f"integrator.us_per_step.{model}"] = 1e6 * _frac(
            sum(s.duration for s in mine), steps)
    out["integrator.aborts"] = sum(s.attrs["aborted"] for s in runs)
    out["integrator.aborted_frac"] = _frac(out["integrator.aborts"], len(runs))

    for name in ("core.diameter_series", "diagnostics.classify_series",
                 "diagnostics.track_ij", "diagnostics.lyap_transmission",
                 "diagnostics.lyap_reaction", "diagnostics.apriori_bounds",
                 "sweep.grid_sweep", "sweep.boundary_bisect", "harness.instance",
                 "io.write_trajectory_csv", "io.write_ij_csv", "io.write_lyapunov_csv",
                 "io.write_grid", "io.write_manifest", "io.parse_config"):
        out[f"{name}.s"] = total(name)
    out["diagnostics.violations"] = sum(
        s.attrs.get("violations", 0) for s in spans if s.name.startswith("diagnostics."))

    grids = [s for s in spans if s.name == "sweep.grid_sweep"]
    cells = sum(s.attrs["cells"] for s in grids)
    out["sweep.inconclusive_cells"] = sum(s.attrs["inconclusive"] for s in grids)
    out["sweep.inconclusive_frac"] = _frac(out["sweep.inconclusive_cells"], cells)

    # A bisection retries an Inconclusive run at a finer mesh than its first run.
    bisects = {i for i, s in enumerate(spans) if s.name == "sweep.boundary_bisect"}
    bisect_runs = [s for s in runs if s.parent in bisects]
    base_m = {}
    for s in bisect_runs:
        base_m[s.parent] = min(base_m.get(s.parent, s.attrs["m"]), s.attrs["m"])
    retries = [s for s in bisect_runs if s.attrs["m"] > base_m[s.parent]]
    out["sweep.runs_per_bisection"] = _frac(len(bisect_runs), len(bisects))
    out["sweep.retries"] = len(retries)
    out["sweep.retry_frac"] = _frac(len(retries), len(bisect_runs))
    out["sweep.retry_time_frac"] = _frac(sum(s.duration for s in retries),
                                         sum(s.duration for s in bisect_runs))

    writes = [s for s in spans if s.name.startswith("io.write_")]
    out["io.bytes_written"] = sum(s.attrs["bytes"] for s in writes)
    rows = sum(s.attrs["rows"] for s in writes if s.name == "io.write_trajectory_csv")
    out["io.trajectory_rows_per_s"] = _frac(rows, out["io.write_trajectory_csv.s"])

    mains = [(i, s) for i, s in enumerate(spans) if s.name == "cli.main"]
    for _, span in mains:
        out[f"cli.main.{span.attrs['command']}.s"] += span.duration
    out["cli.self_s"] = sum(s.duration - child_time[i] for i, s in mains)
    return out


def probe_seconds(spans: list[Span]) -> float:
    """Time spent re-running assembly helpers, which the untraced pass never does."""
    return sum(s.duration for s in spans
               if s.name in ("core.diameter_series", "diagnostics.classify_series"))
