"""Config parsing and CSV/JSON serialization of runs, grids, and manifests."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    ConstantDatum,
    Datum,
    DerivativeMode,
    LinearDatum,
    ModelKind,
    SampledDatum,
    SimConfig,
    Trajectory,
    integer,
)
from .diagnostics import IJReport, LyapunovSeries
from .integrator import Mesh, aligned_t_end
from .sweep import StabilityGrid
from .weights import WeightMatrix, WeightSpec, validate

TOOL_VERSION = "0.1.0"


def fmt(x: float) -> str:
    """17 significant digits: enough for exact float round trips."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# weights and datum JSON schemas


def weights_to_dict(weights: WeightMatrix) -> dict:
    return {"matrix": [[float(v) for v in row] for row in weights.weights]}


def weights_from_dict(payload) -> WeightMatrix:
    if isinstance(payload, list):
        return validate(np.asarray(payload, dtype=float))
    if "matrix" in payload:
        return validate(np.asarray(payload["matrix"], dtype=float))
    spec = WeightSpec(
        kind=payload["kind"],
        n=integer("n", payload.get("n", 2), minimum=1),
        min_off_diagonal=payload.get("min_off_diagonal"),
        seed=integer("seed", payload.get("seed", 0), minimum=0),
    )
    return spec.build()


def load_weights(path) -> WeightMatrix:
    with open(path) as fh:
        return weights_from_dict(json.load(fh))


def save_weights(weights: WeightMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(weights_to_dict(weights), fh, indent=2)


def datum_to_dict(datum: Datum) -> dict:
    if isinstance(datum, ConstantDatum):
        return {"kind": "constant", "values": datum.values.tolist()}
    if isinstance(datum, LinearDatum):
        return {"kind": "linear", "start": datum.start.tolist(),
                "slope": datum.slope.tolist()}
    if isinstance(datum, SampledDatum):
        return {
            "kind": "table",
            "times": datum.times.tolist(),
            "states": datum.states.tolist(),
            "derivatives": datum.derivs.tolist(),
        }
    raise TypeError(f"unknown datum type: {type(datum)!r}")


def datum_from_dict(payload: dict, n: int, d: int) -> Datum:
    kind = payload["kind"]
    if kind == "constant":
        values = np.asarray(payload["values"], dtype=float)
        if values.ndim == 0:
            values = np.full((n, d), float(values))
        return ConstantDatum(values)
    if kind == "linear":
        start = np.asarray(payload["start"], dtype=float)
        slope = np.asarray(payload["slope"], dtype=float)
        if start.ndim == 0:
            start = np.full((n, d), float(start))
        if slope.ndim == 0:
            slope = np.full((n, d), float(slope))
        return LinearDatum(start, slope)
    if kind == "table":
        return SampledDatum(
            times=np.asarray(payload["times"], dtype=float),
            states=np.asarray(payload["states"], dtype=float),
            derivs=np.asarray(payload["derivatives"], dtype=float),
        )
    raise ValueError(f"unknown datum kind: {kind!r}")


# ---------------------------------------------------------------------------
# SimConfig round trip


def config_to_dict(config: SimConfig) -> dict:
    return {
        "model": config.model.value,
        "n": config.n,
        "d": config.d,
        "tau": config.tau,
        "lambda": config.lam,
        "steps_per_delay": config.steps_per_delay,
        "t_end": config.t_end,
        "seed": config.seed,
        "derivative_mode": config.derivative_mode.value,
        "weights": weights_to_dict(config.weights) if config.weights is not None else None,
        "datum": datum_to_dict(config.datum),
    }


def config_from_dict(payload: dict) -> SimConfig:
    model = ModelKind(payload["model"])
    n = integer("n", payload.get("n", 1 if model.is_scalar else 2), minimum=1)
    d = integer("d", payload.get("d", 1), minimum=1)
    tau = float(payload["tau"])
    weights = None
    if payload.get("weights") is not None:
        weights = weights_from_dict(payload["weights"])
    elif not model.is_scalar:
        weights = WeightSpec(kind="uniform", n=n).build()
    steps = payload.get("steps_per_delay", 32)
    t_end = payload.get("t_end")
    if t_end is None:
        t_end = aligned_t_end(tau, steps, max(50.0, 40.0 * tau))
    datum_payload = payload.get("datum", {"kind": "constant", "values": 1.0})
    shape_n = 1 if model.is_scalar else n
    return SimConfig(
        model=model,
        tau=tau,
        lam=float(payload.get("lambda", 0.0)),
        datum=datum_from_dict(datum_payload, shape_n, d),
        n=n,
        d=d,
        steps_per_delay=steps,
        t_end=float(t_end),
        weights=weights,
        derivative_mode=DerivativeMode(payload.get("derivative_mode",
                                                   DerivativeMode.BACKWARD_DIFFERENCE)),
        seed=int(payload.get("seed", 0)),
    )


def parse_config(path=None, overrides: Optional[dict] = None) -> SimConfig:
    """Build a SimConfig from an optional JSON file plus override values.

    Overrides (typically command-line flags) win over file entries. Defaults:
    steps_per_delay 32, constant datum 1, t_end the first mesh multiple of
    max(50, 40*tau). A user-supplied t_end that is not a mesh multiple is an
    error.
    """
    payload: dict = {}
    if path is not None:
        with open(path) as fh:
            payload.update(json.load(fh))
    for key, value in (overrides or {}).items():
        if value is not None:
            payload[key] = value
    if "model" not in payload:
        raise ValueError("config needs a 'model'")
    if "tau" not in payload:
        raise ValueError("config needs a 'tau'")
    config = config_from_dict(payload)
    Mesh.build(config.tau, config.steps_per_delay, config.t_end)
    return config


# ---------------------------------------------------------------------------
# CSV writers


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns: time, per-agent coordinates, d_x, mean coordinates, argmax pair."""
    n, d = traj.states.shape[1:]
    header = ["time"]
    header += [f"x_{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
    header += ["d_x"]
    header += [f"X_{k + 1}" for k in range(d)]
    header += ["argmax_i", "argmax_j"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in range(len(traj.times)):
            record = [fmt(traj.times[row])]
            record += [fmt(v) for v in traj.states[row].ravel()]
            record.append(fmt(traj.diameters[row]))
            record += [fmt(v) for v in traj.means[row]]
            record += [str(int(traj.argmax_pairs[row, 0])),
                       str(int(traj.argmax_pairs[row, 1]))]
            writer.writerow(record)


def write_grid_csv(grid: StabilityGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "tau", "classification", "final_dx", "trailing_ratio"])
        for i, tau in enumerate(grid.tau_values):
            for j, lam in enumerate(grid.lam_values):
                writer.writerow([
                    fmt(lam), fmt(tau), grid.raster[i, j],
                    fmt(grid.final_dx[i, j]), fmt(grid.trailing_ratio[i, j]),
                ])


def write_grid_json(grid: StabilityGrid, path) -> None:
    payload = {
        "lambda": [float(v) for v in grid.lam_values],
        "tau": [float(v) for v in grid.tau_values],
        "raster": [[str(c) for c in row] for row in grid.raster],
        "boundary": [None if np.isnan(v) else float(v) for v in grid.boundary],
        "overlays": [
            {"label": c.label,
             "lambda": [float(v) for v in c.lam],
             "tau": [float(v) for v in c.tau]}
            for c in grid.overlays
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def write_lyapunov_csv(series: LyapunovSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "value", "decrement", "bound"])
        writer.writerow([fmt(series.times[0]), fmt(series.values[0]), "", ""])
        for k in range(len(series.decrements)):
            writer.writerow([
                fmt(series.times[k + 1]), fmt(series.values[k + 1]),
                fmt(series.decrements[k]), fmt(series.bounds[k]),
            ])


def write_ij_csv(report: IJReport, traj: Trajectory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "argmax_i", "argmax_j"])
        for k in range(len(report.pairs)):
            writer.writerow([fmt(traj.times[k]),
                             str(int(report.pairs[k, 0])),
                             str(int(report.pairs[k, 1]))])


# ---------------------------------------------------------------------------
# run manifests


@dataclass
class RunManifest:
    """Reproducibility record: resolved config, outputs, and the verdict."""

    config: dict
    tool_version: str = TOOL_VERSION
    duration_seconds: float = 0.0
    outputs: list = field(default_factory=list)
    classification: Optional[str] = None
    summary: dict = field(default_factory=dict)


def write_manifest(manifest: RunManifest, path) -> None:
    payload = {
        "tool_version": manifest.tool_version,
        "duration_seconds": manifest.duration_seconds,
        "config": manifest.config,
        "outputs": [str(p) for p in manifest.outputs],
        "classification": manifest.classification,
        "summary": manifest.summary,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def read_manifest(path) -> RunManifest:
    with open(path) as fh:
        payload = json.load(fh)
    return RunManifest(
        config=payload["config"],
        tool_version=payload.get("tool_version", TOOL_VERSION),
        duration_seconds=payload.get("duration_seconds", 0.0),
        outputs=[Path(p) for p in payload.get("outputs", [])],
        classification=payload.get("classification"),
        summary=payload.get("summary", {}),
    )
