"""Config parsing and CSV/JSON serialization of runs, grids, and manifests."""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    ConstantDatum,
    Datum,
    LinearDatum,
    ModelKind,
    SampledDatum,
    SimConfig,
    Trajectory,
    WeightMatrix,
    agent_counts,
)
from .diagnostics import IJReport, LyapunovSeries
from .sweep import StabilityGrid
from .weights import WeightSpec

TOOL_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# weights and datum JSON schemas: the readers check the JSON's structure, and
# WeightSpec and SimConfig judge the values, which pass through unconverted
# (a config's n and d are judged first, by SimConfig's rule).


def _object(name: str, payload) -> dict:
    if not isinstance(payload, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(payload).__name__}")
    return payload


def _key(name: str, payload: dict, key: str):
    if key not in payload:
        raise ValueError(f"{name} needs a {key!r}")
    return payload[key]


def _numbers(name: str, value) -> np.ndarray:
    # A JSON number or rectangular array of numbers as floats: strings,
    # booleans, nulls and ragged rows are rejected, not converted.
    leaves = np.asarray(value, dtype=object)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in leaves.flat):
        raise ValueError(f"{name} must be a number or a rectangular array of numbers")
    return leaves.astype(float)


def weights_to_dict(weights: WeightMatrix) -> dict:
    return {"matrix": [[float(v) for v in row] for row in weights.weights]}


def weights_from_dict(payload, n: int = 2) -> WeightMatrix:
    """A matrix (a JSON array, or an object with a "matrix"), or a WeightSpec object,
    whose n defaults to ``n``."""
    if isinstance(payload, list):
        return WeightMatrix(_numbers("weights", payload))
    payload = _object("weights", payload)
    if "matrix" in payload:
        return WeightMatrix(_numbers("weights 'matrix'", payload["matrix"]))
    given = {key: payload[key] for key in ("n", "min_off_diagonal", "seed") if key in payload}
    return WeightSpec(kind=_key("weights", payload, "kind"), **{"n": n, **given}).build()


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


def datum_from_dict(payload, n: int, d: int) -> Datum:
    """The datum of a JSON object, in which a scalar array fills n x d."""
    payload = _object("datum", payload)

    def array(key: str) -> np.ndarray:
        values = _numbers(f"datum {key!r}", _key("datum", payload, key))
        return np.full((n, d), float(values)) if values.ndim == 0 else values

    kind = _key("datum", payload, "kind")
    if kind == "constant":
        return ConstantDatum(array("values"))
    if kind == "linear":
        return LinearDatum(array("start"), array("slope"))
    if kind == "table":
        return SampledDatum(times=array("times"), states=array("states"),
                            derivs=array("derivatives"))
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


def config_from_dict(payload) -> SimConfig:
    """The SimConfig of a JSON object with a "model" and a "tau". Defaults: n = 1
    for the gap models, else 2 with uniform weights, a constant datum 1, and
    SimConfig's own; a null "t_end" or "weights" is the default."""
    payload = _object("config", payload)
    model = ModelKind(_key("config", payload, "model"))
    # n and d are judged first: the weight spec and the datum's scalars fill them.
    n, d = agent_counts(payload.get("n", 1 if model.is_scalar else 2), payload.get("d", 1))
    weights = payload.get("weights")
    if weights is not None:
        # A spec takes the config's n unless it gives its own; a gap model takes none.
        weights = weights_from_dict(weights, 2 if model.is_scalar else n)
    elif not model.is_scalar:
        weights = WeightSpec(kind="uniform", n=n).build()
    given = {key: payload[key] for key in ("steps_per_delay", "t_end",
                                           "derivative_mode", "seed") if key in payload}
    datum = datum_from_dict(payload.get("datum", {"kind": "constant", "values": 1.0}), n, d)
    return SimConfig(model=model, tau=_key("config", payload, "tau"),
                     lam=payload.get("lambda", 0.0), datum=datum, n=n, d=d, weights=weights,
                     **given)


def parse_config(path=None, overrides: Optional[dict] = None) -> SimConfig:
    """Build a SimConfig (``config_from_dict``) from an optional JSON file plus
    override values, typically command-line flags, which win unless None."""
    payload: dict = {}
    if path is not None:
        with open(path) as fh:
            payload = _object("config", json.load(fh))
    for key, value in (overrides or {}).items():
        if value is not None:
            payload[key] = value
    return config_from_dict(payload)


# ---------------------------------------------------------------------------
# CSV writers
#
# Tables are formatted a whole row at a time. "%.17g" gives the digits of
# format(x, ".17g") for every double (nan, inf and -0 included): enough for
# exact float round trips. Rows end in "\r\n" as csv.writer ends them, and no
# field can hold a comma or a quote, so none is quoted.
#
# A value written more than once is formatted once. Time columns come from a
# TimeColumn, which one command shares across the files it writes. A gap
# trajectory (N = d = 1) whose X_1 is x and whose d_x is |x|, bit for bit,
# formats x once: X_1 reuses the string, and d_x is it without a leading "-",
# which is "%.17g" % abs(v) for every double v.

_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _bits(values) -> np.ndarray:
    """The IEEE-754 bit patterns of ``values`` as a flat int64 array."""
    return np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64)


class TimeColumn:
    """The formatted times of the CSVs one command writes.

    A figure's runs share their mesh, an aborted run's times are a prefix of
    it, and ij.csv's times are a prefix of trajectory.csv's. Times that are a
    bitwise prefix of the held ones reuse their strings, longer ones extend
    them, and any others replace them. Create one per command.
    """

    def __init__(self) -> None:
        self._bits = np.empty(0, dtype=np.int64)
        self._text: list[str] = []

    def strings(self, times) -> list[str]:
        """``"%.17g" % t`` for each of ``times``."""
        bits = _bits(times)
        shared = min(len(bits), len(self._bits))
        if not np.array_equal(bits[:shared], self._bits[:shared]):
            self._bits, self._text = bits[:0], []
        if len(bits) > len(self._bits):
            added = bits[len(self._bits):].view(np.float64)
            self._text += map("%.17g".__mod__, added.tolist())
            self._bits = bits.copy()
        return self._text[: len(bits)]


def _write_rows(path, header: str, template: str, rows) -> None:
    """Write ``header``, then ``template % tuple(row)`` for each row."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.writelines(template % tuple(row) for row in rows)


def _is_gap(traj: Trajectory) -> bool:
    # N = d = 1 with X_1 = x, d_x = |x| and every pair (1, 2), as _assemble
    # builds it.
    if traj.states.shape[1:] != (1, 1):
        return False
    x = _bits(traj.states)
    return (np.array_equal(_bits(traj.means), x)
            and np.array_equal(_bits(traj.diameters), x & _MAGNITUDE)
            and bool(np.all(np.asarray(traj.argmax_pairs) == (1, 2))))


def write_trajectory_csv(traj: Trajectory, path, times: Optional[TimeColumn] = None) -> None:
    """Columns: time, per-agent coordinates, d_x, mean coordinates, argmax pair.

    ``times`` shares formatted times with the command's other files.
    """
    nodes, n, d = traj.states.shape
    header = ["time"]
    header += [f"x_{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
    header += ["d_x"]
    header += [f"X_{k + 1}" for k in range(d)]
    header += ["argmax_i", "argmax_j"]
    header = ",".join(header) + "\r\n"
    stamps = (times if times is not None else TimeColumn()).strings(traj.times)
    if _is_gap(traj):
        xs = map("%.17g".__mod__, traj.states.reshape(-1).tolist())
        rows = ["%s,%s,%s,%s,1,2\r\n" % (t, s, s.lstrip("-"), s) for t, s in zip(stamps, xs)]
        with open(path, "w", newline="") as fh:
            fh.write(header + "".join(rows))
        return
    block = np.column_stack((traj.states.reshape(nodes, n * d), traj.diameters, traj.means,
                             traj.argmax_pairs))
    template = "%s," + ",".join(["%.17g"] * (n * d + d + 1)) + ",%d,%d\r\n"
    _write_rows(path, header, template, ((t, *row) for t, row in zip(stamps, block.tolist())))


def write_grid_csv(grid: StabilityGrid, path) -> None:
    lams, taus = np.meshgrid(grid.lam_values, grid.tau_values)
    columns = (lams, taus, grid.raster, grid.final_dx, grid.trailing_ratio)
    _write_rows(path, "lambda,tau,classification,final_dx,trailing_ratio\r\n",
                "%.17g,%.17g,%s,%.17g,%.17g\r\n",
                zip(*(np.ravel(c).tolist() for c in columns)))


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
    k = len(series.decrements)
    first = "%.17g,%.17g,,\r\n" % (series.times[0], series.values[0])
    block = np.column_stack((series.times[1 : k + 1], series.values[1 : k + 1],
                             series.decrements, series.bounds))
    _write_rows(path, "time,value,decrement,bound\r\n" + first,
                "%.17g,%.17g,%.17g,%.17g\r\n", block.tolist())


def write_ij_csv(report: IJReport, traj: Trajectory, path,
                 times: Optional[TimeColumn] = None) -> None:
    stamps = (times if times is not None else TimeColumn()).strings(
        traj.times[: len(report.pairs)])
    _write_rows(path, "time,argmax_i,argmax_j\r\n", "%s,%d,%d\r\n",
                zip(stamps, *np.asarray(report.pairs).T.tolist()))


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
    payload = {**asdict(manifest), "outputs": [str(p) for p in manifest.outputs]}
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
