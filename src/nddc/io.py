"""Config parsing and CSV/JSON serialization of runs, grids, and manifests."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
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
    real,
)
from .diagnostics import LyapunovSeries
from .sweep import StabilityGrid
from .weights import WeightSpec


# ---------------------------------------------------------------------------
# weights and datum JSON schemas: the readers check the JSON's structure, and
# WeightSpec and SimConfig judge the values, which pass through unconverted
# (a config's n and d are judged first, by SimConfig's rule). A key a reader
# does not read is rejected, never silently dropped.


def _object(name: str, payload, keys=None) -> dict:
    """``payload``, which must be a JSON object holding no key outside ``keys``
    (any key when ``keys`` is None)."""
    if not isinstance(payload, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(keys)) if keys is not None else []
    if unknown:
        raise ValueError(f"unknown {name} key{'s' * (len(unknown) > 1)} "
                         f"{', '.join(map(repr, unknown))}")
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


def is_matrix(payload) -> bool:
    """Whether a weights payload is a matrix: a JSON array, or an object with a "matrix"."""
    return isinstance(payload, list) or isinstance(payload, dict) and "matrix" in payload


def weights_from_dict(payload, n: Optional[int] = None,
                      seed: Optional[int] = None) -> WeightMatrix:
    """A matrix (see ``is_matrix``), or a WeightSpec object keyed by its fields,
    whose n and seed default to ``n`` and ``seed`` when given."""
    if isinstance(payload, list):
        return WeightMatrix(_numbers("weights", payload))
    if is_matrix(payload):
        _object("weights", payload, ("matrix",))
        return WeightMatrix(_numbers("weights 'matrix'", payload["matrix"]))
    spec = _object("weights", payload, [f.name for f in fields(WeightSpec)])
    _key("weights", spec, "kind")
    given = {key: value for key, value in (("n", n), ("seed", seed)) if value is not None}
    return WeightSpec(**{**given, **spec}).build()


#: Each datum kind's class, whose fields, in order, are the kind's JSON arrays.
_DATUM_KINDS = {"constant": ConstantDatum, "linear": LinearDatum, "table": SampledDatum}


def datum_to_dict(datum: Datum) -> dict:
    kind = next(kind for kind, cls in _DATUM_KINDS.items() if isinstance(datum, cls))
    return {"kind": kind, **{f.name: getattr(datum, f.name).tolist() for f in fields(datum)}}


def datum_from_dict(payload, n: int, d: int) -> Datum:
    """The datum of a JSON object, in which a scalar array fills n x d."""
    payload = _object("datum", payload)
    kind = _key("datum", payload, "kind")
    if not isinstance(kind, str) or kind not in _DATUM_KINDS:
        raise ValueError(f"unknown datum kind: {kind!r}")
    cls = _DATUM_KINDS[kind]
    keys = [f.name for f in fields(cls)]
    _object("datum", payload, ("kind", *keys))

    def array(key: str) -> np.ndarray:
        values = _numbers(f"datum {key!r}", _key("datum", payload, key))
        return np.full((n, d), float(values)) if values.ndim == 0 else values

    return cls(*map(array, keys))


# ---------------------------------------------------------------------------
# SimConfig round trip: a config's JSON keys are its fields, lam spelt "lambda".

CONFIG_KEYS = {"lambda" if f.name == "lam" else f.name: f.name for f in fields(SimConfig)}


def config_to_dict(config: SimConfig) -> dict:
    weights = config.weights
    return {**{key: getattr(config, name) for key, name in CONFIG_KEYS.items()},
            "model": config.model.value, "datum": datum_to_dict(config.datum),
            "weights": weights_to_dict(weights) if weights is not None else None}


def config_from_dict(payload) -> SimConfig:
    """The SimConfig of a JSON object with a "model" and a "tau". Defaults: n = 1
    for the gap models, else 2 with uniform weights, a constant datum 1, and
    SimConfig's own; a null "t_end" or "weights" is the default. A weight spec
    takes the config's n and seed unless it gives its own. Any other key is
    rejected."""
    payload = _object("config", payload, CONFIG_KEYS)
    model = ModelKind(_key("config", payload, "model"))
    _key("config", payload, "tau")
    # n and d are judged first: the weight spec and the datum's scalars fill them.
    n, d = agent_counts(payload.get("n", 1 if model.is_scalar else 2), payload.get("d", 1))
    weights = payload.get("weights")
    if weights is not None:
        # A gap model takes no weights, so its spec takes neither n nor seed.
        weights = (weights_from_dict(weights) if model.is_scalar
                   else weights_from_dict(weights, n, payload.get("seed")))
    elif not model.is_scalar:
        weights = WeightSpec(kind="uniform", n=n).build()
    datum = datum_from_dict(payload.get("datum", {"kind": "constant", "values": 1.0}), n, d)
    given = {CONFIG_KEYS[key]: value for key, value in payload.items()}
    return SimConfig(**{"lam": 0.0, **given, "model": model, "n": n, "d": d,
                        "weights": weights, "datum": datum})


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
# TimeColumn, which one command shares across the files it writes. A
# trajectory of shape (N, d) = (1, 1) is a gap run's (every weight matrix has
# N >= 2), so its X_1 is x, its d_x is |x| and its pair is (1, 2), as
# ``Trajectory`` states: x is formatted once, X_1 reuses the string, and d_x
# is it without a leading "-", which is "%.17g" % abs(v) for every double v.


def _bits(values) -> np.ndarray:
    """The IEEE-754 bit patterns of ``values`` as a flat int64 array."""
    return np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64)


class TimeColumn:
    """The formatted times of the CSVs one command writes.

    A figure's runs share their mesh, an aborted run's times are a prefix of
    it, and ij.csv's times are trajectory.csv's. Times that are a
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
    if (n, d) == (1, 1):
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


def _write_json(payload, path, **options) -> None:
    """Write ``payload`` as strict JSON, every non-finite float as null."""

    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {key: finite(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(item) for item in value]
        return value

    with open(path, "w") as fh:
        json.dump(finite(payload), fh, allow_nan=False, **options)


def write_grid_json(grid: StabilityGrid, path) -> None:
    payload = {
        "lambda": [float(v) for v in grid.lam_values],
        "tau": [float(v) for v in grid.tau_values],
        "raster": [[str(c) for c in row] for row in grid.raster],
        "boundary": grid.boundary.tolist(),
        "overlays": [
            {"label": c.label,
             "lambda": [float(v) for v in c.lam],
             "tau": [float(v) for v in c.tau]}
            for c in grid.overlays
        ],
    }
    _write_json(payload, path, indent=2)


def write_lyapunov_csv(series: LyapunovSeries, path) -> None:
    k = len(series.decrements)
    first = "%.17g,%.17g,,\r\n" % (series.times[0], series.values[0])
    block = np.column_stack((series.times[1 : k + 1], series.values[1 : k + 1],
                             series.decrements, series.bounds))
    _write_rows(path, "time,value,decrement,bound\r\n" + first,
                "%.17g,%.17g,%.17g,%.17g\r\n", block.tolist())


def write_ij_csv(traj: Trajectory, path, times: Optional[TimeColumn] = None) -> None:
    """Columns: time, argmax pair."""
    stamps = (times if times is not None else TimeColumn()).strings(traj.times)
    _write_rows(path, "time,argmax_i,argmax_j\r\n", "%s,%d,%d\r\n",
                zip(stamps, *traj.argmax_pairs.T.tolist()))


# ---------------------------------------------------------------------------
# run manifests


@dataclass
class RunManifest:
    """Reproducibility record: resolved config, outputs, and the verdict."""

    config: dict
    tool_version: str = __version__
    duration_seconds: float = 0.0
    outputs: list = field(default_factory=list)
    classification: Optional[str] = None
    summary: dict = field(default_factory=dict)


def write_manifest(manifest: RunManifest, path) -> None:
    payload = {**asdict(manifest), "outputs": [str(p) for p in manifest.outputs]}
    _write_json(payload, path, indent=2, sort_keys=True)


def read_manifest(path) -> RunManifest:
    with open(path) as fh:
        payload = _object("manifest", json.load(fh), [f.name for f in fields(RunManifest)])
    _object("manifest 'config'", _key("manifest", payload, "config"))
    _object("manifest 'summary'", payload.get("summary", {}))
    real("manifest 'duration_seconds'", payload.get("duration_seconds", 0.0), minimum=0.0)
    if not isinstance(payload.get("classification"), (str, type(None))):
        raise ValueError("manifest 'classification' must be a string or null")
    if not isinstance(payload.get("tool_version", ""), str):
        raise ValueError("manifest 'tool_version' must be a string")
    outputs = payload.get("outputs", [])
    if not (isinstance(outputs, list) and all(isinstance(p, str) for p in outputs)):
        raise ValueError("manifest 'outputs' must be an array of strings")
    return RunManifest(**{**payload, "outputs": [Path(p) for p in outputs]})
