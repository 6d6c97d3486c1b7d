"""The four benchmark workloads: inputs from a seed, one pass, and its checks.

``DEFAULT_SEED`` reproduces the reference experiments exactly; any other seed
perturbs the inputs while keeping the kind and the amount of work the same.
Each workload builds its inputs in ``__init__`` (timed as set-up) and runs
them in ``run_pass``, which returns the number of failed operations and a
SHA-256 digest of every output. Outputs are files where the workload writes
files and canonical value listings where it does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nddc import cli, diagnostics, harness, io, presets, sweep
from nddc.core import ModelKind
from nddc.diagnostics import lyap_transmission
from nddc.integrator import Mesh

DEFAULT_SEED = 0


@dataclass
class PassResult:
    failed: int
    digests: dict
    info: dict = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _values_digest(values) -> str:
    return _sha(repr(values).encode())


def _file_digest(path: Path) -> str:
    if path.suffix == ".json" and "manifest" in path.name:
        # Manifests record their own wall time; digest everything else.
        payload = json.loads(path.read_text())
        payload.pop("duration_seconds", None)
        return _sha(json.dumps(payload, sort_keys=True).encode())
    return _sha(path.read_bytes())


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _numeric(rows: list[list[str]]) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(len(rows), -1)


class Fig3Sweep:
    """The fig3 reaction-gap grid (31 x 21 cells) through a process pool."""

    def __init__(self, seed: int, size: str, workers: int) -> None:
        job = presets.figure_preset("fig3").sweep
        lam, tau = job.lam_values, job.tau_values
        if seed != DEFAULT_SEED:
            # A cell costs about 1600 / tau steps, so the tau = 0 row (the
            # ODE limit) stays put and the rest shift by at most a tenth of a
            # step either way: moving tau = 0 to a small tau would multiply
            # the work, and the first row alone is a third of it.
            rng = np.random.default_rng(seed)
            lam = lam + rng.uniform(0.0, 0.5) * (lam[1] - lam[0])
            tau = np.where(tau > 0, tau + rng.uniform(-0.1, 0.1) * (tau[1] - tau[0]), 0.0)
        if size == "tiny":
            lam, tau = lam[::10], tau[::7]
        self.settings = job.settings
        self.lam, self.tau = lam, tau
        self.workers = workers
        self.ops = len(lam) * len(tau)
        # 2 (1 + lambda) tau < 1 is the sufficient condition for consensus.
        self.must_converge = 2.0 * (1.0 + lam[None, :]) * tau[:, None] < 1.0

    def run_pass(self, out: Path) -> PassResult:
        grid = sweep.grid_sweep(self.settings, self.lam, self.tau, workers=self.workers)
        paths = [out / "fig3_grid.csv", out / "fig3_grid.json"]
        io.write_grid_csv(grid, paths[0])
        io.write_grid_json(grid, paths[1])

        bad = self.must_converge & (grid.raster != "converged")
        _, rows = _read_csv(paths[0])
        labels = np.array([r[2] for r in rows], dtype=object).reshape(grid.raster.shape)
        axes = _numeric([r[:2] for r in rows]).reshape(*grid.raster.shape, 2)
        bad |= labels != grid.raster
        bad |= axes[..., 0] != self.lam[None, :]
        bad |= axes[..., 1] != self.tau[:, None]
        bad |= np.array(json.loads(paths[1].read_text())["raster"], dtype=object) != grid.raster
        return PassResult(
            failed=int(bad.sum()),
            digests={p.name: _file_digest(p) for p in paths},
            info={"inconclusive_cells": int((grid.raster == "inconclusive").sum())},
        )


class Bisect:
    """The boundary bisections of acceptance criteria 1 and 4, run serially."""

    def __init__(self, seed: int, size: str) -> None:
        trans_log2 = [-1.0, 0.0, 1.0, 2.0]          # lambda in {0.5, 1, 2, 4}
        react = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
        if seed != DEFAULT_SEED:
            # One draw per equal stratum of the same ranges, so every seed
            # spreads its landmarks the way the reference set does.
            rng = np.random.default_rng(seed)
            trans_log2 = list(-1.0 + 0.75 * (np.arange(4) + rng.uniform(size=4)))
            react = list(0.1 + 0.3 / 7 * (np.arange(7) + rng.uniform(size=7)))
        self.iterations = 20
        if size == "tiny":
            trans_log2, react, self.iterations = [2.0], [0.25], 4
        # (settings, lambda, tau_low, tau_high) per bisection.
        self.landmarks = [
            (sweep.SweepSettings(model=ModelKind.TWO_AGENT_TRANSMISSION, steps_per_delay=64,
                                 t_end=max(128.0, 400.0 / lam)), lam, 0.5 / lam, 1.6 / lam)
            for lam in (float(2.0 ** e) for e in trans_log2)
        ] + [
            (sweep.SweepSettings(model=ModelKind.TWO_AGENT_REACTION, steps_per_delay=32,
                                 t_end=300.0), float(lam), 0.6, 0.95 if lam == 0 else 1.1)
            for lam in [0.0] + react
        ]
        self.ops = len(self.landmarks)

    def run_pass(self, out: Path) -> PassResult:
        taus = []
        failed = 0
        for settings, lam, tau_low, tau_high in self.landmarks:
            try:
                taus.append(sweep.boundary_bisect(settings, lam, tau_low, tau_high,
                                                  self.iterations))
            except ValueError:                      # invalid bracket
                taus.append(math.nan)
                failed += 1
        trans_err, apex, tau0_err = [], [], math.nan
        for (settings, lam, _, _), tau in zip(self.landmarks, taus):
            if math.isnan(tau):
                continue
            if settings.model is ModelKind.TWO_AGENT_TRANSMISSION:
                trans_err.append(abs(lam * tau - 1.0))
                failed += trans_err[-1] > 0.05
            elif lam == 0.0:
                tau0_err = abs(tau - math.pi / 4.0)
                failed += not tau0_err <= 0.02
            else:
                apex.append(tau)
        failed += not (apex and 0.85 <= max(apex) <= 0.95)
        return PassResult(
            failed=failed,
            digests={"tau_star": _values_digest(taus)},
            info={"threshold_err": max(trans_err + [tau0_err]),
                  "tau_star": taus},
        )


class Theorems:
    """Both randomized theorem suites with the monitors of the acceptance gate.

    Instance cost varies eightfold with the drawn tau, so the instance counts
    are sized from the base seed to a fixed budget of planned steps: reaction
    instances first, then transmission instances to fill the remainder. A
    transmission step costs about 1.5 reaction steps.
    """

    BUDGET = {"full": 160_000, "tiny": 12_000}
    REACTION_SHARE = 0.6
    TRANSMISSION_COST = 1.5

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        budget = self.BUDGET[size]
        self.reaction_count, used = self._fill(harness.reaction_instance, 1.0,
                                               self.REACTION_SHARE * budget)
        self.transmission_count, _ = self._fill(harness.transmission_instance,
                                                self.TRANSMISSION_COST, budget - used)
        self.ops = self.reaction_count + self.transmission_count

    def _fill(self, make, cost: float, budget: float) -> tuple[int, float]:
        # Take instances in seed order while that brings the total closer.
        count, total = 0, 0.0
        while True:
            config = make(self.seed + count)
            nxt = cost * Mesh.build(config.tau, config.steps_per_delay,
                                    config.t_end).total_steps
            if count and abs(total + nxt - budget) >= abs(total - budget):
                return count, total
            count, total = count + 1, total + nxt

    def run_pass(self, out: Path) -> PassResult:
        failed = unsettled = 0
        records = []
        # Each trajectory is dropped once checked, as check_theorems does, so
        # memory holds one instance at a time.
        for result in harness.iter_transmission_suite(
                count=self.transmission_count, base_seed=self.seed):
            ok, settled, record = _check_transmission(result)
            result.trajectory = None
            failed += not ok
            unsettled += not settled
            records.append(record)
        for result in harness.iter_reaction_suite(
                count=self.reaction_count, base_seed=self.seed):
            series = diagnostics.lyap_reaction(result.trajectory)
            result.trajectory = None
            failed += not (result.passed and series.violations == 0)
            records.append((result.theorem, result.seed, result.decay_ratio,
                            result.mean_drift, series.worst_margin))
        return PassResult(failed=failed, digests={"suites": _values_digest(records)},
                          info={"transmission_count": self.transmission_count,
                                "reaction_count": self.reaction_count,
                                "unsettled_argmax_pairs": unsettled})


def _check_transmission(result) -> tuple[bool, bool, tuple]:
    traj = result.trajectory
    report = diagnostics.track_ij(traj)
    # The functional is only checked once the argmax pair settles. A run that
    # decays to rounding level (e.g. seed 339) never settles.
    series = (diagnostics.lyap_transmission(traj)
              if report.stabilization_time is not None else None)
    bounds = diagnostics.apriori_bounds(traj)
    violations = series.violations if series is not None else 0
    ok = result.passed and violations == 0 and bounds.holds
    record = (result.theorem, result.seed, result.decay_ratio,
              series.worst_margin if series else None,
              bounds.state_ratio, bounds.deriv_ratio)
    return ok, series is not None, record


class CliOutputs:
    """Three figure replays and one N-agent run through ``nddc.cli.main``."""

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        # The run starts from seeded agent opinions; with the default datum
        # (every agent at 1) it would sit at consensus and write constants.
        rng = np.random.default_rng(seed)
        datum = (workdir / "datum.json").resolve()
        datum.write_text(json.dumps(
            {"kind": "constant", "values": rng.uniform(-1.0, 1.0, size=(7, 2)).tolist()}))
        t_end = "6" if size == "tiny" else "60"
        run = ["run", "--model", "transmission", "--n", "7", "--d", "2", "--tau", "0.2",
               "--lambda", "1", "--weights", "random-row", "--steps-per-delay", "64",
               "--t-end", t_end, "--diagnostics", "--seed", str(seed),
               "--datum", f"file:{datum}"]
        figures = ["fig1"] if size == "tiny" else ["fig1", "fig2", "fig4"]
        self.commands = [(f, ["figure", f]) for f in figures] + [("run", run)]
        self.ops = len(self.commands)

    def run_pass(self, out: Path) -> PassResult:
        # The command line hands back only an exit code, so keep each
        # trajectory that cli.main simulates to check its files against.
        simulated = []
        original = cli.run_sim

        def capture(config):
            simulated.append(original(config))
            return simulated[-1]

        failed = 0
        digests = {}
        cli.run_sim = capture
        try:
            for name, argv in self.commands:
                del simulated[:]
                target = out / name
                with contextlib.redirect_stdout(stdio.StringIO()), \
                        contextlib.redirect_stderr(stdio.StringIO()):
                    code = cli.main(argv + ["--out", str(target)])
                failed += not (code == 0 and _check_command(target, list(simulated)))
                for path in sorted(target.iterdir()):
                    digests[f"{target.name}/{path.name}"] = _file_digest(path)
        finally:
            cli.run_sim = original
        return PassResult(failed=failed, digests=digests)


def _check_command(target: Path, trajectories: list) -> bool:
    manifest = io.read_manifest(next(target.glob("*manifest.json")))
    csvs = [p for p in manifest.outputs if p.name != "ij.csv" and p.name != "lyapunov.csv"]
    if len(csvs) != len(trajectories):
        return False
    for path, traj in zip(csvs, trajectories):
        if not _trajectory_matches(target / path.name, traj):
            return False
    names = {p.name for p in manifest.outputs}
    if "ij.csv" in names:
        traj = trajectories[0]
        ij = _numeric(_read_csv(target / "ij.csv")[1])
        if not (np.array_equal(ij[:, 0], traj.times)
                and np.array_equal(ij[:, 1:], traj.argmax_pairs)):
            return False
    if "lyapunov.csv" in names:
        series = lyap_transmission(trajectories[0])
        _, rows = _read_csv(target / "lyapunov.csv")
        body = _numeric(rows[1:])
        if not (len(rows) == len(series.values)
                and float(rows[0][0]) == series.times[0]
                and float(rows[0][1]) == series.values[0]
                and np.array_equal(body[:, 0], series.times[1:])
                and np.array_equal(body[:, 1], series.values[1:])
                and np.array_equal(body[:, 2], series.decrements)
                and np.array_equal(body[:, 3], series.bounds)):
            return False
    return True


def _trajectory_matches(path: Path, traj) -> bool:
    rows = _read_csv(path)[1]
    count, n, d = traj.states.shape
    if len(rows) != count:
        return False
    table = _numeric(rows)
    expected = np.column_stack([
        traj.times, traj.states.reshape(count, n * d), traj.diameters,
        traj.means, traj.argmax_pairs,
    ])
    return table.shape == expected.shape and np.array_equal(table, expected)


def build(name: str, seed: int, size: str, workdir: Path, workers: int):
    if name == "fig3-sweep":
        return Fig3Sweep(seed, size, workers)
    if name == "bisect":
        return Bisect(seed, size)
    if name == "theorems":
        return Theorems(seed, size)
    if name == "cli-outputs":
        return CliOutputs(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")
