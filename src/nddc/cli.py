"""Command-line entry point: run, sweep, figure, validate-weights, check-theorems."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import diagnostics, harness, io, presets, sweep
from .core import ModelKind, integer
from .integrator import run as run_sim

#: The generator names ``--weights`` accepts and the WeightSpec kinds they build.
WEIGHT_KINDS = {
    "uniform": "uniform",
    "random-row": "random-row-stochastic",
    "random-sym": "random-symmetric-bistochastic",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    parser.add_argument("--model", choices=[m.value for m in ModelKind])
    parser.add_argument("--tau", type=float)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--steps-per-delay", type=int)
    parser.add_argument("--t-end", type=float)
    parser.add_argument("--n", type=int)
    parser.add_argument("--d", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--weights",
                        help=f"weights file, or one of: {', '.join(WEIGHT_KINDS)}")
    parser.add_argument("--min-off-diagonal", type=float)
    parser.add_argument("--datum", help="constant:c | linear:a,b | file:PATH")
    parser.add_argument("--out", type=Path, default=Path("nddc-out"))


def _weights_payload(args) -> dict | None:
    if args.min_off_diagonal is not None and args.weights != "random-row":
        raise ValueError("--min-off-diagonal applies to --weights random-row only")
    if args.weights is None:
        return None
    if args.weights in WEIGHT_KINDS:
        # Its n and seed, like a spec file's, are the config's or --n and --seed.
        return {"kind": WEIGHT_KINDS[args.weights], "min_off_diagonal": args.min_off_diagonal}
    with open(args.weights) as fh:
        return json.load(fh)


def _datum_payload(value: str | None) -> dict | None:
    if value is None:
        return None
    kind, _, rest = value.partition(":")
    if kind == "file":
        with open(rest) as fh:
            return json.load(fh)
    try:
        if kind == "constant":
            return {"kind": "constant", "values": float(rest)}
        if kind == "linear":
            a, b = rest.split(",")
            return {"kind": "linear", "start": float(a), "slope": float(b)}
    except ValueError:
        pass
    raise ValueError(f"--datum must be constant:C, linear:A,B or file:PATH, got {value!r}")


def _overrides(args) -> dict:
    # Each config key's flag has the key's SimConfig field as its dest.
    return {**{key: getattr(args, name) for key, name in io.CONFIG_KEYS.items()},
            "weights": _weights_payload(args), "datum": _datum_payload(args.datum)}


def _cmd_run(args) -> int:
    config = io.parse_config(args.config, _overrides(args))
    if args.diagnostics and config.model.is_scalar:
        raise ValueError(f"--diagnostics needs an N-agent model, not {config.model.value}")
    started = time.perf_counter()
    traj = run_sim(config)
    duration = time.perf_counter() - started
    # The output directory is made only for a run that succeeded.
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "trajectory.csv"
    times = io.TimeColumn()
    io.write_trajectory_csv(traj, csv_path, times=times)
    outputs = [csv_path]
    if args.diagnostics:
        report = diagnostics.track_ij(traj)
        ij_path = out / "ij.csv"
        io.write_ij_csv(report, traj, ij_path, times=times)
        outputs.append(ij_path)
        try:
            if config.model is ModelKind.TRANSMISSION:
                series = diagnostics.lyap_transmission(traj)
            else:
                series = diagnostics.lyap_reaction(traj)
            lyap_path = out / "lyapunov.csv"
            io.write_lyapunov_csv(series, lyap_path)
            outputs.append(lyap_path)
        except ValueError as exc:
            print(f"lyapunov monitor skipped: {exc}", file=sys.stderr)
    manifest = io.RunManifest(
        config=io.config_to_dict(config),
        duration_seconds=duration,
        outputs=outputs,
        classification=traj.classification.value,
        summary=asdict(traj.evidence),
    )
    io.write_manifest(manifest, out / "manifest.json")
    print(f"{config.model.value}: {traj.classification.value} "
          f"(final d_x = {traj.evidence.final_dx:.3e})")
    return 0


def _parse_axis(flag: str, text: str) -> np.ndarray:
    try:
        lo, hi, count = (float(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"{flag} must be LO:HI:N, got {text!r}") from None
    return np.linspace(lo, hi, integer(f"N of {flag}", count, minimum=1))


def _write_grid(grid, out: Path, prefix: str) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{prefix}grid.csv", out / f"{prefix}grid.json"]
    io.write_grid_csv(grid, paths[0])
    io.write_grid_json(grid, paths[1])
    return paths


def _cmd_sweep(args) -> int:
    settings = sweep.SweepSettings(model=args.model, t_end=args.t_end,
                                   steps_per_delay=args.steps_per_delay)
    grid = sweep.grid_sweep(settings, _parse_axis("--lambda-range", args.lambda_range),
                            _parse_axis("--tau-range", args.tau_range))
    _write_grid(grid, args.out, "")
    counts = {}
    for label in grid.raster.ravel():
        counts[label] = counts.get(label, 0) + 1
    print(f"sweep {args.model}: {counts}")
    return 0


def _cmd_figure(args) -> int:
    preset = presets.figure_preset(args.name)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    summary = {}
    outputs = []
    if preset.sweep is not None:
        grid = sweep.grid_sweep(preset.sweep.settings, preset.sweep.lam_values,
                                preset.sweep.tau_values)
        outputs += _write_grid(grid, out, f"{preset.name}_")
        summary["boundary"] = grid.boundary.tolist()
        config_payload = {"sweep": preset.name}
    else:
        config_payload = {}
        times = io.TimeColumn()
        for item in preset.runs:
            traj = run_sim(item.config)
            path = out / f"{preset.name}_{item.label.replace('=', '')}.csv"
            io.write_trajectory_csv(traj, path, times=times)
            outputs.append(path)
            summary[item.label] = traj.classification.value
            config_payload[item.label] = io.config_to_dict(item.config)
            print(f"{preset.name} {item.label}: {traj.classification.value}")
    manifest = io.RunManifest(
        config=config_payload,
        duration_seconds=time.perf_counter() - started,
        outputs=outputs,
        summary=summary,
    )
    io.write_manifest(manifest, out / f"{preset.name}_manifest.json")
    return 0


def _cmd_validate_weights(args) -> int:
    try:
        # Read as ``run --weights`` reads it, at --n and --seed when given. A
        # matrix draws nothing, and here --seed is no manifest label either.
        payload = _weights_payload(args)
        if args.seed is not None and io.is_matrix(payload):
            raise ValueError("--seed applies to a weight generator or spec, not a matrix")
        wm = io.weights_from_dict(payload, args.n, args.seed)
        if args.n is not None and wm.n != args.n:
            raise ValueError(f"weight matrix size {wm.n} does not match --n {args.n}")
    except (ValueError, OSError) as exc:
        print(f"invalid weights: {exc}", file=sys.stderr)
        return 1
    for flag in fields(wm):
        if not flag.init:
            print(f"{flag.name}: {getattr(wm, flag.name)}")
    return 0


def _cmd_check_theorems(args) -> int:
    ok = harness.check_theorems(print, count=args.instances, base_seed=args.seed,
                                t_end=args.t_end)
    print("all theorem checks passed" if ok else "THEOREM CHECK FAILURES",
          file=sys.stdout if ok else sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nddc",
        description="Delay-and-anticipation consensus simulation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    _add_run_flags(p_run)
    p_run.add_argument("--diagnostics", action="store_true",
                       help="also emit Lyapunov and argmax-pair CSVs")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="classify a (lambda, tau) grid")
    p_sweep.add_argument("--model", required=True,
                         choices=[m.value for m in ModelKind if m.is_scalar])
    p_sweep.add_argument("--lambda-range", required=True, metavar="LO:HI:N")
    p_sweep.add_argument("--tau-range", required=True, metavar="LO:HI:N")
    p_sweep.add_argument("--steps-per-delay", type=int,
                         default=sweep.SweepSettings.steps_per_delay)
    p_sweep.add_argument("--t-end", type=float)
    p_sweep.add_argument("--out", type=Path, default=Path("nddc-out"))
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="replay a reference experiment")
    p_fig.add_argument("name", choices=presets.FIGURE_NAMES)
    p_fig.add_argument("--out", type=Path, default=Path("nddc-out"))
    p_fig.set_defaults(func=_cmd_figure)

    p_val = sub.add_parser("validate-weights", help="print structural flags")
    p_val.add_argument("--weights", required=True)
    p_val.add_argument("--n", type=int)
    p_val.add_argument("--min-off-diagonal", type=float)
    p_val.add_argument("--seed", type=int)
    p_val.set_defaults(func=_cmd_validate_weights)

    p_chk = sub.add_parser("check-theorems",
                           help="random-instance property harness for both guarantees")
    p_chk.add_argument("--instances", type=int, default=harness.SUITE_SIZE)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--t-end", type=float, default=harness.SUITE_T_END)
    p_chk.set_defaults(func=_cmd_check_theorems)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # A request too large for memory is refused like any bad input.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
