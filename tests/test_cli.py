"""End-to-end command-line checks."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from nddc import io
from nddc.cli import main
from nddc.integrator import run
from test_grid_pin import FIG3_CSV_SHA256, FIG3_JSON_SHA256


def test_run_two_agent(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--model", "two-agent-transmission", "--tau", "0.25",
        "--lambda", "0", "--steps-per-delay", "16", "--t-end", "5",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["classification"] == "converged"
    assert "converged" in capsys.readouterr().out


def test_run_manifest_records_the_fitted_rate(tmp_path):
    # A fig3 cell that decays too slowly to fall by 1e3 within its horizon:
    # its fitted decay rate decides it. A run the horizon rules decide fits none,
    # and its manifest records null.
    out = tmp_path / "out"
    assert main(["run", "--model", "two-agent-reaction", "--tau", "0.8", "--lambda", "0.1",
                 "--steps-per-delay", "32", "--t-end", "50", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["classification"] == "converged"
    assert manifest["summary"]["final_dx"] >= 1e-3
    assert -0.09 < manifest["summary"]["rate"] < -0.08
    assert main(["run", "--model", "two-agent-reaction", "--tau", "0.2",
                 "--t-end", "50", "--out", str(out)]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["final_dx"] < 1e-3 and summary["rate"] is None


def test_run_is_deterministic(tmp_path):
    args = ["run", "--model", "two-agent-reaction", "--tau", "0.2",
            "--lambda", "0.1", "--steps-per-delay", "16", "--t-end", "4"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


def test_run_matrix_model_with_diagnostics(tmp_path):
    out = tmp_path / "out"
    code = main([
        "run", "--model", "transmission", "--n", "3", "--tau", "0.2",
        "--lambda", "1", "--steps-per-delay", "16", "--t-end", "10",
        "--weights", "random-row", "--seed", "3",
        "--datum", "linear:0,1", "--diagnostics", "--out", str(out),
    ])
    assert code == 0
    assert (out / "ij.csv").exists()
    assert (out / "lyapunov.csv").exists()


def test_run_with_config_file_and_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": "two-agent-transmission", "tau": 0.25, "lambda": 1.0,
        "steps_per_delay": 16, "t_end": 5.0,
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--lambda", "0",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["lambda"] == 0.0  # flag beats file


def test_run_rejects_misaligned_horizon(tmp_path, capsys):
    code = main([
        "run", "--model", "two-agent-transmission", "--tau", "0.3",
        "--t-end", "50", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--tau", "nan"), ("--lambda", "nan"),
                                        ("--t-end", "inf")])
def test_run_rejects_non_finite_values(tmp_path, capsys, flag, value):
    args = {"--tau": "0.25", "--lambda": "1", "--t-end": "5"}
    args[flag] = value
    code = main(["run", "--model", "two-agent-transmission", "--steps-per-delay", "16",
                 *[item for pair in args.items() for item in pair],
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_sweep_writes_grid(tmp_path):
    out = tmp_path / "out"
    code = main([
        "sweep", "--model", "two-agent-reaction",
        "--lambda-range", "0:1:3", "--tau-range", "0:0.3:3",
        "--t-end", "50", "--out", str(out),
    ])
    assert code == 0
    assert (out / "grid.csv").exists()
    assert (out / "grid.json").exists()


def test_sweep_runs_a_horizon_under_one_step(tmp_path, capsys):
    # t_end = 1e-12 is rounded up to one step of each tau, not down to 0.
    out = tmp_path / "out"
    assert main(["sweep", "--model", "two-agent-reaction", "--lambda-range", "0:1:2",
                 "--tau-range", "0.5:1:2", "--t-end", "1e-12", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "sweep two-agent-reaction: {'inconclusive': 4}\n"
    assert len((out / "grid.csv").read_text().splitlines()) == 1 + 4


def test_sweep_rejects_bad_thread_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NDDC_THREADS", "abc")
    code = main(["sweep", "--model", "two-agent-reaction", "--lambda-range", "0:1:2",
                 "--tau-range", "0:0.3:2", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "NDDC_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("axis,message", [
    ("0:1:0", "N of --lambda-range must be >= 1"),
    ("0:1:2.5", "N of --lambda-range must be an integer"),
    ("0:1", "--lambda-range must be LO:HI:N"),
    ("a:1:3", "--lambda-range must be LO:HI:N"),
])
def test_sweep_rejects_bad_axis(tmp_path, capsys, axis, message):
    out = tmp_path / "out"
    code = main(["sweep", "--model", "two-agent-reaction", "--lambda-range", axis,
                 "--tau-range", "0:0.3:2", "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_sweep_rejects_bad_steps_per_delay(tmp_path, capsys, steps):
    out = tmp_path / "out"
    code = main(["sweep", "--model", "two-agent-reaction", "--lambda-range", "0:1:2",
                 "--tau-range", "0.1:0.2:2", "--t-end", "2", "--steps-per-delay", steps,
                 "--out", str(out)])
    assert code == 2
    assert "steps_per_delay must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_figure_preset_runs(tmp_path):
    out = tmp_path / "out"
    code = main(["figure", "fig1", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "fig1_manifest.json").read_text())
    assert manifest["summary"]["lambda=0"] == "converged"
    assert manifest["summary"]["lambda=4.5"] == "diverged"


def test_validate_weights(tmp_path, capsys):
    assert main(["validate-weights", "--weights", "uniform", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "row_stochastic: True" in out
    assert "irreducible: True" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[0.0, -1.0], [1.0, 0.0]]}))
    assert main(["validate-weights", "--weights", str(bad)]) == 1


def test_one_agent_weight_spec_is_one_error_line(tmp_path, capsys):
    # The random-row floor 0.5 / (n - 1) was computed before n was checked,
    # and n = 1 ended in a ZeroDivisionError traceback.
    out = tmp_path / "out"
    assert main(["run", "--model", "transmission", "--n", "1", "--tau", "0.2",
                 "--weights", "random-row", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: n must be >= 2, got 1\n"
    assert not out.exists()
    assert main(["validate-weights", "--weights", "random-row", "--n", "1"]) == 1
    assert capsys.readouterr().err == "invalid weights: n must be >= 2, got 1\n"


def test_check_theorems_small(capsys):
    assert main(["check-theorems", "--instances", "2", "--t-end", "40"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "all theorem checks passed" in out


@pytest.mark.parametrize("count", ["0", "-5"])
def test_check_theorems_rejects_empty_suite(capsys, count):
    assert main(["check-theorems", "--instances", count, "--t-end", "40"]) == 2
    captured = capsys.readouterr()
    assert "instance count must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_sweep_rejects_non_finite_t_end(tmp_path, capsys, t_end):
    out = tmp_path / "out"
    code = main(["sweep", "--model", "two-agent-reaction", "--lambda-range", "0:1:2",
                 "--tau-range", "0.1:0.2:2", "--t-end", t_end, "--out", str(out)])
    assert code == 2
    assert f"t_end must be finite and positive, got {t_end}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t_end", ["inf", "nan", "-1"])
def test_check_theorems_rejects_bad_t_end(capsys, t_end):
    # t_end is checked before the table header is printed.
    assert main(["check-theorems", "--instances", "1", "--t-end", t_end]) == 2
    captured = capsys.readouterr()
    assert f"t_end must be finite and positive, got {t_end}" in captured.err
    assert captured.out == ""



GAP_CONFIG = {"model": "two-agent-transmission", "tau": 0.25, "t_end": 1.0}


@pytest.mark.parametrize("flags,config,message", [
    (["--model", "two-agent-transmission", "--tau", "0.25", "--steps-per-delay", "0"], None,
     "steps_per_delay must be >= 1, got 0"),
    ([], {**GAP_CONFIG, "tau": None}, "tau must be a real number, got None"),
    ([], {**GAP_CONFIG, "tau": [1]}, "tau must be a real number, got [1]"),
    ([], {**GAP_CONFIG, "lambda": None}, "lambda must be a real number, got None"),
    ([], {**GAP_CONFIG, "steps_per_delay": "8"}, "steps_per_delay must be an integer, got '8'"),
    ([], [GAP_CONFIG], "config must be a JSON object, got list"),
    ([], {**GAP_CONFIG, "datum": {"values": 1.0}}, "datum needs a 'kind'"),
    ([], {**GAP_CONFIG, "t_end": "8"}, "t_end must be a real number, got '8'"),
    # Keys no reader reads: a misspelt lambda used to run at lambda = 0.
    ([], {**GAP_CONFIG, "lamda": 2}, "unknown config key 'lamda'"),
    ([], {**GAP_CONFIG, "derivative_mode": "stored-rhs", "extra": 1},
     "unknown config keys 'derivative_mode', 'extra'"),
    ([], {**GAP_CONFIG, "datum": {"kind": "constant", "values": 1, "slope": 2}},
     "unknown datum key 'slope'"),
    (["--model", "two-agent-reaction", "--tau", "0.25", "--n", "3"], None,
     "two-agent-reaction takes n = d = 1 and no weights"),
    (["--model", "two-agent-reaction", "--tau", "0.25", "--weights", "uniform"], None,
     "two-agent-reaction takes n = d = 1 and no weights"),
    (["--model", "transmission", "--tau", "0.25", "--weights", "uniform", "--seed", "-1"], None,
     "seed must be >= 0, got -1"),
    # A datum of the wrong shape fails when the config is built, before --out is made.
    ([], {"model": "transmission", "n": 2, "tau": 0.25, "t_end": 1.0,
          "weights": {"kind": "uniform", "n": 2},
          "datum": {"kind": "constant", "values": [[1, 0], [0, 1], [-1, 0]]}},
     "datum shape (3, 2) does not match (2, 1)"),
    # A gap model's weights are refused as given, not parsed first.
    ([], {**GAP_CONFIG, "weights": {"kind": "nope"}},
     "two-agent-transmission takes n = d = 1 and no weights"),
])
def test_run_rejects_invalid_input(tmp_path, capsys, flags, config, message):
    # Each of these crashed with a traceback or ran a different system.
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = flags + ["--config", str(path)]
    out = tmp_path / "out"
    assert main(["run", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_rejects_the_retired_derivative_mode_flag(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--model", "two-agent-transmission", "--tau", "0.25",
              "--derivative-mode", "stored-rhs", "--out", str(out)])
    assert exc.value.code == 2
    assert "--derivative-mode" in capsys.readouterr().err
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_outputs_are_strict_json(tmp_path):
    # A zero datum's trailing ratio is NaN, and the lambda = 0 overlay of a
    # transmission sweep has an infinite tau: both are written as null.
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", "--model", "two-agent-reaction", "--tau", "0.2", "--t-end", "5",
                 "--datum", "constant:0", "--out", str(run_out)]) == 0
    assert main(["sweep", "--model", "two-agent-transmission", "--lambda-range", "0:2:3",
                 "--tau-range", "0.1:0.5:2", "--t-end", "5", "--out", str(sweep_out)]) == 0
    manifest = json.loads((run_out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["summary"]["trailing_ratio"] is None
    grid = json.loads((sweep_out / "grid.json").read_text(), parse_constant=_reject_constant)
    assert None in [tau for overlay in grid["overlays"] for tau in overlay["tau"]]


@pytest.mark.parametrize("kind", ["uniform", "random-row", "random-sym"])
def test_validate_weights_rejects_negative_seed(capsys, kind):
    # Uniform weights used to pass, and random-row to fail in numpy's words.
    assert main(["validate-weights", "--weights", kind, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "invalid weights: seed must be >= 0, got -1\n"


NOT_NUMBERS = "weights 'matrix' must be a number or a rectangular array of numbers"


@pytest.mark.parametrize("payload,message", [
    ({"matrix": [[0.0, "1"], [1.0, 0.0]]}, NOT_NUMBERS),
    ({"matrix": [[0.0, 1.0], [1.0]]}, NOT_NUMBERS),
    ({"n": 3}, "weights needs a 'kind'"),
    ({"kind": "uniform", "seeed": 3}, "unknown weights key 'seeed'"),
    ("uniform", "weights must be a JSON object, got str"),
])
def test_validate_weights_rejects_malformed_json(tmp_path, capsys, payload, message):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(payload))
    assert main(["validate-weights", "--weights", str(path)]) == 1
    assert capsys.readouterr().err == f"invalid weights: {message}\n"


def test_check_theorems_rejects_negative_seed(capsys):
    # The seed is checked before the table header, not by numpy's generator.
    assert main(["check-theorems", "--instances", "1", "--t-end", "2.5", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "seed must be >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("datum", ["linear:1", "linear:a,b", "constant:abc", "cubic:1"])
def test_run_rejects_malformed_datum_flag(tmp_path, capsys, datum):
    out = tmp_path / "out"
    assert main(["run", "--model", "two-agent-transmission", "--tau", "0.25",
                 "--datum", datum, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --datum must be constant:C, linear:A,B or file:PATH, got {datum!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--model", "two-agent-reaction", "--tau", "0.25", "--t-end", "1"],
    ["sweep", "--model", "two-agent-reaction", "--lambda-range", "0:1:2",
     "--tau-range", "0.1:0.2:2", "--t-end", "1"],
    ["figure", "fig1"],
    ["figure", "fig3"],
])
@pytest.mark.parametrize("error,message", [
    (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, argv, error, message):
    # A request too large for memory is stood in for by raising, not allocating.
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("nddc.cli.run_sim", fail)
    monkeypatch.setattr("nddc.sweep.grid_sweep", fail)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_figure_fig3_grid_matches_sweep_and_pin(tmp_path, monkeypatch, threads):
    # `nddc figure fig3` and `nddc sweep` over its axes write one grid, byte for
    # byte, and that grid is the one test_grid_pin.py pins, serial or pooled.
    monkeypatch.setenv("NDDC_THREADS", threads)
    fig, swept = tmp_path / "fig", tmp_path / "sweep"
    assert main(["figure", "fig3", "--out", str(fig)]) == 0
    assert main(["sweep", "--model", "two-agent-reaction", "--lambda-range", "0:3:31",
                 "--tau-range", "0:1:21", "--out", str(swept)]) == 0
    manifest = io.read_manifest(fig / "fig3_manifest.json")
    assert manifest.outputs == [fig / "fig3_grid.csv", fig / "fig3_grid.json"]
    for suffix, digest in (("csv", FIG3_CSV_SHA256), ("json", FIG3_JSON_SHA256)):
        data = (fig / f"fig3_grid.{suffix}").read_bytes()
        assert data == (swept / f"grid.{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_run_reaction_model_with_diagnostics(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--model", "reaction", "--n", "3", "--tau", "0.1", "--lambda", "0.5",
                 "--steps-per-delay", "8", "--t-end", "2", "--weights", "random-sym",
                 "--datum", "linear:0,1", "--diagnostics", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [str(out / name)
                                   for name in ("trajectory.csv", "ij.csv", "lyapunov.csv")]


def test_run_diagnostics_in_two_dimensions(tmp_path):
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps({"kind": "constant",
                                 "values": [[1, 0], [0, 1], [-1, 0], [0, -1]]}))
    out = tmp_path / "out"
    assert main(["run", "--model", "transmission", "--n", "4", "--d", "2", "--tau", "0.2",
                 "--lambda", "1", "--weights", "random-row", "--t-end", "10",
                 "--datum", f"file:{datum}", "--diagnostics", "--out", str(out)]) == 0
    manifest = io.read_manifest(out / "manifest.json")
    assert [path.name for path in manifest.outputs] == ["trajectory.csv", "ij.csv",
                                                        "lyapunov.csv"]
    for path in [*manifest.outputs, out / "manifest.json"]:
        assert path.stat().st_size > 0


@pytest.mark.parametrize("lam,aborted", [("8", True), ("1", False)])
def test_run_manifest_summary_is_the_evidence(tmp_path, lam, aborted):
    # The summary holds every evidence field, so a manifest says at which step
    # the divergence guard stopped the run.
    out = tmp_path / "out"
    assert main(["run", "--model", "two-agent-transmission", "--tau", "0.25", "--lambda", lam,
                 "--t-end", "25", "--out", str(out)]) == 0
    summary = io.read_manifest(out / "manifest.json").summary
    evidence = run(io.parse_config(None, {"model": "two-agent-transmission", "tau": 0.25,
                                          "lambda": float(lam), "t_end": 25.0})).evidence
    assert summary.keys() == asdict(evidence).keys()
    assert summary["abort_step"] == evidence.abort_step
    assert (summary["abort_step"] is not None) == aborted


def test_run_diagnostics_skips_an_inapplicable_lyapunov_monitor(tmp_path, capsys):
    # At lam * tau > 1 the transmission functional is not sign-definite.
    out = tmp_path / "out"
    assert main(["run", "--model", "transmission", "--n", "3", "--tau", "0.5", "--lambda", "3",
                 "--steps-per-delay", "8", "--t-end", "2", "--weights", "random-row",
                 "--diagnostics", "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "lyapunov monitor skipped: functional is not sign-definite for lam*tau > 1\n")
    assert (out / "ij.csv").exists() and not (out / "lyapunov.csv").exists()


# Flags that a command would otherwise ignore are refused.

@pytest.mark.parametrize("flags,message", [
    (["--model", "transmission", "--weights", "W.json"],
     "--min-off-diagonal applies to --weights random-row only"),
    (["--model", "two-agent-reaction"], "--min-off-diagonal applies to --weights random-row only"),
])
def test_run_refuses_min_off_diagonal_without_random_row(tmp_path, capsys, flags, message):
    (tmp_path / "W.json").write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
    flags = [str(tmp_path / f) if f == "W.json" else f for f in flags]
    out = tmp_path / "out"
    assert main(["run", *flags, "--tau", "0.2", "--min-off-diagonal", "0.3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_validate_weights_refuses_min_off_diagonal_without_random_row(tmp_path, capsys):
    path = tmp_path / "W.json"
    path.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["validate-weights", "--weights", str(path), "--min-off-diagonal", "0.3"]) == 1
    assert capsys.readouterr().err == (
        "invalid weights: --min-off-diagonal applies to --weights random-row only\n")


@pytest.mark.parametrize("payload", [[[0.0, 1.0], [1.0, 0.0]],
                                     {"matrix": [[0.0, 1.0], [1.0, 0.0]]}])
def test_validate_weights_refuses_seed_with_a_matrix(tmp_path, capsys, payload):
    # A matrix printed its flags and exited 0 whatever --seed said, while a
    # generator at the same --seed was refused.
    path = tmp_path / "W.json"
    path.write_text(json.dumps(payload))
    assert main(["validate-weights", "--weights", str(path), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == (
        "invalid weights: --seed applies to a weight generator or spec, not a matrix\n")
    # ``run`` keeps --seed as the manifest's label.
    out = tmp_path / "out"
    assert main(["run", "--model", "transmission", "--n", "2", "--tau", "0.2", "--t-end", "1",
                 "--weights", str(path), "--seed", "7", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 7


def test_validate_weights_builds_a_spec_at_n(tmp_path, capsys):
    # The spec's floor is valid at n = 2 but above 1/(n - 1) at n = 5.
    spec, matrix = tmp_path / "spec.json", tmp_path / "matrix.json"
    spec.write_text(json.dumps({"kind": "random-row-stochastic", "min_off_diagonal": 0.6}))
    matrix.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["validate-weights", "--weights", str(spec)]) == 0
    capsys.readouterr()
    assert main(["validate-weights", "--weights", str(spec), "--n", "5"]) == 1
    assert capsys.readouterr().err.startswith("invalid weights: min_off_diagonal must lie in")
    assert main(["validate-weights", "--weights", str(matrix), "--n", "3"]) == 1
    assert capsys.readouterr().err == (
        "invalid weights: weight matrix size 2 does not match --n 3\n")


def test_python_m_nddc_is_one_error_line(tmp_path):
    # The one test that runs `python -m nddc` in its own process, through
    # __main__.py, the exit status and the interpreter's stderr.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "nddc", "run", "--model", "two-agent-transmission",
         "--tau", "0.25", "--steps-per-delay", "0", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "error: steps_per_delay must be >= 1, got 0\n"  # no traceback
    assert not out.exists()


def test_run_refuses_diagnostics_on_a_gap_model(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--model", "two-agent-reaction", "--tau", "0.2", "--diagnostics",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --diagnostics needs an N-agent model, not two-agent-reaction\n")
    assert not out.exists()


def test_a_weight_spec_takes_the_run_seed(tmp_path, capsys):
    # A spec file without a seed drew from seed 0 whatever --seed said, while
    # a generator name took --seed; both now take it.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "random-row-stochastic"}))
    weights = []
    for seed in ("0", "7"):
        out = tmp_path / seed
        assert main(["run", "--model", "transmission", "--n", "3", "--tau", "0.2",
                     "--t-end", "1", "--weights", str(spec), "--seed", seed,
                     "--out", str(out)]) == 0
        weights.append(json.loads((out / "manifest.json").read_text())["config"]["weights"])
    assert weights[0] != weights[1]
    capsys.readouterr()
    flags = []
    for source in (str(spec), "random-row"):
        assert main(["validate-weights", "--weights", source, "--n", "3", "--seed", "7"]) == 0
        flags.append(capsys.readouterr().out)
    assert flags[0] == flags[1]
    # So a negative --seed is refused at the spec, as it is for a generator.
    out = tmp_path / "out"
    assert main(["run", "--model", "transmission", "--tau", "0.2", "--weights", str(spec),
                 "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()
