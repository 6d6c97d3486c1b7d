"""End-to-end command-line checks."""

import json

import pytest

from nddc.cli import main


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
    (["--model", "two-agent-reaction", "--tau", "0.25", "--n", "3"], None,
     "two-agent-reaction takes n = d = 1 and no weights"),
    (["--model", "two-agent-reaction", "--tau", "0.25", "--weights", "uniform"], None,
     "two-agent-reaction takes n = d = 1 and no weights"),
    (["--model", "transmission", "--tau", "0.25", "--weights", "uniform", "--seed", "-1"], None,
     "seed must be >= 0, got -1"),
    # A datum of the wrong shape fails in the integrator, before --out is made.
    ([], {"model": "transmission", "n": 2, "tau": 0.25, "t_end": 1.0,
          "weights": {"kind": "uniform", "n": 2},
          "datum": {"kind": "constant", "values": [[1, 0], [0, 1], [-1, 0]]}},
     "datum shape (3, 2) does not match (2, 1)"),
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
