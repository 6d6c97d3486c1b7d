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

