"""Serialization, config parsing, presets, and manifest reproducibility."""

import csv
import json
import re

import numpy as np
import pytest

import nddc
from nddc.core import (
    ConstantDatum,
    LinearDatum,
    Mesh,
    MeshAlignmentError,
    ModelKind,
    SampledDatum,
    SimConfig,
)
from nddc.diagnostics import lyap_transmission, track_ij
from nddc.integrator import run
from nddc.io import (
    RunManifest,
    _is_gap,
    config_from_dict,
    config_to_dict,
    datum_from_dict,
    datum_to_dict,
    parse_config,
    read_manifest,
    weights_from_dict,
    weights_to_dict,
    write_grid_csv,
    write_grid_json,
    write_ij_csv,
    write_lyapunov_csv,
    write_manifest,
    write_trajectory_csv,
)
from nddc.presets import figure_preset
from nddc.sweep import SweepSettings, grid_sweep
from nddc.weights import make_random_row_stochastic, make_uniform


def _small_run(lam=0.5, tau=0.25, m=16, t_end=4.0):
    cfg = SimConfig(model=ModelKind.TWO_AGENT_TRANSMISSION, tau=tau, lam=lam,
                    datum=ConstantDatum([[1.0]]), n=1, d=1,
                    steps_per_delay=m, t_end=t_end)
    return cfg, run(cfg)


class TestTrajectoryCsv:
    def test_round_trip_floats(self, tmp_path):
        _, traj = _small_run()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(traj.times)
        for k in (0, 7, len(rows) - 1):
            assert float(rows[k]["time"]) == traj.times[k]
            assert float(rows[k]["x_1_1"]) == traj.states[k, 0, 0]
            assert float(rows[k]["d_x"]) == traj.diameters[k]
            assert int(rows[k]["argmax_i"]) == 1 and int(rows[k]["argmax_j"]) == 2

    def test_negative_zero_gap_keeps_its_sign_in_the_mean(self, tmp_path):
        # The gap's mean is the gap itself, so a -0.0 gap writes X_1 = -0 as
        # x_1_1 does and takes the one-string gap path.
        cfg = SimConfig(model=ModelKind.TWO_AGENT_TRANSMISSION, tau=0.25, lam=0.5,
                        datum=ConstantDatum([[-0.0]]), n=1, d=1, steps_per_delay=4,
                        t_end=2.0)
        traj = run(cfg)
        assert np.all(np.signbit(traj.states)) and np.all(np.signbit(traj.means))
        assert _is_gap(traj)
        path = tmp_path / "negative_zero.csv"
        write_trajectory_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(traj.times)
        assert [r["X_1"] for r in rows] == [r["x_1_1"] for r in rows] == ["-0"] * len(rows)
        assert all(r["d_x"] == "0" for r in rows)

    def test_consensus_run_zero_diameter_column(self, tmp_path):
        wm = make_uniform(3)
        cfg = SimConfig(model=ModelKind.TRANSMISSION, tau=0.25, lam=1.0,
                        datum=ConstantDatum(np.full((3, 1), 1.0)), n=3, d=1,
                        steps_per_delay=8, t_end=2.0, weights=wm)
        traj = run(cfg)
        path = tmp_path / "consensus.csv"
        write_trajectory_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["d_x"]) == 0.0 for r in rows)


class TestWeightsJson:
    def test_round_trip(self):
        wm = make_random_row_stochastic(4, 0.1, seed=5)
        loaded = weights_from_dict(json.loads(json.dumps(weights_to_dict(wm))))
        assert np.array_equal(loaded.weights, wm.weights)
        assert loaded.row_stochastic

    def test_spec_payload(self):
        assert weights_from_dict({"kind": "uniform", "n": 3}).weights[0, 1] == pytest.approx(0.5)

    def test_bare_array_is_a_matrix(self):
        matrix = [[0.0, 0.25], [1.0, 0.5]]
        assert np.array_equal(weights_from_dict(json.loads(json.dumps(matrix))).weights, matrix)
        with pytest.raises(ValueError, match="^weights must be a number or a rectangular array"):
            weights_from_dict([[0.0, 1.0], [1.0]])

    @pytest.mark.parametrize("key,value", [("n", 3.5), ("seed", 1.5)])
    def test_spec_fractions_not_truncated(self, key, value):
        payload = {"kind": "random-symmetric-bistochastic", "n": 3, "seed": 1}
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            weights_from_dict({**payload, key: value})
        whole = weights_from_dict({**payload, key: float(int(value))})
        assert np.array_equal(whole.weights, weights_from_dict(
            {**payload, key: int(value)}).weights)

    @pytest.mark.parametrize("payload,key", [
        ({"kind": "uniform", "seeed": 3}, "seeed"),
        ({"matrix": [[0.0, 1.0], [1.0, 0.0]], "n": 2}, "n"),
    ])
    def test_unknown_key_rejected(self, payload, key):
        with pytest.raises(ValueError, match=f"^unknown weights key '{key}'$"):
            weights_from_dict(payload)


class TestDatumJson:
    def test_round_trips(self):
        for datum in (
            ConstantDatum([[1.0], [2.0]]),
            LinearDatum(start=[[0.0]], slope=[[1.0]]),
            SampledDatum(times=np.array([-0.1, 0.0]), states=np.zeros((2, 1, 1)),
                         derivatives=np.ones((2, 1, 1))),
        ):
            payload = datum_to_dict(datum)
            rebuilt = datum_from_dict(payload, n=2, d=1)
            assert type(rebuilt) is type(datum)

    @pytest.mark.parametrize("payload,key", [
        ({"kind": "constant", "values": 1, "slope": 2}, "slope"),
        ({"kind": "linear", "start": 0, "slope": 1, "values": 1}, "values"),
        ({"kind": "table", "times": [0.0], "states": [[[0.0]]], "derivatives": [[[0.0]]],
          "derivs": [[[0.0]]]}, "derivs"),
    ])
    def test_unknown_key_rejected(self, payload, key):
        with pytest.raises(ValueError, match=f"^unknown datum key '{key}'$"):
            datum_from_dict(payload, n=1, d=1)

    def test_scalar_constant_broadcasts(self):
        datum = datum_from_dict({"kind": "constant", "values": 2.0}, n=3, d=2)
        assert datum.values.shape == (3, 2)
        assert np.all(datum.values == 2.0)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(None, {"model": "two-agent-transmission", "tau": 0.25})
        assert cfg.steps_per_delay == 32
        assert cfg.lam == 0.0
        assert isinstance(cfg.datum, ConstantDatum)
        assert np.all(cfg.datum.values == 1.0)
        assert cfg.t_end >= 50.0

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "two-agent-transmission",
                                    "tau": 0.25, "lambda": 1.0}))
        cfg = parse_config(path, {"lambda": 4.0})
        assert cfg.lam == 4.0

    def test_unknown_keys_rejected(self, tmp_path):
        # A misspelt key used to be dropped: "lamda" ran at lambda = 0.
        payload = {"model": "two-agent-reaction", "tau": 0.3, "lamda": 2}
        with pytest.raises(ValueError, match="^unknown config key 'lamda'$"):
            config_from_dict(payload)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**payload, "lambda": 2, "derivative_mode": "stored-rhs"}))
        with pytest.raises(ValueError, match="^unknown config keys 'derivative_mode', 'lamda'$"):
            parse_config(path)

    def test_misaligned_t_end_rejected(self):
        with pytest.raises(MeshAlignmentError):
            parse_config(None, {"model": "two-agent-transmission",
                                "tau": 0.3, "t_end": 50.0})

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            parse_config(None, {"tau": 0.25})
        with pytest.raises(ValueError):
            parse_config(None, {"model": "two-agent-transmission"})

    def test_matrix_model_defaults_to_uniform_weights(self):
        cfg = parse_config(None, {"model": "transmission", "tau": 0.25, "n": 3})
        assert cfg.weights is not None
        assert cfg.weights.row_stochastic

    def test_weight_spec_takes_the_config_n(self):
        # The spec used to fall back to n = 2 and fail against the config's 4.
        payload = {"model": "transmission", "tau": 0.2, "n": 4,
                   "weights": {"kind": "random-row-stochastic", "seed": 3}}
        expected = make_random_row_stochastic(4, 0.5 / 3, 3).weights
        assert np.array_equal(config_from_dict(payload).weights.weights, expected)
        own = config_from_dict({**payload, "weights": {**payload["weights"], "n": 4}})
        assert np.array_equal(own.weights.weights, expected)
        with pytest.raises(ValueError, match="weight matrix size 3 does not match n = 4"):
            config_from_dict({**payload, "weights": {**payload["weights"], "n": 3}})
        # Its seed likewise: a spec without one used to draw from seed 0 while
        # the config, and so the manifest, said 7.
        assert np.array_equal(config_from_dict({**payload, "seed": 7}).weights.weights, expected)
        seedless = {**payload, "seed": 7, "weights": {"kind": "random-row-stochastic"}}
        assert np.array_equal(config_from_dict(seedless).weights.weights,
                              make_random_row_stochastic(4, 0.5 / 3, 7).weights)

    def test_config_is_built_once(self, monkeypatch):
        # Each SimConfig builds its Mesh once; the reader used to build a
        # second config to add the datum.
        calls = []
        build = Mesh.build

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(Mesh, "build", counting)
        cfg = config_from_dict({"model": "transmission", "tau": 0.25, "n": 3, "d": 2,
                                "datum": {"kind": "linear", "start": 1.0, "slope": 0.5}})
        assert len(calls) == 1
        assert cfg.datum.start.shape == (3, 2)

    def test_fractional_steps_per_delay_not_truncated(self):
        payload = {"model": "two-agent-transmission", "tau": 0.5, "steps_per_delay": 2.5}
        with pytest.raises(ValueError, match="steps_per_delay"):
            config_from_dict(payload)
        with pytest.raises(ValueError, match="steps_per_delay"):
            config_from_dict({**payload, "t_end": 5.0})

    @pytest.mark.parametrize("key,value", [("n", 3.7), ("d", 1.9)])
    def test_fractional_sizes_not_truncated(self, key, value):
        # int() would turn {"n": 3.7, "d": 1.9} into a 3 x 1 system.
        payload = {"model": "transmission", "tau": 0.25, "n": 4, "d": 2}
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            config_from_dict({**payload, key: value})
        cfg = config_from_dict({**payload, key: float(int(value))})
        assert getattr(cfg, key) == int(value)

    def test_fractional_seed_not_truncated(self):
        # int() turned {"seed": 3.7} into seed 3 in the config and its manifest.
        payload = {"model": "two-agent-transmission", "tau": 0.25}
        with pytest.raises(ValueError, match="seed must be an integer"):
            config_from_dict({**payload, "seed": 3.7})
        assert config_from_dict({**payload, "seed": -1}).seed == -1
        assert config_from_dict({**payload, "seed": 3.0}).seed == 3

    @pytest.mark.parametrize("key", ["steps_per_delay", "n", "d", "seed"])
    def test_bool_sizes_rejected(self, key):
        # JSON true used to run as 1, silently a different system.
        payload = {"model": "transmission", "tau": 0.25, "n": 3, "d": 2}
        with pytest.raises(ValueError, match=f"{key} must be an integer, got True"):
            config_from_dict({**payload, key: True})

    def test_config_dict_round_trip(self):
        cfg, _ = _small_run()
        rebuilt = config_from_dict(config_to_dict(cfg))
        assert rebuilt.model is cfg.model
        assert rebuilt.tau == cfg.tau and rebuilt.lam == cfg.lam
        assert rebuilt.t_end == cfg.t_end
        # Every key survives, for a gap and an N-agent config. The dicts are
        # compared, as SimConfig's == compares arrays.
        datum = LinearDatum(start=np.arange(6.0).reshape(3, 2), slope=-np.ones((3, 2)))
        agents = SimConfig(model=ModelKind.REACTION, tau=0.2, lam=0.5, datum=datum, n=3, d=2,
                           weights=make_random_row_stochastic(3, 0.2, seed=5), seed=5)
        for config in (cfg, agents):
            payload = config_to_dict(config)
            assert config_to_dict(config_from_dict(payload)) == payload


class TestManifest:
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg, traj = _small_run()
        first = tmp_path / "first.csv"
        write_trajectory_csv(traj, first)
        manifest = RunManifest(config=config_to_dict(cfg), outputs=[first],
                               classification=traj.classification.value)
        mpath = tmp_path / "manifest.json"
        write_manifest(manifest, mpath)

        loaded = read_manifest(mpath)
        replay = run(config_from_dict(loaded.config))
        second = tmp_path / "second.csv"
        write_trajectory_csv(replay, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.classification == traj.classification.value

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(RunManifest(config={}, outputs=[tmp_path / "a.csv"]), path)
        assert read_manifest(path).outputs == [tmp_path / "a.csv"]
        path.write_text(json.dumps({**json.loads(path.read_text()), "outputz": []}))
        with pytest.raises(ValueError, match="^unknown manifest key 'outputz'$"):
            read_manifest(path)

    def test_missing_config_rejected(self, tmp_path):
        # RunManifest used to fail with a TypeError on its missing argument.
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"outputs": []}))
        with pytest.raises(ValueError, match="^manifest needs a 'config'$"):
            read_manifest(path)

    @pytest.mark.parametrize("config", [5, [], "abc", None])
    def test_non_object_config_rejected(self, tmp_path, config):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config": config}))
        with pytest.raises(ValueError, match="^manifest 'config' must be a JSON object"):
            read_manifest(path)

    @pytest.mark.parametrize("outputs", ["abc", [1], {"a": "b"}, None])
    def test_outputs_must_be_strings(self, tmp_path, outputs):
        # A string used to read as one output per character.
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config": {}, "outputs": outputs}))
        with pytest.raises(ValueError, match="^manifest 'outputs' must be an array of strings$"):
            read_manifest(path)

    @pytest.mark.parametrize("fields,message", [
        ({"summary": 5}, "manifest 'summary' must be a JSON object, got int"),
        ({"summary": None}, "manifest 'summary' must be a JSON object, got NoneType"),
        ({"duration_seconds": "abc"}, "manifest 'duration_seconds' must be a real number"),
        ({"duration_seconds": None}, "manifest 'duration_seconds' must be a real number"),
        ({"duration_seconds": -1}, "manifest 'duration_seconds' must be >= 0, got -1"),
        ({"classification": 7}, "manifest 'classification' must be a string or null"),
        ({"tool_version": None}, "manifest 'tool_version' must be a string"),
    ])
    def test_other_fields_are_checked(self, tmp_path, fields, message):
        # These read back as given, so a summary of 5 reached the caller.
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config": {}, **fields}))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            read_manifest(path)

    def test_tool_version_is_package_version(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(RunManifest(config={}), path)
        assert json.loads(path.read_text())["tool_version"] == nddc.__version__
        assert read_manifest(path).tool_version == nddc.__version__

    def test_non_finite_values_are_null(self, tmp_path):
        cfg, _ = _small_run()
        manifest = RunManifest(config=config_to_dict(cfg), summary={
            "ratio": float("nan"), "peak": np.float64("inf"), "series": [1.0, -np.inf]})
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["summary"] == {"ratio": None, "peak": None, "series": [1.0, None]}


class TestGridSerialization:
    def test_grid_csv_and_json(self, tmp_path):
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, t_end=50.0)
        grid = grid_sweep(settings, [0.0, 0.5], [0.0, 0.2])
        write_grid_csv(grid, tmp_path / "grid.csv")
        write_grid_json(grid, tmp_path / "grid.json")
        with open(tmp_path / "grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["classification"] for r in rows} == {"converged"}
        payload = json.loads((tmp_path / "grid.json").read_text())
        assert payload["lambda"] == [0.0, 0.5]
        assert any(c["label"] == "sufficient-condition" for c in payload["overlays"])


class TestDiagnosticsSerialization:
    def test_lyapunov_and_ij_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        wm = make_random_row_stochastic(3, 0.2, seed=3)
        cfg = SimConfig(model=ModelKind.TRANSMISSION, tau=0.2, lam=1.0,
                        datum=ConstantDatum(rng.uniform(-1, 1, (3, 1))), n=3, d=1,
                        steps_per_delay=16, t_end=10.0, weights=wm)
        traj = run(cfg)
        series = lyap_transmission(traj)
        write_lyapunov_csv(series, tmp_path / "lyap.csv")
        with open(tmp_path / "lyap.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(series.values)
        assert float(rows[1]["decrement"]) == series.decrements[0]

        report = track_ij(traj)
        write_ij_csv(report, traj, tmp_path / "ij.csv")
        with open(tmp_path / "ij.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(traj.times)


class TestPresets:
    def test_fig1(self):
        preset = figure_preset("fig1")
        lams = [r.config.lam for r in preset.runs]
        assert lams == [0.0, 1.0, 4.0, 4.5]
        assert all(r.config.tau == 0.25 for r in preset.runs)
        assert all(r.config.steps_per_delay == 64 for r in preset.runs)

    def test_fig2(self):
        preset = figure_preset("fig2")
        assert [r.config.lam for r in preset.runs] == [0.0, 0.2, 0.6, 1.0]
        assert all(r.config.tau == 1.25 for r in preset.runs)

    def test_fig3_is_a_sweep(self):
        preset = figure_preset("fig3")
        assert preset.sweep is not None
        assert preset.sweep.lam_values[0] == 0.0 and preset.sweep.lam_values[-1] == 3.0
        assert preset.sweep.tau_values[0] == 0.0 and preset.sweep.tau_values[-1] == 1.0

    def test_fig4(self):
        preset = figure_preset("fig4")
        assert [r.config.lam for r in preset.runs] == [0.0, 0.04, 0.25, 0.45]
        assert all(r.config.tau == 0.85 for r in preset.runs)
        # the gap datum is the constant 1 (a zero datum would be the trivial run)
        assert all(np.all(r.config.datum.values == 1.0) for r in preset.runs)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            figure_preset("fig9")
