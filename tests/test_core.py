"""Domain-type tests: diameter, datum construction, and config validation."""

import json
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nddc.core import (
    ConstantDatum,
    LinearDatum,
    Mesh,
    MeshAlignmentError,
    NonFiniteStateError,
    SampledDatum,
    SimConfig,
    WeightMatrix,
    aligned_t_end,
    default_horizon,
    diameter,
    diameter_series,
)
from nddc.integrator import classify_lanes, run
from nddc.io import config_from_dict, config_to_dict
from nddc.weights import make_uniform


def brute_force_diameter(values):
    n = len(values)
    best, pair = -1.0, None
    for i in range(n):
        for j in range(i + 1, n):
            dist = float(np.linalg.norm(values[i] - values[j]))
            if dist > best:
                best, pair = dist, (i + 1, j + 1)
    return best, pair


def full_matrix_diameter_series(states):
    """The all-pairs form of ``diameter_series``: the full N x N x d difference
    cube, with the pairs i >= j masked to -1 before a row-major argmax."""
    states = np.asarray(states, dtype=float)
    t_total, n, d = states.shape
    dists = np.empty(t_total)
    pairs = np.empty((t_total, 2), dtype=int)
    mask = ~np.triu(np.ones((n, n), dtype=bool), k=1)
    chunk = max(1, 262144 // max(1, n * n * d))
    for s in range(0, t_total, chunk):
        block = states[s : s + chunk]
        diff = block[:, :, None, :] - block[:, None, :, :]
        d2 = np.einsum("tijk,tijk->tij", diff, diff)
        d2[:, mask] = -1.0
        flat = d2.reshape(len(block), -1)
        idx = flat.argmax(axis=1)
        sel = np.arange(len(block))
        dists[s : s + chunk] = np.sqrt(flat[sel, idx])
        pairs[s : s + chunk, 0] = idx // n + 1
        pairs[s : s + chunk, 1] = idx % n + 1
    return dists, pairs


@st.composite
def opinion_stacks(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(2, 8)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A few rounded values make tied pairs common; +-inf and NaN entries make
    # non-finite distances.
    palette = np.round(rng.uniform(-3.0, 3.0, size=draw(st.integers(1, 6))), 1)
    stack = rng.choice(palette, size=shape)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    stack[special] = rng.choice([np.inf, -np.inf, np.nan], size=int(special.sum()))
    return stack


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None)
@given(opinion_stacks())
def test_diameter_series_matches_full_matrix(stack):
    dists, pairs = diameter_series(stack)
    want_dists, want_pairs = full_matrix_diameter_series(stack)
    # Bit for bit, with NaN equal to NaN.
    nan = np.isnan(want_dists)
    assert np.array_equal(np.isnan(dists), nan)
    assert np.array_equal(dists[~nan].view(np.uint64), want_dists[~nan].view(np.uint64))
    assert np.array_equal(pairs, want_pairs)


class TestDiameter:
    def test_scalar_opinions(self):
        value, pair = diameter(np.array([[0.0], [1.0], [3.0]]))
        assert value == 3.0
        assert pair == (1, 3)

    def test_consensus_state_ties_lexicographically(self):
        value, pair = diameter(np.full((4, 2), 1.5))
        assert value == 0.0
        assert pair == (1, 2)

    def test_pythagorean_pair(self):
        value, pair = diameter(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert value == 5.0
        assert pair == (1, 2)

    def test_exact_tie_prefers_smaller_pair(self):
        # pairs (1,2), (1,4), (2,3), (3,4) all attain distance 2
        values = np.array([[0.0], [2.0], [0.0], [2.0]])
        value, pair = diameter(values)
        assert value == 2.0 and pair == (1, 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            values = rng.normal(size=(n, d))
            got_value, got_pair = diameter(values)
            want_value, want_pair = brute_force_diameter(values)
            assert got_value == pytest.approx(want_value, rel=1e-14)
            assert got_pair == want_pair

    def test_translation_and_permutation_invariance(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(5, 3))
        base, _ = diameter(values)
        shifted, _ = diameter(values + rng.normal(size=(1, 3)))
        assert shifted == pytest.approx(base, rel=1e-12)
        perm = rng.permutation(5)
        permuted, _ = diameter(values[perm])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_zero_iff_consensus(self):
        values = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        assert diameter(values)[0] == 0.0
        values[2, 1] += 1e-9
        assert diameter(values)[0] > 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteStateError):
            diameter(np.array([[0.0], [np.nan]]))

    def test_single_agent_rejected(self):
        with pytest.raises(ValueError):
            diameter(np.array([[1.0]]))

    def test_series_matches_scalar_op(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(40, 6, 2))
        dists, pairs = diameter_series(stack)
        for k in range(40):
            value, pair = diameter(stack[k])
            assert dists[k] == value
            assert tuple(pairs[k]) == pair


class TestDatum:
    def test_constant(self):
        datum = ConstantDatum(np.array([[1.0], [2.0]]))
        times = np.array([-0.2, -0.1, 0.0])
        states, derivs = datum.on_mesh(times)
        assert states.shape == (3, 2, 1)
        assert np.all(states[:, 1, 0] == 2.0)
        assert np.all(derivs == 0.0)

    def test_linear(self):
        datum = LinearDatum(start=np.array([[0.0]]), slope=np.array([[1.0]]))
        times = np.array([-0.5, -0.25, 0.0])
        states, derivs = datum.on_mesh(times)
        np.testing.assert_allclose(states[:, 0, 0], times)
        assert np.all(derivs == 1.0)

    def test_table_alignment(self):
        times = np.array([-0.2, -0.1, 0.0])
        datum = SampledDatum(times=times, states=np.zeros((3, 1, 1)),
                             derivatives=np.zeros((3, 1, 1)))
        states, _ = datum.on_mesh(times)
        assert states.shape == (3, 1, 1)
        with pytest.raises(MeshAlignmentError):
            datum.on_mesh(np.array([-0.3, -0.15, 0.0]))
        with pytest.raises(MeshAlignmentError):
            datum.on_mesh(np.array([-0.2, -0.1, 0.0, 0.1]))


def _datums(a):
    # One datum of each kind, all built from the caller's array ``a`` of shape (1, 1).
    return [ConstantDatum(a), LinearDatum(start=a, slope=a),
            SampledDatum(times=a[0], states=a[None], derivatives=a[None])]


class TestFrozenDatum:
    # A config samples its datum once; a datum that changed afterwards would be
    # written to the manifest with values the run never started from.

    def test_fields_cannot_be_assigned(self):
        for datum in _datums(np.ones((1, 1))):
            for f in fields(datum):
                with pytest.raises(FrozenInstanceError):
                    setattr(datum, f.name, np.zeros((1, 1)))

    def test_arrays_are_read_only(self):
        for datum in _datums(np.ones((1, 1))):
            for f in fields(datum):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(datum, f.name)[...] = 5.0

    def test_caller_array_is_copied(self):
        a = np.ones((1, 1))
        datums = _datums(a)
        a[0, 0] = 5.0
        for datum in datums:
            assert all(np.all(getattr(datum, f.name) == 1.0) for f in fields(datum))

    def test_history_is_read_only(self):
        config = SimConfig(model="two-agent-reaction", tau=0.2, lam=0.0,
                           datum=ConstantDatum([[1.0]]), n=1)
        for array in config.history:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0

    def test_manifest_replays_the_run_bit_for_bit(self):
        # The config judged the datum 1; the caller then changes its array, and
        # the manifest must still name the datum the run started from.
        a = np.ones((1, 1))
        config = SimConfig(model="two-agent-reaction", tau=0.2, lam=0.0,
                           datum=ConstantDatum(a), n=1, t_end=5.0)
        a[0, 0] = 5.0
        replay = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert run(replay).states.tobytes() == run(config).states.tobytes()


class TestSimConfig:
    def _config(self, **overrides):
        kwargs = dict(model="two-agent-transmission", tau=0.5, lam=1.0,
                      datum=ConstantDatum([[1.0]]), n=1, d=1, steps_per_delay=2, t_end=5.0)
        kwargs.update(overrides)
        return SimConfig(**kwargs)

    def test_fractional_steps_per_delay_rejected(self):
        # 2.5 steps would keep dt = tau / 2.5 but delay by 2 steps (tau = 0.2).
        with pytest.raises(ValueError, match="steps_per_delay"):
            self._config(steps_per_delay=2.5)
        assert self._config(steps_per_delay=2.0).steps_per_delay == 2

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            self._config(tau=float("nan"))

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            self._config(lam=float("nan"))

    def test_infinite_t_end_rejected(self):
        with pytest.raises(ValueError, match="t_end"):
            self._config(t_end=float("inf"))

    @pytest.mark.parametrize("key", ["n", "d"])
    def test_fractional_sizes_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            self._config(**{key: 1.5})
        assert getattr(self._config(**{key: 1.0}), key) == 1

    @pytest.mark.parametrize("key", ["steps_per_delay", "n", "d", "seed"])
    def test_bool_sizes_rejected(self, key):
        # bool is an Integral, so True used to pass as 1: m = 1 or d = 1.
        with pytest.raises(ValueError, match=f"{key} must be an integer, got True"):
            self._config(**{key: True})

    def test_hand_built_invalid_weights_rejected(self):
        # Unchecked, these weights ran on the reaction model and "diverged" at
        # step 1; WeightMatrix now rejects them when it is built.
        with pytest.raises(ValueError, match="non-finite"):
            run(self._config(model="reaction", n=2, datum=ConstantDatum([[1.0], [0.0]]),
                             weights=WeightMatrix([[0.0, np.nan], [-1.0, 0.0]])))
        with pytest.raises(ValueError, match="negative"):
            self._config(model="reaction", n=2, datum=ConstantDatum([[1.0], [0.0]]),
                         weights=WeightMatrix([[0.0, 1.0], [-1.0, 0.0]]))

    def test_hand_built_valid_weights_accepted(self):
        # A WeightMatrix built by hand computes its own flags.
        config = self._config(model="transmission", n=2, datum=ConstantDatum([[1.0], [0.0]]),
                              weights=WeightMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert config.weights.row_stochastic and config.weights.irreducible
        reference = run(replace(config, weights=make_uniform(2)))
        assert np.array_equal(run(config).states, reference.states)

    @pytest.mark.parametrize("key,value", [("tau", "0.5"), ("tau", None), ("lam", [1.0]),
                                           ("lam", True), ("t_end", "5")])
    def test_non_numbers_rejected(self, key, value):
        # "t_end": "8" used to run as 8.0; null and list values crashed in float().
        name = "lambda" if key == "lam" else key
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            self._config(**{key: value})

    @pytest.mark.parametrize("key,message", [("tau", "tau must be >= 0"),
                                             ("lam", "lambda must be >= 0"),
                                             ("t_end", "t_end must be finite and positive")])
    def test_negative_values_rejected(self, key, message):
        with pytest.raises(ValueError, match=message):
            self._config(**{key: -1})

    def test_mesh_is_built_with_the_config(self):
        config = self._config()
        assert config.mesh == Mesh.build(0.5, 2, 5.0)
        other = replace(config, tau=0.25)
        assert other.mesh == Mesh.build(0.25, 2, 5.0) != config.mesh
        # Not a field: equality, replace and the manifests see only the inputs.
        assert "mesh" not in {f.name for f in fields(SimConfig)} and replace(config) == config
        with pytest.raises(AttributeError):
            config.mesh = other.mesh

    def test_built_config_is_final(self):
        # An assigned horizon was never checked and left the mesh at the old one.
        config = self._config()
        with pytest.raises(FrozenInstanceError):
            config.t_end = 10.0
        assert config.t_end == 5.0 and replace(config, t_end=10.0).mesh == Mesh.build(0.5, 2, 10.0)

    def test_runs_reuse_the_config_mesh(self, monkeypatch):
        configs = [self._config(), self._config(lam=0.0)]
        built = []
        monkeypatch.setattr(Mesh, "build", lambda *args: built.append(args))
        run(configs[0])
        classify_lanes(configs)
        assert built == []

    def test_default_horizon_is_aligned(self):
        config = self._config(tau=0.3, steps_per_delay=32, t_end=None)
        assert config.t_end == aligned_t_end(0.3, 32, default_horizon(0.3))

    def test_huge_horizon_rejected(self):
        with pytest.raises(ValueError, match="too many steps"):
            self._config(tau=0.0, t_end=1e308)

    # The model-shape rules, checked when the config is built rather than
    # when it is run.

    @pytest.mark.parametrize("overrides", [dict(n=2), dict(d=2), dict(weights=make_uniform(2))])
    def test_gap_model_takes_one_scalar_gap(self, overrides):
        with pytest.raises(ValueError, match="takes n = d = 1 and no weights"):
            self._config(**overrides)

    def test_n_agent_model_needs_weights(self):
        with pytest.raises(ValueError, match="reaction model needs a weight matrix, got NoneType"):
            self._config(model="reaction", n=2, datum=ConstantDatum([[1.0], [0.0]]))
        # A bare array has no flags to check the model's needs against.
        with pytest.raises(ValueError, match="needs a weight matrix, got ndarray"):
            self._config(model="reaction", n=2, datum=ConstantDatum([[1.0], [0.0]]),
                         weights=make_uniform(2).weights)

    def test_weight_size_must_match_n(self):
        with pytest.raises(ValueError, match="weight matrix size 3 does not match n = 2"):
            self._config(model="reaction", n=2, datum=ConstantDatum([[1.0], [0.0]]),
                         weights=make_uniform(3))

    def test_transmission_needs_row_stochastic_weights(self):
        halves = WeightMatrix([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="off-diagonal row sums of 1"):
            self._config(model="transmission", n=2, datum=ConstantDatum([[1.0], [0.0]]),
                         weights=halves)
        config = self._config(model="reaction", n=2, datum=ConstantDatum([[1.0], [0.0]]),
                              weights=halves)
        assert not config.weights.row_stochastic

    # The datum is sampled on the mesh, and judged, when the config is built.

    @pytest.mark.parametrize("overrides,error,message", [
        (dict(model="transmission", n=2, weights=make_uniform(2),
              datum=ConstantDatum([[1.0, 2.0, 3.0]])),
         ValueError, r"datum shape \(1, 3\) does not match \(2, 1\)"),
        (dict(datum=SampledDatum(times=[0.0], states=np.ones((1, 1, 1)),
                                 derivatives=np.zeros((1, 1, 1)))),
         MeshAlignmentError, "datum table has 1 samples, mesh needs 3"),
    ])
    def test_datum_judged_when_built(self, overrides, error, message):
        with pytest.raises(error, match=message):
            self._config(**overrides)

    @pytest.mark.parametrize("datum", [None, [[1.0]], "constant:1"])
    def test_datum_type_checked(self, datum):
        with pytest.raises(ValueError, match="the datum must be a ConstantDatum"):
            self._config(datum=datum)

    def test_history_is_the_datum_on_the_mesh(self):
        config = self._config(datum=LinearDatum(start=[[1.0]], slope=[[2.0]]))
        states, slopes = config.history
        assert states[:, 0, 0].tolist() == [0.0, 0.5, 1.0]
        assert slopes[:, 0, 0].tolist() == [2.0, 2.0, 2.0]
