"""Batched runs: every lane of run_lanes() and classify_lanes() equals the run of its own
configuration."""

import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nddc.core import (
    Classification,
    ConstantDatum,
    DerivativeMode,
    LinearDatum,
    ModelKind,
    SampledDatum,
    SimConfig,
)
from nddc.integrator import classify_lanes, run, run_lanes
from nddc.presets import figure_preset
from nddc.sweep import cell_config
from nddc.weights import make_uniform

GAP_MODELS = [ModelKind.TWO_AGENT_TRANSMISSION, ModelKind.TWO_AGENT_REACTION]


def assert_same_verdict(classification, evidence, alone):
    assert classification is alone.classification
    # Evidence fields are floats, None or bools; a NaN trailing ratio equals NaN.
    for got, want in zip(astuple(evidence), astuple(alone.evidence)):
        assert got == want or (got != got and want != want)
    assert evidence.abort_step == alone.evidence.abort_step


def assert_same_run(lane, alone):
    assert np.array_equal(lane.states, alone.states, equal_nan=True)
    assert np.array_equal(lane.derivatives, alone.derivatives, equal_nan=True)
    assert np.array_equal(lane.diameters, alone.diameters, equal_nan=True)
    assert_same_verdict(lane.classification, lane.evidence, alone)


@st.composite
def lane_batches(draw):
    model = draw(st.sampled_from(GAP_MODELS))
    tau = draw(st.sampled_from([0.0, 1.0, 1.0])) * draw(st.floats(0.05, 1.0))
    m = draw(st.sampled_from([1, 2, 5, 16, 32]))
    # Up to 40 delays, often ending inside a block.
    steps = draw(st.integers(1, 40 * m + 7))
    # Small gains converge; large ones make lambda*tau >> 1 and the gap grows
    # through the guard after a few delays, at a node inside a block.
    lams = draw(st.lists(st.one_of(st.floats(0.0, 0.5), st.floats(2.0, 60.0)),
                         min_size=1, max_size=6))
    start = draw(st.sampled_from([1.0, -3.0, 1e300]))
    slope = draw(st.sampled_from([0.0, 0.7, -1e8, 1e308]))
    config = SimConfig(
        model=model, tau=tau, lam=0.0, datum=LinearDatum([[start]], [[slope]]),
        n=1, d=1, steps_per_delay=m, t_end=steps * (tau / m if tau > 0 else 1.0 / m),
        derivative_mode=draw(st.sampled_from(list(DerivativeMode))),
    )
    return config, lams


# Datums near the float range overflow inside a lane's first block, as they do
# in a run of its own.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=250, derandomize=True, deadline=None)
@given(lane_batches())
def test_lanes_match_single_runs(batch):
    config, lams = batch
    lanes = run_lanes([replace(config, lam=lam) for lam in lams])
    assert len(lanes) == len(lams)
    for lam, lane in zip(lams, lanes):
        assert lane.config.lam == lam
        assert_same_run(lane, run(replace(config, lam=lam)))


@st.composite
def mixed_lanes(draw):
    # Lanes share the model, m and derivative mode and differ in tau, lambda
    # and the horizon, so they end at different rows; large gains abort inside
    # a block while other lanes run on. Some batches also differ in the datum,
    # and with it in the divergence guard.
    model = draw(st.sampled_from(GAP_MODELS))
    m = draw(st.sampled_from([1, 2, 5, 16, 32]))
    mode = draw(st.sampled_from(list(DerivativeMode)))
    datums = st.builds(lambda start, slope: LinearDatum([[start]], [[slope]]),
                       st.sampled_from([1.0, -3.0, 1e300]),
                       st.sampled_from([0.0, 0.7, -1e8, 1e308]))
    datum = draw(datums)
    shared = draw(st.booleans())
    configs = []
    for _ in range(draw(st.integers(1, 6))):
        if not shared:
            datum = draw(datums)
        tau = draw(st.sampled_from([0.0, 1.0, 1.0])) * draw(st.floats(0.05, 1.0))
        steps = draw(st.integers(1, 40 * m + 7))
        configs.append(SimConfig(
            model=model, tau=tau, datum=datum, n=1, d=1, steps_per_delay=m,
            lam=draw(st.one_of(st.floats(0.0, 0.5), st.floats(2.0, 60.0))),
            t_end=steps * (tau / m if tau > 0 else 1.0 / m), derivative_mode=mode,
        ))
    return configs


def straddling_lanes(model, tau, m, lam_steps):
    # Lanes of one tau whose shortest horizon ends inside the first delay, so
    # the next block reads, in backward-difference mode, the datum's
    # derivative for its first rows and backward differences after them. The
    # datum's derivative, 1, is not the difference of its states, 0, so a row
    # read the wrong way shows.
    ones = np.ones((m + 1, 1, 1))
    datum = SampledDatum(np.arange(-m, 1) * (tau / m), ones, ones)
    return [SimConfig(model=model, tau=tau, lam=lam, datum=datum, n=1, d=1,
                      steps_per_delay=m, t_end=steps * tau / m)
            for lam, steps in lam_steps]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=250, derandomize=True, deadline=None)
@given(mixed_lanes())
@example(straddling_lanes(ModelKind.TWO_AGENT_REACTION, 0.5, 2, [(0.5, 3), (0.0, 1)]))
@example(straddling_lanes(ModelKind.TWO_AGENT_TRANSMISSION, 1.0, 5, [(0.5, 6), (0.5, 1)]))
def test_lanes_differing_in_tau_match_single_runs(configs):
    lanes = run_lanes(configs)
    assert len(lanes) == len(configs)
    for config, lane in zip(configs, lanes):
        assert lane.config is config
        alone = run(config)
        assert np.array_equal(lane.times, alone.times)
        assert_same_run(lane, alone)


@st.composite
def matrix_lane(draw):
    # One N-agent lane, at tau = 0 or delayed; large gains make the spread grow
    # through the guard, and opinions near the float range overflow, inside a block.
    n, d = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    m = draw(st.sampled_from([1, 3, 8]))
    tau = draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(0.05, 1.0))
    values = draw(st.sampled_from([1.0, 1e307])) * np.arange(n * d, dtype=float).reshape(n, d)
    return [SimConfig(
        model=draw(st.sampled_from([ModelKind.TRANSMISSION, ModelKind.REACTION])),
        tau=tau, lam=draw(st.sampled_from([0.0, 0.3, 5.0, 40.0])),
        datum=LinearDatum(values, draw(st.sampled_from([0.0, 0.7, -1.0])) * values[::-1]),
        n=n, d=d, steps_per_delay=m, weights=make_uniform(n),
        t_end=draw(st.integers(1, 24 * m + 3)) * (tau / m if tau > 0 else 1.0 / m),
        derivative_mode=draw(st.sampled_from(list(DerivativeMode))),
    )]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.one_of(mixed_lanes(), matrix_lane()))
def test_verdicts_match_single_runs(configs):
    verdicts = classify_lanes(configs)
    assert len(verdicts) == len(configs)
    for config, (classification, evidence) in zip(configs, verdicts):
        assert_same_verdict(classification, evidence, run(config))


@pytest.mark.parametrize("model", GAP_MODELS)
def test_mid_block_aborts_leave_other_lanes_running(model):
    config = SimConfig(model=model, tau=0.5, lam=0.0, datum=ConstantDatum([[1.0]]),
                       n=1, d=1, steps_per_delay=16, t_end=40.0)
    configs = [replace(config, lam=lam) for lam in [0.0, 0.3, 6.0, 1e5, 0.1]]
    # A frozen lane computes nothing more, so it cannot overflow later, in a
    # recorded run or a verdict-only one.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lanes = run_lanes(configs)
        verdicts = classify_lanes(configs)
    aborted = [lane.evidence.abort_step for lane in lanes if lane.evidence.aborted]
    assert len(aborted) == 2 and all(step % 16 for step in aborted)
    assert lanes[0].classification is Classification.CONVERGED
    assert lanes[0].n_steps == 1280
    for config, lane, verdict in zip(configs, lanes, verdicts):
        assert_same_run(lane, run(config))
        assert_same_verdict(*verdict, lane)


def test_fig3_row_freezes_its_aborted_lanes():
    # fig3's tau = 1 row: 26 of its 31 lambda lanes abort, in different
    # blocks, and none is computed past its abort in either kind of run.
    sweep = figure_preset("fig3").sweep
    configs = [cell_config(sweep.settings, float(lam), 1.0) for lam in sweep.lam_values]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = classify_lanes(configs)
        lanes = run_lanes(configs)
    assert sum(evidence.aborted for _, evidence in verdicts) == 26
    for config, lane, verdict in zip(configs, lanes, verdicts):
        assert_same_run(lane, run(config))
        assert_same_verdict(*verdict, lane)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", list(DerivativeMode))
@pytest.mark.parametrize("model", GAP_MODELS)
def test_many_lanes_trip_in_one_block(model, mode):
    # 31 lanes on one horizon under three datums, so three guards. Lane 3's
    # datum overflows at the first node; lanes 5 and 9 cross their guard at
    # the last node of the first block (one in each model), and the others
    # diverge in twos and threes per block after lane 3 has left the middle of
    # the batch.
    m = 4
    base = SimConfig(model=model, tau=0.5, lam=0.0, datum=ConstantDatum([[1.0]]), n=1, d=1,
                     steps_per_delay=m, t_end=20.0, derivative_mode=mode)
    datums = [ConstantDatum([[1.0]]), LinearDatum([[-3.0]], [[2.0]]),
              LinearDatum([[0.5]], [[-0.7]])]
    configs = [replace(base, lam=float(lam), datum=datums[i % 3])
               for i, lam in enumerate(np.linspace(30.0, 0.0, 31))]
    configs[3] = replace(configs[3], datum=LinearDatum([[1e300]], [[1e308]]))
    configs[5] = replace(configs[5], lam=2.0, datum=LinearDatum([[1.0]], [[1.6e6]]))
    configs[9] = replace(configs[9], lam=2.0, datum=LinearDatum([[1.0]], [[4e6]]))
    lanes = run_lanes(configs)
    steps = [lane.evidence.abort_step for lane in lanes]
    # Lane 3 stops before its first node, which is not finite.
    assert steps[3] == 1 and lanes[3].n_steps == 0
    assert m in (steps[5], steps[9])
    blocks = [(step - 1) // m for step in steps if step is not None]
    assert max(blocks.count(b) for b in set(blocks) - {0}) >= 3
    assert sum(step is None for step in steps) >= 2
    assert len({max(1.0, abs(lane.states[0, 0, 0])) for lane in lanes}) >= 3
    for config, lane, verdict in zip(configs, lanes, classify_lanes(configs)):
        alone = run(config)
        assert_same_run(lane, alone)
        assert_same_verdict(*verdict, alone)


def test_matrix_models_take_one_lane():
    config = SimConfig(model=ModelKind.REACTION, tau=0.2, lam=0.5,
                       datum=ConstantDatum([[0.0], [1.0], [2.0]]), n=3, d=1,
                       steps_per_delay=4, t_end=2.0, weights=make_uniform(3))
    assert_same_run(run_lanes([config])[0], run(config))
    with pytest.raises(ValueError, match="one lane"):
        run_lanes([config, replace(config, lam=1.0)])


def test_invalid_lane_rejected():
    config = SimConfig(model=ModelKind.TWO_AGENT_REACTION, tau=0.2, lam=0.0,
                       datum=ConstantDatum([[1.0]]), n=1, d=1, steps_per_delay=4, t_end=2.0)
    with pytest.raises(ValueError, match="lambda"):
        run_lanes([replace(config, lam=0.5), replace(config, lam=float("nan"))])


def test_lanes_must_share_model_and_steps():
    config = SimConfig(model=ModelKind.TWO_AGENT_REACTION, tau=0.2, lam=0.0,
                       datum=ConstantDatum([[1.0]]), n=1, d=1, steps_per_delay=4, t_end=2.0)
    for other in (replace(config, steps_per_delay=8),
                  replace(config, model="two-agent-transmission"),
                  replace(config, derivative_mode=DerivativeMode.STORED_RHS)):
        with pytest.raises(ValueError, match="lanes must share"):
            run_lanes([config, other])
        with pytest.raises(ValueError, match="lanes must share"):
            classify_lanes([config, other])
    assert run_lanes([]) == classify_lanes([]) == []
