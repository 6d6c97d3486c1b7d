"""Batched runs: every lane of classify_lanes() has the verdict of a run of its own
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
    LinearDatum,
    ModelKind,
    SampledDatum,
    SimConfig,
)
from nddc.integrator import classify_lanes, run
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


@st.composite
def mixed_lanes(draw):
    # Lanes share the model and m and differ in tau, lambda
    # and the horizon, so they end at different rows; large gains abort inside
    # a block while other lanes run on. Some batches also differ in the datum,
    # and with it in the divergence guard. Others share one mesh, as a fig3
    # row does: every lane has the same tau and step count (up to 40 delays,
    # often ending inside a block) and only lambda differs.
    model = draw(st.sampled_from(GAP_MODELS))
    m = draw(st.sampled_from([1, 2, 5, 16, 32]))
    datums = st.builds(lambda start, slope: LinearDatum([[start]], [[slope]]),
                       st.sampled_from([1.0, -3.0, 1e300]),
                       st.sampled_from([0.0, 0.7, -1e8, 1e308]))
    datum = draw(datums)
    shared, one_mesh = draw(st.booleans()), draw(st.booleans())
    configs = []
    for i in range(draw(st.integers(1, 6))):
        if not shared:
            datum = draw(datums)
        if not (i and one_mesh):
            tau = draw(st.sampled_from([0.0, 1.0, 1.0])) * draw(st.floats(0.05, 1.0))
            steps = draw(st.integers(1, 40 * m + 7))
        configs.append(SimConfig(
            model=model, tau=tau, datum=datum, n=1, d=1, steps_per_delay=m,
            lam=draw(st.one_of(st.floats(0.0, 0.5), st.floats(2.0, 60.0))),
            t_end=steps * (tau / m if tau > 0 else 1.0 / m),
        ))
    return configs


def straddling_lanes(model, tau, m, lam_steps):
    # Lanes of one tau whose shortest horizon ends inside the first delay, so
    # the next block reads the datum's derivative for its first rows and
    # backward differences after them. The datum's derivative, 1, is not the
    # difference of its states, 0, so a row read the wrong way shows.
    ones = np.ones((m + 1, 1, 1))
    datum = SampledDatum(np.arange(-m, 1) * (tau / m), ones, ones)
    return [SimConfig(model=model, tau=tau, lam=lam, datum=datum, n=1, d=1,
                      steps_per_delay=m, t_end=steps * tau / m)
            for lam, steps in lam_steps]


# Datums near the float range overflow inside a lane's first block, as they do
# in a run of its own.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=250, derandomize=True, deadline=None)
@given(mixed_lanes())
@example(straddling_lanes(ModelKind.TWO_AGENT_REACTION, 0.5, 2, [(0.5, 3), (0.0, 1)]))
@example(straddling_lanes(ModelKind.TWO_AGENT_TRANSMISSION, 1.0, 5, [(0.5, 6), (0.5, 1)]))
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
    # A frozen lane computes nothing more, so it cannot overflow later while
    # the other lanes run on.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = classify_lanes(configs)
    aborted = [evidence.abort_step for _, evidence in verdicts if evidence.aborted]
    assert len(aborted) == 2 and all(step % 16 for step in aborted)
    assert verdicts[0][0] is Classification.CONVERGED
    assert run(configs[0]).n_steps == 1280
    for config, verdict in zip(configs, verdicts):
        assert_same_verdict(*verdict, run(config))


def test_fig3_row_freezes_its_aborted_lanes():
    # fig3's tau = 1 row: 26 of its 31 lambda lanes abort, in different
    # blocks, and none is computed past its abort.
    sweep = figure_preset("fig3").sweep
    configs = [cell_config(sweep.settings, float(lam), 1.0) for lam in sweep.lam_values]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = classify_lanes(configs)
    assert sum(evidence.aborted for _, evidence in verdicts) == 26
    for config, verdict in zip(configs, verdicts):
        assert_same_verdict(*verdict, run(config))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", GAP_MODELS)
def test_many_lanes_trip_in_one_block(model):
    # 31 lanes on one horizon under three datums, so three guards. Lane 3's
    # datum overflows at the first node; lanes 5 and 9 cross their guard at
    # the last node of the first block (one in each model), and the others
    # diverge in twos and threes per block after lane 3 has left the middle of
    # the batch.
    m = 4
    base = SimConfig(model=model, tau=0.5, lam=0.0, datum=ConstantDatum([[1.0]]), n=1, d=1,
                     steps_per_delay=m, t_end=20.0)
    datums = [ConstantDatum([[1.0]]), LinearDatum([[-3.0]], [[2.0]]),
              LinearDatum([[0.5]], [[-0.7]])]
    configs = [replace(base, lam=float(lam), datum=datums[i % 3])
               for i, lam in enumerate(np.linspace(30.0, 0.0, 31))]
    configs[3] = replace(configs[3], datum=LinearDatum([[1e300]], [[1e308]]))
    configs[5] = replace(configs[5], lam=2.0, datum=LinearDatum([[1.0]], [[1.6e6]]))
    configs[9] = replace(configs[9], lam=2.0, datum=LinearDatum([[1.0]], [[4e6]]))
    verdicts = classify_lanes(configs)
    alone = [run(config) for config in configs]
    steps = [evidence.abort_step for _, evidence in verdicts]
    # Lane 3 stops before its first node, which is not finite.
    assert steps[3] == 1 and alone[3].n_steps == 0
    assert m in (steps[5], steps[9])
    blocks = [(step - 1) // m for step in steps if step is not None]
    assert max(blocks.count(b) for b in set(blocks) - {0}) >= 3
    assert sum(step is None for step in steps) >= 2
    assert len({max(1.0, abs(traj.states[0, 0, 0])) for traj in alone}) >= 3
    for verdict, traj in zip(verdicts, alone):
        assert_same_verdict(*verdict, traj)


def test_n_agent_configs_are_refused():
    config = SimConfig(model=ModelKind.REACTION, tau=0.2, lam=0.5,
                       datum=ConstantDatum([[0.0], [1.0], [2.0]]), n=3, d=1,
                       steps_per_delay=4, t_end=2.0, weights=make_uniform(3))
    with pytest.raises(ValueError, match="gap models only"):
        classify_lanes([config])


def test_lanes_must_share_model_and_steps():
    config = SimConfig(model=ModelKind.TWO_AGENT_REACTION, tau=0.2, lam=0.0,
                       datum=ConstantDatum([[1.0]]), n=1, d=1, steps_per_delay=4, t_end=2.0)
    for other in (replace(config, steps_per_delay=8),
                  replace(config, model="two-agent-transmission")):
        with pytest.raises(ValueError, match="lanes must share"):
            classify_lanes([config, other])
    assert classify_lanes([]) == []
