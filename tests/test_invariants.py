"""Invariants of the scheme, checked through run() on random instances.

A consensus state is an exact fixed point of all four models, the reaction
model conserves the agent mean under symmetric weights, and relabelling the
agents relabels the result. The last two hold up to rounding: the sums over
neighbours are formed in another order, so they are compared with a stated
tolerance of 4 * N * K * eps times the largest state entry after K steps,
a few roundings of a length-N sum per step. The models are linear, so scaling
the datum leaves every verdict of the fig3 grid as it is, scaling an N-agent
datum by 2^k scales its run and diameters by exactly 2^k, and the run of a
sum of two datums is the sum of their runs.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nddc.core import ConstantDatum, LinearDatum, ModelKind, SimConfig, WeightMatrix
from nddc.diagnostics import apriori_bounds
from nddc.harness import reaction_instance, transmission_instance
from nddc.integrator import classify_lanes, run
from nddc.presets import figure_preset
from nddc.sweep import cell_config
from nddc.weights import (
    make_random_row_stochastic,
    make_random_symmetric_bistochastic,
    make_uniform,
)

EPS = np.finfo(float).eps


def _tolerance(traj) -> float:
    scale = max(1.0, float(np.max(np.abs(traj.states))))
    return 4.0 * traj.config.n * traj.n_steps * EPS * scale


@st.composite
def meshes(draw, tau_max=1.0):
    tau = draw(st.sampled_from([0.0, 1.0, 1.0])) * draw(st.floats(0.05, tau_max))
    m = draw(st.sampled_from([1, 2, 5, 16]))
    steps = draw(st.integers(1, 10 * m + 3))
    return dict(tau=tau, steps_per_delay=m,
                t_end=steps * (tau / m if tau > 0 else 1.0 / m))


@st.composite
def consensus_runs(draw):
    model = draw(st.sampled_from(list(ModelKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if model.is_scalar:
        # The gap x1 - x2 of two agents in consensus is zero.
        n, d, weights, values = 1, 1, None, [[0.0]]
    else:
        n, d = draw(st.integers(2, 8)), draw(st.integers(1, 3))
        values = np.tile(rng.uniform(-1e3, 1e3, (1, d)), (n, 1))
        if model is ModelKind.TRANSMISSION or rng.random() < 0.5:
            weights = make_random_row_stochastic(n, 0.05, seed=int(rng.integers(1000)))
        else:
            weights = make_random_symmetric_bistochastic(n, seed=int(rng.integers(1000)))
    return SimConfig(model=model, lam=draw(st.floats(0.0, 5.0)), n=n, d=d,
                     datum=ConstantDatum(values), weights=weights, **draw(meshes()))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(consensus_runs())
def test_consensus_is_exact_fixed_point(config):
    traj = run(config)
    assert not traj.evidence.aborted
    assert np.array_equal(traj.states, np.broadcast_to(traj.states[0], traj.states.shape))
    assert not traj.derivatives[1:].any()
    assert not traj.diameters.any()


@st.composite
def stable_instances(draw, model):
    # Inside each model's consensus guarantee (lam*tau <= 1 for transmission,
    # (1 + lam)*tau < 1/2 for reaction), so the states stay bounded.
    n, d = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seed = int(rng.integers(1000))
    if model is ModelKind.TRANSMISSION:
        weights = make_random_row_stochastic(n, 0.05, seed=seed)
        mesh = draw(meshes(tau_max=0.5))
    else:
        weights = (make_uniform(n) if rng.random() < 0.25
                   else make_random_symmetric_bistochastic(n, seed=seed))
        mesh = draw(meshes(tau_max=0.16))
    return SimConfig(model=model, lam=draw(st.floats(0.0, 2.0)), n=n, d=d,
                     datum=LinearDatum(rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (n, d))),
                     weights=weights, **mesh)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(stable_instances(ModelKind.REACTION))
def test_reaction_conserves_mean_under_symmetric_weights(config):
    traj = run(config)
    drift = np.abs(traj.means - traj.means[0])
    assert drift.max() <= _tolerance(traj)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from([ModelKind.TRANSMISSION, ModelKind.REACTION]).flatmap(stable_instances),
       st.randoms(use_true_random=False))
def test_relabelling_agents_relabels_the_result(config, random):
    order = list(range(config.n))
    random.shuffle(order)
    w = config.weights.weights
    relabelled = SimConfig(
        model=config.model, tau=config.tau, lam=config.lam, n=config.n, d=config.d,
        datum=LinearDatum(config.datum.start[order], config.datum.slope[order]),
        weights=WeightMatrix(w[order][:, order]), steps_per_delay=config.steps_per_delay,
        t_end=config.t_end,
    )
    traj, other = run(config), run(relabelled)
    assert other.evidence.abort_step == traj.evidence.abort_step
    tol = _tolerance(traj)
    assert np.abs(other.states - traj.states[:, order]).max() <= tol
    assert np.abs(other.derivatives - traj.derivatives[:, order]).max() <= tol


# Datum scales, drawn apart for the states and the slopes.
SCALES = [1.0, 1e3, 1e8, 1e50, 1e100]


@st.composite
def guaranteed_transmission_runs(draw):
    # Inside the transmission guarantee lam*tau <= 1, where the a-priori bound
    # sup |x_i| <= (1 + lam*tau) M holds, M the datum's largest agent norm of a
    # state or slope, never below the guard's largest |coordinate|.
    n, d = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mesh = draw(meshes())
    lam_tau, tau = draw(st.floats(0.0, 1.0)), mesh["tau"]
    start = draw(st.sampled_from(SCALES)) * rng.uniform(-1, 1, (n, d))
    slope = draw(st.sampled_from(SCALES)) * rng.uniform(-1, 1, (n, d))
    return SimConfig(model=ModelKind.TRANSMISSION, lam=lam_tau / tau if tau else lam_tau,
                     n=n, d=d, datum=LinearDatum(start, slope),
                     weights=make_random_row_stochastic(n, 0.05, seed=int(rng.integers(1000))), **mesh)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(guaranteed_transmission_runs())
@example(SimConfig(model=ModelKind.TRANSMISSION, tau=0.3, lam=0.2, n=3, d=1,
                   datum=LinearDatum(np.zeros((3, 1)), 1e8 * np.array([[1.0], [-1.0], [0.5]])),
                   steps_per_delay=32, t_end=3.0, weights=make_uniform(3)))
def test_guard_is_silent_under_the_apriori_bound(config):
    # The guard scales with M, so it never stops a run that the bound keeps
    # within 2 M, however large the datum's slopes are against its states.
    assert not run(config).evidence.aborted


def test_scaling_the_datum_keeps_every_fig3_verdict():
    # Not so by construction: the divergence guard measures |x| against
    # max(1, M) and the trailing-peak rule d_x against max(1, d_x(0)), and
    # neither floor of 1 scales with the datum.
    job = figure_preset("fig3").sweep
    checked = 0
    for tau in job.tau_values[job.tau_values > 0].tolist():
        cells = [cell_config(job.settings, lam, tau) for lam in job.lam_values.tolist()]
        want = [label for label, _ in classify_lanes(cells)]
        for c in (1e-3, 1e-6, 1e3):
            scaled = [replace(cell, datum=ConstantDatum([[c]])) for cell in cells]
            assert [label for label, _ in classify_lanes(scaled)] == want, (tau, c)
            checked += len(cells)
    assert checked == 1860


@pytest.mark.parametrize("k", [0, 200, 520, 1000])
@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.sampled_from([ModelKind.TRANSMISSION, ModelKind.REACTION]).flatmap(stable_instances))
def test_scaling_an_n_agent_datum_by_two_to_the_k(k, config):
    # The datum's largest |coordinate| is 1, so the guard's max(1, M) scales
    # with it too. Powers of two scale every rounding exactly, so the verdict
    # holds and every diameter, however large, is 2^k times its unscaled bits.
    start, slope = config.datum.start, config.datum.slope
    top = max(np.abs(start).max(), np.abs(slope).max())
    base, scaled = (run(replace(config, datum=LinearDatum(np.ldexp(start / top, e),
                                                          np.ldexp(slope / top, e))))
                    for e in (0, k))
    assert scaled.classification is base.classification
    assert scaled.evidence.abort_step == base.evidence.abort_step
    assert np.array_equal(scaled.diameters, np.ldexp(base.diameters, k))
    assert scaled.evidence.initial_dx == np.ldexp(base.evidence.initial_dx, k)
    assert scaled.evidence.final_dx == np.ldexp(base.evidence.final_dx, k)
    if config.model is ModelKind.TRANSMISSION:  # drawn with lam*tau <= 1
        want, got = apriori_bounds(base), apriori_bounds(scaled)
        assert got.datum_bound == np.ldexp(want.datum_bound, k)
        assert (got.state_ratio, got.deriv_ratio) == (want.state_ratio, want.deriv_ratio)


# Both gap models at fig1's (tau, lam) = (0.25, 1) and fig4's (0.85, 0.25), on
# those figures' meshes, and the first three instances of each theorem suite.
SUPERPOSED = [
    *(replace(figure_run.config, model=model)
      for name, lam in (("fig1", 1.0), ("fig4", 0.25))
      for figure_run in figure_preset(name).runs if figure_run.config.lam == lam
      for model in (ModelKind.TWO_AGENT_TRANSMISSION, ModelKind.TWO_AGENT_REACTION)),
    *(make(seed, t_end=30.0)
      for make in (transmission_instance, reaction_instance) for seed in range(3)),
]


@pytest.mark.parametrize("k", range(len(SUPERPOSED)))
def test_runs_superpose(k):
    # The schemes are linear in the datum: the run of a + b is the run of a
    # plus the run of b, up to a few roundings per step of values that stay bounded.
    config = SUPERPOSED[k]
    a, b = np.random.default_rng(k).uniform(-1.0, 1.0, (2, 2, config.n, config.d))
    x_a, x_b, x_ab = (run(replace(config, datum=LinearDatum(*datum))).states
                      for datum in (a, b, a + b))
    assert len(x_a) == len(x_b) == len(x_ab) == config.mesh.total_steps + 1
    scale = np.abs(x_a).max() + np.abs(x_b).max()
    assert np.abs(x_ab - x_a - x_b).max() <= 1e-12 * scale
