"""Invariants of the scheme, checked through run() on random instances.

A consensus state is an exact fixed point of all four models, the reaction
model conserves the agent mean under symmetric weights, and relabelling the
agents relabels the result. The last two hold up to rounding: the sums over
neighbours are formed in another order, so they are compared with a stated
tolerance of 4 * N * K * eps times the largest state entry after K steps,
a few roundings of a length-N sum per step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nddc.core import ConstantDatum, LinearDatum, ModelKind, SimConfig, WeightMatrix
from nddc.integrator import run
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
