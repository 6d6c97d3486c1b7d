"""Exact equivalence of run() with a per-step transcription of the scheme.

The reference advances one node at a time over the full history, evaluating
every update in the same floating-point order as the scheme's definition:
the anticipation gain is lam * (dt * m), the delayed derivative is the
datum's up to node 0 and the backward difference (x(k) - x(k-1)) / dt after
it, the transmission step is x + dt/(1+dt) * sum_j w_ij (y_j - x_i), and the
transmission gap step is (x - dt*y) / (1 + dt). run() must reproduce it,
recorded derivatives included, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nddc import harness
from nddc.core import (
    DIVERGENCE_GUARD,
    ConstantDatum,
    LinearDatum,
    ModelKind,
    SampledDatum,
    SimConfig,
    diameter_series,
)
from nddc.diagnostics import classify_series
from nddc.integrator import Mesh, run
from nddc.weights import (make_random_row_stochastic, make_random_symmetric_bistochastic,
                          make_uniform)


def reference_run(config):
    """(states, derivatives, diameters, pairs, classification, abort_step)."""
    mesh = Mesh.build(config.tau, config.steps_per_delay, config.t_end)
    dt, m, model = mesh.step_size, mesh.steps_per_delay, config.model
    states, derivs = (list(a) for a in config.datum.on_mesh(mesh.datum_times))
    lag = len(states) - 1  # list index of node k is k + lag
    # The datum's largest |state| or |slope|, and a guard capped at the largest double.
    scale = float(np.abs([states, derivs]).max())
    guard = min(DIVERGENCE_GUARD * max(1.0, scale), np.finfo(float).max)
    if not model.is_scalar:
        trans = model is ModelKind.TRANSMISSION
        w = config.weights.off_diagonal() if trans else config.weights.weights
        eye = np.eye(config.n)
        system = (1.0 + dt) * eye - dt * w if trans else eye + dt * (np.diag(w.sum(axis=1)) - w)
        propagate = np.linalg.inv(system)

    def pairwise(y, x):
        return np.einsum("ij,ijk->ik", w, y[None, :, :] - x[:, None, :])

    abort_step = None
    for n in range(mesh.total_steps):
        x = states[-1]
        if config.tau == 0 and model.is_scalar:
            new = x * (1.0 / (1.0 + 2.0 * dt))
        elif config.tau == 0:
            new = x + dt * (propagate @ pairwise(x, x))
        else:
            # D(k): the datum's slope for k <= 0, then the recorded backward difference.
            k = n + 1 - m
            y = states[k + lag] + (config.lam * (dt * m)) * derivs[k + lag]
            if model is ModelKind.TRANSMISSION:
                new = x + dt / (1.0 + dt) * pairwise(y, x)
            elif model is ModelKind.REACTION:
                new = x + dt * pairwise(y, y)
            elif model is ModelKind.TWO_AGENT_TRANSMISSION:
                new = (x - dt * y) / (1.0 + dt)
            else:
                new = x - 2.0 * dt * y
        if not np.all(np.isfinite(new)):
            abort_step = n + 1
            break
        states.append(new)
        derivs.append((new - x) / dt)
        if np.abs(new).max() > guard:
            abort_step = n + 1
            break
    states, derivs = np.array(states[lag:]), np.array(derivs[lag:])
    if model.is_scalar:
        diameters, pairs = np.abs(states[:, 0, 0]), np.tile([1, 2], (len(states), 1))
    else:
        diameters, pairs = diameter_series(states)
    label, _ = classify_series(diameters, aborted=abort_step is not None, abort_step=abort_step,
                               mesh=config.mesh)
    return states, derivs, diameters, pairs, label, abort_step


@st.composite
def configs(draw):
    model = draw(st.sampled_from(list(ModelKind)))
    tau = draw(st.sampled_from([0.0, 1.0, 1.0])) * draw(st.floats(0.05, 1.0))
    m = draw(st.sampled_from([1, 2, 5, 16, 32]))
    steps = draw(st.integers(1, 4 * m + 7))
    n, d = (1, 1) if model.is_scalar else (draw(st.integers(2, 8)), draw(st.integers(1, 3)))
    # Large datums and slopes drive runs into the divergence guard or overflow.
    start_scale = draw(st.sampled_from([1.0, 1e3, 1e300, 1e303]))
    slope_scale = draw(st.sampled_from([0.0, 1.0, 1e8, 1e12, 1e300, 1e308]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = None
    if model is ModelKind.TRANSMISSION or (model is ModelKind.REACTION and rng.random() < 0.5):
        weights = make_random_row_stochastic(n, 0.05, seed=int(rng.integers(1000)))
    elif model is ModelKind.REACTION:
        weights = make_random_symmetric_bistochastic(n, seed=int(rng.integers(1000)))
    return SimConfig(
        model=model, tau=tau, lam=draw(st.floats(0.0, 12.0)), n=n, d=d,
        datum=LinearDatum(start_scale * rng.uniform(-1, 1, (n, d)),
                          slope_scale * rng.uniform(-1, 1, (n, d))),
        steps_per_delay=m, t_end=steps * (tau / m if tau > 0 else 1.0 / m),
        weights=weights,
    )


def _overflowing(model):
    # A datum near the largest double: DIVERGENCE_GUARD times its scale is
    # past it, so only the capped guard stops the run at its first infinite node.
    n = 1 if model.is_scalar else 2
    return SimConfig(model=model, tau=0.5, lam=3.0, n=n, d=1,
                     datum=ConstantDatum(np.array([[1e303], [-1e303]])[:n]), steps_per_delay=4,
                     t_end=40.0, weights=None if model.is_scalar else make_uniform(2))


# A datum at rest whose slopes alone set the guard: node 1 is 3.1e6, over a
# guard taken from the states (1e6) and far under the slopes' (1e14).
SLOPES_ONLY = SimConfig(
    model=ModelKind.TWO_AGENT_REACTION, tau=0.5, lam=0.25, n=1, d=1,
    datum=SampledDatum(np.linspace(-0.5, 0.0, 5), np.zeros((5, 1, 1)), np.full((5, 1, 1), 1e8)),
    steps_per_delay=4, t_end=5.0,
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(configs())
@example(_overflowing(ModelKind.TWO_AGENT_REACTION))
@example(_overflowing(ModelKind.REACTION))
@example(SLOPES_ONLY)
def test_run_matches_per_step_reference(config):
    states, derivs, diameters, pairs, label, abort_step = reference_run(config)
    traj = run(config)
    assert np.array_equal(traj.states, states, equal_nan=True)
    assert np.array_equal(traj.derivatives, derivs, equal_nan=True)
    assert np.array_equal(traj.diameters, diameters, equal_nan=True)
    assert np.array_equal(traj.argmax_pairs, pairs)
    assert traj.classification is label
    assert traj.evidence.abort_step == abort_step


def assert_matches_reference(config):
    """run(config) equals reference_run(config) bit for bit, as in the test above."""
    states, derivs, diameters, pairs, label, abort_step = reference_run(config)
    traj = run(config)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivatives, derivs)
    assert np.array_equal(traj.diameters, diameters)
    assert np.array_equal(traj.argmax_pairs, pairs)
    assert traj.classification is label
    assert traj.evidence.abort_step == abort_step
    return traj


@pytest.mark.parametrize("model", [ModelKind.TRANSMISSION, ModelKind.REACTION])
@pytest.mark.parametrize("tau", [0.0, 0.2])
@pytest.mark.parametrize("d", [1, 3])
def test_run_matches_reference_past_a_fixed_point(model, tau, d):
    # A near-consensus datum reaches a floating-point fixed point within a few
    # dozen steps; the kernel fills the rest of the history with it, and the
    # reference computes every step.
    n, m, steps = 5, 4, 300
    rng = np.random.default_rng(d)
    config = SimConfig(
        model=model, tau=tau, lam=1.0, n=n, d=d,
        datum=ConstantDatum(1.0 + 1e-13 * rng.uniform(-1, 1, (n, d))),
        steps_per_delay=m, t_end=steps * (tau / m if tau > 0 else 1.0 / m),
        weights=make_random_row_stochastic(n, 0.05, seed=3),
    )
    assert config.mesh.total_steps == steps
    tail = assert_matches_reference(config).states[-200:].view(np.int64)
    assert (tail == tail[-1]).all()


@pytest.mark.parametrize("start,slope,still", [
    # The datum's slopes make the first block's inputs a consensus: node 1
    # equals node 0 and the datum, but the next block reads no slopes and moves.
    ([0.0, 1.0], [2.0, 0.0], 1),
    # Node 1 differs from node 0, so the second block's inputs are a consensus
    # and node 2 equals node 1; the third block's window is at rest and moves.
    ([0.0, 2.0], [0.0, -2.0], 2),
], ids=["datum-slopes", "state-slopes"])
def test_a_block_at_rest_is_no_fixed_point_while_its_window_moves(start, slope, still):
    # Reaction at m = 1, n = 2: a step stays put whenever its two inputs are
    # equal, so a block can repeat its start row while its window does not.
    start, slope = np.array(start)[:, None], np.array(slope)[:, None]
    datum = SampledDatum(np.array([-0.5, 0.0]), np.stack([start, start]), np.stack([slope, slope]))
    config = SimConfig(model=ModelKind.REACTION, tau=0.5, lam=1.0, n=2, d=1, datum=datum,
                       steps_per_delay=1, t_end=3.0, weights=make_uniform(2))
    states = assert_matches_reference(config).states
    assert np.array_equal(states[still], states[still - 1])
    assert not np.array_equal(states[still + 1], states[still])


@pytest.mark.parametrize("make", [harness.transmission_instance, harness.reaction_instance])
def test_theorem_instance_matches_reference(make):
    # Seed 0's states freeze from step 3,578 of 11,079 (transmission) and
    # 8,440 of 22,157 (reaction): most of each horizon is the filled tail.
    assert_matches_reference(make(0))
