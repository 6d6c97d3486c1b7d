"""Exact equivalence of run() with a per-step transcription of the scheme.

The reference advances one node at a time over the full history, evaluating
every update in the same floating-point order as the scheme's definition:
the anticipation gain is lam * (dt * m), the transmission step is
x + dt/(1+dt) * sum_j w_ij (y_j - x_i), and the transmission gap step is
(x - dt*y) / (1 + dt). run() must reproduce it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nddc.core import (
    DIVERGENCE_GUARD,
    DerivativeMode,
    LinearDatum,
    ModelKind,
    SimConfig,
    diameter_series,
)
from nddc.diagnostics import classify_series
from nddc.integrator import Mesh, run
from nddc.weights import make_random_row_stochastic, make_random_symmetric_bistochastic


def reference_run(config):
    """(states, derivatives, diameters, pairs, classification, abort_step)."""
    mesh = Mesh.build(config.tau, config.steps_per_delay, config.t_end)
    dt, m, model = mesh.step_size, mesh.steps_per_delay, config.model
    states, derivs = (list(a) for a in config.datum.on_mesh(mesh.datum_times))
    lag = len(states) - 1  # list index of node k is k + lag
    x0 = states[-1]
    if model.is_scalar:
        guard = DIVERGENCE_GUARD * max(1.0, abs(float(x0[0, 0])))
    else:
        guard = DIVERGENCE_GUARD * max(1.0, float(diameter_series(x0[None])[0][0]))
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
            rhs = -2.0 * new
        elif config.tau == 0:
            new = x + dt * (propagate @ pairwise(x, x))
            rhs = pairwise(new, new)
        else:
            k = n + 1 - m
            if k <= 0 or config.derivative_mode is DerivativeMode.STORED_RHS:
                slope = derivs[k + lag]
            else:
                slope = (states[k + lag] - states[k + lag - 1]) / dt
            y = states[k + lag] + (config.lam * (dt * m)) * slope
            if model is ModelKind.TRANSMISSION:
                new = x + dt / (1.0 + dt) * pairwise(y, x)
                rhs = pairwise(y, new)
            elif model is ModelKind.REACTION:
                rhs = pairwise(y, y)
                new = x + dt * rhs
            elif model is ModelKind.TWO_AGENT_TRANSMISSION:
                new = (x - dt * y) / (1.0 + dt)
                rhs = -y - new
            else:
                new = x - 2.0 * dt * y
                rhs = -2.0 * y
        if not np.all(np.isfinite(new)):
            abort_step = n + 1
            break
        states.append(new)
        derivs.append(rhs)
        spread = new.max(axis=0) - new.min(axis=0)
        size = abs(float(new[0, 0])) if model.is_scalar else float(np.sqrt(np.dot(spread, spread)))
        if size > guard:
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
    start_scale = draw(st.sampled_from([1.0, 1e3, 1e300]))
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
        weights=weights, derivative_mode=draw(st.sampled_from(list(DerivativeMode))),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(configs())
def test_run_matches_per_step_reference(config):
    states, derivs, diameters, pairs, label, abort_step = reference_run(config)
    traj = run(config)
    assert np.array_equal(traj.states, states, equal_nan=True)
    assert np.array_equal(traj.derivatives, derivs, equal_nan=True)
    assert np.array_equal(traj.diameters, diameters, equal_nan=True)
    assert np.array_equal(traj.argmax_pairs, pairs)
    assert traj.classification is label
    assert traj.evidence.abort_step == abort_step
