"""Integrator tests: meshes, datum seeding, block stepping, full runs, refinement."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nddc.core import (
    DIVERGENCE_GUARD,
    Classification,
    ConstantDatum,
    LinearDatum,
    MeshAlignmentError,
    ModelKind,
    NonFiniteStateError,
    SampledDatum,
    SimConfig,
    WeightMatrix,
    aligned_t_end,
)
from nddc.integrator import Mesh, refine_oracle, run
from nddc.weights import make_random_row_stochastic, make_random_symmetric_bistochastic, make_uniform
from test_kernel_reference import reference_run

# Step-halving cascade limit for the transmission gap at t = 1 (tau = 0.25,
# lambda = 0, constant datum 1), frozen once the levels agreed to 1e-6.
GAP_AT_T1_REFERENCE = 0.053967995447


def _gap_config(model=ModelKind.TWO_AGENT_TRANSMISSION, tau=0.25, lam=0.0,
                m=32, t_end=5.0, value=1.0, datum=None):
    if datum is None:
        datum = ConstantDatum([[value]])
    return SimConfig(model=model, tau=tau, lam=lam, datum=datum,
                     n=1, d=1, steps_per_delay=m, t_end=t_end)


class TestMesh:
    def test_exact_multiples(self):
        mesh = Mesh.build(tau=0.25, steps_per_delay=64, t_end=25.0)
        assert mesh.total_steps == 6400
        assert mesh.step_size == pytest.approx(0.25 / 64)

    def test_misaligned_horizon_rejected(self):
        with pytest.raises(MeshAlignmentError):
            Mesh.build(tau=0.3, steps_per_delay=32, t_end=50.0)

    def test_zero_delay_steps_per_unit_time(self):
        mesh = Mesh.build(tau=0.0, steps_per_delay=32, t_end=50.0)
        assert mesh.step_size == pytest.approx(1.0 / 32)
        assert mesh.total_steps == 1600

    def test_aligned_t_end_is_mesh_multiple(self):
        for tau in (0.3, 0.85, 0.123):
            t_end = aligned_t_end(tau, 32, 100.0)
            assert t_end >= 100.0 - 1e-9
            Mesh.build(tau, 32, t_end)  # must not raise

    @pytest.mark.parametrize("t_target", [math.inf, -math.inf, math.nan, 0.0, -1.0, True, "abc",
                                          pytest.param(10**400, id="int-past-float")])
    def test_aligned_t_end_rejects_bad_target(self, t_target):
        with pytest.raises(ValueError, match="t_end must be finite and positive"):
            aligned_t_end(0.85, 32, t_target)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_aligned_t_end_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            aligned_t_end(tau, 32, 50.0)


class TestInitHistory:
    """The datum seeds nodes -m..0, which the first block reads as delayed inputs."""

    def test_constant_datum(self):
        # Every step of the first delay reads the constant datum with zero slope.
        wm = make_uniform(2)
        traj = run(SimConfig(model=ModelKind.REACTION, tau=0.4, lam=2.0,
                             datum=ConstantDatum([[1.0], [3.0]]), n=2, d=1,
                             steps_per_delay=4, t_end=0.4, weights=wm))
        assert np.all(traj.states[0] == [[1.0], [3.0]])
        assert np.all(traj.derivatives[0] == 0.0)
        # Then the backward difference, bit for bit, which for this scheme is
        # the right-hand side sum_j w_ij (x0_j - x0_i) up to rounding.
        dt = traj.config.mesh.step_size
        assert np.array_equal(traj.derivatives[1:], (traj.states[1:] - traj.states[:-1]) / dt)
        expected = np.broadcast_to([[wm.weights[0, 1] * 2.0], [wm.weights[1, 0] * -2.0]],
                                   traj.derivatives[1:].shape)
        np.testing.assert_allclose(traj.derivatives[1:], expected, rtol=1e-12)

    def test_linear_datum(self):
        # Nodes -1 and 0 of x0(t) = t with slope 1 enter the first two steps:
        # x(1) = 0 - 2 dt (-0.25 + lam*tau), x(2) = x(1) - 2 dt (0 + lam*tau).
        traj = run(SimConfig(model=ModelKind.TWO_AGENT_REACTION, tau=0.5, lam=1.0,
                             datum=LinearDatum(start=[[0.0]], slope=[[1.0]]), n=1, d=1,
                             steps_per_delay=2, t_end=0.5))
        assert list(traj.states[:, 0, 0]) == [0.0, -0.125, -0.375]
        assert list(traj.derivatives[:, 0, 0]) == [1.0, -0.5, -1.0]

    @pytest.mark.parametrize("model", [ModelKind.TWO_AGENT_TRANSMISSION, ModelKind.TRANSMISSION])
    def test_node_zero_derivative_is_the_slope_at_zero(self, model):
        # A table's slopes differ row by row; node 0 records the one at t = 0.
        n = 1 if model.is_scalar else 2
        slopes = np.arange(1.0, 3 * n + 1).reshape(3, n, 1)
        datum = SampledDatum(times=np.array([-0.5, -0.25, 0.0]), states=np.zeros((3, n, 1)),
                             derivatives=slopes)
        traj = run(SimConfig(model=model, tau=0.5, lam=1.0, datum=datum, n=n, d=1,
                             steps_per_delay=2, t_end=1.0,
                             weights=None if model.is_scalar else make_uniform(2)))
        assert np.array_equal(traj.derivatives[0], slopes[-1])

    def test_misaligned_table_rejected(self):
        table = SampledDatum(times=np.array([-0.4, -0.15, 0.0]),
                             states=np.zeros((3, 1, 1)), derivatives=np.zeros((3, 1, 1)))
        with pytest.raises(MeshAlignmentError):
            _gap_config(tau=0.4, m=2, t_end=2.0, datum=table)


class TestSteppers:
    def test_transmission_consensus_is_exact_fixed_point(self):
        traj = run(SimConfig(model=ModelKind.TRANSMISSION, tau=0.3, lam=1.9,
                             datum=ConstantDatum(np.full((5, 3), 0.7)), n=5, d=3,
                             steps_per_delay=8, t_end=3.0,
                             weights=make_random_row_stochastic(5, 0.1, seed=4)))
        assert traj.n_steps == 80
        assert np.all(traj.states == 0.7)

    def test_reaction_consensus_is_exact_fixed_point(self):
        traj = run(SimConfig(model=ModelKind.REACTION, tau=0.3, lam=0.4,
                             datum=ConstantDatum(np.full((4, 3), -1.3)), n=4, d=3,
                             steps_per_delay=8, t_end=3.0,
                             weights=make_random_symmetric_bistochastic(4, seed=2)))
        assert traj.n_steps == 80
        assert np.all(traj.states == -1.3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_aborts(self):
        # Datum derivatives near float max overflow the anticipation term.
        mesh = Mesh.build(tau=0.04, steps_per_delay=4, t_end=1.0)
        table = SampledDatum(times=mesh.datum_times, states=np.zeros((5, 2, 1)),
                             derivatives=np.full((5, 2, 1), 1.7e308))
        traj = run(SimConfig(model=ModelKind.TRANSMISSION, tau=0.04, lam=1e3, datum=table,
                             n=2, d=1, steps_per_delay=4, t_end=1.0, weights=make_uniform(2)))
        assert traj.classification is Classification.DIVERGED
        assert traj.evidence.abort_step == 1
        assert traj.n_steps == 0

    def test_transmission_requires_row_stochastic(self):
        wm = make_random_symmetric_bistochastic(4, seed=0)  # full rows sum to 1, off-diag < 1
        for tau in (0.3, 0.0):
            with pytest.raises(ValueError):
                run(SimConfig(model=ModelKind.TRANSMISSION, tau=tau, lam=0.0,
                              datum=ConstantDatum(np.zeros((4, 1))), n=4, d=1,
                              steps_per_delay=4, t_end=3.0, weights=wm))

    def test_transmission_ignores_the_diagonal(self):
        # The transmission model reads the off-diagonal weights only, so a
        # diagonal added to W changes no bit of the run.
        wm = make_random_row_stochastic(4, 0.1, seed=2)
        datum = ConstantDatum(np.arange(8.0).reshape(4, 2))
        runs = [run(SimConfig(model=ModelKind.TRANSMISSION, tau=0.3, lam=1.5, datum=datum,
                              n=4, d=2, steps_per_delay=8, t_end=6.0, weights=weights))
                for weights in (wm, WeightMatrix(wm.weights + np.diag([0.5, 0.0, 2.0, 1.0])))]
        assert runs[0].states.tobytes() == runs[1].states.tobytes()


class TestRun:
    def test_reaction_conserves_mean_exactly(self):
        rng = np.random.default_rng(12)
        wm = make_random_symmetric_bistochastic(6, seed=12)
        cfg = SimConfig(model=ModelKind.REACTION, tau=0.2, lam=0.5,
                        datum=ConstantDatum(rng.uniform(-1, 1, size=(6, 2))),
                        n=6, d=2, steps_per_delay=16, t_end=40.0, weights=wm)
        traj = run(cfg)
        drifts = np.linalg.norm(traj.means - traj.means[0], axis=1)
        assert drifts.max() <= 1e-10
        per_step = np.abs(np.diff(np.linalg.norm(traj.means, axis=1)))
        assert per_step.max() <= 1e-12

    def test_reaction_two_agents_unstable_above_critical_delay(self):
        # 2 * tau = 1.7 exceeds pi/2, so the gap amplitude must keep growing.
        cfg = SimConfig(model=ModelKind.REACTION, tau=0.85, lam=0.0,
                        datum=ConstantDatum([[1.0], [0.0]]), n=2, d=1,
                        steps_per_delay=128,
                        t_end=aligned_t_end(0.85, 128, 60.0),
                        weights=make_uniform(2))
        traj = run(cfg)
        early = traj.diameters[(traj.times > 5) & (traj.times <= 30)].max()
        late = traj.diameters[traj.times > 30].max()
        assert late > early

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        base_values = rng.uniform(-1, 1, size=(4, 2))
        shift = np.array([10.0, -7.0])
        wm = make_random_row_stochastic(4, 0.1, seed=3)
        kwargs = dict(model=ModelKind.TRANSMISSION, tau=0.25, lam=0.8, n=4, d=2,
                      steps_per_delay=16, t_end=10.0, weights=wm)
        plain = run(SimConfig(datum=ConstantDatum(base_values), **kwargs))
        moved = run(SimConfig(datum=ConstantDatum(base_values + shift), **kwargs))
        np.testing.assert_allclose(moved.states, plain.states + shift, atol=1e-10)
        np.testing.assert_allclose(moved.diameters, plain.diameters, atol=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 0.7, 3.0])
    @pytest.mark.parametrize("model", [ModelKind.TWO_AGENT_REACTION,
                                       ModelKind.TWO_AGENT_TRANSMISSION])
    def test_recorded_derivatives_are_the_ones_read(self, model, lam):
        # Past the first delay every step reads the anticipated input
        # z = x(k) + lam*(dt*m)*D(k), k = n+1-m, with D(k) the recorded
        # derivative, in the scheme's own operations.
        m = 8
        traj = run(_gap_config(model=model, tau=0.4, lam=lam, m=m, t_end=8.0,
                               datum=LinearDatum([[1.0]], [[-0.6]])))
        x, derivs = traj.states[:, 0, 0], traj.derivatives[:, 0, 0]
        dt = traj.config.mesh.step_size
        assert traj.n_steps > 4 * m  # lambda = 3 diverges, but only after many delays
        for n in range(m, traj.n_steps):
            k = n + 1 - m
            z = x[k] + lam * (dt * m) * derivs[k]
            if model is ModelKind.TWO_AGENT_REACTION:
                assert x[n + 1] == x[n] + (-2.0 * dt) * z
            else:
                assert x[n + 1] == (x[n] - dt * z) / (1.0 + dt)

    def test_divergence_guard_aborts(self):
        traj = run(_gap_config(tau=0.25, lam=8.0, m=32, t_end=200.0))
        assert traj.classification is Classification.DIVERGED
        assert traj.evidence.aborted
        assert traj.times[-1] < 200.0

    def test_consensus_datum_converges_every_model(self):
        wm = make_uniform(3)
        for model in ModelKind:
            if model.is_scalar:
                cfg = _gap_config(model=model, value=0.0, t_end=2.0, m=8, tau=0.25)
            else:
                cfg = SimConfig(model=model, tau=0.25, lam=1.0,
                                datum=ConstantDatum(np.full((3, 1), 2.0)),
                                n=3, d=1, steps_per_delay=8, t_end=2.0, weights=wm)
            traj = run(cfg)
            assert traj.classification is Classification.CONVERGED
            assert np.all(traj.diameters == 0.0)

    def test_zero_delay_runs_decay(self):
        wm = make_uniform(3)
        datum = ConstantDatum(np.array([[0.0], [1.0], [2.0]]))
        for model in (ModelKind.TRANSMISSION, ModelKind.REACTION):
            cfg = SimConfig(model=model, tau=0.0, lam=3.0, datum=datum,
                            n=3, d=1, steps_per_delay=32, t_end=50.0, weights=wm)
            traj = run(cfg)
            assert traj.classification is Classification.CONVERGED
        for model in (ModelKind.TWO_AGENT_TRANSMISSION, ModelKind.TWO_AGENT_REACTION):
            traj = run(_gap_config(model=model, tau=0.0, lam=3.0, m=32, t_end=50.0))
            assert traj.classification is Classification.CONVERGED

    def test_non_finite_datum_rejected(self):
        # The datum is judged when the config is built, not when it runs.
        with pytest.raises(NonFiniteStateError):
            replace(_gap_config(), datum=ConstantDatum([[np.nan]]))

    def test_recorded_diameters_match_brute_force(self):
        rng = np.random.default_rng(9)
        wm = make_random_row_stochastic(5, 0.1, seed=9)
        cfg = SimConfig(model=ModelKind.TRANSMISSION, tau=0.25, lam=0.5,
                        datum=ConstantDatum(rng.uniform(-1, 1, size=(5, 2))),
                        n=5, d=2, steps_per_delay=8, t_end=5.0, weights=wm)
        traj = run(cfg)
        for k in range(0, len(traj.times), 17):
            values = traj.states[k]
            best = max(
                float(np.linalg.norm(values[i] - values[j]))
                for i in range(5) for j in range(i + 1, 5)
            )
            assert traj.diameters[k] == pytest.approx(best, rel=1e-14, abs=1e-300)


def _spread_config(d, scale):
    # Two agents at consensus at t = 0, so the guard is DIVERGENCE_GUARD itself,
    # with histories +-scale * t. Symmetric weights keep them at +-y in every
    # coordinate, so each node's spread norm is 2 y sqrt(d) and grows with scale.
    slope = np.array([[scale] * d, [-scale] * d])
    return SimConfig(model=ModelKind.REACTION, tau=0.5, lam=0.0, n=2, d=d,
                     datum=LinearDatum(np.zeros((2, d)), slope), steps_per_delay=4,
                     t_end=1.0, weights=make_uniform(2))


def _guard_flip(d):
    # Adjacent doubles lo < hi: the run at scale lo stays within the guard and
    # the run at hi aborts (bisection on the ordered bit patterns).
    lo, hi = (int(bits) for bits in np.array([1.0, 1e12]).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference_run(_spread_config(d, float(np.int64(mid).view(np.float64))))[5] is None:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("d", [1, 2, 3])
def test_guard_at_spread_norm_within_ulps(d):
    flip = _guard_flip(d)
    sizes = []
    for offset in range(-3, 5):
        config = _spread_config(d, float(np.int64(flip + offset).view(np.float64)))
        states, _, _, _, _, abort_step = reference_run(config)
        traj = run(config)
        assert np.array_equal(traj.states, states)
        assert traj.evidence.abort_step == abort_step
        assert (abort_step is None) == (offset <= 0)
        spread = states.max(axis=1) - states.min(axis=1)
        sizes.append(np.sqrt(np.einsum("tk,tk->t", spread, spread)).max())
    # The largest spread norm runs within a few ulps of the guard on both sides.
    ulp = np.spacing(DIVERGENCE_GUARD)
    assert DIVERGENCE_GUARD - 8 * ulp <= sizes[0] <= sizes[3] <= DIVERGENCE_GUARD
    assert DIVERGENCE_GUARD < sizes[4] <= sizes[-1] <= DIVERGENCE_GUARD + 8 * ulp


class TestFrozenOracle:
    def test_gap_value_at_t1(self):
        # First-order error at m = 2048 is about 4.2e-5 against the cascade
        # limit; the tolerance carries a 2x margin.
        traj = run(_gap_config(m=2048, t_end=1.0))
        assert abs(traj.states[-1, 0, 0] - GAP_AT_T1_REFERENCE) <= 8.5e-5

    def test_monotone_decay_no_sign_change(self):
        traj = run(_gap_config(m=64, t_end=5.0))
        x = traj.states[:, 0, 0]
        assert np.all(x > 0.0)
        assert np.all(np.diff(x) < 0.0)


class TestRefineOracle:
    def test_first_order_ratios(self):
        result = refine_oracle(_gap_config(tau=0.25, lam=1.0, m=32, t_end=5.0), levels=4)
        assert all(1.7 <= r <= 2.3 for r in result.ratios)

    def test_consensus_datum_gives_zero_differences(self):
        result = refine_oracle(_gap_config(value=0.0, m=8, t_end=2.0), levels=3)
        assert all(d == 0.0 for d in result.end_state_diffs)

    def test_rejects_divergent_config(self):
        with pytest.raises(ValueError):
            refine_oracle(_gap_config(tau=0.25, lam=8.0, m=32, t_end=200.0), levels=2)

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            refine_oracle(_gap_config(), levels=1)
