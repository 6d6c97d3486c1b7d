"""Two-agent reductions and the closed-form stability conditions."""

import math

import numpy as np
import pytest

from nddc.core import (
    Classification,
    ConstantDatum,
    DerivativeMode,
    MeshAlignmentError,
    ModelKind,
    SampledDatum,
    SimConfig,
)
from nddc.integrator import run
from nddc.models import (
    RegimeLabel,
    react_no_anticipation_regime,
    react_two_agent_sufficient,
    theorem_reaction_condition,
    theorem_transmission_condition,
    trans_two_agent_stable,
)


def _gap_run(model, value=0.0, lam=0.0, m=4, tau=0.2, steps=50, datum=None):
    dt = tau / m
    return run(SimConfig(model=model, tau=tau, lam=lam,
                         datum=datum if datum is not None else ConstantDatum([[value]]),
                         n=1, d=1, steps_per_delay=m, t_end=steps * dt))


class TestScalarSteppers:
    def test_zero_is_steady_state(self):
        for model in (ModelKind.TWO_AGENT_TRANSMISSION, ModelKind.TWO_AGENT_REACTION):
            traj = _gap_run(model, value=0.0, lam=1.3)
            assert traj.n_steps == 50
            assert np.all(traj.states == 0.0)

    def test_transmission_decays_from_constant_datum(self):
        traj = _gap_run(ModelKind.TWO_AGENT_TRANSMISSION, value=1.0, m=8, tau=0.25, steps=400)
        values = traj.states[1:, 0, 0]
        assert values[-1] < values[0] < 1.0
        assert np.all(values > 0)

    def test_history_requires_full_datum(self):
        short = SampledDatum(times=[-0.05, 0.0], states=np.ones((2, 1, 1)),
                             derivs=np.zeros((2, 1, 1)))
        with pytest.raises(MeshAlignmentError):
            _gap_run(ModelKind.TWO_AGENT_TRANSMISSION, datum=short)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_aborts(self):
        # datum derivatives near float max overflow the anticipation term
        table = SampledDatum(times=np.arange(-4, 1) * 0.01, states=np.zeros((5, 1, 1)),
                             derivs=np.full((5, 1, 1), 1.7e308))
        traj = _gap_run(ModelKind.TWO_AGENT_TRANSMISSION, lam=1e3, m=4, tau=0.04, datum=table)
        assert traj.classification is Classification.DIVERGED
        assert traj.evidence.abort_step == 1
        assert traj.n_steps == 0


class TestGapEquivalence:
    """The scalar reductions match the N=2 matrix integrators step for step."""

    @pytest.mark.parametrize(
        "scalar_model,matrix_model",
        [
            (ModelKind.TWO_AGENT_TRANSMISSION, ModelKind.TRANSMISSION),
            (ModelKind.TWO_AGENT_REACTION, ModelKind.REACTION),
        ],
    )
    @pytest.mark.parametrize("mode", list(DerivativeMode))
    def test_gap_matches_two_agent_run(self, scalar_model, matrix_model, mode):
        from nddc.weights import make_uniform

        tau, lam, m, t_end = 0.3, 0.8, 16, 6.0
        scalar_cfg = SimConfig(model=scalar_model, tau=tau, lam=lam,
                               datum=ConstantDatum([[1.0]]), n=1, d=1,
                               steps_per_delay=m, t_end=t_end, derivative_mode=mode)
        matrix_cfg = SimConfig(model=matrix_model, tau=tau, lam=lam,
                               datum=ConstantDatum([[1.0], [0.0]]), n=2, d=1,
                               steps_per_delay=m, t_end=t_end,
                               weights=make_uniform(2), derivative_mode=mode)
        scalar = run(scalar_cfg)
        matrix = run(matrix_cfg)
        gap = matrix.states[:, 0, 0] - matrix.states[:, 1, 0]
        np.testing.assert_allclose(scalar.states[:, 0, 0], gap, rtol=0, atol=1e-12)


class TestConditions:
    def test_transmission_two_agent(self):
        assert not trans_two_agent_stable(4.0, 0.25)  # boundary lam*tau = 1
        assert trans_two_agent_stable(0.0, 123.0)
        assert not trans_two_agent_stable(1.0, 1.25)

    def test_reaction_sufficient(self):
        assert react_two_agent_sufficient(0.0, 0.4)
        assert not react_two_agent_sufficient(1.0, 0.3)
        assert not react_two_agent_sufficient(0.25, 0.85)

    def test_theorem_conditions(self):
        assert theorem_transmission_condition(2.0, 0.5)  # equality admitted
        assert theorem_reaction_condition(1.0, 0.2)
        assert not theorem_reaction_condition(0.0, 0.5)  # strict inequality

    def test_sufficient_equals_theorem_with_factor_two(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            lam = float(rng.uniform(0, 3))
            tau = float(rng.uniform(0, 1))
            assert react_two_agent_sufficient(lam, tau) == theorem_reaction_condition(lam, tau)


class TestNoAnticipationRegimes:
    def test_regime_labels(self):
        assert react_no_anticipation_regime(0.15).label is RegimeLabel.STABLE_NON_OSCILLATORY
        assert react_no_anticipation_regime(0.5).label is RegimeLabel.STABLE_OSCILLATORY
        assert react_no_anticipation_regime(0.8).label is RegimeLabel.UNSTABLE

    def test_boundaries(self):
        assert react_no_anticipation_regime(math.exp(-1) / 2).label is RegimeLabel.BOUNDARY
        assert react_no_anticipation_regime(math.pi / 4).label is RegimeLabel.BOUNDARY

    def test_thresholds_recorded(self):
        regime = react_no_anticipation_regime(0.3)
        assert regime.thresholds["non_oscillatory"] == pytest.approx(math.exp(-1))
        assert regime.thresholds["instability"] == pytest.approx(math.pi / 2)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            react_no_anticipation_regime(0.0)
