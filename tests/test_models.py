"""Two-agent reductions and the closed-form stability conditions."""

import math

import numpy as np
import pytest

from nddc.core import (
    Classification,
    ConstantDatum,
    MeshAlignmentError,
    ModelKind,
    SampledDatum,
    SimConfig,
)
from nddc.integrator import classify_lanes, run
from nddc.models import (
    CRITICAL_TAU_NO_ANTICIPATION,
    analytic_overlays,
    spectral_radius,
    theorem_reaction_condition,
    theorem_transmission_condition,
)
from nddc.presets import figure_preset
from nddc.sweep import SweepSettings, cell_config


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
                             derivatives=np.zeros((2, 1, 1)))
        with pytest.raises(MeshAlignmentError):
            SimConfig(model=ModelKind.TWO_AGENT_TRANSMISSION, tau=0.2, lam=0.0, datum=short,
                      n=1, d=1, steps_per_delay=4, t_end=1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_aborts(self):
        # datum derivatives near float max overflow the anticipation term
        table = SampledDatum(times=np.arange(-4, 1) * 0.01, states=np.zeros((5, 1, 1)),
                             derivatives=np.full((5, 1, 1), 1.7e308))
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
    def test_gap_matches_two_agent_run(self, scalar_model, matrix_model):
        from nddc.weights import make_uniform

        tau, lam, m, t_end = 0.3, 0.8, 16, 6.0
        scalar_cfg = SimConfig(model=scalar_model, tau=tau, lam=lam,
                               datum=ConstantDatum([[1.0]]), n=1, d=1,
                               steps_per_delay=m, t_end=t_end)
        matrix_cfg = SimConfig(model=matrix_model, tau=tau, lam=lam,
                               datum=ConstantDatum([[1.0], [0.0]]), n=2, d=1,
                               steps_per_delay=m, t_end=t_end,
                               weights=make_uniform(2))
        scalar = run(scalar_cfg)
        matrix = run(matrix_cfg)
        gap = matrix.states[:, 0, 0] - matrix.states[:, 1, 0]
        np.testing.assert_allclose(scalar.states[:, 0, 0], gap, rtol=0, atol=1e-12)


class TestConditions:
    def test_reaction_sufficient(self):
        # The two-agent sufficient condition 2 (1 + lam) tau < 1 is the theorem's.
        assert theorem_reaction_condition(0.0, 0.4)
        assert not theorem_reaction_condition(1.0, 0.3)
        assert not theorem_reaction_condition(0.25, 0.85)

    def test_theorem_conditions(self):
        assert theorem_transmission_condition(2.0, 0.5)  # equality admitted
        assert theorem_transmission_condition(0.0, 123.0)
        assert not theorem_transmission_condition(1.0, 1.25)
        assert theorem_reaction_condition(1.0, 0.2)
        assert not theorem_reaction_condition(0.0, 0.5)  # strict inequality


def _below_critical_delay(lam, tau):
    # x' = -2 x(t - tau) is stable iff 2 tau < pi/2; the curve is its boundary.
    return 2 * tau <= math.pi / 2


#: Each overlay curve, by model and label, and the predicate it is the boundary of.
OVERLAY_PREDICATES = [
    (ModelKind.TWO_AGENT_TRANSMISSION, "two-agent-boundary", theorem_transmission_condition),
    (ModelKind.TRANSMISSION, "consensus-guarantee", theorem_transmission_condition),
    (ModelKind.TWO_AGENT_REACTION, "sufficient-condition", theorem_reaction_condition),
    (ModelKind.TWO_AGENT_REACTION, "no-anticipation-critical", _below_critical_delay),
    (ModelKind.REACTION, "sufficient-condition", theorem_reaction_condition),
]


class TestOverlays:
    def test_reaction_curves(self):
        curves = {c.label: c for c in analytic_overlays(ModelKind.TWO_AGENT_REACTION,
                                                        [0.0, 1.0])}
        suff = curves["sufficient-condition"]
        np.testing.assert_allclose(suff.tau, [0.5, 0.25])
        critical = curves["no-anticipation-critical"]
        assert CRITICAL_TAU_NO_ANTICIPATION == math.pi / 4
        np.testing.assert_allclose(critical.tau, CRITICAL_TAU_NO_ANTICIPATION)

    def test_transmission_curve(self):
        curves = analytic_overlays(ModelKind.TWO_AGENT_TRANSMISSION, [0.0, 0.5, 2.0])
        assert curves[0].tau[0] == np.inf
        np.testing.assert_allclose(curves[0].tau[1:], [2.0, 0.5])

    def test_theorem_curves_for_matrix_models(self):
        trans = analytic_overlays(ModelKind.TRANSMISSION, [2.0])
        assert trans[0].tau[0] == pytest.approx(0.5)
        react = analytic_overlays(ModelKind.REACTION, [1.0])
        assert [c.label for c in react] == ["sufficient-condition"]
        assert react[0].tau[0] == pytest.approx(0.25)

    @pytest.mark.parametrize("model,label,predicate", OVERLAY_PREDICATES)
    def test_curve_is_its_predicates_boundary(self, model, label, predicate):
        # Just below the curve the condition holds, just above it fails.
        lam_values = np.concatenate([np.linspace(0.01, 5.0, 200), [1e-6, 0.25, 1.0, 100.0]])
        curve, = [c for c in analytic_overlays(model, lam_values) if c.label == label]
        assert np.array_equal(curve.lam, lam_values)
        for lam, tau in zip(lam_values.tolist(), curve.tau.tolist()):
            assert predicate(lam, tau * (1 - 1e-12)), (lam, tau)
            assert not predicate(lam, tau * (1 + 1e-12)), (lam, tau)


def _spectral_rate(settings, lam, tau):
    m = settings.steps_per_delay
    return math.log(spectral_radius(settings.model, tau, lam, m)) / (tau / m)


def _check_against_oracle(settings, lam_values, tau, rel):
    # Every verdict of the row's cells agrees with the sign of log(rho), and
    # every fitted rate is within ``rel`` or 5e-4 of log(rho)/dt. Returns the
    # number of cells the fitted rate decided.
    by_rate = 0
    cells = classify_lanes([cell_config(settings, lam, tau) for lam in lam_values])
    for lam, (label, evidence) in zip(lam_values, cells):
        want = _spectral_rate(settings, lam, tau)
        if label is not Classification.INCONCLUSIVE:
            assert (label is Classification.CONVERGED) == (want < 0), (lam, tau, label, want)
        if math.isfinite(evidence.rate):
            assert abs(evidence.rate - want) <= max(rel * abs(want), 5e-4), (lam, tau, want)
            by_rate += label is not Classification.INCONCLUSIVE
    return by_rate


class TestSpectralOracle:
    def test_no_anticipation_threshold_at_32_steps(self):
        # The m = 32 scheme is stable up to tau = 0.79778, above pi/4.
        model = ModelKind.TWO_AGENT_REACTION
        assert spectral_radius(model, 0.797, 0.0, 32) < 1.0 < spectral_radius(model, 0.799, 0.0, 32)

    @pytest.mark.parametrize("m", [32, 64, 128])
    def test_transmission_edge_is_lambda_tau_one(self, m):
        # At every m, so a finer rerun cannot move a transmission bisection.
        model = ModelKind.TWO_AGENT_TRANSMISSION
        for lam in (0.5, 2.0):
            assert spectral_radius(model, 0.999 / lam, lam, m) < 1.0
            assert spectral_radius(model, 1.001 / lam, lam, m) > 1.0

    @pytest.mark.parametrize("model,tau", [(ModelKind.TRANSMISSION, 0.5),
                                           (ModelKind.TWO_AGENT_REACTION, 0.0)])
    def test_rejects_n_agent_models_and_zero_delay(self, model, tau):
        with pytest.raises(ValueError, match="gap models at tau > 0"):
            spectral_radius(model, tau, 0.5, 32)

    def test_fig3_verdicts_and_rates_match_the_scheme(self):
        job = figure_preset("fig3").sweep
        by_rate = sum(_check_against_oracle(job.settings, job.lam_values.tolist(), float(tau), 0.1)
                      for tau in job.tau_values if tau > 0)
        # The 40 cells the horizon rules leave undecided.
        assert by_rate == 40

    @pytest.mark.parametrize("lam,taus", [(0.0, (0.78, 0.795, 0.8, 0.81)),
                                          (0.25, (0.9, 0.905, 0.91, 0.92))])
    def test_reaction_bisection_cells_match_the_scheme(self, lam, taus):
        settings = SweepSettings(ModelKind.TWO_AGENT_REACTION, 32, 300.0)
        assert sum(_check_against_oracle(settings, [lam], tau, 0.1) for tau in taus) == 4

    @pytest.mark.parametrize("lam,decided_by_rate", [(0.5, 4), (1.0, 4), (2.0, 4), (4.0, 2)])
    def test_transmission_bisection_cells_match_the_scheme(self, lam, decided_by_rate):
        # Near lam*tau = 1 the largest roots lie near the Nyquist frequency, and
        # the unit-gap datum mostly excites the slowest chain mode, whose rate
        # differs from log(rho)/dt by up to a quarter (worst seen: 26 % at
        # lam = 1, lam*tau = 1.005) within the bisection's horizon. At lam = 4
        # the two cells below lam*tau = 1 fall under TOL_LOW within theirs.
        settings = SweepSettings(ModelKind.TWO_AGENT_TRANSMISSION, 64, max(128.0, 400.0 / lam))
        assert sum(_check_against_oracle(settings, [lam], lam_tau / lam, 0.3)
                   for lam_tau in (0.99, 0.995, 1.005, 1.01)) == decided_by_rate
