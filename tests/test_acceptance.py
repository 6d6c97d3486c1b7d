"""Acceptance gate: every top-level criterion at its stated tolerance.

Each test covers one numbered criterion and prints a one-line verdict; the
heavyweight random suites run once per session and are shared between the
decay, Lyapunov, and a-priori checks.
"""

import math

import numpy as np
import pytest

from nddc import harness
from nddc.core import Classification, ConstantDatum, ModelKind, SimConfig, aligned_t_end
from nddc.diagnostics import (
    apriori_bounds,
    geom_bound_check,
    lyap_reaction,
    lyap_transmission,
    reaction_decay_coefficient,
    track_ij,
    transmission_decay_coefficient,
)
from nddc.integrator import refine_oracle, run
from nddc.presets import figure_preset
from nddc.sweep import SweepSettings, boundary_bisect, grid_sweep
from nddc.weights import gamma, make_random_row_stochastic, make_uniform

SUITE_SIZE = 50


def _verdict(criterion: str, detail: str) -> None:
    print(f"CRITERION {criterion}: PASS ({detail})")


def _sign_changes(values: np.ndarray) -> int:
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1]))


@pytest.fixture(scope="session")
def transmission_suite():
    """One pass over suite (6a): decay, Lyapunov, and a-priori records."""
    records = []
    for result in harness.iter_transmission_suite(count=SUITE_SIZE):
        traj = result.trajectory
        report = track_ij(traj)
        series = (
            lyap_transmission(traj) if report.stabilization_time is not None else None
        )
        bounds = apriori_bounds(traj)
        records.append({
            "seed": result.seed,
            "decay": result.decay_ratio,
            "stabilized": report.stabilization_time is not None,
            "violations": series.violations if series is not None else None,
            "worst_margin": series.worst_margin if series is not None else None,
            "apriori": bounds,
        })
    return records


@pytest.fixture(scope="session")
def reaction_suite():
    """One pass over suite (6b): decay, mean drift, and Lyapunov records."""
    records = []
    for result in harness.iter_reaction_suite(count=SUITE_SIZE):
        series = lyap_reaction(result.trajectory)
        records.append({
            "seed": result.seed,
            "decay": result.decay_ratio,
            "drift": result.mean_drift,
            "violations": series.violations,
            "worst_margin": series.worst_margin,
        })
    return records


def test_criterion_1_transmission_boundary():
    """Two-agent transmission threshold: |lam * tau* - 1| <= 0.05 at m = 64."""
    errors = {}
    taus = []
    for lam in (0.5, 1.0, 2.0, 4.0):
        settings = SweepSettings(
            model=ModelKind.TWO_AGENT_TRANSMISSION,
            steps_per_delay=64,
            t_end=max(128.0, 400.0 / lam),
        )
        tau_star = boundary_bisect(settings, lam, 0.5 / lam, 1.6 / lam, iterations=20)
        errors[lam] = abs(lam * tau_star - 1.0)
        taus.append(tau_star)
        assert errors[lam] <= 0.05, f"lambda={lam}: lam*tau*={lam * tau_star}"
    assert taus == sorted(taus, reverse=True), "tau*(lambda) must decrease"
    _verdict("1", "worst |lam*tau*-1| = " + format(max(errors.values()), ".4f"))


def test_criterion_2_fig1_reproduction():
    """tau = 0.25 family: monotone decay, slower decay, neutral edge, divergence."""
    runs = {item.config.lam: run(item.config) for item in figure_preset("fig1").runs}

    for lam in (0.0, 1.0):
        traj = runs[lam]
        assert traj.classification is Classification.CONVERGED, f"lambda={lam}"
        assert _sign_changes(traj.states[:, 0, 0]) == 0, f"lambda={lam} oscillated"

    at_t5 = {lam: abs(runs[lam].states[np.argmin(np.abs(runs[lam].times - 5.0)), 0, 0])
             for lam in (0.0, 1.0)}
    assert at_t5[1.0] > at_t5[0.0], "anticipation must slow the decay"
    assert math.log(at_t5[1.0]) > math.log(at_t5[0.0])

    edge = runs[4.0]
    assert edge.classification is Classification.INCONCLUSIVE
    assert 0.85 <= edge.evidence.trailing_ratio <= 1.1, edge.evidence.trailing_ratio

    assert runs[4.5].classification is Classification.DIVERGED
    _verdict("2", f"edge trailing ratio = {edge.evidence.trailing_ratio:.4f}")


def test_criterion_3_fig2_reproduction():
    """tau = 1.25 family: oscillatory decay, damped amplitude, divergence at lam = 1."""
    runs = {item.config.lam: run(item.config) for item in figure_preset("fig2").runs}

    baseline = runs[0.0]
    assert baseline.classification is Classification.CONVERGED
    assert _sign_changes(baseline.states[:, 0, 0]) >= 2, "lam = 0 should oscillate"

    damped = runs[0.2]
    assert damped.classification is Classification.CONVERGED
    peak = {lam: np.abs(runs[lam].states[runs[lam].times > 2.0, 0, 0]).max()
            for lam in (0.0, 0.2)}
    assert peak[0.2] < peak[0.0], "small anticipation must damp the oscillation"

    assert runs[1.0].classification is Classification.DIVERGED
    _verdict("3", f"peak ratio lam0.2/lam0 = {peak[0.2] / peak[0.0]:.3f}")


def test_criterion_4_stabilization_window():
    """Reaction window at tau = 0.85 plus the numeric boundary curve landmarks."""
    runs = {item.config.lam: run(item.config) for item in figure_preset("fig4").runs}
    assert runs[0.0].classification is Classification.DIVERGED
    assert runs[0.25].classification is Classification.CONVERGED
    assert runs[0.45].classification is Classification.DIVERGED

    settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION,
                             steps_per_delay=32, t_end=300.0)
    tau_no_anticipation = boundary_bisect(settings, 0.0, 0.6, 0.95, iterations=20)
    err = abs(tau_no_anticipation - math.pi / 4.0)
    assert err <= 0.02, f"tau*(0) = {tau_no_anticipation}"

    apex = max(
        boundary_bisect(settings, lam, 0.6, 1.1, iterations=20)
        for lam in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
    )
    assert 0.85 <= apex <= 0.95, f"boundary apex = {apex}"
    _verdict("4", f"tau*(0) err = {err:.4f}, apex = {apex:.3f}")


def test_criterion_5_no_anticipation_regimes():
    """x' = -2 x~ regimes: plain decay, oscillatory decay, unbounded oscillation."""

    def gap_run(tau, m, t_target):
        cfg = SimConfig(model=ModelKind.TWO_AGENT_REACTION, tau=tau, lam=0.0,
                        datum=ConstantDatum([[1.0]]), n=1, d=1, steps_per_delay=m,
                        t_end=aligned_t_end(tau, m, t_target))
        return run(cfg)

    plain = gap_run(0.15, 32, 50.0)
    assert plain.classification is Classification.CONVERGED
    tail = plain.states[plain.times > 0.3, 0, 0]
    assert _sign_changes(tail) <= 1, "2*tau < 1/e must not oscillate"

    oscillatory = gap_run(0.5, 32, 50.0)
    assert oscillatory.classification is Classification.CONVERGED
    changes = _sign_changes(oscillatory.states[oscillatory.times > 1.0, 0, 0])
    assert changes >= 5, f"only {changes} sign changes"

    unstable = gap_run(0.8, 64, 800.0)
    assert unstable.classification is Classification.DIVERGED
    _verdict("5", f"oscillatory case sign changes = {changes}")


def test_criterion_6a_transmission_theorem(transmission_suite):
    """lam*tau <= 1 with random row-stochastic weights forces decay below 1e-3."""
    assert len(transmission_suite) == SUITE_SIZE
    failures = [r for r in transmission_suite if r["decay"] >= harness.DECAY_THRESHOLD]
    assert not failures, f"decay failures: {[r['seed'] for r in failures]}"
    worst = max(r["decay"] for r in transmission_suite)
    _verdict("6a", f"{SUITE_SIZE} instances, worst decay = {worst:.2e}")


def test_criterion_6b_reaction_theorem(reaction_suite):
    """(1+lam)*tau < 1/2 forces decay below 1e-3 and exact mean conservation."""
    assert len(reaction_suite) == SUITE_SIZE
    decay_failures = [r for r in reaction_suite if r["decay"] >= harness.DECAY_THRESHOLD]
    drift_failures = [r for r in reaction_suite
                      if r["drift"] > harness.MEAN_DRIFT_THRESHOLD]
    assert not decay_failures, f"decay failures: {[r['seed'] for r in decay_failures]}"
    assert not drift_failures, f"drift failures: {[r['seed'] for r in drift_failures]}"
    worst_decay = max(r["decay"] for r in reaction_suite)
    worst_drift = max(r["drift"] for r in reaction_suite)
    _verdict("6b", f"worst decay = {worst_decay:.2e}, worst drift = {worst_drift:.2e}")


def test_criterion_7_lyapunov_monotonicity(transmission_suite, reaction_suite):
    """Zero functional-decay violations on both suites; coefficients as stated."""
    unstabilized = [r["seed"] for r in transmission_suite if not r["stabilized"]]
    assert not unstabilized, f"argmax pair never settled: {unstabilized}"
    trans_violations = sum(r["violations"] for r in transmission_suite)
    react_violations = sum(r["violations"] for r in reaction_suite)
    assert trans_violations == 0
    assert react_violations == 0

    # coded decay-rate constants match the closed forms
    assert transmission_decay_coefficient(0.5, 4.0, 0.25) == pytest.approx(0.25)
    assert transmission_decay_coefficient(0.5, 2.0, 0.5) == pytest.approx(0.25)
    assert reaction_decay_coefficient(1.0, 0.2) == pytest.approx((1 + 1) * 0.2 - 0.5)
    assert reaction_decay_coefficient(0.0, 0.25) == pytest.approx(-0.25)

    worst = max(
        max(r["worst_margin"] for r in transmission_suite),
        max(r["worst_margin"] for r in reaction_suite),
    )
    _verdict("7", f"0 violations, worst margin = {worst:.2e}")


def test_criterion_8_apriori_bounds(transmission_suite):
    """Unit-magnitude data: sup |x| <= 1 + lam*tau, derivatives <= 3 (1 + lam*tau)."""
    failures = [r["seed"] for r in transmission_suite if not r["apriori"].holds]
    assert not failures, f"bound failures: {failures}"
    datum_bounds = {r["apriori"].datum_bound for r in transmission_suite}
    assert all(abs(b - 1.0) < 1e-12 for b in datum_bounds), "suite data pin M = 1"
    worst_state = max(r["apriori"].state_ratio for r in transmission_suite)
    worst_deriv = max(r["apriori"].deriv_ratio for r in transmission_suite)
    assert worst_state <= 1.0 + 1e-9
    assert worst_deriv <= 1.0 + 1e-9
    _verdict("8", f"worst state ratio = {worst_state:.4f}, "
                  f"worst derivative ratio = {worst_deriv:.4f}")


def test_criterion_9_numerics():
    """First-order refinement ratios, geometric bound en masse, parallel determinism."""
    smooth_configs = [
        SimConfig(model=ModelKind.TWO_AGENT_TRANSMISSION, tau=0.25, lam=1.0,
                  datum=ConstantDatum([[1.0]]), n=1, d=1, steps_per_delay=32,
                  t_end=5.0),
        SimConfig(model=ModelKind.TWO_AGENT_REACTION, tau=0.15, lam=0.0,
                  datum=ConstantDatum([[1.0]]), n=1, d=1, steps_per_delay=32,
                  t_end=3.0),
        SimConfig(model=ModelKind.TRANSMISSION, tau=0.2, lam=0.5,
                  datum=ConstantDatum([[0.0], [0.5], [1.0]]), n=3, d=1,
                  steps_per_delay=32, t_end=5.0, weights=make_uniform(3)),
    ]
    all_ratios = []
    for cfg in smooth_configs:
        result = refine_oracle(cfg, levels=4)
        all_ratios.extend(result.ratios)
        assert all(1.7 <= r <= 2.3 for r in result.ratios), (cfg.model, result.ratios)

    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        wm = make_random_row_stochastic(n, float(rng.uniform(0.05, 0.95)) / (n - 1),
                                        seed=trial)
        state = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=(n, d))
        i, k = sorted(rng.choice(n, size=2, replace=False) + 1)
        check = geom_bound_check(state, wm, (int(i), int(k)))
        assert check.holds, (trial, check.lhs, check.rhs)
        assert check.lhs <= gamma(wm) * 10.0 * np.abs(state).max() + 1e-9

    settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, t_end=60.0)
    lam_values = np.linspace(0.0, 1.0, 4)
    tau_values = np.linspace(0.2, 0.8, 4)
    serial = grid_sweep(settings, lam_values, tau_values, workers=1)
    parallel = grid_sweep(settings, lam_values, tau_values, workers=2)
    assert np.array_equal(serial.raster, parallel.raster)
    assert np.array_equal(serial.final_dx, parallel.final_dx)
    same_ratio = (serial.trailing_ratio == parallel.trailing_ratio) | (
        np.isnan(serial.trailing_ratio) & np.isnan(parallel.trailing_ratio)
    )
    assert np.all(same_ratio)
    _verdict("9", f"refinement ratios within [1.7, 2.3] (min {min(all_ratios):.3f}, "
                  f"max {max(all_ratios):.3f}); 1000 geometric-bound samples hold; "
                  "parallel sweep identical to serial")
