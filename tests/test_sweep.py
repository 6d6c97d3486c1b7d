"""Stability-grid sweeps and boundary bisection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nddc.core import Classification, ModelKind
from nddc.diagnostics import RATE_TOL, TOL_HIGH, TOL_LOW
from nddc.integrator import run
from nddc.models import theorem_reaction_condition
from nddc.sweep import (
    EXTRAPOLATED,
    SweepSettings,
    boundary_bisect,
    cell_config,
    grid_sweep,
)


def sequential_bisect(settings, lam, tau_low, tau_high, iterations):
    """Step-by-step bisection: (tau*, the midpoints' first runs, the 2m reruns)."""
    runs, reruns = [], []

    def converged(tau):
        # A cell left Inconclusive counts as the diverged side. For a model in
        # EXTRAPOLATED, a cell decided by its rate r(m) runs again at 2m and
        # is judged by 2 r(2m) - r(m), unless the horizon rules decide that run.
        runs.append(run(cell_config(settings, lam, tau)))
        coarse = runs[-1].evidence.rate
        if settings.model in EXTRAPOLATED and math.isfinite(coarse):
            fine = replace(settings, steps_per_delay=2 * settings.steps_per_delay)
            reruns.append(run(cell_config(fine, lam, tau)))
            if math.isfinite(reruns[-1].evidence.rate):
                return 2.0 * reruns[-1].evidence.rate - coarse < -RATE_TOL
            return reruns[-1].classification is Classification.CONVERGED
        return runs[-1].classification is Classification.CONVERGED

    if not tau_low < tau_high:
        raise ValueError("need tau_low < tau_high")
    if not converged(tau_low):
        raise ValueError(f"tau_low = {tau_low} does not classify as Converged")
    if converged(tau_high):
        raise ValueError(f"tau_high = {tau_high} does not classify as Diverged")
    lo, hi = float(tau_low), float(tau_high)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if converged(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), runs[2:], reruns


class TestGridSweep:
    def test_zero_delay_row_converges(self):
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION)
        grid = grid_sweep(settings, lam_values=[0.0, 1.0, 2.0], tau_values=[0.0])
        assert np.all(grid.raster == Classification.CONVERGED.value)

    def test_sufficient_condition_cells_converge(self):
        # every reaction cell inside 2 (1 + lam) tau < 1 must classify Converged
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION)
        lam_values = np.linspace(0.0, 3.0, 7)
        tau_values = np.linspace(0.0, 0.45, 10)
        grid = grid_sweep(settings, lam_values, tau_values)
        for i, tau in enumerate(tau_values):
            for j, lam in enumerate(lam_values):
                if theorem_reaction_condition(lam, tau):
                    assert grid.raster[i, j] == Classification.CONVERGED.value, (lam, tau)

    def test_transmission_grid_matches_exact_criterion(self):
        # Converged iff lam * tau < 1, up to one cell of boundary blur.
        settings = SweepSettings(model=ModelKind.TWO_AGENT_TRANSMISSION,
                                 steps_per_delay=32, t_end=120.0)
        lam_values = np.array([0.5, 1.0, 2.0, 4.0])
        tau_values = np.linspace(0.1, 1.2, 12)
        grid = grid_sweep(settings, lam_values, tau_values)
        blur = tau_values[1] - tau_values[0]
        for i, tau in enumerate(tau_values):
            for j, lam in enumerate(lam_values):
                got = grid.raster[i, j]
                if lam * tau < 1 - blur * lam:
                    assert got == Classification.CONVERGED.value, (lam, tau, got)
                elif lam * tau > 1 + blur * lam:
                    assert got == Classification.DIVERGED.value, (lam, tau, got)

    def test_parallel_matches_serial_bit_for_bit(self):
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, t_end=60.0)
        lam_values = np.linspace(0.0, 1.0, 4)
        tau_values = np.linspace(0.1, 0.9, 4)
        serial = grid_sweep(settings, lam_values, tau_values, workers=1)
        parallel = grid_sweep(settings, lam_values, tau_values, workers=3)
        assert np.array_equal(serial.raster, parallel.raster)
        assert np.array_equal(serial.final_dx, parallel.final_dx)
        ok = np.isnan(serial.trailing_ratio) & np.isnan(parallel.trailing_ratio)
        ok |= serial.trailing_ratio == parallel.trailing_ratio
        assert np.all(ok)

    @pytest.mark.parametrize("model", [ModelKind.TWO_AGENT_REACTION,
                                       ModelKind.TWO_AGENT_TRANSMISSION])
    def test_rows_match_per_cell_runs(self, model):
        # A tau row runs as one batch of lambda lanes; each cell must equal
        # the run of its own configuration.
        settings = SweepSettings(model=model, steps_per_delay=8, t_end=30.0)
        lam_values = np.array([0.0, 0.4, 1.5, 3.0, 8.0])
        tau_values = np.array([0.0, 0.15, 0.4, 0.75, 1.0])
        grid = grid_sweep(settings, lam_values, tau_values, workers=1)
        for i, tau in enumerate(tau_values):
            for j, lam in enumerate(lam_values):
                traj = run(cell_config(settings, lam, tau),
                           tol_low=settings.tol_low, tol_high=settings.tol_high)
                assert grid.raster[i, j] == traj.classification.value, (lam, tau)
                assert grid.final_dx[i, j] == traj.evidence.final_dx
                assert np.array_equal(grid.trailing_ratio[i, j],
                                      traj.evidence.trailing_ratio, equal_nan=True)
        assert {"converged", "diverged"} <= set(grid.raster.ravel())

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
    def test_bad_thread_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("NDDC_THREADS", value)
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, t_end=10.0)
        with pytest.raises(ValueError, match="NDDC_THREADS"):
            grid_sweep(settings, [0.0], [0.1])

    @pytest.mark.parametrize("workers", [0, -2, 1.5])
    def test_bad_worker_count_rejected(self, workers):
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, t_end=10.0)
        with pytest.raises(ValueError, match="workers"):
            grid_sweep(settings, [0.0], [0.1], workers=workers)

    @pytest.mark.parametrize("lam_values,tau_values", [([], [0.1]), ([0.0], []), ([], [])])
    def test_empty_axis_rejected(self, lam_values, tau_values):
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, t_end=10.0)
        with pytest.raises(ValueError, match="at least one lambda and one tau"):
            grid_sweep(settings, lam_values, tau_values, workers=1)

    def test_boundary_bracketed(self):
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, t_end=200.0)
        lam_values = np.array([0.0])
        tau_values = np.linspace(0.5, 1.1, 13)
        grid = grid_sweep(settings, lam_values, tau_values)
        boundary = grid.boundary[0]
        assert not math.isnan(boundary)
        below = tau_values[tau_values < boundary]
        above = tau_values[tau_values > boundary]
        i_below = np.searchsorted(tau_values, below[-1])
        i_above = np.searchsorted(tau_values, above[0])
        assert grid.raster[i_below, 0] == Classification.CONVERGED.value
        assert grid.raster[i_above, 0] in (Classification.DIVERGED.value,
                                           Classification.INCONCLUSIVE.value)
        assert any(grid.raster[i, 0] == Classification.DIVERGED.value
                   for i in range(i_above, len(tau_values)))

    def test_rejects_matrix_models(self):
        with pytest.raises(ValueError):
            SweepSettings(model=ModelKind.TRANSMISSION)
        # A model name is kept as the ModelKind it was judged as.
        assert SweepSettings(model="two-agent-reaction").model is ModelKind.TWO_AGENT_REACTION

    @pytest.mark.parametrize("steps", [0, -3, 2.5, True])
    def test_rejects_bad_steps_per_delay(self, steps):
        with pytest.raises(ValueError, match="steps_per_delay"):
            SweepSettings(model=ModelKind.TWO_AGENT_REACTION, steps_per_delay=steps)

    def test_integral_steps_per_delay_becomes_int(self):
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, steps_per_delay=16.0)
        assert settings.steps_per_delay == 16 and isinstance(settings.steps_per_delay, int)

    def test_fixed_datum_and_tolerances(self):
        # The classifier's thresholds and the unit gap are constants, not settings.
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION)
        assert (settings.tol_low, settings.tol_high) == (TOL_LOW, TOL_HIGH)
        assert cell_config(settings, 0.0, 0.5).datum.values.tolist() == [[1.0]]
        for name in ("tol_low", "tol_high", "datum_value"):
            with pytest.raises(TypeError):
                SweepSettings(model=ModelKind.TWO_AGENT_REACTION, **{name: 1.0})
        with pytest.raises(AttributeError):
            settings.tol_low = 1e-6


class TestBoundaryBisect:
    def test_invalid_bracket_rejected(self):
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, t_end=100.0)
        with pytest.raises(ValueError):
            boundary_bisect(settings, lam=0.0, tau_low=1.0, tau_high=1.2)
        with pytest.raises(ValueError):
            boundary_bisect(settings, lam=0.0, tau_low=0.5, tau_high=0.3)

    @pytest.mark.parametrize("model,lam,tau_low,tau_high", [
        (ModelKind.TWO_AGENT_REACTION, 0.0, 0.6, 0.95),
        (ModelKind.TWO_AGENT_REACTION, 0.25, 0.6, 1.1),
        (ModelKind.TWO_AGENT_REACTION, 0.0, 0.0, 0.95),
        (ModelKind.TWO_AGENT_TRANSMISSION, 1.0, 0.5, 1.6),
        (ModelKind.TWO_AGENT_TRANSMISSION, 2.0, 0.25, 0.8),
    ])
    @pytest.mark.parametrize("iterations", [0, 1, 7])
    def test_batched_rounds_match_sequential_bisection(self, model, lam, tau_low,
                                                       tau_high, iterations):
        # Rounds run the midpoints the next steps could visit as one batch; the
        # threshold must be the same double as a step-by-step bisection.
        settings = SweepSettings(model=model, steps_per_delay=8, t_end=60.0)
        want, midpoints, reruns = sequential_bisect(settings, lam, tau_low, tau_high,
                                                    iterations)
        assert boundary_bisect(settings, lam, tau_low, tau_high, iterations) == want
        if iterations == 7:
            # Near the threshold the horizon rules leave a cell undecided, and
            # its fitted decay rate decides it; a reaction cell so decided is
            # judged by its rates extrapolated from m and 2m.
            assert any(traj.classification is not Classification.INCONCLUSIVE
                       and traj.evidence.final_dx >= TOL_LOW * traj.evidence.initial_dx
                       and math.isfinite(traj.evidence.rate) for traj in midpoints)
            assert bool(reruns) == (model in EXTRAPOLATED)

    @pytest.mark.parametrize("tau_low,tau_high", [
        (0.5, 0.3), (0.7, 0.7), (float("nan"), 0.9), (-0.1, 0.9),
        (1.0, 1.2), (0.1, 0.3), (0.9, 0.95),
    ])
    def test_invalid_brackets_raise_sequential_errors(self, tau_low, tau_high):
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, steps_per_delay=8,
                                 t_end=60.0)
        with pytest.raises(ValueError) as want:
            sequential_bisect(settings, 0.0, tau_low, tau_high, 4)
        with pytest.raises(ValueError) as got:
            boundary_bisect(settings, 0.0, tau_low, tau_high, 4)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("iterations", [-1, 2.5, "3", True])
    def test_bad_iteration_count_rejected(self, iterations):
        # -1 used to return the bracket midpoint and 2.5 a bare TypeError.
        settings = SweepSettings(model=ModelKind.TWO_AGENT_REACTION, steps_per_delay=8,
                                 t_end=60.0)
        with pytest.raises(ValueError, match="iterations must be"):
            boundary_bisect(settings, 0.0, 0.6, 0.95, iterations)

    def test_transmission_boundary_monotone(self):
        taus = {}
        for lam in (1.0, 2.0):
            settings = SweepSettings(model=ModelKind.TWO_AGENT_TRANSMISSION,
                                     steps_per_delay=32, t_end=200.0 / lam)
            taus[lam] = boundary_bisect(settings, lam, 0.5 / lam, 1.6 / lam,
                                        iterations=12)
        assert taus[2.0] < taus[1.0]
        assert abs(taus[1.0] * 1.0 - 1.0) < 0.1
        assert abs(taus[2.0] * 2.0 - 1.0) < 0.1
