"""Classify the (lambda, tau) plane by simulation and extract stability boundaries."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (Classification, ConstantDatum, ModelKind, SimConfig, aligned_t_end,
                   check_horizon, integer)
from .diagnostics import RATE_TOL, TOL_HIGH, TOL_LOW
# ``run`` stays importable from this module for callers that time single cells.
from .integrator import classify_lanes, run  # noqa: F401
from .models import analytic_overlays

#: Bisection steps resolved per batched round (2**k - 1 lanes), from
#: measurement. A reaction-gap block costs mostly NumPy dispatch, so 15 lanes
#: cost little more than one; the transmission gap loops per lane on Python
#: floats, so extra lanes pay off far less. Over the criterion 1 and 4
#: landmarks (alternating runs, 2-core VM), the reaction bisections, with their
#: 2m reruns, took a median 1.09 s at k = 4 against 1.18 s at k = 3 and 1.20 s
#: at k = 5 (k = 4 faster in 10 and 11 of 12 runs); the transmission ones, one
#: run per cell, 1.04 s at k = 2 against 1.12 s at k = 1 (faster in 16 of 20
#: runs), and k = 3 was slower.
BISECT_DEPTH = {ModelKind.TWO_AGENT_REACTION: 4, ModelKind.TWO_AGENT_TRANSMISSION: 2}

#: Models whose bisection verdicts are extrapolated to dt -> 0 (see
#: ``_classify``). The reaction scheme's threshold moves by O(tau/m): rho = 1 at
#: tau = 0.79778 for lam = 0 and m = 32, at 0.79156 for m = 64, and at 0.78534
#: for their extrapolation 2 tau(2m) - tau(m), against pi/4 = 0.78540. The
#: transmission scheme's rho crosses 1 at lam*tau = 1 at every m; over the
#: criterion 1 landmarks a second run moved lam*tau* by at most 2e-5 and made
#: the transmission bisections 75 % slower.
EXTRAPOLATED = frozenset({ModelKind.TWO_AGENT_REACTION})


@dataclass(frozen=True)
class SweepSettings:
    """Per-cell run recipe for grid sweeps and boundary bisection.

    ``t_end``, finite and positive, or None for ``default_horizon(tau)``, is
    rounded up to the next mesh multiple. Only the two-agent reductions are
    swept (the N-agent models have no free scalar gap to classify against a
    constant datum). Every cell starts from the gap 1 and is classified with
    ``classify_series``'s thresholds, which ``tol_low`` and ``tol_high`` read.
    """

    model: ModelKind
    steps_per_delay: int = 32
    t_end: Optional[float] = None
    tol_low = TOL_LOW
    tol_high = TOL_HIGH

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", ModelKind(self.model))
        if not self.model.is_scalar:
            raise ValueError("sweeps cover the two-agent reduction models only")
        object.__setattr__(self, "steps_per_delay",
                           integer("steps_per_delay", self.steps_per_delay, minimum=1))
        if self.t_end is not None:
            check_horizon(self.t_end)


def cell_config(settings: SweepSettings, lam: float, tau: float) -> SimConfig:
    m = settings.steps_per_delay
    t_end = aligned_t_end(tau, m, settings.t_end) if settings.t_end is not None else None
    return SimConfig(
        model=settings.model,
        tau=tau,
        lam=lam,
        datum=ConstantDatum([[1.0]]),
        n=1,
        steps_per_delay=m,
        t_end=t_end,
    )


def _eval_row(args) -> list[tuple[str, float, float]]:
    # One tau row of a grid: every lambda is a lane of one batched run.
    settings, lam_values, tau = args
    verdicts = classify_lanes([cell_config(settings, float(lam), tau) for lam in lam_values])
    return [
        (label.value, evidence.final_dx, evidence.trailing_ratio)
        for label, evidence in verdicts
    ]


def _pool_size(workers: Optional[int]) -> int:
    if workers is not None:
        return integer("workers", workers, minimum=1)
    raw = os.environ.get("NDDC_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"NDDC_THREADS must be an integer, got {raw!r}") from None
    return integer("NDDC_THREADS", value, minimum=1)


@dataclass
class StabilityGrid:
    """Classification raster over (lambda, tau) with boundary and overlays.

    ``raster[i, j]`` classifies the cell at tau_values[i], lam_values[j].
    The boundary entry for a lambda column is the tau midpoint between the
    highest Converged cell and the first Diverged cell above it (NaN when no
    such bracket exists).
    """

    lam_values: np.ndarray
    tau_values: np.ndarray
    raster: np.ndarray
    final_dx: np.ndarray
    trailing_ratio: np.ndarray
    boundary: np.ndarray
    overlays: list = field(default_factory=list)


def _extract_boundary(tau_values: np.ndarray, column: np.ndarray) -> float:
    order = np.argsort(tau_values, kind="stable")  # up the tau axis, in any axis order
    tau_values, column = tau_values[order], column[order]
    converged = column == Classification.CONVERGED.value
    diverged = column == Classification.DIVERGED.value
    if not converged.any() or not diverged.any():
        return float("nan")
    top_converged = int(np.nonzero(converged)[0].max())
    above = np.nonzero(diverged[top_converged + 1 :])[0]
    if len(above) == 0:
        return float("nan")
    first_diverged = top_converged + 1 + int(above[0])
    return 0.5 * (tau_values[top_converged] + tau_values[first_diverged])


def grid_sweep(
    settings: SweepSettings,
    lam_values,
    tau_values,
    workers: Optional[int] = None,
) -> StabilityGrid:
    """Run one simulation per (lambda, tau) cell and classify it.

    Each tau row is one batched run whose lanes are the lambda values (see
    ``classify_lanes``: the cells are classified without building
    trajectories); rows are independent jobs merged deterministically by
    index, so parallel and serial sweeps produce identical grids. Both axes
    must be non-empty. ``workers``, or the NDDC_THREADS environment variable
    when it is not given, caps how many rows run at once; either must be an
    integer >= 1.
    """
    lam_values = np.asarray(lam_values, dtype=float)
    tau_values = np.asarray(tau_values, dtype=float)
    if not (lam_values.size and tau_values.size):
        raise ValueError("grid_sweep needs at least one lambda and one tau value")
    jobs = [(settings, lam_values, float(tau)) for tau in tau_values]
    workers = min(_pool_size(workers), len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_eval_row, jobs))
    else:
        rows = [_eval_row(job) for job in jobs]
    results = [cell for row in rows for cell in row]

    shape = (len(tau_values), len(lam_values))
    raster = np.array([r[0] for r in results], dtype=object).reshape(shape)
    final_dx = np.array([r[1] for r in results]).reshape(shape)
    ratio = np.array([r[2] for r in results]).reshape(shape)
    boundary = np.array(
        [_extract_boundary(tau_values, raster[:, j]) for j in range(len(lam_values))]
    )
    return StabilityGrid(
        lam_values=lam_values,
        tau_values=tau_values,
        raster=raster,
        final_dx=final_dx,
        trailing_ratio=ratio,
        boundary=boundary,
        overlays=analytic_overlays(settings.model, lam_values),
    )


def _classify(settings: SweepSettings, lam: float, taus) -> list[Classification]:
    # Converged or Diverged for each tau, as one batch of lanes. A cell that
    # neither the horizon rules nor its fitted decay rate decide counts as the
    # diverged side (conservative for the stable region). For a model in
    # EXTRAPOLATED, the cells that the horizon rules leave to the rate fit r(m)
    # run again at 2m over the same horizon, as a second batch, and are judged
    # by 2 r(2m) - r(m), which cancels the scheme's first-order shift of the
    # threshold; a 2m run that its horizon rules decide keeps its own verdict.
    verdicts = classify_lanes([cell_config(settings, lam, tau) for tau in taus])
    if settings.model in EXTRAPOLATED:
        fine = replace(settings, steps_per_delay=2 * settings.steps_per_delay)
        fitted = [i for i, (_, evidence) in enumerate(verdicts) if math.isfinite(evidence.rate)]
        reruns = classify_lanes([cell_config(fine, lam, taus[i]) for i in fitted])
        for i, (label, evidence) in zip(fitted, reruns):
            if math.isfinite(evidence.rate):
                rate = 2.0 * evidence.rate - verdicts[i][1].rate
                label = (Classification.CONVERGED if rate < -RATE_TOL
                         else Classification.DIVERGED)
            verdicts[i] = label, evidence
    return [Classification.CONVERGED if label is Classification.CONVERGED
            else Classification.DIVERGED for label, _ in verdicts]


def _midpoint_tree(lo: float, hi: float, depth: int) -> list[float]:
    # The 2**depth - 1 midpoints the next ``depth`` bisection steps from
    # [lo, hi] could visit, breadth first: node j's child after a Converged
    # verdict is node 2j + 1, after a Diverged one node 2j + 2.
    brackets = [(lo, hi)]
    for j in range(2 ** (depth - 1) - 1):
        a, b = brackets[j]
        mid = 0.5 * (a + b)
        brackets += [(mid, b), (a, mid)]
    return [0.5 * (a + b) for a, b in brackets]


def boundary_bisect(
    settings: SweepSettings,
    lam: float,
    tau_low: float,
    tau_high: float,
    iterations: int = 20,
) -> float:
    """Bisect in tau for the stability threshold at fixed lambda.

    Requires a valid bracket: Converged at tau_low, Diverged at tau_high
    (each judged by a full run; both ends run as one batch). Returns the
    bracket midpoint after the given number of iterations, an integer >= 0.
    For a model in EXTRAPOLATED, a cell its fitted rate decides is judged by
    the rates at m and 2m extrapolated to dt -> 0 (see ``_classify``).

    Each round batches the midpoints the next BISECT_DEPTH[model] steps could
    visit (see ``classify_lanes``, which reads only each lane's verdict and
    builds no trajectory) and then walks them with the same arithmetic as a
    step-by-step bisection, so the result is the same double.
    """
    iterations = integer("iterations", iterations, minimum=0)
    if not tau_low < tau_high:
        raise ValueError("need tau_low < tau_high")
    low, high = _classify(settings, lam, [tau_low, tau_high])
    if low is not Classification.CONVERGED:
        raise ValueError(f"tau_low = {tau_low} does not classify as Converged")
    if high is not Classification.DIVERGED:
        raise ValueError(f"tau_high = {tau_high} does not classify as Diverged")
    lo, hi = float(tau_low), float(tau_high)
    while iterations:
        depth = min(BISECT_DEPTH[settings.model], iterations)
        labels = _classify(settings, lam, _midpoint_tree(lo, hi, depth))
        node = 0
        for _ in range(depth):
            mid = 0.5 * (lo + hi)
            if labels[node] is Classification.CONVERGED:
                lo, node = mid, 2 * node + 1
            else:
                hi, node = mid, 2 * node + 2
        iterations -= depth
    return 0.5 * (lo + hi)
