"""Classify the (lambda, tau) plane by simulation and extract stability boundaries."""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Classification, ConstantDatum, ModelKind, SimConfig, integer
# ``run`` stays importable from this module for callers that time single cells.
from .integrator import aligned_t_end, classify_lanes, default_horizon, run  # noqa: F401
from .models import analytic_overlays

#: Bisection steps resolved per batched round (2**k - 1 lanes), from
#: measurement. A reaction-gap block costs mostly NumPy dispatch, so 15 lanes
#: cost little more than one; the transmission gap loops per lane on Python
#: floats, so every extra lane costs nearly a full run, and every speculative
#: lane that comes back Inconclusive adds a full retry. Over the criterion 1
#: and 4 landmarks with verdict-only lanes, the reaction bisections took a
#: median 1.80 s at k = 4 against 2.04 s at k = 3 (10 alternating runs; k = 2
#: and 5 were no faster), and the transmission ones 3.30 s at k = 1 against
#: 3.57 s at k = 2 (8 runs).
BISECT_DEPTH = {ModelKind.TWO_AGENT_REACTION: 4, ModelKind.TWO_AGENT_TRANSMISSION: 1}


@dataclass(frozen=True)
class SweepSettings:
    """Per-cell run recipe for grid sweeps and boundary bisection.

    ``t_end`` of None means ``default_horizon(tau)``; every horizon is
    rounded up to the next mesh multiple. Only the two-agent reductions are
    swept (the N-agent models have no free scalar gap to classify against a
    constant datum).
    """

    model: ModelKind
    steps_per_delay: int = 32
    t_end: Optional[float] = None
    datum_value: float = 1.0
    tol_low: float = 1e-3
    tol_high: float = 1e3

    def __post_init__(self) -> None:
        if not ModelKind(self.model).is_scalar:
            raise ValueError("sweeps cover the two-agent reduction models only")
        object.__setattr__(self, "steps_per_delay",
                           integer("steps_per_delay", self.steps_per_delay, minimum=1))
        # A NaN tol_high never fires, tol_low >= tol_high lets a grown cell
        # read Converged, and a zero datum starts every cell at consensus.
        if not (math.isfinite(self.tol_low) and math.isfinite(self.tol_high)
                and 0 < self.tol_low < self.tol_high):
            raise ValueError("tolerances must be finite with 0 < tol_low < tol_high, "
                             f"got tol_low={self.tol_low}, tol_high={self.tol_high}")
        if not math.isfinite(self.datum_value) or self.datum_value == 0:
            raise ValueError(f"datum_value must be finite and nonzero, got {self.datum_value}")

    def horizon(self, tau: float) -> float:
        """The run horizon at ``tau`` before mesh alignment."""
        return self.t_end if self.t_end is not None else default_horizon(tau)


def cell_config(settings: SweepSettings, lam: float, tau: float,
                steps_per_delay: Optional[int] = None,
                t_end: Optional[float] = None) -> SimConfig:
    m = steps_per_delay if steps_per_delay is not None else settings.steps_per_delay
    target = t_end if t_end is not None else settings.horizon(tau)
    return SimConfig(
        model=settings.model,
        tau=tau,
        lam=lam,
        datum=ConstantDatum([[settings.datum_value]]),
        n=1,
        d=1,
        steps_per_delay=m,
        t_end=aligned_t_end(tau, m, target),
    )


def _eval_row(args) -> list[tuple[str, float, float]]:
    # One tau row of a grid: every lambda is a lane of one batched run.
    settings, lam_values, tau = args
    verdicts = classify_lanes([cell_config(settings, float(lam), tau) for lam in lam_values],
                              tol_low=settings.tol_low, tol_high=settings.tol_high)
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
    # Converged or Diverged for each tau, the first runs as one batch of lanes.
    # Inconclusive cells get one retry at doubled resolution and horizon, all
    # retries as a second batch, then count as the diverged side
    # (conservative for the stable region).
    tols = dict(tol_low=settings.tol_low, tol_high=settings.tol_high)
    labels = [label for label, _ in
              classify_lanes([cell_config(settings, lam, tau) for tau in taus], **tols)]
    retry = [i for i, label in enumerate(labels) if label is Classification.INCONCLUSIVE]
    configs = [cell_config(settings, lam, taus[i], steps_per_delay=2 * settings.steps_per_delay,
                           t_end=2.0 * settings.horizon(taus[i])) for i in retry]
    for i, (label, _) in zip(retry, classify_lanes(configs, **tols)):
        converged = label is Classification.CONVERGED
        labels[i] = Classification.CONVERGED if converged else Classification.DIVERGED
    return labels


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
