"""Functionals along trajectories and numerical checks of their decay estimates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    MACHINE_EPS,
    Classification,
    ClassificationEvidence,
    Mesh,
    ModelKind,
    Trajectory,
    WeightMatrix,
    diameter,
)
from .models import theorem_reaction_condition, theorem_transmission_condition
from .weights import gamma

#: The thresholds of ``classify_series``, the share of a run its trailing
#: window covers, and the envelope decay rate (per unit time) past which a run
#: the horizon rules leave undecided counts as converging or diverging.
TOL_LOW = 1e-3
TOL_HIGH = 1e3
TRAILING_FRACTION = 0.2
RATE_TOL = 1e-3
#: A Lyapunov decrement may exceed its bound by LYAPUNOV_TOL_SCALE * (1 + |L(n0)|).
LYAPUNOV_TOL_SCALE = 1e-8
#: Relative rounding slack on the a-priori state and derivative bounds.
APRIORI_REL_SLACK = 1e-9


def transmission_decay_coefficient(gam: float, lam: float, tau: float) -> float:
    """Decay-rate coefficient (1 - gamma) * (1 - lam*tau*gamma) of the transmission functional."""
    return (1.0 - gam) * (1.0 - lam * tau * gam)


def transmission_integral_coefficient(gam: float, lam: float, tau: float) -> float:
    """Weight (1 + lam*tau) / (2*gamma) - lam*tau on the diameter-history integral."""
    lt = lam * tau
    return (1.0 + lt) / (2.0 * gam) - lt


def reaction_decay_coefficient(lam: float, tau: float) -> float:
    """Decay-rate coefficient (1 + lam)*tau - 1/2 of the reaction functional."""
    return (1.0 + lam) * tau - 0.5


@dataclass
class GeomBound:
    lhs: float
    rhs: float
    holds: bool


def geom_bound_check(state, weights: WeightMatrix, pair: tuple[int, int]) -> GeomBound:
    """Check |Psi^i - Psi^k| <= gamma * diameter for a 1-based agent pair, where
    Psi^i = sum_{j != i} w_ij x_j is the weighted average agent i perceives.

    This is the ergodicity-coefficient contraction bound on weighted averages
    over distinct rows; it holds for every row-stochastic matrix with strictly
    positive off-diagonal entries and every state.
    """
    if not (weights.row_stochastic and weights.positive_off_diagonal):
        raise ValueError("geometric bound needs row-stochastic, positive off-diagonal weights")
    i, k = pair
    if i == k:
        raise ValueError("pair must name two distinct agents")
    psi = weights.off_diagonal() @ np.asarray(state, dtype=float)
    lhs = float(np.linalg.norm(psi[i - 1] - psi[k - 1]))
    d_x, _ = diameter(state)
    rhs = gamma(weights) * d_x
    return GeomBound(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-12))


@dataclass
class LyapunovSeries:
    """A monitored functional along a run: values, per-step decrements, bounds.

    ``violations`` counts steps whose decrement exceeds the admissible bound by
    more than ``tolerance`` (see LYAPUNOV_TOL_SCALE); ``worst_margin`` is the
    largest observed decrement-minus-bound (negative when the inequality holds
    strictly).
    """

    times: np.ndarray
    values: np.ndarray
    decrements: np.ndarray
    bounds: np.ndarray
    tolerance: float
    violations: int
    worst_margin: float


@dataclass
class IJReport:
    """Where and when the diameter argmax pair stabilizes along a run."""

    final_pair: tuple[int, int]
    stabilization_time: Optional[float]
    last_change_time: float


def track_ij(traj: Trajectory) -> IJReport:
    """Report the last time the diameter argmax pair changed.

    The stabilization time is the last change time, or None when the pair is
    still changing within the final quarter of the run (no stabilization
    detected).
    """
    pairs = traj.argmax_pairs
    count = len(pairs)
    changed = np.any(pairs[1:] != pairs[:-1], axis=1)
    change_indices = np.nonzero(changed)[0] + 1
    if len(change_indices) == 0:
        last_change = 0
    else:
        last_change = int(change_indices[-1])
    last_change_time = float(traj.times[last_change])
    stabilization: Optional[float] = last_change_time
    if len(change_indices) and last_change >= 0.75 * (count - 1):
        stabilization = None
    return IJReport(
        final_pair=(int(pairs[-1, 0]), int(pairs[-1, 1])),
        stabilization_time=stabilization,
        last_change_time=last_change_time,
    )


def _monitor_mesh(traj: Trajectory) -> tuple[int, float, int]:
    # m, dt and the step count of a run, whose history must reach 2*tau.
    mesh = traj.config.mesh
    total = len(traj.times) - 1
    if total < 2 * mesh.steps_per_delay + 1:
        raise ValueError("history depth must reach 2*tau")
    return mesh.steps_per_delay, mesh.step_size, total


def _lyapunov_series(traj: Trajectory, nodes: np.ndarray, values: np.ndarray,
                     bounds: np.ndarray) -> LyapunovSeries:
    # The functional at ``nodes`` checked against the bounds on its decrements.
    decrements = np.diff(values)
    tolerance = LYAPUNOV_TOL_SCALE * (1.0 + abs(values[0]))
    margins = decrements - bounds
    return LyapunovSeries(
        times=traj.times[nodes],
        values=values,
        decrements=decrements,
        bounds=bounds,
        tolerance=tolerance,
        violations=int(np.sum(margins > tolerance)),
        worst_margin=float(margins.max()) if len(margins) else float("-inf"),
    )


def _windowed_sum(series: np.ndarray, width: int, ends: np.ndarray) -> np.ndarray:
    # sum_{k = end-width+1}^{end} series[k] for each end index.
    padded = np.concatenate([[0.0], np.cumsum(series)])
    return padded[ends + 1] - padded[ends + 1 - width]


def lyap_transmission(traj: Trajectory) -> LyapunovSeries:
    """Monitor the transmission Lyapunov functional along a run.

    L(n) = 1/2 |(x_I - lam*tau Psi~^I) - (x_K - lam*tau Psi~^K)|^2
           + kappa * gamma^2 * dt * sum_{k=n-m+1}^{n} d_x(k)^2,

    with kappa = (1+lam*tau)/(2*gamma) - lam*tau and Psi~ the delayed weighted
    averages. The history integral uses the right-endpoint mesh rule, matching
    the implicit scheme's evaluation point; with the scheme's backward-difference
    delayed derivative the per-step decrement then provably stays below
    -(1-gamma)(1-lam*tau*gamma) * d_x(n+1)^2 * dt up to rounding, so the check
    needs no discretization allowance. Checking starts after max(2*tau, T0),
    where T0 is the last time the argmax pair changed.
    """
    cfg = traj.config
    if cfg.model is not ModelKind.TRANSMISSION:
        raise ValueError("transmission functional applies to the N-agent transmission model")
    weights = cfg.weights
    if not weights.positive_off_diagonal:
        raise ValueError("needs row-stochastic weights with positive off-diagonals")
    if not theorem_transmission_condition(cfg.lam, cfg.tau):
        raise ValueError("functional is not sign-definite for lam*tau > 1")
    m, dt, total = _monitor_mesh(traj)

    report = track_ij(traj)
    i, k = report.final_pair[0] - 1, report.final_pair[1] - 1

    lt = cfg.lam * cfg.tau
    gam = gamma(weights)
    kappa = transmission_integral_coefficient(gam, cfg.lam, cfg.tau)
    coeff = transmission_decay_coefficient(gam, cfg.lam, cfg.tau)

    states = traj.states
    dsq = traj.diameters**2
    psi = np.einsum("ij,tjd->tid", weights.off_diagonal(), states)

    n0 = max(2 * m, int(np.ceil(report.last_change_time / dt - 1e-9)))
    if n0 >= total:
        raise ValueError("no steps left after the stabilization time")
    nodes = np.arange(n0, total + 1)

    u = (states[nodes, i] - states[nodes, k]) - lt * (psi[nodes - m, i] - psi[nodes - m, k])
    a_part = 0.5 * np.einsum("td,td->t", u, u)
    b_part = kappa * gam**2 * dt * _windowed_sum(dsq, m, nodes)
    values = a_part + b_part
    bounds = -coeff * dsq[nodes[1:]] * dt
    return _lyapunov_series(traj, nodes, values, bounds)


def _phi_and_dissimilarity(states: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Phi and the dissimilarity D = sum_ij w_ij |x_i - x_j|^2 at every node of
    # a (T, N, d) stack, from one product WX: Phi = WX - rowsum * X, and the
    # cross term sum_ij w_ij <x_i, x_j> of D is sum_i <x_i, (WX)_i>.
    ws = w @ states
    row = w.sum(axis=1)
    sq = np.einsum("tid,tid->ti", states, states)
    cross = np.einsum("tid,tid->t", states, ws)
    return (ws - row[None, :, None] * states,
            np.maximum(sq @ row + sq @ w.sum(axis=0) - 2.0 * cross, 0.0))


def lyap_reaction(traj: Trajectory) -> LyapunovSeries:
    """Monitor the reaction Lyapunov functional along a run.

    With eps = 2*lam and delta = (1+2*lam)*tau the functional's three
    coefficients collapse to closed forms: the Phi-history integral carries
    lam*tau/2 (exactly 0 at lam = 0, resolving the 0*inf limit) and the double
    integral carries 1/2. Both history integrals use right-endpoint mesh
    rules. The admissible per-step decrement splits the continuous coefficient
    (1+lam)*tau - 1/2 into (delta-1)/2 applied at D(n+1-m) plus tau/2 applied
    one node later at D(n+2-m); with the scheme's backward-difference delayed
    derivative the resulting inequality is exact up to rounding. Phi and the dissimilarity
    of every node come from one product W X over the whole trajectory.
    """
    cfg = traj.config
    if cfg.model is not ModelKind.REACTION:
        raise ValueError("reaction functional applies to the N-agent reaction model")
    weights = cfg.weights
    if not (weights.symmetric and weights.bi_stochastic):
        raise ValueError("needs symmetric bi-stochastic weights")
    if not theorem_reaction_condition(cfg.lam, cfg.tau):
        raise ValueError("functional decay requires (1+lam)*tau < 1/2")
    m, dt, total = _monitor_mesh(traj)

    lam, tau = cfg.lam, cfg.tau
    lt = lam * tau
    delta = (1.0 + 2.0 * lam) * tau
    c_phi = 0.5 * lt

    # Mean-zero gauge: symmetric weights conserve the mean, so measuring the
    # quadratic term relative to X(0) shifts the functional by a constant and
    # makes it vanish exactly on a consensus history.
    states = traj.states - traj.means[0][None, None, :]
    phi_t, d_series = _phi_and_dissimilarity(states, weights.weights)
    f_series = np.einsum("tid,tid->t", phi_t, phi_t)

    # The history depth check leaves at least one step after t = 2*tau.
    nodes = np.arange(2 * m, total + 1)

    v = states[nodes] - lt * phi_t[nodes - m]
    a_part = 0.5 * np.einsum("tid,tid->t", v, v)
    p_part = c_phi * dt * _windowed_sum(f_series, m, nodes - m)

    # Triangular window sum_{j=n+2-2m}^{n+1-m} (j - (n+1-2m)) * D[j].
    hi = nodes + 1 - m
    idx = np.arange(len(d_series), dtype=float)
    window_jd = _windowed_sum(idx * d_series, m, hi)
    q_part = 0.5 * dt * dt * (window_jd - (hi - m) * _windowed_sum(d_series, m, hi))

    values = a_part + p_part + q_part
    bounds = dt * (
        0.5 * (delta - 1.0) * d_series[nodes[1:] - m]
        + 0.5 * tau * d_series[nodes[1:] + 1 - m]
    )
    return _lyapunov_series(traj, nodes, values, bounds)


@dataclass
class AprioriBounds:
    """Uniform state / derivative bounds implied by the datum magnitude."""

    datum_bound: float
    state_ratio: float
    deriv_ratio: float
    holds: bool


def apriori_bounds(traj: Trajectory) -> AprioriBounds:
    """Check sup |x_i| <= (1+lam*tau) M and recorded |x_i'| <= 3 (1+lam*tau) M,
    each up to a factor 1 + APRIORI_REL_SLACK.

    The recorded derivatives are ``traj.derivatives``: the datum's slope at
    t = 0, then the backward differences the scheme reads. M is the largest
    agent-wise Euclidean norm of the datum's states and derivatives on
    [-tau, 0], not the guard's largest |coordinate|; each norm is taken exactly
    rescaled by a power of two. Applies to transmission runs with lam*tau <= 1.
    """
    cfg = traj.config
    if cfg.model is not ModelKind.TRANSMISSION:
        raise ValueError("a-priori bounds apply to the N-agent transmission model")
    if not theorem_transmission_condition(cfg.lam, cfg.tau):
        raise ValueError("a-priori bounds need lam*tau <= 1")
    lt = cfg.lam * cfg.tau

    def sup_norm(stack: np.ndarray) -> float:
        exp = np.frexp(np.abs(stack).max())[1]
        return float(np.ldexp(np.linalg.norm(np.ldexp(stack, -exp), axis=2).max(), exp))

    big_m = max(sup_norm(cfg.history[0]), sup_norm(cfg.history[1]))
    state_bound = (1.0 + lt) * big_m
    deriv_bound = 3.0 * (1.0 + lt) * big_m
    state_sup = sup_norm(traj.states)
    deriv_sup = sup_norm(traj.derivatives)

    def ratio(sup: float, bound: float) -> float:
        if bound == 0.0:
            return 0.0 if sup == 0.0 else float("inf")
        return sup / bound

    state_ratio = ratio(state_sup, state_bound)
    deriv_ratio = ratio(deriv_sup, deriv_bound)
    holds = state_ratio <= 1.0 + APRIORI_REL_SLACK and deriv_ratio <= 1.0 + APRIORI_REL_SLACK
    return AprioriBounds(
        datum_bound=big_m,
        state_ratio=state_ratio,
        deriv_ratio=deriv_ratio,
        holds=bool(holds),
    )


def _envelope_rate(diameters: np.ndarray, mesh: Mesh) -> float:
    # Least-squares slope of the log of the per-window peaks, over windows of
    # 4 delays ending at the last node and lying in the trailing half, per
    # unit time; NaN with fewer than 3 windows or a non-finite log.
    width = 4 * mesh.steps_per_delay
    count = len(diameters) // 2 // width
    if count < 3:
        return float("nan")
    peaks = diameters[len(diameters) - count * width:].reshape(count, width).max(axis=1)
    with np.errstate(divide="ignore"):
        logs = np.log(peaks)
    if not np.isfinite(logs).all():
        return float("nan")
    x = np.arange(count) - 0.5 * (count - 1)
    return float(x @ logs / (x @ x) / (width * mesh.step_size))


def classify_series(
    diameters: np.ndarray,
    aborted: bool = False,
    abort_step: Optional[int] = None,
    tol_low: float = TOL_LOW,
    tol_high: float = TOL_HIGH,
    mesh: Optional[Mesh] = None,
) -> tuple[Classification, ClassificationEvidence]:
    """Classify a diameter series as Converged / Diverged / Inconclusive.

    Three horizon rules decide first. Diverged: run aborted, or the peak over
    the last TRAILING_FRACTION of the series exceeds tol_high * max(1, d_x(0)).
    Converged: final diameter below tol_low * max(d_x(0), machine epsilon).
    A series they leave undecided, given the run's ``mesh``, is judged by
    the decay rate of its envelope: the log of the peak of each 4-delay
    window over the trailing half, fitted by least squares. A rate below -RATE_TOL is Converged, above +RATE_TOL
    Diverged. Anything else, including neutral oscillation on a knife edge,
    fewer than 3 windows or no mesh given, stays Inconclusive;
    ``evidence.rate`` is NaN where no fit ran.
    """
    diameters = np.asarray(diameters, dtype=float)
    count = len(diameters)
    d0 = float(diameters[0])
    final = float(diameters[-1])
    window = max(1, int(round(TRAILING_FRACTION * count)))
    trailing_peak = float(diameters[-window:].max())
    half = max(1, count // 10)
    prev_peak = float(diameters[-2 * half : -half].max()) if count >= 2 * half else float("nan")
    last_peak = float(diameters[-half:].max())
    ratio = last_peak / prev_peak if prev_peak and prev_peak > 0 else float("nan")

    evidence = ClassificationEvidence(
        initial_dx=d0,
        final_dx=final,
        trailing_peak=trailing_peak,
        trailing_ratio=ratio,
        aborted=aborted,
        abort_step=abort_step,
    )
    if aborted or not np.isfinite(final):
        return Classification.DIVERGED, evidence
    if trailing_peak > tol_high * max(1.0, d0):
        return Classification.DIVERGED, evidence
    if final < tol_low * max(d0, MACHINE_EPS):
        return Classification.CONVERGED, evidence
    if mesh is not None:
        evidence.rate = _envelope_rate(diameters, mesh)
        if evidence.rate < -RATE_TOL:
            return Classification.CONVERGED, evidence
        if evidence.rate > RATE_TOL:
            return Classification.DIVERGED, evidence
    return Classification.INCONCLUSIVE, evidence
