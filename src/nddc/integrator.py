"""Fixed-step implicit-Euler integration of the delay models, one delay block at a time."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DIVERGENCE_GUARD,
    Classification,
    ClassificationEvidence,
    Mesh,  # noqa: F401  (re-exported)
    ModelKind,
    SimConfig,
    Trajectory,
    diameter_series,
)
from .diagnostics import TOL_HIGH, TOL_LOW, classify_series

# Every guard's cap, which an infinite node exceeds however large the datum.
_FLOAT_MAX = float(np.finfo(float).max)


def _pairwise(weights: np.ndarray, targets: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    # Sum_j w_ij (targets_j - anchors_i) for (..., N, d) stacks of nodes, with
    # the subtraction done per pair so a consensus state yields exactly zero
    # in floating point.
    diff = targets[..., None, :, :] - anchors[..., :, None, :]
    return np.einsum("ij,...ijk->...ik", weights, diff)


def _block_advance(config: SimConfig, dts: np.ndarray, delayed: bool):
    """The model's update over one block: advance(slab, z, cols).

    ``slab`` is rows 0..count of the time-major history, (1 + count, L) for the
    gap models or (1 + count, 1, N, d) for an N-agent model's one lane; row 0
    holds the last accepted states, and ``advance`` writes the next ``count``
    into rows 1.. in place. ``z`` holds the anticipated inputs
    x(k) + lam*tau*D(k), k = n+1-m, shaped like rows 1.. (None when tau = 0),
    and ``cols`` picks the block's lanes, whose steps are ``dts``. Each lane
    takes the same operations as a run of its own.
    """
    model = config.model
    if model.is_scalar:
        if not delayed:
            # Both gap equations reduce to x' = -2x; implicit Euler divides by 1 + 2 dt.
            factors = 1.0 / (1.0 + 2.0 * dts)

            def advance(slab, z, cols):
                slab[1:] = factors[cols]
                np.multiply.accumulate(slab, axis=0, out=slab)
        elif model is ModelKind.TWO_AGENT_TRANSMISSION:
            # Implicit Euler of x' = -x - z: x(n+1) = (x(n) - dt z) / (1 + dt),
            # looped on Python floats lane by lane: per step that is far
            # cheaper than NumPy scalar arithmetic.
            def advance(slab, z, cols):
                columns = []
                for step, gap, inputs in zip(dts[cols].tolist(), slab[0].tolist(), z.T.tolist()):
                    column, denominator = [], 1.0 + step
                    for anticipated in inputs:
                        gap = (gap - step * anticipated) / denominator
                        column.append(gap)
                    columns.append(column)
                slab[1:].T[...] = columns
        else:
            # x' = -2 z with z known: x(n+1) = x(n) - 2 dt z.
            scales = -2.0 * dts

            def advance(slab, z, cols):
                np.multiply(scales[cols], z, out=slab[1:])
                np.add.accumulate(slab, axis=0, out=slab)
        return advance

    weights = config.weights
    w = weights.off_diagonal() if model is ModelKind.TRANSMISSION else weights.weights
    dt = dts.item(0)
    if not delayed:
        # tau = 0 degenerates both models to ODEs; implicit Euler is solved in
        # increment form so a consensus state stays an exact fixed point.
        eye = np.eye(weights.n)
        if model is ModelKind.TRANSMISSION:
            system = (1.0 + dt) * eye - dt * w
        else:
            system = eye + dt * (np.diag(w.sum(axis=1)) - w)
        propagate = np.linalg.inv(system)

        def advance(slab, z, cols):
            x = slab[0, 0]
            for s in range(1, len(slab)):
                x = slab[s, 0] = x + dt * (propagate @ _pairwise(w, x, x))
    elif model is ModelKind.TRANSMISSION:
        # (x_i(n+1) - x_i(n)) / dt = sum_j w_ij (z_j - x_i(n+1)); with
        # off-diagonal row sums equal to 1 the closed form is
        # x(n+1) = x(n) + dt/(1+dt) * sum_j w_ij (z_j - x_i(n)).
        gain = dt / (1.0 + dt)

        def advance(slab, z, cols):
            x = slab[0, 0]
            for s in range(len(z)):
                x = slab[s + 1, 0] = x + gain * _pairwise(w, z[s, 0], x)
    else:
        # x_i' = sum_j w_ij (z_j - z_i): every term is known, so the implicit
        # scheme is a direct update; diagonal weights cancel in the differences.
        def advance(slab, z, cols):
            np.multiply(dt, _pairwise(w, z, z), out=slab[1:])
            np.add.accumulate(slab, axis=0, out=slab)
    return advance


def run(config: SimConfig, tol_low: float = TOL_LOW, tol_high: float = TOL_HIGH) -> Trajectory:
    """Integrate one configuration and classify the resulting trajectory.

    The delay is exactly m steps, so the inputs of the next m steps are all
    known (the method of steps): the run advances one block of m steps at a
    time through one history array whose first rows hold the datum. The two
    gap models run as N = d = 1.

    Runs abort (Diverged) at the first node that is non-finite, which is dropped,
    or whose largest |coordinate| exceeds DIVERGENCE_GUARD * max(1, M), capped at
    the largest double, which is kept. M is the largest |coordinate| of the datum's
    states and slopes on [-tau, 0]; the a-priori bound's M (``apriori_bounds``)
    is their largest agent norm, up to sqrt(d) times larger.
    An N-agent run whose states stop changing is filled with its last row up
    to its horizon: after a full block past the datum window whose rows and
    window are bitwise equal, every later block would rewrite the same rows.
    Gap lanes are not checked, since their update changes any nonzero state.
    ``tol_low`` and ``tol_high`` are ``classify_series``'s.
    """
    (lane,) = _integrate([config], True)
    return _assemble(config, *lane, tol_low, tol_high)


def classify_lanes(configs) -> list[tuple[Classification, ClassificationEvidence]]:
    """Run every configuration in ``configs``, each of a two-agent gap model,
    as a lane of one batch and return each lane's classification and evidence.

    The lanes share the model and steps_per_delay; they may differ in tau,
    lambda, t_end and the datum, which each config samples on its own mesh.
    Each lane carries its own step dt and gain lam*(dt*m). With m shared, a
    delay block is m rows in every lane, so the lanes advance block by block in
    lockstep, each aborting on its own and leaving the batch at its own
    horizon; lanes at tau = 0 (an ODE step, no history window) run as a second
    batch. Entry i equals ``run(configs[i])``'s classification and evidence.
    No trajectory is built: each lane's |x|, its diameter series, goes straight
    to ``classify_series``. Sweeps and bisections read nothing else; an N-agent
    configuration is refused, and runs through ``run``.
    """
    configs = list(configs)
    if not all(c.model.is_scalar for c in configs):
        raise ValueError("classify_lanes takes the two-agent gap models only")
    if len({(c.model, c.steps_per_delay) for c in configs}) > 1:
        raise ValueError("lanes must share the model and steps_per_delay")
    return [
        classify_series(states, aborted=abort is not None, abort_step=abort, mesh=config.mesh)
        for config, (states, abort) in zip(configs, _integrate(configs, False))
    ]


def _integrate(configs: list, record: bool) -> list[tuple]:
    # Per lane: its states from node 0 on ((N, d) per node, or for the gap
    # models one scalar, |x| unless ``record``) and its abort step (None at
    # its horizon).
    lanes = [None] * len(configs)
    for delayed in (True, False):
        # Longest horizon first, so lanes that reach their horizon leave the
        # batch from its end.
        order = sorted((i for i, c in enumerate(configs) if (c.tau > 0) is delayed),
                       key=lambda i: -configs[i].mesh.total_steps)
        if order:
            for i, lane in zip(order, _run_batch([configs[i] for i in order], record)):
                lanes[i] = lane
    return lanes


def _run_batch(configs, record) -> list[tuple]:
    # The lanes of ``configs`` are all delayed or all at tau = 0, ordered by
    # non-increasing horizon, and hold (N, d) states; the gap models keep one
    # scalar per node.
    config = configs[0]
    datums = [c.history for c in configs]
    m = config.steps_per_delay
    lag = len(datums[0][0]) - 1
    node = () if config.model.is_scalar else (config.n, config.d)
    per_lane = (-1,) + (1,) * len(node)
    dts = np.array([c.mesh.step_size for c in configs]).reshape(per_lane)
    advance = _block_advance(config, dts, lag > 0)

    # The history is time-major: row lag + k holds mesh node k of every lane
    # and rows 0..lag the datum on [-tau, 0], so a block is one slab of rows,
    # which the update writes in place. Lane i ends at row ends[i].
    ends = [lag + c.mesh.total_steps for c in configs]
    head = (lag + 1, len(configs)) + node
    datum_states = np.stack([s for s, _ in datums], axis=1).reshape(head)
    datum_slopes = np.stack([d for _, d in datums], axis=1).reshape(head)
    states = np.empty((ends[0] + 1,) + head[1:])
    states[: lag + 1] = datum_states
    # Each lane's guard is run()'s, from its own datum. The block check holds
    # every lane's max |x| to the lowest guard (each lane's own when the lanes
    # share their datum); only a block that trips it is searched, in one pass,
    # for each lane's first node over its own guard.
    datum = np.abs(np.concatenate([datum_states, datum_slopes]))
    scales = datum.reshape(2 * lag + 2, len(configs), -1).max(axis=(0, 2)).tolist()
    guards = np.array([min(DIVERGENCE_GUARD * max(1.0, scale), _FLOAT_MAX) for scale in scales])
    guard = guards.min()
    # lam * tau on the mesh, one gain per lane.
    gains = np.array([c.lam for c in configs]).reshape(per_lane) * (dts * m)
    inputs = np.empty((m,) + head[1:])

    # Lanes in ``live`` all stand at row ``top``; a lane that aborted stops at
    # its own last row and is computed no further.
    live = list(range(len(configs)))
    tops = ends[:]
    aborts = [None] * len(configs)
    top = lag
    while live:
        # The live lanes' columns: a plain slice while they are lanes 0..k-1,
        # as they stay while lanes leave from the end.
        cols = slice(len(live)) if live[-1] == len(live) - 1 else np.array(live)
        count = min(m, ends[live[-1]] - top)
        z = None
        if lag:
            # z at the block's k = lo-lag..hi-1-lag reads x(k-1), x(k) from rows lo-1..hi-1.
            lo, hi = top + 1 - lag, top + 1 - lag + count
            window = states[lo - 1 : hi, cols]
            z = inputs[:count, : len(live)]
            # z = x(k) + gain * D(k). The delayed derivative D(k) is the
            # datum's for k <= 0, rows lo..lag (a block straddles them when a
            # lane left at its horizon inside the first delay), then the
            # backward difference (x(k) - x(k-1)) / dt.
            cut = max(lag + 1 - lo, 0)
            if cut:
                z[:cut] = datum_slopes[lo:hi, cols]
            np.subtract(window[cut + 1 :], window[cut:-1], z[cut:])
            np.divide(z[cut:], dts[cols], z[cut:])
            np.multiply(gains[cols], z, z)
            np.add(window[1:], z, z)
        rows = slice(top + 1, top + 1 + count)
        slab = states[top : rows.stop, cols]
        advance(slab, z, cols)
        new = slab[1:]
        if not isinstance(cols, slice):
            states[rows, cols] = new  # fancy indexing computed the block in a copy
        # NaN fails the comparison, so this also catches non-finite nodes.
        if not np.abs(new).max() <= guard:
            values = np.abs(new).reshape(count, len(live), -1).max(axis=2)
            # One pass over the block: each lane's first node over its own
            # guard, if any; only the lanes that tripped are visited.
            tripped = ~(values <= guards[cols])
            first = tripped.argmax(axis=0)
            hit = tripped.any(axis=0).tolist()
            for i in np.flatnonzero(hit).tolist():
                lane, f = live[i], int(first[i])
                aborts[lane] = top - lag + 1 + f
                # A node over the guard is recorded, a non-finite one is not.
                tops[lane] = top + f + bool(np.isfinite(new[f, i]).all())
            live = [lane for lane, gone in zip(live, hit) if not gone]
        if node and live and count == m and top >= 2 * lag:
            # After a full block that read no datum slopes: if rows top - lag ..
            # top + m are bitwise equal, every later block reads this window
            # and start row again and rewrites these rows, so the last row,
            # which passed the guard, fills the rest of the lane's history.
            # The block's last row against its first is the cheap test.
            bits = states[top - lag : top + m + 1].view(np.int64)
            if (bits[lag] == bits[-1]).all() and (bits == bits[-1]).all():
                states[top + m + 1 :] = states[top + m]
                count = ends[0] - top
        top += count
        # Lanes leave at their horizon, from the end: ends do not increase.
        while live and ends[live[-1]] == top:
            live.pop()

    if not record:
        # A verdict reads a gap lane's |x| only: one pass over the history in
        # place, where a pass per lane would stride across it.
        np.abs(states, out=states)
    return [(states[lag : end + 1, i], abort) for i, (end, abort) in enumerate(zip(tops, aborts))]


def _assemble(config, states, abort_step, tol_low, tol_high) -> Trajectory:
    count = len(states)
    times = np.arange(count) * config.mesh.step_size
    if states.ndim == 1:
        # A gap lane, made contiguous (it is a column of its batch): the
        # diameter is |x|, the (N, d) = (1, 1) axes come back as views, and
        # the mean over the one agent is the gap itself (numpy's mean would
        # turn -0.0 into +0.0).
        diameters = np.abs(states)
        states = np.ascontiguousarray(states)[:, None, None]
        means = states[:, 0]
        pairs = np.tile(np.array([1, 2]), (count, 1))
    else:
        diameters, pairs = diameter_series(states)
        means = states.mean(axis=1)
    # D(k) as the kernel read it: the datum's slope at node 0, then the
    # backward difference, in the same operations, so bit for bit.
    derivs = np.empty_like(states)
    derivs[0] = config.history[1][-1]
    np.subtract(states[1:], states[:-1], derivs[1:])
    np.divide(derivs[1:], config.mesh.step_size, derivs[1:])
    classification, evidence = classify_series(
        diameters, aborted=abort_step is not None, abort_step=abort_step,
        tol_low=tol_low, tol_high=tol_high, mesh=config.mesh,
    )
    return Trajectory(
        config=config,
        times=times,
        states=states,
        derivatives=derivs,
        diameters=diameters,
        argmax_pairs=pairs,
        means=means,
        classification=classification,
        evidence=evidence,
    )


@dataclass
class RefineResult:
    """Step-halving convergence study (the derived-value oracle)."""

    end_state_diffs: list
    ratios: list


def refine_oracle(config: SimConfig, levels: int = 4) -> RefineResult:
    """Run at dt, dt/2, ... and difference the final states.

    Consecutive difference ratios near 2 certify first-order convergence of
    the scheme on the given configuration. Divergent configurations are
    rejected.
    """
    if levels < 2:
        raise ValueError("need at least two refinement levels")
    finals = []
    for level in range(levels):
        cfg = replace(config, steps_per_delay=config.steps_per_delay * 2**level)
        traj = run(cfg)
        if traj.classification is Classification.DIVERGED:
            raise ValueError("refine_oracle rejects divergent configurations")
        finals.append(traj.states[-1])
    diffs = [
        float(np.linalg.norm(finals[i + 1] - finals[i])) for i in range(levels - 1)
    ]
    ratios = [
        diffs[i] / diffs[i + 1] if diffs[i + 1] > 0 else math.inf
        for i in range(levels - 2)
    ]
    return RefineResult(end_state_diffs=diffs, ratios=ratios)
